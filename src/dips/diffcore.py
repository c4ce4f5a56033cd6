"""Minimal reverse-mode autodiff engine on float64 numpy arrays.

The backward pass of every operation is itself expressed in terms of
recorded operations, so gradients returned by :func:`grad` are ordinary
graph tensors.  Differentiating a loss that was built from earlier
gradient computations (unrolled inner optimization steps) therefore
needs no special machinery beyond calling :func:`grad` again.

Every recorded op carries a vector-Jacobian product ``vjp(g, need)``: given
the gradient ``g`` of the loss w.r.t. the op's output and one bool per
parent in ``need``, it returns one entry per parent: the gradient w.r.t.
that parent where ``need`` is true, and ``None`` where it is false.  The
entries of parents not needed are never read, so an op builds no work for
them.

:func:`grad` prunes the backward pass to the requested tensors.  A node is
*live* when it is a requested tensor that requires a gradient, or when one
of its parents is live.  Only a node with a live parent runs its VJP, and
``need`` is true exactly for its live parents.  This is exact: a node that
is not live never adds into the gradient of a live one, and the live nodes
are processed in the same relative order as in the full pass, so every
returned gradient is accumulated from the same terms in the same order.
"""

from __future__ import annotations

import contextlib
import itertools
import weakref

import numpy as np


class ShapeError(ValueError):
    """Raised when an operation receives shape-incompatible inputs."""


class GraphError(RuntimeError):
    """Raised on invalid gradient requests (non-scalar loss, detached graph)."""


_grad_enabled = True
# creation stamps: a tensor's parents exist before it, so they are older
_created = itertools.count()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "_parents", "_vjp", "op_name", "ctx", "_stamp",
                 "__weakref__")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None, op_name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjp = _vjp
        self.op_name = op_name
        self.ctx = None
        self._stamp = next(_created)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor({self.data!r}, requires_grad={self.requires_grad})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return gather(self, idx)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, vjp, name):
    """Create an output tensor, recording the op when grad mode allows it."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _vjp=vjp, op_name=name)
    return Tensor(data)


def _self_vjp(out, vjp):
    """Give ``out`` the VJP ``vjp(g, need, out)`` of an op whose backward
    reads its own output.

    The backward records ``out`` itself, so the second derivative stays on
    the graph.  The closure holds ``out`` by weak reference: a strong one
    would make a reference cycle, and the graph, M-wide arrays included,
    would wait for the cyclic garbage collector instead of being freed when
    its last reference goes.  ``grad`` calls the VJP through ``out``, so the
    reference is alive whenever the VJP runs.
    """
    ref = weakref.ref(out)
    out._vjp = lambda g, need: vjp(g, need, ref())
    return out


def _check_broadcast(name, a, b):
    if a.shape == b.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{name}: incompatible shapes {a.shape} and {b.shape}") from None


def _unbroadcast(g, shape):
    """Reduce a gradient back to the shape of the broadcast input."""
    if g.shape == shape:
        return g
    if len(shape) == 0:
        return tsum(g)
    out = g
    while out.ndim > len(shape):
        out = tsum(out, axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and out.shape[ax] != 1:
            out = tsum(out, axis=ax, keepdims=True)
    return out


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("add", a, b)
    return _node(
        a.data + b.data,
        (a, b),
        lambda g, need: (_unbroadcast(g, a.shape) if need[0] else None,
                         _unbroadcast(g, b.shape) if need[1] else None),
        "add",
    )


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("sub", a, b)
    return _node(
        a.data - b.data,
        (a, b),
        lambda g, need: (_unbroadcast(g, a.shape) if need[0] else None,
                         _unbroadcast(neg(g), b.shape) if need[1] else None),
        "sub",
    )


def neg(a):
    a = as_tensor(a)
    return _node(-a.data, (a,), lambda g, need: (neg(g),), "neg")


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("mul", a, b)
    return _node(
        a.data * b.data,
        (a, b),
        lambda g, need: (_unbroadcast(mul(g, b), a.shape) if need[0] else None,
                         _unbroadcast(mul(g, a), b.shape) if need[1] else None),
        "mul",
    )


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("div", a, b)
    out = _node(
        a.data / b.data,
        (a, b),
        lambda g, need: (
            _unbroadcast(div(g, b), a.shape) if need[0] else None,
            _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape) if need[1] else None,
        ),
        "div",
    )
    return out


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim == 0 or b.ndim == 0:
        raise ShapeError(f"matmul: scalar operand, shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    data = a.data @ b.data
    if a.ndim == 2 and b.ndim == 2:
        ga, gb = lambda g: matmul(g, transpose(b)), lambda g: matmul(transpose(a), g)
    elif a.ndim == 2 and b.ndim == 1:
        ga, gb = lambda g: outer(g, b), lambda g: matmul(transpose(a), g)
    elif a.ndim == 1 and b.ndim == 2:
        ga, gb = lambda g: matmul(b, g), lambda g: outer(a, g)
    else:  # dot product
        ga, gb = lambda g: mul(g, b), lambda g: mul(g, a)
    vjp = lambda g, need: (ga(g) if need[0] else None, gb(g) if need[1] else None)
    return _node(data, (a, b), vjp, "matmul")


def outer(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ShapeError(f"outer: expected vectors, got {a.shape} and {b.shape}")
    return _node(
        np.outer(a.data, b.data),
        (a, b),
        lambda g, need: (matmul(g, b) if need[0] else None,
                         matmul(a, g) if need[1] else None),
        "outer",
    )


def transpose(a):
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected matrix, got {a.shape}")
    return _node(a.data.T, (a,), lambda g, need: (transpose(g),), "transpose")


def relu(a):
    a = as_tensor(a)
    mask = Tensor((a.data > 0).astype(np.float64))
    return _node(a.data * mask.data, (a,), lambda g, need: (mul(g, mask),), "relu")


def sigmoid(a):
    a = as_tensor(a)
    s_data = 1.0 / (1.0 + np.exp(-np.clip(a.data, -500.0, 500.0)))
    out = _node(s_data, (a,), None, "sigmoid")
    return _self_vjp(out, lambda g, need, s: (mul(g, mul(s, sub(1.0, s))),))


def log(a):
    a = as_tensor(a)
    return _node(np.log(a.data), (a,), lambda g, need: (div(g, a),), "log")


def exp(a):
    a = as_tensor(a)
    out = _node(np.exp(a.data), (a,), None, "exp")
    return _self_vjp(out, lambda g, need, e: (mul(g, e),))


def softmax(a, axis=-1):
    """Softmax along ``axis``; -inf entries yield exactly zero probability."""
    a = as_tensor(a)
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s_data = e / np.sum(e, axis=axis, keepdims=True)
    out = _node(s_data, (a,), None, "softmax")

    def vjp(g, need, s):
        inner = tsum(mul(g, s), axis=axis, keepdims=True)
        return (mul(s, sub(g, inner)),)

    return _self_vjp(out, vjp)


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    data = np.sum(a.data, axis=axis, keepdims=keepdims)

    def vjp(g, need):
        if axis is None:
            return (broadcast_to(g, a.shape),)
        gd = g
        if not keepdims:
            gd = reshape(gd, _expanded_shape(a.shape, axis))
        return (broadcast_to(gd, a.shape),)

    return _node(data, (a,), vjp, "sum")


def _expanded_shape(shape, axis):
    out = list(shape)
    out[axis if axis >= 0 else len(shape) + axis] = 1
    return tuple(out)


def reshape(a, shape):
    a = as_tensor(a)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape: cannot reshape {a.shape} to {shape}")
    return _node(a.data.reshape(shape), (a,), lambda g, need: (reshape(g, a.shape),), "reshape")


def broadcast_to(a, shape):
    a = as_tensor(a)
    try:
        data = np.broadcast_to(a.data, shape).copy()
    except ValueError as e:
        raise ShapeError(f"broadcast_to: {a.shape} to {shape}") from e

    def vjp(g, need):
        extra = g.ndim - a.ndim
        out = g
        for _ in range(extra):
            out = tsum(out, axis=0)
        for ax, n in enumerate(a.shape):
            if n == 1 and shape[ax + extra] != 1:
                out = tsum(out, axis=ax, keepdims=True)
        return (out,)

    return _node(data, (a,), vjp, "broadcast_to")


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != len(base) or any(
            other[i] != base[i] for i in range(len(base)) if i != (axis % len(base))
        ):
            raise ShapeError(
                f"concat: incompatible shapes {[t.shape for t in tensors]} on axis {axis}"
            )
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g, need):
        return tuple(
            slice_axis(g, int(offsets[i]), int(offsets[i + 1]), axis) if need[i] else None
            for i in range(len(tensors))
        )

    return _node(data, tuple(tensors), vjp, "concat")


def slice_axis(a, start, stop, axis=0):
    a = as_tensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    return _node(
        a.data[idx],
        (a,),
        lambda g, need: (pad_slice(g, a.shape, start, axis),),
        "slice",
    )


def pad_slice(g, full_shape, start, axis=0):
    g = as_tensor(g)
    data = np.zeros(full_shape)
    idx = [slice(None)] * len(full_shape)
    idx[axis] = slice(start, start + g.shape[axis])
    idx = tuple(idx)
    data[idx] = g.data
    return _node(data, (g,), lambda h, need: (slice_axis(h, start, start + g.shape[axis], axis),), "pad")


def gather(a, idx):
    """Index rows of a matrix (or entries of a vector) along axis 0."""
    a = as_tensor(a)
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":
        raise ShapeError(f"gather: non-integer index of dtype {idx.dtype}")
    if idx.size and (idx.min() < -a.shape[0] or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather: index out of range for axis-0 size {a.shape[0]}")
    return _node(a.data[idx], (a,), lambda g, need: (scatter_add(g, idx, a.shape),), "gather")


def scatter_add(g, idx, full_shape):
    g = as_tensor(g)
    data = np.zeros(full_shape)
    np.add.at(data, np.asarray(idx), g.data)
    return _node(data, (g,), lambda h, need: (gather(h, idx),), "scatter_add")


def dropout(a, rate, rng=None, mask=None):
    """Train-mode (inverted) dropout.  The mask is stored on ``out.ctx``."""
    a = as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate {rate} outside [0, 1)")
    if rate == 0.0 and mask is None:
        out = mul(a, 1.0)
        out.ctx = np.ones(a.shape)
        return out
    if mask is None:
        if rng is None:
            raise ValueError("dropout: need an rng when no mask is given")
        mask = (rng.random(a.shape) >= rate).astype(np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != a.shape:
        raise ShapeError(f"dropout: mask shape {mask.shape} != input shape {a.shape}")
    out = mul(a, Tensor(mask / (1.0 - rate)))
    out.ctx = mask
    return out


def straight_through(p, hard_value):
    """Forward the discrete ``hard_value``; backward is identity onto ``p``."""
    p = as_tensor(p)
    hard_value = np.asarray(hard_value, dtype=np.float64)
    if hard_value.shape != p.shape:
        raise ShapeError(f"straight_through: value shape {hard_value.shape} != {p.shape}")
    return _node(hard_value, (p,), lambda g, need: (g,), "straight_through")


def custom_op(data, parents, vjp, name):
    """Escape hatch for ops with bespoke forward/backward (e.g. projections).

    ``vjp(g, need)`` follows the module contract: it returns one gradient
    per parent, and :func:`grad` reads only those whose ``need`` flag is
    true.  It is called only when at least one flag is true.
    """
    return _node(data, tuple(as_tensor(p) for p in parents), vjp, name)


def _toposort(root, wanted):
    """Post-order of the nodes under ``root`` that have a live parent, and
    the set of live nodes.

    A node is live when it is in ``wanted`` or one of its parents is live.
    In post-order every parent is finished before its child, so liveness is
    decided when a node is finished, in the same pass.  A node older than
    every wanted tensor has only older ancestors, none of them wanted, so
    unless it is wanted itself it is not live and the walk does not enter
    it.  Skipping it leaves the order of the live nodes unchanged.
    """
    order = []
    live = set()
    oldest = min((w._stamp for w in wanted), default=root._stamp)
    visited = {root}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if p.requires_grad and p._stamp >= oldest and p not in visited:
                visited.add(p)
                stack.append((p, iter(p._parents)))
                break
        else:
            stack.pop()
            if not live.isdisjoint(node._parents):
                live.add(node)
                order.append(node)
            elif node in wanted:
                live.add(node)
    return order, live


def grad(loss, params, create_graph=False, allow_unused=True):
    """Gradients of a scalar loss w.r.t. each tensor in ``params``.

    With ``create_graph`` the returned gradients stay on the graph, so a
    scalar built from them can be differentiated again.  Only the ops that
    lie between ``loss`` and ``params`` run their VJPs (see the module
    docstring).  A tensor in ``params`` that does not require a gradient, or
    is not reached, gets zeros, or raises with ``allow_unused=False``.
    """
    if loss.data.ndim != 0:
        raise GraphError(f"grad: loss must be scalar, got shape {loss.shape}")
    # sets and dicts of tensors are keyed by identity: Tensor defines no __eq__
    grads = {loss: Tensor(1.0)}
    if loss.requires_grad:
        order, live = _toposort(loss, {p for p in params if p.requires_grad})
        ctx = contextlib.nullcontext() if create_graph else no_grad()
        with ctx:
            for node in reversed(order):
                g = grads.get(node)
                if g is None or node._vjp is None:
                    continue
                parents = node._parents
                if live.issuperset(parents):
                    need = (True,) * len(parents)
                else:
                    need = tuple(map(live.__contains__, parents))
                for p, needed, pg in zip(parents, need, node._vjp(g, need)):
                    if not needed:
                        continue
                    acc = grads.get(p)
                    grads[p] = pg if acc is None else add(acc, pg)
    out = []
    for p in params:
        g = grads.get(p)
        if g is None:
            if not allow_unused:
                raise GraphError("grad: a parameter is not reachable from the loss")
            g = Tensor(np.zeros(p.shape))
        out.append(g)
    return out


def zeros(shape, requires_grad=False):
    return Tensor(np.zeros(shape), requires_grad=requires_grad)
