"""Neural collaborative-filtering recommender and the weighted sketch loss.

The model keeps a per-user embedding plus item-side parameters (item
embeddings and a small MLP tower).  Explicit ratings come from an MLP on
the concatenated user/item embeddings; implicit next-item scores come
from dotting a user tower output with every item embedding so one pass
yields all scores.

Every user-side function takes ``(rec, u, ...)``: the recommender and a
stack ``u`` (B, d) of independent user embeddings, one user being the
stack B = 1.  Explicit predictions concatenate the items of every user,
each with a segment index naming its user row; implicit scores form a
(B, M) matrix.  Losses are summed over the stack, so one backward pass
yields every user's gradient.

The recommender is piecewise linear in the user embedding, so everything a
path without a recorded graph needs w.r.t. u has a closed form: a numpy
kernel (:func:`user_forward`, :func:`sketch_gradient`,
:func:`user_derivatives`) gives the predictions, the sketch-loss gradient
and the per-entry derivatives without a graph.  The graph functions, on a
Tensor ``u``, serve the recorded paths, which differentiate w.r.t. the
item side or the sketch weights.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor

EXPLICIT = "explicit"
IMPLICIT = "implicit"


class RecParams:
    """Global recommender parameters: user embedding, item embeddings, MLP tower."""

    def __init__(self, n_items, dim=32, hidden=64, setting=EXPLICIT, rng=None):
        if setting not in (EXPLICIT, IMPLICIT):
            raise ValueError(f"unknown setting {setting!r}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.n_items = n_items
        self.dim = dim
        self.hidden = hidden
        self.setting = setting

        def emb(*shape):
            return Tensor(rng.uniform(-0.1, 0.1, size=shape), requires_grad=True)

        def dense(fan_in, fan_out):
            w = rng.normal(size=(fan_in, fan_out)) / np.sqrt(fan_in)
            return Tensor(w, requires_grad=True)

        self.user_emb = emb(dim)
        self.item_emb = emb(n_items, dim)
        in_dim = 2 * dim if setting == EXPLICIT else dim
        out_dim = 1 if setting == EXPLICIT else dim
        self.w1 = dense(in_dim, hidden)
        self.b1 = dc.zeros(hidden, requires_grad=True)
        self.w2 = dense(hidden, out_dim)
        self.b2 = dc.zeros(out_dim, requires_grad=True)

    def item_params(self):
        """Item-side parameters (everything but the user embedding)."""
        return [self.item_emb, self.w1, self.b1, self.w2, self.b2]

    def all_params(self):
        return [self.user_emb] + self.item_params()

    def param_names(self):
        return ["user_emb", "item_emb", "w1", "b1", "w2", "b2"]

    def state_arrays(self):
        return {name: getattr(self, name).data for name in self.param_names()}

    def load_arrays(self, arrays):
        for name in self.param_names():
            cur = getattr(self, name)
            new = np.asarray(arrays[name], dtype=np.float64)
            if new.shape != cur.shape:
                raise ValueError(f"checkpoint mismatch for {name}: {new.shape} vs {cur.shape}")
            setattr(self, name, Tensor(new, requires_grad=True))


def _check_items(rec, items):
    if items.size and (items.min() < 0 or items.max() >= rec.n_items):
        bad = items[(items < 0) | (items >= rec.n_items)][0]
        raise IndexError(f"item {bad} out of range [0, {rec.n_items})")


def _entries(a: Tensor, rows, cols) -> Tensor:
    """``a[rows, cols]`` of a matrix as one gather."""
    return dc.gather(dc.reshape(a, (a.data.size,)), rows * a.shape[1] + cols)


def predict_explicit_many(rec: RecParams, u: Tensor, items, rows) -> Tensor:
    """Predicted ratings g(items[n]; u[rows[n]]), shape (N,), in one pass:
    row ``rows[n]`` of the stack ``u`` (B, d) goes with ``items[n]`` (the
    segment index)."""
    items = np.asarray(items, dtype=np.int64)
    _check_items(rec, items)
    x = dc.concat([dc.gather(u, rows), dc.gather(rec.item_emb, items)], axis=1)
    h = dc.relu(dc.matmul(x, rec.w1) + rec.b1)
    return dc.tsum(dc.matmul(h, rec.w2) + rec.b2, axis=1)


def predict_implicit(rec: RecParams, u: Tensor) -> Tensor:
    """Unnormalized scores (B, M) over all items for the stack ``u`` (B, d);
    softmax is applied by the loss."""
    h = dc.relu(dc.matmul(u, rec.w1) + rec.b1)
    t = dc.matmul(h, rec.w2) + rec.b2
    return dc.matmul(t, dc.transpose(rec.item_emb))


def logsumexp(scores: Tensor) -> Tensor:
    """Log-sum-exp over the last axis: (B,) for (B, M)."""
    # shift by a detached max; subtracting a constant keeps gradients exact
    m = np.max(scores.data, axis=-1)
    return dc.log(dc.tsum(dc.exp(scores - m[..., None]), axis=-1)) + m


def next_item_loss(rec: RecParams, u: Tensor, items, ratings) -> Tensor:
    """Outer-objective loss on the next interaction, summed over users.

    ``items`` and ``ratings`` are (B,), one per row of ``u`` (B, d):
    squared rating error in the explicit setting, cross-entropy over all M
    item scores in the implicit one.
    """
    items = np.asarray(items, dtype=np.int64)
    if items.shape != u.shape[:1]:
        raise ValueError(f"next_item_loss: next items of shape {items.shape} "
                         f"for user rows of shape {u.shape}")
    _check_items(rec, items)
    rows = np.arange(items.size)
    if rec.setting == EXPLICIT:
        d = predict_explicit_many(rec, u, items, rows) - Tensor(ratings)
        return dc.tsum(d * d)
    scores = predict_implicit(rec, u)
    return dc.tsum(logsumexp(scores) - _entries(scores, rows, items))


def user_forward(rec: RecParams, u, items=None, rows=None):
    """The recommender's forward at plain user embeddings, without a graph.

    ``u`` is a stack (B, d).  Returns ``(out, m)``:

    * explicit: ``out`` (N,) predicts ``items[n]`` for row ``rows[n]`` of
      ``u`` (the segment index of :func:`predict_explicit_many`), and ``m``
      (N, H) holds the relu masks of the entries;
    * implicit: ``out`` (B, M) holds the scores of all M items and ``m``
      (B, H) the relu masks of the user tower.

    The operations are those of the graph functions, in the same order.
    """
    w1, b1, w2, b2 = rec.w1.data, rec.b1.data, rec.w2.data, rec.b2.data
    if rec.setting == EXPLICIT:
        items = np.asarray(items, dtype=np.int64)
        _check_items(rec, items)
        a = np.concatenate([u[rows], rec.item_emb.data[items]], axis=1) @ w1 + b1
        m = a > 0
        return ((a * m) @ w2 + b2)[:, 0], m
    a = u @ w1 + b1
    m = a > 0
    return ((a * m) @ w2 + b2) @ rec.item_emb.data.T, m


def _pull_back(rec: RecParams, g, m):
    """Gradient w.r.t. u from the gradient ``g`` w.r.t. an output of
    :func:`user_forward` with relu masks ``m``.

    Explicit: ``g`` (N,) w.r.t. the predictions gives (N, d), one row per
    entry.  Implicit: ``g`` (..., d) w.r.t. the user tower's output gives
    (..., d).  The model is piecewise linear in u, so this is exact.
    """
    w1, w2 = rec.w1.data, rec.w2.data
    if rec.setting == EXPLICIT:
        return (((g[:, None] @ w2.T) * m) @ w1.T)[:, :rec.dim]
    return ((g @ w2.T) * m) @ w1.T


def sketch_gradient(rec: RecParams, u, z, y, mask):
    """Gradient of :func:`sketch_loss` w.r.t. the user embedding ``u``, in
    closed form and without a graph.

    ``u`` is a stack (B, d), ``z``, ``y`` and ``mask`` as in
    :func:`sketch_loss`, which makes the same checks with the same errors;
    the result is (B, d).  Explicit: entry (b, j) of the support of ``z``
    adds 2 z_bj (p_bj - y_bj) dp_bj to row b.  Implicit: row b is
    J_b^T E^T (sum(z_b) softmax(s_b) - z_b), with J_b the Jacobian of the
    user tower and s_b the scores.
    """
    z = np.asarray(z.data if isinstance(z, Tensor) else z, dtype=np.float64)
    mask = np.asarray(mask)
    _check_sketch(z, mask, (u.shape[0], rec.n_items))
    if rec.setting == EXPLICIT:
        rows, items = np.nonzero(z)
        preds, m = user_forward(rec, u, items, rows)
        y = np.asarray(y, dtype=np.float64)[rows, items]
        g = _pull_back(rec, 2.0 * (z[rows, items] * (preds - y)), m)
        # the graph's own reduction (gather scatters the entries), so the
        # result is bit-identical to a backward
        out = np.zeros(u.shape)
        np.add.at(out, rows, g)
        return out
    scores, m = user_forward(rec, u)
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    g = (np.sum(z, axis=-1) / np.sum(e, axis=-1))[..., None] * e - z
    return _pull_back(rec, g @ rec.item_emb.data, m)


def user_derivatives(rec: RecParams, u, items, ratings):
    """Per-entry loss gradients w.r.t. one user embedding ``u`` (d,), and
    the Hessian of their sum, in closed form and without a graph.

    Entry j is ``(items[j], ratings[j])`` with the loss of
    :func:`next_item_loss`.  Returns ``grads`` (n, d), row j the gradient
    of entry j's loss, and ``hess`` (d, d).  The model is piecewise linear
    in u and relu's VJP multiplies by a constant mask, so the Hessian that
    autodiff's double backward yields is exactly the Gauss-Newton form:

    * explicit: grad_j = 2 (p_j - r_j) dp_j and H = 2 sum_j dp_j dp_j^T,
      with dp_j the gradient of prediction j;
    * implicit: grad_j = J (E^T p - e_j) and
      H = n J (E^T diag(p) E - E^T p p^T E) J^T, with J = (W1 * m) W2
      the Jacobian of the tower output and p the softmax of the scores.
    """
    if np.ndim(u) != 1:
        raise ValueError(f"user_derivatives: one user embedding (d,), got {np.shape(u)}")
    items = np.asarray(items, dtype=np.int64)
    _check_items(rec, items)
    preds, m = user_forward(rec, u[None], items, np.zeros(items.size, dtype=np.int64))
    if rec.setting == EXPLICIT:
        dp = _pull_back(rec, np.ones(items.size), m)
        grads = 2.0 * (preds - np.asarray(ratings, dtype=np.float64))[:, None] * dp
        return grads, 2.0 * dp.T @ dp
    emb = rec.item_emb.data
    preds, m = preds[0], m[0]
    p = np.exp(preds - preds.max())
    p /= p.sum()
    mean_emb = p @ emb
    grads = _pull_back(rec, mean_emb - emb[items], m)
    jac = (rec.w1.data * m) @ rec.w2.data
    cov = (emb.T * p) @ emb - np.outer(mean_emb, mean_emb)
    return grads, items.size * jac @ cov @ jac.T


def _check_sketch(z, mask, expected):
    """The checks of :func:`sketch_loss` on the weights and the mask."""
    if z.shape != expected:
        raise ValueError(f"sketch_loss: z has shape {z.shape}, expected {expected}")
    if mask.shape != expected:
        raise ValueError(f"sketch_loss: mask has shape {mask.shape}, expected {expected}")
    if np.any(z < -1e-12):
        raise ValueError("sketch_loss: negative sketch weights")
    if np.any((z != 0) & (mask == 0)):
        raise ValueError("sketch_loss: positive weight on a non-interacted item")


def sketch_loss(rec: RecParams, u: Tensor, z, y, mask) -> Tensor:
    """Weighted per-item loss sum over interacted items, summed over users.

    ``z`` (B, M) holds one weight row per row of ``u`` (B, d); it may be an
    array or a tensor.  ``y`` holds the rating rows and ``mask`` the binary
    interaction rows.  Weights must vanish outside the mask; entries of
    ``y`` outside the mask are never read.  In the explicit setting a
    constant ``z`` (not a graph tensor) predicts only the items it weights.
    """
    mask = np.asarray(mask)
    z_data = z.data if isinstance(z, Tensor) else np.asarray(z, dtype=np.float64)
    _check_sketch(z_data, mask, (u.shape[0], rec.n_items))
    z = dc.as_tensor(z)
    # explicit predictions cost one forward per entry, so a constant z
    # predicts only its support; a graph z keeps every interacted item,
    # where its own gradient (the loss of the entry) is wanted
    support = z_data if rec.setting == EXPLICIT and not z.requires_grad else mask
    rows, items = np.nonzero(support)
    zw = _entries(z, rows, items)
    if rec.setting == EXPLICIT:
        preds = predict_explicit_many(rec, u, items, rows)
        d = preds - Tensor(np.asarray(y, dtype=np.float64)[rows, items])
        return dc.tsum(zw * d * d)
    scores = predict_implicit(rec, u)
    lse = dc.gather(logsumexp(scores), rows)
    return dc.tsum(zw * (lse - _entries(scores, rows, items)))
