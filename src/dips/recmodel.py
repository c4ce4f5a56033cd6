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

The recommender is piecewise linear in the user embedding, so every
derivative the training and evaluation paths need w.r.t. u has a closed
form, and those paths build no graph.  One numpy kernel gives the
predictions (:func:`user_forward`), the sketch-loss gradient
(:func:`sketch_gradient`), the inner loop (:func:`unroll`), the reverse
pass through it (:func:`unrolled_backward`: meta-gradients w.r.t. the
global parameters and gradients w.r.t. the sketch weights) and the
per-entry derivatives (:func:`user_derivatives`).  The parameters are
plain float64 arrays.  The graph functions (:func:`sketch_loss`,
:func:`next_item_loss`, ``predict_*``), on a Tensor ``u``, take them as
constants; they stay as the references the tests check the kernel
against, on a tensor view of the parameters where a test differentiates
w.r.t. them.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor

EXPLICIT = "explicit"
IMPLICIT = "implicit"


class Params:
    """Named float64 parameter arrays, held as attributes in :meth:`shapes` order.

    A subclass sets its sizes, then calls this ``__init__``, and defines
    ``shapes()``, the shape of every parameter by name, and ``draw(rng)``,
    every parameter drawn from ``rng``.  The parameters are drawn, or taken
    as given from ``arrays`` (named as in :meth:`param_names`), which draws
    nothing.
    """

    def __init__(self, rng=None, arrays=None):
        self.load_arrays(self.draw(rng) if arrays is None else arrays)

    @staticmethod
    def _dense(rng, shape):
        """A weight drawn normal over the square root of its fan-in."""
        return rng.normal(size=shape) / np.sqrt(shape[0])

    def param_names(self):
        return list(self.shapes())

    def params(self):
        return [getattr(self, name) for name in self.shapes()]

    def state_arrays(self):
        return {name: getattr(self, name) for name in self.shapes()}

    def load_arrays(self, arrays):
        """Hold ``arrays`` as the parameters, without a copy of a float64 array."""
        for name, shape in self.shapes().items():
            new = np.asarray(arrays[name], dtype=np.float64)
            if new.shape != shape:
                raise ValueError(f"checkpoint mismatch for {name}: {new.shape} vs {shape}")
            setattr(self, name, new)


class RecParams(Params):
    """Global recommender parameters: user embedding, item embeddings, MLP tower."""

    def __init__(self, n_items, dim=32, hidden=64, setting=EXPLICIT, rng=None, arrays=None):
        if setting not in (EXPLICIT, IMPLICIT):
            raise ValueError(f"unknown setting {setting!r}")
        self.n_items = n_items
        self.dim = dim
        self.hidden = hidden
        self.setting = setting
        super().__init__(rng, arrays)

    def shapes(self):
        """The shape of every parameter, by name."""
        in_dim = 2 * self.dim if self.setting == EXPLICIT else self.dim
        out_dim = 1 if self.setting == EXPLICIT else self.dim
        return {"user_emb": (self.dim,), "item_emb": (self.n_items, self.dim),
                "w1": (in_dim, self.hidden), "b1": (self.hidden,),
                "w2": (self.hidden, out_dim), "b2": (out_dim,)}

    def draw(self, rng):
        """The embeddings uniform in [-0.1, 0.1], the weights dense, the
        biases zero; drawn in the order user_emb, item_emb, w1, w2."""
        s = self.shapes()
        return {"user_emb": rng.uniform(-0.1, 0.1, size=s["user_emb"]),
                "item_emb": rng.uniform(-0.1, 0.1, size=s["item_emb"]),
                "w1": self._dense(rng, s["w1"]), "b1": np.zeros(s["b1"]),
                "w2": self._dense(rng, s["w2"]), "b2": np.zeros(s["b2"])}

    def item_params(self):
        """Item-side parameters (everything but the user embedding)."""
        return self.params()[1:]


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
    w1, b1, w2, b2 = rec.w1, rec.b1, rec.w2, rec.b2
    if rec.setting == EXPLICIT:
        items = np.asarray(items, dtype=np.int64)
        _check_items(rec, items)
        a = np.concatenate([u[rows], rec.item_emb[items]], axis=1) @ w1 + b1
        m = a > 0
        return ((a * m) @ w2 + b2)[:, 0], m
    a = u @ w1 + b1
    m = a > 0
    return ((a * m) @ w2 + b2) @ rec.item_emb.T, m


def _pull_back(rec: RecParams, g, m):
    """Gradient w.r.t. u from the gradient ``g`` w.r.t. an output of
    :func:`user_forward` with relu masks ``m``.

    Explicit: ``g`` (N,) w.r.t. the predictions gives (N, d), one row per
    entry.  Implicit: ``g`` (..., d) w.r.t. the user tower's output gives
    (..., d).  The model is piecewise linear in u, so this is exact.
    """
    w1, w2 = rec.w1, rec.w2
    if rec.setting == EXPLICIT:
        return (((g[:, None] @ w2.T) * m) @ w1.T)[:, :rec.dim]
    return ((g @ w2.T) * m) @ w1.T


class _Inner:
    """What every step of one inner loop reads, checked and gathered once.

    Makes the checks of :func:`sketch_loss` on ``z`` and ``mask`` for a
    stack of ``n_users`` rows.  Explicit: the entries ``(rows, items)`` of
    the support of ``z`` (of ``mask`` with ``every_entry``, where the
    gradient w.r.t. each weight is wanted), with their weights ``z``,
    ratings ``y`` and item embeddings ``emb``.  Implicit: the weight rows
    ``z``, their sums ``zsum`` and the ``mask``.
    """

    def __init__(self, rec, z, y, mask, n_users, every_entry=False):
        z = np.asarray(z, dtype=np.float64)
        self.mask = np.asarray(mask)
        _check_sketch(z, self.mask, (n_users, rec.n_items))
        if rec.setting == EXPLICIT:
            self.rows, self.items = np.nonzero(self.mask if every_entry else z)
            self.z = z[self.rows, self.items]
            self.y = np.asarray(y, dtype=np.float64)[self.rows, self.items]
            self.emb = rec.item_emb[self.items]
        else:
            self.z = z
            self.zsum = np.sum(z, axis=-1)


def _step(rec, inner, u):
    """Gradient of :func:`sketch_loss` w.r.t. the stack ``u`` (B, d), and the
    forward values the reverse pass of :func:`unrolled_backward` reads.

    Explicit: entry e = (b, j) adds r_e dp_e to row b, r_e = 2 z_e (p_e - y_e).
    Implicit: row b is J_b^T E^T g_b, g_b = sum(z_b) softmax(s_b) - z_b, with
    J_b the Jacobian of the user tower and s_b the scores.
    """
    w1, b1, w2, b2 = rec.w1, rec.b1, rec.w2, rec.b2
    if rec.setting == EXPLICIT:
        x = np.concatenate([u[inner.rows], inner.emb], axis=1)
        a = x @ w1 + b1
        m = a > 0
        h = a * m
        p = (h @ w2 + b2)[:, 0]
        r = 2.0 * (inner.z * (p - inner.y))
        back = (r[:, None] @ w2.T) * m
        # the graph's own reduction (gather scatters the entries), so the
        # result is bit-identical to a backward
        g = np.zeros(u.shape)
        np.add.at(g, inner.rows, (back @ w1.T)[:, :rec.dim])
        return g, (x, m, h, p, r, back)
    a = u @ w1 + b1
    m = a > 0
    h = a * m
    t = h @ w2 + b2
    s = t @ rec.item_emb.T
    e = np.exp(s - np.max(s, axis=-1, keepdims=True))
    se = np.sum(e, axis=-1)
    g = (inner.zsum / se)[..., None] * e - inner.z
    ge = g @ rec.item_emb
    back = (ge @ w2.T) * m
    return back @ w1.T, (u, m, h, t, e, se, g, ge, back)


def sketch_gradient(rec: RecParams, u, z, y, mask):
    """Gradient of :func:`sketch_loss` w.r.t. the user embedding ``u``, in
    closed form and without a graph.

    ``u`` is a stack (B, d), ``z``, ``y`` and ``mask`` as in
    :func:`sketch_loss`, which makes the same checks with the same errors;
    the result is (B, d).  It is the step every inner step of
    :func:`unroll` takes.
    """
    return _step(rec, _Inner(rec, z, y, mask, u.shape[0]), u)[0]


def unroll(rec: RecParams, z, y, mask, alpha, n_steps, keep=False, every_entry=False):
    """The inner loop: ``n_steps`` gradient-descent steps of rate ``alpha``
    on :func:`sketch_loss`, from the user embedding broadcast to one row per
    row of ``z``, ``y`` and ``mask`` (B, M).

    Returns ``(u, inner, steps)``: the adapted stack (B, d), the
    :class:`_Inner` set-up (None without a step) and, with ``keep``, each
    step's forward values, first step first.  The set-up, checks included,
    runs once per call; with no step (``n_steps`` or ``alpha`` zero) it does
    not run at all.
    """
    u = np.broadcast_to(rec.user_emb, (len(z), rec.dim)).copy()
    if n_steps == 0 or alpha == 0.0:
        return u, None, []
    inner = _Inner(rec, z, y, mask, len(z), every_entry)
    steps = []
    for _ in range(n_steps):
        g, fwd = _step(rec, inner, u)
        if keep:
            steps.append(fwd)
        u = u - alpha * g
    return u, inner, steps


def _tangent(rec: RecParams, lam, m):
    """The user tower's directional derivative along ``lam`` (n, d), rows of
    user-side directions, at relu masks ``m`` (n, H).

    Returns the first layer's masked tangent (n, H) and the output's: (n,)
    predictions explicit, (n, d) tower outputs implicit.  The tower is
    linear in u between relu kinks, so this is exact.
    """
    mc = (lam @ rec.w1[:rec.dim]) * m
    out = mc @ rec.w2
    return mc, out[:, 0] if rec.setting == EXPLICIT else out


def unrolled_backward(rec: RecParams, z, y, mask, next_items, next_ratings, alpha, n_steps,
                      theta=True, sketch=False):
    """Reverse pass through :func:`unroll`: gradients of the next-item loss
    at the adapted stack, in closed form and without a graph.

    ``z``, ``y`` and ``mask`` (B, M) as in :func:`unroll`, ``next_items``
    and ``next_ratings`` (B,) as in :func:`next_item_loss`; both functions'
    checks run, with their errors.  Returns ``(grads, v, loss)``:

    * ``grads``, with ``theta``: the gradients w.r.t. ``rec.params()``,
      summed over the users, else None;
    * ``v``, with ``sketch``: the (B, M) gradient w.r.t. the sketch weights,
      non-zero only on ``mask``, else None;
    * ``loss``: the next-item loss summed over the users.

    The adjoint recursion (reverse-mode hypergradients) starts at
    lambda_K = dL/du_K and, for k = K-1 ... 0 with lambda = lambda_{k+1},
    adds -alpha d_theta[lambda . grad S(u_k)] into theta and
    -alpha lambda_b . grad l_bj(u_k) into v_bj, and sets lambda_k =
    lambda - alpha H(u_k) lambda; ``user_emb`` gets sum_b lambda_0,b.  The
    model is piecewise linear in u, so each term is a closed form in the
    tower's tangent along lambda (:func:`_tangent`).  The theta terms are
    gathered over the steps and reduced once at the end.
    """
    u, inner, steps = unroll(rec, z, y, mask, alpha, n_steps, keep=True, every_entry=sketch)
    items = np.asarray(next_items, dtype=np.int64)
    if items.shape != u.shape[:1]:
        raise ValueError(f"next_item_loss: next items of shape {items.shape} "
                         f"for user rows of shape {u.shape}")
    _check_items(rec, items)
    backward = _explicit_backward if rec.setting == EXPLICIT else _implicit_backward
    grads, v, loss = backward(rec, u, inner, steps, items, next_ratings, alpha, theta, sketch)
    if sketch and v is None:
        v = np.zeros((len(u), rec.n_items))
    return grads, v, loss


def _explicit_backward(rec, u, inner, steps, items, ratings, alpha, theta, sketch):
    w1, b1, w2, b2 = rec.w1, rec.b1, rec.w2, rec.b2
    w1u = w1[:rec.dim]
    x = np.concatenate([u, rec.item_emb[items]], axis=1)
    a = x @ w1 + b1
    m = a > 0
    h = a * m
    err = (h @ w2 + b2)[:, 0] - np.asarray(ratings, dtype=np.float64)
    loss = float(np.sum(err * err))
    r = 2.0 * err
    da = (r[:, None] @ w2.T) * m
    lam = da @ w1u.T
    # the terms through each prediction p (outer loss, then every step):
    # input x, hidden h, upstream on p, upstream on a, item; then the
    # direct terms of every step: lambda's rows, tangent, -alpha r, -alpha back
    on_p, direct = [(x, h, r, da, items)], []
    v = 0.0
    for x, m, h, p, r, back in reversed(steps):
        lam_e = lam[inner.rows]
        mc, q = _tangent(rec, lam_e, m)
        if sketch:
            v = v + (p - inner.y) * q
        r_q = (-2.0 * alpha) * (inner.z * q)
        da = (r_q[:, None] @ w2.T) * m
        if theta:
            on_p.append((x, h, r_q, da, inner.items))
            direct.append((lam_e, mc, -alpha * r, -alpha * back))
        step = np.zeros(lam.shape)
        np.add.at(step, inner.rows, da @ w1u.T)
        lam = lam + step
    if sketch and inner is not None:
        v_rows = np.zeros((len(u), rec.n_items))
        v_rows[inner.rows, inner.items] = (-2.0 * alpha) * v
        v = v_rows
    else:
        v = None
    if not theta:
        return None, v, loss
    x, h, r, da, items = (np.concatenate(c) for c in zip(*on_p))
    g_w1 = x.T @ da
    g_w2 = h.T @ r
    if direct:
        lam_e, mc, r_d, back = (np.concatenate(c) for c in zip(*direct))
        g_w1[:rec.dim] += lam_e.T @ back
        g_w2 += mc.T @ r_d
    g_emb = np.zeros(rec.item_emb.shape)
    np.add.at(g_emb, items, da @ w1[rec.dim:].T)
    grads = [lam.sum(axis=0), g_emb, g_w1, da.sum(axis=0), g_w2[:, None],
             np.sum(r, keepdims=True)]
    return grads, v, loss


def _implicit_backward(rec, u, inner, steps, items, ratings, alpha, theta, sketch):
    w1, b1, w2, b2 = rec.w1, rec.b1, rec.w2, rec.b2
    emb = rec.item_emb
    rows = np.arange(len(items))
    a = u @ w1 + b1
    m = a > 0
    h = a * m
    t = h @ w2 + b2
    s = t @ emb.T
    top = np.max(s, axis=-1)
    e = np.exp(s - top[:, None])
    se = np.sum(e, axis=-1)
    loss = float(np.sum(np.log(se) + top - s[rows, items]))
    d_s = e / se[:, None]
    d_s[rows, items] -= 1.0
    d_t = d_s @ emb
    da = (d_t @ w2.T) * m
    lam = da @ w1.T
    # the terms through the scores s = E t(u) (outer loss, then every
    # step), then those through every step's tangent s' = E t'(lambda),
    # whose upstream is -alpha g: upstreams on s, t and a with the values
    # they multiply (t, h and u)
    on_s, on_tangent = [(d_s, t, d_t, h, da, u)], []
    v = 0.0
    for u_k, m, h, t, e, se, g, ge, back in reversed(steps):
        mc, t_dot = _tangent(rec, lam, m)
        s_dot = t_dot @ emb.T
        p = e / se[:, None]
        ps = np.sum(p * s_dot, axis=-1, keepdims=True)
        if sketch:
            v = v + (s_dot - ps)
        d_s = (-alpha * inner.zsum)[:, None] * (p * (s_dot - ps))
        d_t = d_s @ emb
        da = (d_t @ w2.T) * m
        if theta:
            on_s.append((d_s, t, d_t, h, da, u_k))
            on_tangent.append((-alpha * g, t_dot, -alpha * ge, mc, -alpha * back, lam))
        lam = lam + da @ w1.T
    v = np.where(inner.mask != 0, alpha * v, 0.0) if sketch and inner is not None else None
    if not theta:
        return None, v, loss
    d_s, t, d_t, h, da, u = (np.concatenate(c) for c in zip(*(on_s + on_tangent)))
    # the biases act on the score path only: its rows come first
    n = len(on_s) * len(rows)
    grads = [lam.sum(axis=0), d_s.T @ t, u.T @ da, da[:n].sum(axis=0), h.T @ d_t,
             d_t[:n].sum(axis=0)]
    return grads, v, loss


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
    emb = rec.item_emb
    preds, m = preds[0], m[0]
    p = np.exp(preds - preds.max())
    p /= p.sum()
    mean_emb = p @ emb
    grads = _pull_back(rec, mean_emb - emb[items], m)
    jac = (rec.w1 * m) @ rec.w2
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
