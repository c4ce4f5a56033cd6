"""The four sketch-update policies.

Random keeps a uniform reservoir, Hardest keeps the highest-loss items,
Influence keeps the items whose upweighting most reduces the sketch
loss: :func:`reservoir_update`, :func:`entry_losses` and
:func:`influence_scores` take the slots of every row that decides at a
step, as :meth:`trainer.SketchTable.commit` passes them.  The learned
policy scores items with a small network and
selects through a softmax-removal (online) or Top-K projection (batch)
head with a straight-through backward pass.  Both heads read a score as
keep: the online head removes by softmax(-scores), the Top-K head keeps
the highest scores, so a policy trained at one tau selects alike at any.
"""

from __future__ import annotations

import numpy as np

from . import recmodel as rm


class PolicyParams(rm.Params):
    """Score network over the dense rating vector: M -> hidden -> hidden -> M."""

    def __init__(self, n_items, hidden=128, rng=None, arrays=None):
        self.n_items = n_items
        self.hidden = hidden
        super().__init__(rng, arrays)

    def shapes(self):
        """The shape of every parameter, by name."""
        m, h = self.n_items, self.hidden
        return {"w1": (m, h), "b1": (h,), "w2": (h, h), "b2": (h,), "w3": (h, m), "b3": (m,)}

    def draw(self, rng):
        """The weights dense, drawn in the order w1, w2, w3; the biases zero."""
        s = self.shapes()
        return {"w1": self._dense(rng, s["w1"]), "b1": np.zeros(s["b1"]),
                "w2": self._dense(rng, s["w2"]), "b2": np.zeros(s["b2"]),
                "w3": self._dense(rng, s["w3"]), "b3": np.zeros(s["b3"])}


class ScoreError(FloatingPointError, ValueError):
    """A head met a NaN or +inf score or an invalid probability, as a
    diverged policy network gives: a numerical error, and also a ValueError
    for callers that check a head's input."""


def log_indicator(zhat):
    """log(zhat) with exact -inf on zero entries (downstream probability 0)."""
    zhat = np.asarray(zhat, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.log(zhat)


class Selection:
    """An array ``data`` and its vector-Jacobian product ``grads(g)``.

    ``grads`` takes a gradient w.r.t. ``data`` back through what made it:
    :func:`policy_scores` to the gradients of phi's parameters, a head to
    the ``grads`` of its input, so a head over the policy scores takes it
    to phi.  A head given a plain array ends there: the array's ``grads``
    is the identity.  ``cols`` are the catalog items that phi's gradients
    cover, the rows of w1 and the columns of w3 and b3 (None: all M), as
    :func:`trainer.select_with_policy` sets them.
    """

    __slots__ = ("data", "grads", "cols")

    def __init__(self, data, grads=lambda g: g, cols=None):
        self.data = data
        self.grads = grads
        self.cols = cols


def _selection(x):
    return x if isinstance(x, Selection) else Selection(np.asarray(x, dtype=np.float64))


def policy_scores(zhat, y, phi: PolicyParams, dropout=0.0, rng=None, cols=None):
    """Per-item keep scores f(zhat * y) + log(zhat), a :class:`Selection`
    whose ``grads`` is :func:`policy_backward`.

    ``zhat`` may be a single indicator vector or a matrix of stacked
    indicator rows (one forward pass scores the whole stack).  ``cols``
    (sorted catalog items, None for all M) are the columns scored: the
    network reads only the rows ``cols`` of w1 and the columns ``cols`` of
    w3 and b3, and the scores are laid out on them.  Every item a row of
    ``zhat`` holds must be among them; any other item's score is -inf,
    since zhat * y reads 0 there and log(zhat) is -inf.  A ``dropout``
    rate above 0 drops hidden units: ``rng`` draws the mask of the first
    hidden layer, then of the second, (rows, hidden) each whatever the
    columns.  The forward keeps every layer's weights, input, relu mask and
    dropout scale for the backward.
    """
    zhat = np.asarray(zhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w1, w3, b3 = phi.w1, phi.w3, phi.b3
    if cols is not None:
        zhat, y = zhat[..., cols], y[..., cols]
        w1, w3, b3 = w1[cols], w3[:, cols], b3[cols]
    h = zhat * y
    inputs, gates = [h], []
    for w, b in ((w1, phi.b1), (phi.w2, phi.b2)):
        a = h @ w + b
        relu = (a > 0).astype(np.float64)
        h = a * relu
        scale = None
        if dropout > 0:
            keep = rng.random(h.shape) >= dropout
            scale = keep.astype(np.float64) / (1.0 - dropout)
            h = h * scale
        inputs.append(h)
        gates.append((relu, scale))
    scores = h @ w3 + b3 + log_indicator(zhat)
    weights = (w1, phi.w2, w3)
    return Selection(scores, lambda g: policy_backward(weights, inputs, gates, g))


def policy_backward(weights, inputs, gates, g):
    """Gradients of sum(g * scores) w.r.t. phi's parameters, in the order of
    ``phi.params()``, on the columns :func:`policy_scores` scored.

    ``weights`` are the three layers' weights, ``inputs`` their inputs and
    ``gates`` the two hidden layers' relu masks and dropout scales (None
    without dropout), all as :func:`policy_scores` kept them: on scored
    columns ``cols``, w1's rows and w3's columns are those of ``cols``.
    ``g`` is shaped like the scores.  The gradients of w1, w3 and b3 are
    those of the rows and columns ``cols``.  A layer y = h @ w + b passes
    back g @ w.T, then the dropout scale and the relu mask, and takes
    h.T @ g and the column sums of g.
    """
    g = np.atleast_2d(g)
    grads = [None] * 6
    for k in (2, 1, 0):
        grads[2 * k] = np.atleast_2d(inputs[k]).T @ g
        grads[2 * k + 1] = np.sum(g, axis=0)
        if k:
            relu, scale = gates[k - 1]
            g = g @ weights[k].T
            if scale is not None:
                g = g * scale
            g = g * relu
    return grads


def online_remove(scores, mode="deterministic", rng=None):
    """Pick one item per row to drop from softmax(-scores); returns (w, removed).

    A score means keep, as in the Top-K head: the lowest finite score is the
    likeliest to go, and a masked (-inf) item has removal probability 0.
    ``scores`` is one score vector (M,) or a stack (R, M), an array or a
    :class:`Selection`; a NaN or +inf score is a :class:`ScoreError`
    naming its row, a NaN tested before an empty row (every score -inf).
    ``removed`` is the index of the dropped entry of a vector, or an array
    of R such indices for a stack.  ``w`` is a :class:`Selection`, one-hot
    per row, whose straight-through backward goes onto the softmax
    probabilities p: g_s = -p * (g - sum(g * p)) per row.  Stochastic mode draws
    ``rng.random(R)``, one uniform per row in row order, and removes what
    ``rng.choice(M, p=row)`` would with that uniform.
    """
    scores = _selection(scores)
    s = scores.data
    # a row is empty when every score is masked (-inf); a NaN score is not
    # masked, so its row is not empty: it stays NaN through the softmax and
    # the probability check below names the row
    if np.atleast_2d(s == -np.inf).all(axis=1).any():
        raise ValueError("online_remove: no finite score (empty intermediate sketch)")
    neg = np.where(s == -np.inf, -np.inf, -s)
    e = np.exp(neg - np.max(neg, axis=-1, keepdims=True))
    probs = e / np.sum(e, axis=-1, keepdims=True)
    rows = np.atleast_2d(probs)
    _check_probabilities(rows, "online_remove")
    # softmax(-s) gives a +inf score, an overflowed keep, removal
    # probability 0: the item could never go
    inf = np.atleast_2d(s == np.inf).any(axis=1)
    if inf.any():
        raise ScoreError(f"online_remove: +inf score in row {int(np.flatnonzero(inf)[0])}")
    if mode == "deterministic":
        removed = np.argmax(rows, axis=1)
    elif mode == "stochastic":
        if rng is None:
            raise ValueError("online_remove: stochastic mode needs an rng")
        removed = _inverse_cdf(rows, rng.random(len(rows)))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    hard = np.zeros(rows.shape)
    hard[np.arange(len(rows)), removed] = 1.0

    def grads(g):
        return scores.grads(-(probs * (g - np.sum(g * probs, axis=-1, keepdims=True))))

    w = Selection(hard.reshape(s.shape), grads)
    return w, (int(removed[0]) if s.ndim == 1 else removed)


def _check_probabilities(rows, head):
    """Reject a row with a NaN, infinite or negative entry, as
    ``rng.choice`` would; the error names the head and the row."""
    bad = ~np.all(np.isfinite(rows) & (rows >= 0), axis=1)
    if bad.any():
        raise ScoreError(f"{head}: NaN, infinite or negative probability in row "
                         f"{int(np.flatnonzero(bad)[0])}")


def _inverse_cdf(p, u):
    """The index ``rng.choice(len(p_r), p=p_r)`` draws for each row p_r of
    ``p`` (n,) or (R, n) given its uniform u_r: the same cumulative sum,
    normalisation and right-sided search, row by row."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return np.sum(cdf <= u[..., None], axis=-1)


_SHIFT_STEPS = 100
# the largest ulp of nu at which a step of one ulp is small against the
# sigmoid's unit width, so that it moves sum(u) by about slope * ulp(nu)
_LINEAR_ULP = 2.0 ** -10


def _resolution(nu, slope):
    """What one ulp step of the shifts ``nu`` can resolve of sum(u):
    slope * ulp(nu), with ``slope`` = sum(u (1 - u)), where that ulp is at
    most ``_LINEAR_ULP`` (|nu| < 2**42); 0 beyond, where one ulp can jump
    over the whole of a tie."""
    ulp = np.spacing(np.abs(nu))
    return np.where(ulp <= _LINEAR_ULP, slope * ulp, 0.0)


def _topk_rows(f, k):
    """u_r = sigmoid(f_r + nu_r) with sum(u_r) = k for each row f_r of the
    finite scores f (R, n), 1 <= k < n; a row whose shift is not found is NaN.

    A row is centred at its maximum, g = f - max(f), which leaves u as it is
    and keeps nu near the scores' spread rather than their offset.  nu
    starts midway between the k-th and (k+1)-th largest g, g_k and g_(k+1),
    inside the bracket [-20 - g_k, 20 - g_(k+1)]: at its low end all but
    the k-1 largest u are at most sigmoid(-20), so sum(u) < k, and at its
    high end the k+1 largest are at least sigmoid(20), so sum(u) > k; no
    bracket search is needed.  Each step is a Newton step on sum(u) - k,
    or a bisection of the bracket where Newton leaves it or the last step
    did not halve the residual.  A row stops once |sum(u) - k| is at most
    1e-11 k or what one ulp step of nu can resolve (:func:`_resolution`),
    as in a near-tie far below the maximum, its u that of the shift it
    stopped at; it fails when its bracket holds no float64 left to try, or
    after ``_SHIFT_STEPS`` steps.  Every step is
    row by row, so a row of a stack gets the u, to the last bit, that it
    gets alone.
    """
    g = f - f.max(axis=1, keepdims=True)
    n = g.shape[1]
    part = np.partition(g, (n - k - 1, n - k), axis=1)
    lo, hi = -20.0 - part[:, n - k], 20.0 - part[:, n - k - 1]
    nu = -0.5 * (part[:, n - k] + part[:, n - k - 1])
    u = np.full_like(g, np.nan)
    active = np.ones(len(g), dtype=bool)
    last = np.full(len(g), np.inf)
    # exp overflows where a u saturates to exactly 0 or 1, as intended; a
    # saturated row's slope is 0, and its infinite Newton step a bisection
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_SHIFT_STEPS):
            s = 1.0 / (1.0 + np.exp(-(g + nu[:, None])))
            r = s.sum(axis=1) - k
            slope = (s * (1.0 - s)).sum(axis=1)
            stop = active & (np.abs(r) <= np.maximum(1e-11 * k, _resolution(nu, slope)))
            u[stop] = s[stop]
            active &= ~stop
            if not active.any():
                break
            lo = np.where(r < 0, nu, lo)
            hi = np.where(r > 0, nu, hi)
            newton = nu - r / slope
            mid = 0.5 * (lo + hi)
            bisect = ~((lo < newton) & (newton < hi)) | (np.abs(r) > 0.5 * last)
            active &= ~(bisect & ~((lo < mid) & (mid < hi)))
            nu = np.where(bisect, mid, newton)
            last = np.abs(r)
    return u


def topk_project(scores, k):
    """Entropic Top-K relaxation: u = sigmoid(f + nu) with sum(u) = k.

    ``scores`` is one score vector (M,) or a stack (R, M), an array or a
    :class:`Selection`; each row gets its own shift nu.  Masked (-inf)
    scores map to exactly zero.  Every row is checked before any is solved:
    a NaN or +inf score is a :class:`ScoreError` naming the first such row.
    Rows with the same number of finite scores solve their shifts together,
    each on its own compacted scores, as :func:`batch_keep` picks, so a row
    of a stack gets the u it gets alone; a row whose shift
    :func:`_topk_rows` does not find is a :class:`ScoreError` naming the
    first such row.  Returns u as a :class:`Selection` whose backward
    is the implicit-function rule of :func:`topk_grad`.
    """
    scores = _selection(scores)
    f = scores.data
    rows = np.atleast_2d(f)
    finite = np.isfinite(rows)
    counts = finite.sum(axis=1)
    bad = np.isnan(rows).any(axis=1) | (rows == np.inf).any(axis=1) | (counts <= k) | (k < 1)
    if bad.any():
        r = int(np.argmax(bad))
        n_finite = int(counts[r])
        if np.isnan(rows[r]).any():
            raise ScoreError(f"topk_project: NaN score in row {r}")
        if (rows[r] == np.inf).any():
            raise ScoreError(f"topk_project: +inf score in row {r}")
        if n_finite < 1:
            raise ValueError("topk_project: no finite scores")
        if k >= n_finite:
            raise ValueError(
                f"topk_project: k={k} must be smaller than the number of finite scores ({n_finite})"
            )
        raise ValueError(f"topk_project: k={k} must be positive")
    u = np.zeros_like(f)
    u_rows = np.atleast_2d(u)
    for c in np.unique(counts):
        group = np.flatnonzero(counts == c)
        cols = np.nonzero(finite[group])[1].reshape(group.size, c)
        u_rows[group[:, None], cols] = _topk_rows(rows[group[:, None], cols], k)
    lost = np.isnan(u_rows).any(axis=1)
    if lost.any():
        raise ScoreError(f"topk_project: no shift of row {int(np.argmax(lost))} meets "
                         f"sum(u) = {k} in float64 within {_SHIFT_STEPS} steps")
    return Selection(u, lambda g: scores.grads(topk_grad(f, u, g)))


def topk_grad(f, u, v):
    """Vector-Jacobian product v^T (du/df) of the Top-K projection, for one
    row (n,) or for each row of a stack (R, n): s * (v - (v . s) / sum(s))
    with s = u * (1 - u).  A row whose every u is 0 or 1 has no gradient: a
    :class:`ScoreError` naming it."""
    f = np.asarray(f, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if f.shape != u.shape or f.shape != v.shape:
        raise ValueError(f"topk_grad: shape mismatch {f.shape}, {u.shape}, {v.shape}")
    s = u * (1.0 - u)
    total = s.sum(axis=-1, keepdims=True)
    flat = (total <= 1e-12).reshape(-1)
    if flat.any():
        raise ScoreError(f"topk_grad: the Top-K head's u of row {int(np.argmax(flat))} "
                         "are all 0 or 1 (a saturated projection has no gradient)")
    return s * (v - np.sum(v * s, axis=-1, keepdims=True) / total)


def batch_keep(u, k, mode="deterministic", rng=None):
    """Choose K items per row to keep from the relaxed indicator u; returns
    (w, kept).

    ``u`` is one relaxed indicator (M,) or a stack (R, M), an array or a
    :class:`Selection`; a NaN, infinite or negative entry is a
    :class:`ScoreError` naming its row.  ``kept`` holds the sorted indices
    of the kept entries of a vector, or one such row per row of a stack.  ``w`` is a
    binary :class:`Selection`, with straight-through backward onto u.
    Stochastic mode samples sequentially
    without replacement with probabilities proportional to u: it draws
    ``rng.random((R, k))``, row-major, and pick j of a row takes what
    ``rng.choice`` would with uniform j of that row.
    Rows with the same number of candidates take each pick together, every
    row from its own compacted pool, so its sums are those of the row alone.
    """
    u = _selection(u)
    rows = np.atleast_2d(u.data)
    _check_probabilities(rows, "batch_keep")
    if mode == "stochastic":
        if rng is None:
            raise ValueError("batch_keep: stochastic mode needs an rng")
        draws = rng.random((len(rows), k))
    elif mode != "deterministic":
        raise ValueError(f"unknown mode {mode!r}")
    candidates = rows > 0
    counts = candidates.sum(axis=1)
    if np.any(counts < k):
        n = int(counts[np.flatnonzero(counts < k)[0]])
        raise ValueError(f"batch_keep: only {n} candidates for k={k}")
    if mode == "deterministic":
        kept = np.sort(np.argsort(-rows, axis=1, kind="stable")[:, :k], axis=1)
    else:
        kept = np.empty((len(rows), k), dtype=np.int64)
        for c in np.unique(counts):
            group = np.flatnonzero(counts == c)
            at = np.arange(group.size)
            pool = np.nonzero(candidates[group])[1].reshape(group.size, c)
            weights = rows[group[:, None], pool]
            for j in range(k):
                pick = _inverse_cdf(weights / weights.sum(axis=1, keepdims=True),
                                    draws[group, j])
                kept[group, j] = pool[at, pick]
                rest = np.ones(pool.shape, dtype=bool)
                rest[at, pick] = False
                pool = pool[rest].reshape(group.size, -1)
                weights = weights[rest].reshape(group.size, -1)
        kept.sort(axis=1)
    hard = np.zeros_like(rows)
    np.put_along_axis(hard, kept, 1.0, axis=1)
    w = Selection(hard.reshape(u.data.shape), u.grads)
    return w, (kept[0] if u.data.ndim == 1 else kept)


def reservoir_update(steps, k, rngs):
    """Uniform reservoir sampling: every streamed item ends up in a row's k
    kept slots with probability k/step.

    ``steps`` (R, n) holds each row's slot steps, slots 0..k-1 its sketch and
    slots k.. the items pending, in stream order.  Row r draws from
    ``rngs[r]``, the rows in order: each pending slot p, in order, draws
    j = ``rng.integers(steps[r, p])`` and replaces kept slot j if j < k.
    Returns the slot each kept slot takes its item from, (R, k).
    """
    src = [list(range(k)) for _ in rngs]
    for row, rng, taken in zip(steps.tolist(), rngs, src):
        for p in range(k, len(row)):
            j = int(rng.integers(row[p]))
            if j < k:
                taken[j] = p
    return np.array(src, dtype=np.int64)


def entry_losses(rec: rm.RecParams, u, items, ratings, scores=None):
    """Pointwise loss of each slot (R, n) of ``items`` and ``ratings``, row r
    at the user embedding ``u[r]`` (R, d), from the graph-free forward
    :func:`recmodel.user_forward`.  An implicit caller that holds the (R, M)
    scores at ``u`` passes them as ``scores``, and no forward runs."""
    if rec.setting == rm.EXPLICIT:
        rows = np.repeat(np.arange(len(u)), items.shape[1])
        preds, _ = rm.user_forward(rec, u, items.ravel(), rows)
        return (preds.reshape(items.shape) - ratings) ** 2
    if scores is None:
        scores, _ = rm.user_forward(rec, u)
    m = scores.max(axis=1)
    lse = np.log(np.sum(np.exp(scores - m[:, None]), axis=1)) + m
    return lse[:, None] - scores[np.arange(len(items))[:, None], items]


def influence_scores(rec: rm.RecParams, u, items, ratings, damping=1e-3):
    """Influence of upweighting each slot (R, n) of ``items`` and ``ratings``
    on the mean loss over its row: I(j) = -grad_target . H^-1 . grad_j, row r
    at the adapted user embedding ``u[r]`` (R, d).

    The per-entry gradients grad_j and the Hessian H of the summed loss
    come in closed form from :func:`recmodel.user_derivatives`, with no
    graph; grad_target is their mean, and H is symmetrised and damped.  The
    R systems are solved together.  A row whose solve is not finite gets
    non-finite scores, for the caller to name.
    """
    derivs = [rm.user_derivatives(rec, *row) for row in zip(u, items, ratings)]
    grads = np.stack([g for g, _ in derivs])
    hess = np.stack([h for _, h in derivs])
    hess = 0.5 * (hess + hess.transpose(0, 2, 1)) + damping * np.eye(hess.shape[-1])
    g_target = np.mean(grads, axis=1)
    try:
        x = np.linalg.solve(hess, g_target[..., None])
    except np.linalg.LinAlgError as e:
        raise ValueError(f"influence_scores: Hessian singular even with damping {damping}") from e
    return -(grads @ x)[..., 0]
