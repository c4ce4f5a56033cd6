"""Sketch data structures and the four sketch-update policies.

Random keeps a uniform reservoir, Hardest keeps the highest-loss items,
Influence keeps the items whose upweighting most reduces the sketch
loss, and the learned policy scores items with a small network and
selects through a softmax-removal (online) or Top-K projection (batch)
head with a straight-through backward pass.  Both heads read a score as
keep: the online head removes by softmax(-scores), the Top-K head keeps
the highest scores, so a policy trained at one tau selects alike at any.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import recmodel as rm


@dataclass(frozen=True)
class SketchEntry:
    item: int
    rating: float
    step: int


@dataclass
class Sketch:
    """Up to K retained interactions for one user."""

    capacity: int
    n_items: int
    entries: tuple = ()

    def __post_init__(self):
        items = [e.item for e in self.entries]
        if len(set(items)) != len(items):
            raise ValueError("duplicate item in sketch")
        if len(self.entries) > self.capacity:
            raise ValueError(f"sketch holds {len(self.entries)} > capacity {self.capacity}")

    def __len__(self):
        return len(self.entries)

    def items(self):
        return np.array([e.item for e in self.entries], dtype=np.int64)

    @property
    def z(self):
        out = np.zeros(self.n_items)
        for e in self.entries:
            out[e.item] = 1.0
        return out

    def contains(self, item):
        return any(e.item == item for e in self.entries)


@dataclass
class IntermediateSketch:
    """A sketch plus the incoming items awaiting a keep/remove decision."""

    base: Sketch
    incoming: tuple = ()

    def __post_init__(self):
        items = [e.item for e in self.all_entries()]
        if len(set(items)) != len(items):
            raise ValueError("duplicate item in intermediate sketch")

    def all_entries(self):
        return tuple(self.base.entries) + tuple(self.incoming)

    def __len__(self):
        return len(self.base) + len(self.incoming)

    @property
    def zhat(self):
        out = self.base.z
        for e in self.incoming:
            out[e.item] += 1.0
        return out

    def keep(self, items_to_keep) -> Sketch:
        keep = set(int(i) for i in items_to_keep)
        kept = tuple(e for e in self.all_entries() if e.item in keep)
        if len(kept) != len(keep):
            raise ValueError("keep set contains items not in the intermediate sketch")
        return Sketch(self.base.capacity, self.base.n_items, kept)


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
    cover, the rows of w1 and the columns of w3 and b3 (None: all M); the
    scores and the heads over them also lay ``data``'s last axis out on
    them, and the heads name their picks as items through them.
    """

    __slots__ = ("data", "grads", "cols")

    def __init__(self, data, grads=lambda g: g, cols=None):
        self.data = data
        self.grads = grads
        self.cols = cols

    def items(self, index):
        """The catalog items of column indices ``index`` of ``data``."""
        return index if self.cols is None else self.cols[index]


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
    return Selection(scores, lambda g: policy_backward(weights, inputs, gates, g), cols)


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
    ``removed`` is the dropped item of a vector, or an array of R items for
    a stack.  ``w`` is a :class:`Selection`, one-hot per row, whose
    straight-through backward goes onto the softmax probabilities p:
    g_s = -p * (g - sum(g * p)) per row.  Stochastic mode draws
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

    w = Selection(hard.reshape(s.shape), grads, scores.cols)
    removed = scores.items(removed)
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


def _bisect_shift(f, k):
    """Root nu of sum(sigmoid(f + nu)) = k over the given finite scores:
    at most 200 bisections, stopping once the residual is within 1e-9 and
    the bracket within 1e-13 relative.  The one-row form of
    :func:`_bisect_shifts`, which it matches bit for bit: on Python floats,
    one row's bisection costs less than half the stacked one's."""
    lo = -np.max(f) - 20.0
    hi = -np.min(f) + 20.0

    def total(nu):
        return float(np.sum(1.0 / (1.0 + np.exp(-(f + nu))))) - k

    width = hi - lo
    while total(lo) > 0 or total(hi) < 0:
        lo -= width
        hi += width
        width *= 2
        if width > 1e12:
            raise RuntimeError("top-k projection: failed to bracket the shift")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = total(mid)
        if r > 0:
            hi = mid
        else:
            lo = mid
        if abs(r) <= 1e-9 and (hi - lo) < 1e-13 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def _bisect_shifts(f, k):
    """Root nu_r of sum(sigmoid(f_r + nu_r)) = k for each row f_r of the
    finite scores f (R, n): at most 200 bisections, a row stopping once its
    residual is within 1e-9 and its bracket within 1e-13 relative.  The rows
    bisect in lockstep and a stopped row keeps its bracket, so each row gets
    the shift, to the last bit, that :func:`_bisect_shift` gives it alone."""
    neg_f = -f
    buf = np.empty_like(f)

    def total(nu):
        # 1 / (1 + exp(-(f + nu))), summed along each row as np.sum sums a row
        np.subtract(neg_f, nu[:, None], out=buf)
        np.exp(buf, out=buf)
        np.add(buf, 1.0, out=buf)
        np.divide(1.0, buf, out=buf)
        return buf.sum(axis=1) - k

    lo = -f.max(axis=1) - 20.0
    hi = -f.min(axis=1) + 20.0
    width = hi - lo
    grow = (total(lo) > 0) | (total(hi) < 0)
    while grow.any():
        lo = np.where(grow, lo - width, lo)
        hi = np.where(grow, hi + width, hi)
        width = np.where(grow, width * 2, width)
        if np.any(width[grow] > 1e12):
            raise RuntimeError("top-k projection: failed to bracket the shift")
        grow = (total(lo) > 0) | (total(hi) < 0)
    active = np.ones(len(f), dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = total(mid)
        down = active & (r > 0)
        hi = np.where(down, mid, hi)
        lo = np.where(down ^ active, mid, lo)
        # a row can stop only where its residual is within 1e-9
        near = np.abs(r) <= 1e-9
        if near.any():
            # np.fmax, like Python's max, reads max(1.0, nan) as 1.0
            active &= ~(near & (hi - lo < 1e-13 * np.fmax(1.0, np.abs(mid))))
            if not active.any():
                break
    return 0.5 * (lo + hi)


def topk_project(scores, k):
    """Entropic Top-K relaxation: u = sigmoid(f + nu) with sum(u) = k.

    ``scores`` is one score vector (M,) or a stack (R, M), an array or a
    :class:`Selection`; each row gets its own shift nu.  Rows with the same
    number of finite scores solve their shifts together, each on its own
    compacted scores, as :func:`batch_keep` picks.  Masked (-inf) scores map
    to exactly zero; a NaN or +inf score is a :class:`ScoreError` naming its
    row.  The first row that fails a check raises, after the rows before it
    are solved, as if the rows were taken in order.  Returns u as a
    :class:`Selection` whose backward is the implicit-function rule of
    :func:`topk_grad`, applied per row.
    """
    scores = _selection(scores)
    f = scores.data
    rows = np.atleast_2d(f)
    finite = np.isfinite(rows)
    counts = finite.sum(axis=1)
    bad = np.isnan(rows).any(axis=1) | (rows == np.inf).any(axis=1) | (counts <= k) | (k < 1)
    n_ok = int(np.argmax(bad)) if bad.any() else len(rows)
    u = np.zeros_like(f)
    u_rows = np.atleast_2d(u)
    for c in np.unique(counts[:n_ok]):
        group = np.flatnonzero(counts[:n_ok] == c)
        cols = np.nonzero(finite[group])[1].reshape(group.size, c)
        f_g = rows[group[:, None], cols]
        nu = _bisect_shifts(f_g, k) if group.size > 1 else np.array([_bisect_shift(f_g[0], k)])
        u_rows[group[:, None], cols] = 1.0 / (1.0 + np.exp(-(f_g + nu[:, None])))
    if n_ok < len(rows):
        r, n_finite = n_ok, int(counts[n_ok])
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

    def grads(g):
        rows = zip(np.atleast_2d(f), np.atleast_2d(u), np.atleast_2d(g))
        return scores.grads(np.array([topk_grad(*r) for r in rows]).reshape(f.shape))

    return Selection(u, grads, scores.cols)


def topk_grad(f, u, v):
    """Vector-Jacobian product v^T (du/df) of the Top-K projection."""
    f = np.asarray(f, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if f.shape != u.shape or f.shape != v.shape:
        raise ValueError(f"topk_grad: shape mismatch {f.shape}, {u.shape}, {v.shape}")
    s = u * (1.0 - u)
    total = float(np.sum(s))
    if total <= 1e-12:
        raise ValueError("topk_grad: degenerate projection (all outputs saturated)")
    return s * (v - float(np.dot(v, s)) / total)


def batch_keep(u, k, mode="deterministic", rng=None):
    """Choose K items per row to keep from the relaxed indicator u; returns
    (w, kept).

    ``u`` is one relaxed indicator (M,) or a stack (R, M), an array or a
    :class:`Selection`; a NaN, infinite or negative entry is a
    :class:`ScoreError` naming its row.  ``kept`` holds the sorted kept
    items of a vector, or one such row per row of a stack.  ``w`` is a
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
    w = Selection(hard.reshape(u.data.shape), u.grads, u.cols)
    kept = u.items(kept)
    return w, (kept[0] if u.data.ndim == 1 else kept)


def reservoir_update(sketch: Sketch, item, rating, step, rng) -> Sketch:
    """Uniform reservoir sampling: every streamed item ends up in the
    sketch with probability K/step."""
    if sketch.contains(item):
        raise ValueError(f"reservoir_update: item {item} already in sketch")
    entry = SketchEntry(int(item), float(rating), int(step))
    if len(sketch) < sketch.capacity:
        return Sketch(sketch.capacity, sketch.n_items, tuple(sketch.entries) + (entry,))
    j = int(rng.integers(step))
    if j < sketch.capacity:
        entries = list(sketch.entries)
        entries[j] = entry
        return Sketch(sketch.capacity, sketch.n_items, tuple(entries))
    return sketch


def entry_losses(rec: rm.RecParams, u, entries):
    """Pointwise loss of each entry for one user embedding ``u`` (d,), from
    the graph-free forward :func:`recmodel.user_forward`."""
    items = np.array([e.item for e in entries], dtype=np.int64)
    preds, _ = rm.user_forward(rec, u[None], items, np.zeros(items.size, dtype=np.int64))
    if rec.setting == rm.EXPLICIT:
        targets = np.array([e.rating for e in entries])
        return (preds - targets) ** 2
    preds = preds[0]
    m = preds.max()
    lse = float(np.log(np.sum(np.exp(preds - m))) + m)
    return np.array([lse - preds[e.item] for e in entries])


def hardest_update(rec: rm.RecParams, u, inter: IntermediateSketch) -> Sketch:
    """Keep the K entries with the largest loss at the adapted user embedding
    ``u`` (d,); ties keep the most recent."""
    entries = inter.all_entries()
    cap = inter.base.capacity
    if len(entries) <= cap:
        return Sketch(cap, inter.base.n_items, entries)
    losses = entry_losses(rec, u, entries)
    order = sorted(range(len(entries)), key=lambda i: (-losses[i], -entries[i].step))
    kept = [entries[i].item for i in order[:cap]]
    return inter.keep(kept)


def influence_scores(rec: rm.RecParams, u, inter: IntermediateSketch, damping=1e-3):
    """Influence of upweighting each entry on the mean loss over the
    intermediate sketch: I(j) = -grad_target . H^-1 . grad_j, at the
    adapted user embedding ``u`` (d,).

    The per-entry gradients grad_j and the Hessian H of the summed loss
    come in closed form from :func:`recmodel.user_derivatives`, with no
    graph; grad_target is their mean, and H is symmetrised and damped.
    """
    entries = inter.all_entries()
    items = np.array([e.item for e in entries], dtype=np.int64)
    ratings = np.array([e.rating for e in entries], dtype=np.float64)
    grads, hess = rm.user_derivatives(rec, u, items, ratings)
    hess = 0.5 * (hess + hess.T) + damping * np.eye(len(hess))
    g_target = np.mean(grads, axis=0)
    try:
        x = np.linalg.solve(hess, g_target)
    except np.linalg.LinAlgError as e:
        raise ValueError(f"influence_scores: Hessian singular even with damping {damping}") from e
    if not np.all(np.isfinite(x)):
        raise ValueError(f"influence_scores: Hessian solve produced non-finite values")
    return -(grads @ x)


def influence_update(rec: rm.RecParams, u, inter: IntermediateSketch) -> Sketch:
    """Keep the K entries whose upweighting most reduces the sketch loss,
    by :func:`influence_scores` at its default damping."""
    entries = inter.all_entries()
    cap = inter.base.capacity
    if len(entries) <= cap:
        return Sketch(cap, inter.base.n_items, entries)
    scores = influence_scores(rec, u, inter)
    order = sorted(range(len(entries)), key=lambda i: (scores[i], -entries[i].step))
    kept = [entries[i].item for i in order[:cap]]
    return inter.keep(kept)
