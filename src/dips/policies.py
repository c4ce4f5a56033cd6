"""Sketch data structures and the four sketch-update policies.

Random keeps a uniform reservoir, Hardest keeps the highest-loss items,
Influence keeps the items whose upweighting most reduces the sketch
loss, and the learned policy scores items with a small network and
selects through a softmax-removal (online) or Top-K projection (batch)
head with a straight-through backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from . import recmodel as rm
from .diffcore import Tensor


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


class PolicyParams:
    """Score network over the dense rating vector: M -> hidden -> hidden -> M."""

    def __init__(self, n_items, hidden=128, dropout_rate=0.10, rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.n_items = n_items
        self.hidden = hidden
        self.dropout_rate = dropout_rate

        def dense(fan_in, fan_out):
            return Tensor(rng.normal(size=(fan_in, fan_out)) / np.sqrt(fan_in),
                          requires_grad=True)

        self.w1 = dense(n_items, hidden)
        self.b1 = dc.zeros(hidden, requires_grad=True)
        self.w2 = dense(hidden, hidden)
        self.b2 = dc.zeros(hidden, requires_grad=True)
        self.w3 = dense(hidden, n_items)
        self.b3 = dc.zeros(n_items, requires_grad=True)

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def param_names(self):
        return ["w1", "b1", "w2", "b2", "w3", "b3"]

    def state_arrays(self):
        return {name: getattr(self, name).data for name in self.param_names()}

    def load_arrays(self, arrays):
        for name in self.param_names():
            cur = getattr(self, name)
            new = np.asarray(arrays[name], dtype=np.float64)
            if new.shape != cur.shape:
                raise ValueError(f"checkpoint mismatch for {name}: {new.shape} vs {cur.shape}")
            setattr(self, name, Tensor(new, requires_grad=True))


def log_indicator(zhat):
    """log(zhat) with exact -inf on zero entries (downstream probability 0)."""
    zhat = np.asarray(zhat, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.log(zhat)


def policy_scores(zhat, y, phi: PolicyParams, training=False, rng=None):
    """Per-item keep/remove scores f(zhat * y) + log(zhat).

    ``zhat`` may be a single indicator vector or a matrix of stacked
    indicator rows (one forward pass scores the whole stack).  Dropout is
    applied only in training mode.
    """
    zhat = np.asarray(zhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x = Tensor(zhat * y)
    h1 = dc.relu(dc.matmul(x, phi.w1) + phi.b1)
    if training and phi.dropout_rate > 0:
        h1 = dc.dropout(h1, phi.dropout_rate, rng=rng)
    h2 = dc.relu(dc.matmul(h1, phi.w2) + phi.b2)
    if training and phi.dropout_rate > 0:
        h2 = dc.dropout(h2, phi.dropout_rate, rng=rng)
    f = dc.matmul(h2, phi.w3) + phi.b3
    return f + Tensor(log_indicator(zhat))


def online_remove(scores, mode="deterministic", rng=None):
    """Pick one item to drop from softmax(scores); returns (w, removed_item).

    ``w`` is a one-hot tensor with straight-through backward onto the
    softmax probabilities.
    """
    scores = dc.as_tensor(scores)
    finite = np.isfinite(scores.data)
    if not finite.any():
        raise ValueError("online_remove: no finite score (empty intermediate sketch)")
    probs = dc.softmax(scores)
    if mode == "deterministic":
        removed = int(np.argmax(probs.data))
    elif mode == "stochastic":
        if rng is None:
            raise ValueError("online_remove: stochastic mode needs an rng")
        removed = int(rng.choice(len(probs.data), p=probs.data))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    hard = np.zeros(scores.shape)
    hard[removed] = 1.0
    return dc.straight_through(probs, hard), removed


def _bisect_shift(f, k, tol=1e-9, max_iter=200):
    """Root nu of sum(sigmoid(f + nu)) = k over the given finite scores."""
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
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        r = total(mid)
        if r > 0:
            hi = mid
        else:
            lo = mid
        if abs(r) <= tol and (hi - lo) < 1e-13 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def topk_project(scores, k):
    """Entropic Top-K relaxation: u = sigmoid(f + nu) with sum(u) = k.

    Masked (-inf) scores map to exactly zero.  Gradients follow the
    implicit-function rule implemented in :func:`topk_grad`.
    """
    scores = dc.as_tensor(scores)
    f = scores.data
    finite = np.isfinite(f)
    n_finite = int(finite.sum())
    if n_finite < 1:
        raise ValueError("topk_project: no finite scores")
    if k >= n_finite:
        raise ValueError(
            f"topk_project: k={k} must be smaller than the number of finite scores ({n_finite})"
        )
    if k < 1:
        raise ValueError(f"topk_project: k={k} must be positive")
    nu = _bisect_shift(f[finite], k)
    u = np.zeros_like(f)
    u[finite] = 1.0 / (1.0 + np.exp(-(f[finite] + nu)))

    def vjp(g, need):
        return (Tensor(topk_grad(f, u, g.data)),)

    return dc.custom_op(u, (scores,), vjp, "topk_project")


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
    """Choose K items to keep from the relaxed indicator u; returns (w, kept).

    ``w`` is a binary tensor with straight-through backward onto u.
    Stochastic mode samples sequentially without replacement with
    probabilities proportional to u.
    """
    u = dc.as_tensor(u)
    uv = u.data
    candidates = np.flatnonzero(uv > 0)
    if candidates.size < k:
        raise ValueError(f"batch_keep: only {candidates.size} candidates for k={k}")
    if mode == "deterministic":
        order = np.argsort(-uv, kind="stable")
        kept = np.sort(order[:k])
    elif mode == "stochastic":
        if rng is None:
            raise ValueError("batch_keep: stochastic mode needs an rng")
        pool = list(candidates)
        weights = uv[candidates].astype(np.float64).copy()
        kept = []
        for _ in range(k):
            p = weights / weights.sum()
            pick = int(rng.choice(len(pool), p=p))
            kept.append(pool.pop(pick))
            weights = np.delete(weights, pick)
        kept = np.sort(np.array(kept, dtype=np.int64))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    hard = np.zeros_like(uv)
    hard[kept] = 1.0
    return dc.straight_through(u, hard), kept


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


def entry_losses(entries, theta: rm.LocalParams):
    """Current-model pointwise loss for each entry, without recording a graph."""
    with dc.no_grad():
        if theta.base.setting == rm.EXPLICIT:
            items = np.array([e.item for e in entries], dtype=np.int64)
            preds = rm.predict_explicit_many(theta, items).data
            targets = np.array([e.rating for e in entries])
            return (preds - targets) ** 2
        scores = rm.predict_implicit(theta).data
        m = scores.max()
        lse = float(np.log(np.sum(np.exp(scores - m))) + m)
        return np.array([lse - scores[e.item] for e in entries])


def hardest_update(inter: IntermediateSketch, theta: rm.LocalParams) -> Sketch:
    """Keep the K entries with the largest current loss; ties keep the most recent."""
    entries = inter.all_entries()
    cap = inter.base.capacity
    if len(entries) <= cap:
        return Sketch(cap, inter.base.n_items, entries)
    losses = entry_losses(entries, theta)
    order = sorted(range(len(entries)), key=lambda i: (-losses[i], -entries[i].step))
    kept = [entries[i].item for i in order[:cap]]
    return inter.keep(kept)


def influence_scores(inter: IntermediateSketch, theta_star: rm.LocalParams,
                     damping=1e-3):
    """Influence of upweighting each entry on the mean loss over the
    intermediate sketch: I(j) = -grad_target . H^-1 . grad_j."""
    entries = inter.all_entries()
    rec = theta_star.base
    u = Tensor(theta_star.user.data.copy(), requires_grad=True)
    theta = rm.LocalParams(user=u, base=rec)

    grads = []
    for e in entries:
        if rec.setting == rm.EXPLICIT:
            lj = rm.pointwise_loss(e.rating, rm.predict_explicit(theta, e.item), "mse")
        else:
            lj = rm.pointwise_loss(e.item, rm.predict_implicit(theta), "cce")
        (gj,) = dc.grad(lj, [u], create_graph=True)
        grads.append(gj)

    total = grads[0]
    for gj in grads[1:]:
        total = total + gj
    d = rec.dim
    hess = np.zeros((d, d))
    for i in range(d):
        (row,) = dc.grad(dc.gather(total, i), [u])
        hess[i] = row.data
    hess = 0.5 * (hess + hess.T) + damping * np.eye(d)
    g_target = np.mean([g.data for g in grads], axis=0)
    try:
        x = np.linalg.solve(hess, g_target)
    except np.linalg.LinAlgError as e:
        raise ValueError(f"influence_scores: Hessian singular even with damping {damping}") from e
    if not np.all(np.isfinite(x)):
        raise ValueError(f"influence_scores: Hessian solve produced non-finite values")
    return np.array([-float(np.dot(x, g.data)) for g in grads])


def influence_update(inter: IntermediateSketch, theta_star: rm.LocalParams,
                     damping=1e-3) -> Sketch:
    """Keep the K entries whose upweighting most reduces the sketch loss."""
    entries = inter.all_entries()
    cap = inter.base.capacity
    if len(entries) <= cap:
        return Sketch(cap, inter.base.n_items, entries)
    scores = influence_scores(inter, theta_star, damping=damping)
    order = sorted(range(len(entries)), key=lambda i: (scores[i], -entries[i].step))
    kept = [entries[i].item for i in order[:cap]]
    return inter.keep(kept)
