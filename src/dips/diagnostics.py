"""Exact-replay policy-gradient oracle and gradient-direction statistics.

The production trainer estimates the policy gradient from a bounded queue
of stored intermediate indicators.  Here the whole sketching trajectory
is replayed from the first step with the current policy, so every past
selection contributes.  The replay advances the sketch with the trainer's
own stepper (``_UserState.observe``/``commit``) and calls the trainer's
estimator, which makes the two gradients exactly equal when the policy was
frozen during the original run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import trainer as tr

# a gradient entry of at most this magnitude counts as zero
_ZERO = 1e-12


def true_policy_grad(rec, phi, stream, cfg, probe_t, max_len=50, max_items=100):
    """Full-history policy gradient at step ``probe_t`` of one user stream.

    Replays the trajectory from t = 1 with deterministic selection,
    collecting every post-warm-up intermediate indicator, then applies the
    shared two-term estimator with all of them (warm-up steps absorb their
    items unchanged, so their selection Jacobian is zero and they drop out
    exactly).  The estimator runs on the one-row stack of this user; ``v``
    comes back as its row (M,).  Rejects instances beyond the configured
    replay limits.
    """
    if len(stream.items) > max_len:
        raise ValueError(f"stream length {len(stream.items)} exceeds replay limit {max_len}")
    if rec.n_items > max_items:
        raise ValueError(f"catalog size {rec.n_items} exceeds replay limit {max_items}")
    if not (cfg.sketch_size < probe_t < len(stream.items)):
        raise ValueError(f"probe step {probe_t} must lie in ({cfg.sketch_size}, {len(stream.items)})")

    replay_cfg = replace(cfg, stochastic_train=False)
    rng = np.random.default_rng(0)  # unused by deterministic selection
    st = tr._UserState(stream, rec.n_items, replay_cfg)
    past = []
    for t in range(1, probe_t + 1):
        inter, boundary = st.observe(t, replay_cfg)
        if t == probe_t:
            if not boundary:
                raise ValueError(f"probe step {probe_t} is not a sketch-update boundary")
            grads, v, _, _ = tr.policy_gradient(
                phi, rec, st.y[None], st.mask[None], inter.zhat[None], [past],
                stream.items[t:t + 1], stream.ratings[t:t + 1], replay_cfg, rng=rng)
            return grads, v[0]
        if boundary and cfg.policy == "dips":
            past.append(inter.zhat)
        st.commit(inter, rec, phi, replay_cfg, rng)
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class GradReport:
    preserved: float
    negated: float
    zeroed: float
    spurious: float
    cosine: float

    def __post_init__(self):
        total = self.preserved + self.negated + self.zeroed
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"direction fractions sum to {total}, expected 1")
        for name in ("preserved", "negated", "zeroed", "spurious"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} fraction {v} outside [0, 1]")

    def to_json(self):
        return json.dumps({
            "preserved": self.preserved, "negated": self.negated,
            "zeroed": self.zeroed, "spurious": self.spurious, "cosine": self.cosine,
        })


def direction_stats(approx, true) -> GradReport:
    """Per-coordinate sign agreement of an approximate gradient with the
    exact one, restricted to coordinates where the exact gradient is
    nonzero (a magnitude above ``_ZERO``); cosine similarity over the full
    flattened vectors."""
    a_parts = [np.asarray(g, dtype=np.float64).ravel() for g in approx]
    t_parts = [np.asarray(g, dtype=np.float64).ravel() for g in true]
    if len(a_parts) != len(t_parts) or any(
            x.shape != y.shape for x, y in zip(a_parts, t_parts)):
        raise ValueError("direction_stats: gradient shapes do not match")
    a = np.concatenate(a_parts)
    t = np.concatenate(t_parts)

    active = np.abs(t) > _ZERO
    n_active = int(active.sum())
    if n_active == 0:
        preserved, negated, zeroed = 1.0, 0.0, 0.0
    else:
        aa, tt = a[active], t[active]
        zeroed_mask = np.abs(aa) <= _ZERO
        preserved = float(np.sum(~zeroed_mask & (np.sign(aa) == np.sign(tt))) / n_active)
        negated = float(np.sum(~zeroed_mask & (np.sign(aa) == -np.sign(tt))) / n_active)
        zeroed = float(np.sum(zeroed_mask) / n_active)

    inactive = ~active
    spurious = (float(np.sum(np.abs(a[inactive]) > _ZERO) / inactive.sum())
                if inactive.any() else 0.0)

    na, nt = np.linalg.norm(a), np.linalg.norm(t)
    cosine = float(a @ t / (na * nt)) if na > 0 and nt > 0 else 0.0
    return GradReport(preserved=preserved, negated=negated, zeroed=zeroed,
                      spurious=spurious, cosine=cosine)
