"""Evaluation metrics and the per-step protocol: at every time step the
frozen policy maintains the sketch, the user embedding is adapted on it,
and the model predicts the next interaction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import diffcore as dc
from . import recmodel as rm


def rmse(pairs):
    """Root mean squared error over (true, predicted) pairs."""
    pairs = np.asarray(pairs, dtype=np.float64)
    if pairs.size == 0:
        raise ValueError("rmse: empty input")
    d = pairs[:, 0] - pairs[:, 1]
    return float(np.sqrt(np.mean(d * d)))


def rank_of(target, scores):
    """1-based rank of the target among all scores; ties rank pessimistically
    (the target is placed after every equal score)."""
    scores = np.asarray(scores, dtype=np.float64)
    target = int(target)
    if not 0 <= target < scores.shape[0]:
        raise IndexError(f"target {target} out of range [0, {scores.shape[0]})")
    s = scores[target]
    others = np.delete(scores, target)
    return int(np.sum(others >= s)) + 1


def recall_at_k(ranks, k=20):
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise ValueError("recall_at_k: empty input")
    return float(np.mean(ranks <= k))


def mrr_at_k(ranks, k=20):
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("mrr_at_k: empty input")
    return float(np.mean(np.where(ranks <= k, 1.0 / ranks, 0.0)))


@dataclass(frozen=True)
class EvalRecord:
    user: int
    step: int
    metric: str
    value: float


@dataclass
class EvalResult:
    records: list
    aggregates: dict


def aggregate_records(records, setting, k=20):
    """Recompute the summary metrics from the per-record stream."""
    if setting == rm.EXPLICIT:
        errs = [r.value for r in records if r.metric == "sq_error"]
        if not errs:
            raise ValueError("no sq_error records to aggregate")
        return {"rmse": float(np.sqrt(np.mean(errs)))}
    ranks = [r.value for r in records if r.metric == "rank"]
    if not ranks:
        raise ValueError("no rank records to aggregate")
    return {f"recall@{k}": recall_at_k(ranks, k), f"mrr@{k}": mrr_at_k(ranks, k)}


def evaluate(rec, phi, streams, cfg, k=20, exclude_history=False, seed=None,
             return_records=False, anchors=None):
    """Run the per-step protocol over the given streams with a frozen model.

    The sketch is maintained with the configured policy in deterministic
    mode; parameters are never mutated.  Explicit runs score squared
    rating error, implicit runs score the pessimistic rank of the next
    item among all M (optionally masking already-consumed items).
    """
    from . import trainer as tr

    eval_cfg = replace(cfg, stochastic_train=False)
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    records = []
    for s in streams:
        if len(s.items) < 2:
            continue
        st = tr._UserState(s, rec.n_items, eval_cfg)
        for t in range(1, len(s.items)):
            theta = tr.inner_adapt(rec, st.sketch.z, st.y, st.mask,
                                   cfg.inner_lr, cfg.inner_steps, record=False)
            nxt = int(s.items[t])
            with dc.no_grad():
                if cfg.setting == rm.EXPLICIT:
                    pred = rm.predict_explicit_many(theta, [nxt]).data[0]
                    err = (pred - float(s.ratings[t])) ** 2
                    records.append(EvalRecord(s.user, t, "sq_error", err))
                else:
                    scores = rm.predict_implicit(theta).data.copy()
                    if exclude_history:
                        past = s.items[:t]
                        scores[past[past != nxt]] = -np.inf
                    records.append(EvalRecord(s.user, t, "rank",
                                              float(rank_of(nxt, scores))))
            # advance the sketch exactly as the trainer would
            inter, _ = st.observe(t, eval_cfg)
            st.commit(inter, rec, phi, eval_cfg, rng, anchors)
    aggregates = aggregate_records(records, cfg.setting, k)
    if return_records:
        return EvalResult(records=records, aggregates=aggregates)
    return aggregates


def summary_table(rows):
    """Format sweep results as csv: policy, K, tau, metric, mean, std, n_seeds."""
    lines = ["policy,K,tau,metric,mean,std,n_seeds"]
    for (policy, K, tau, metric), values in sorted(rows.items()):
        v = np.asarray(values, dtype=np.float64)
        lines.append(f"{policy},{K},{tau},{metric},{v.mean():.6f},{v.std(ddof=0):.6f},{v.size}")
    return "\n".join(lines) + "\n"
