"""Evaluation metrics and the per-step protocol: at every time step the
frozen policy maintains the sketch, the user embedding is adapted on it,
and the model predicts the next interaction.

The protocol runs time-major, as training does: at each step the users
still streaming, up to ``batch_size`` at a time, form one stack, adapted
and scored on the graph-free kernel of :mod:`recmodel`, their sketches
one slot table, and the learned policy selects for the users at a sketch
boundary in one deterministic call, a numpy forward that keeps no graph; a
single user still streaming is the stack B = 1.  Each user draws from its
own generator, seeded by (seed, user id), so a user's records do not
depend on which users are evaluated with it, or in which order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import recmodel as rm


def rank_of(target, scores):
    """1-based rank of the target among all scores; ties rank pessimistically
    (the target is placed after every equal score).  A NaN score is an
    error: it compares false with everything, so it would rank first."""
    scores = np.asarray(scores, dtype=np.float64)
    target = int(target)
    if not 0 <= target < scores.shape[0]:
        raise IndexError(f"target {target} out of range [0, {scores.shape[0]})")
    nan = np.isnan(scores)
    if nan.any():
        raise ValueError(f"rank_of: NaN score at item {int(np.argmax(nan))}")
    # the target counts itself, so the count is the rank
    return int(np.count_nonzero(scores >= scores[target]))


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

    Streams with fewer than 2 interactions are skipped.  The others are
    taken ``cfg.batch_size`` at a time, the stack width of training; at
    each step t the users of a stack with t < len(items) are adapted on
    their sketches in one graph-free ``inner_adapt`` and predicted in one
    ``recmodel.user_forward``; a non-finite adapted user, prediction or
    squared error, as a diverged adaptation gives, is a FloatingPointError
    naming the step and the users.  Then the stack's
    :class:`trainer.SketchTable` advances: ``observe`` writes the step's
    interaction of every user, and one ``commit`` decides for the users at
    a sketch boundary, reusing their adapted rows (``hardest``/
    ``influence``), their implicit scores (``hardest``) and one stacked
    selection (``dips``/``dips1``).  User ``s`` draws from
    ``default_rng((seed, s.user))``, ``seed`` defaulting to ``cfg.seed``.
    Records come out in stream order, then step order.
    """
    from . import trainer as tr

    eval_cfg = replace(cfg, stochastic_train=False)
    seed = cfg.seed if seed is None else seed
    learned = cfg.policy in tr.LEARNED_POLICIES
    users = [s for s in streams if len(s.items) >= 2]
    records = []
    for start in range(0, len(users), cfg.batch_size):
        batch = users[start:start + cfg.batch_size]
        rngs = [np.random.default_rng((seed, int(s.user))) for s in batch]
        table = tr.SketchTable(batch, rec.n_items, eval_cfg, rngs, anchors)
        lens = np.array([len(s.items) for s in batch])
        out = [[] for _ in batch]
        for t in range(1, lens.max()):
            active = np.flatnonzero(t < lens)
            u = tr.inner_adapt(rec, table.z(active), table.y[active], table.mask[active],
                               cfg.inner_lr, cfg.inner_steps)
            nxt = table.stream_items[active, t]
            # explicit: one prediction per user; implicit: (B, M) scores
            preds, _ = rm.user_forward(rec, u, nxt, np.arange(len(active)))
            checked = ("predictions", preds)
            if cfg.setting == rm.EXPLICIT:
                errs = (preds - table.stream_ratings[active, t]) ** 2
                checked = ("squared errors", errs)
            # a non-finite user gives non-finite predictions, and a finite
            # sum proves every entry finite: only a non-finite one, from a
            # non-finite entry or an overflow, looks at the rows
            if not np.isfinite(checked[1].sum()):
                for name, arr in (("adapted user embeddings", u), checked):
                    bad = ~np.isfinite(arr.reshape(len(active), -1)).all(axis=1)
                    if bad.any():
                        raise FloatingPointError(
                            f"evaluate: non-finite {name} at step t={t}, users "
                            f"{[int(table.users[b]) for b in active[bad]]}")
            for b, i in enumerate(active):
                s = batch[i]
                if cfg.setting == rm.EXPLICIT:
                    out[i].append(EvalRecord(s.user, t, "sq_error", errs[b]))
                else:
                    row = preds[b]
                    if exclude_history:
                        past = s.items[:t]
                        row = row.copy()
                        row[past[past != nxt[b]]] = -np.inf
                    out[i].append(EvalRecord(s.user, t, "rank",
                                             float(rank_of(nxt[b], row))))

            # advance the sketches exactly as the trainer would
            _, up = table.observe(t, active)
            if up.size:
                pos = np.searchsorted(active, up)
                z = (tr.select_with_policy(phi, table.zhat(up), table.y[up], eval_cfg).data
                     if learned else None)
                scores = preds[pos] if cfg.setting == rm.IMPLICIT else None
                table.commit(up, rec, u[pos], scores, z=z)
        records += [r for recs in out for r in recs]
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
