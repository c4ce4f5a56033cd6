"""Evaluation metrics and the per-step protocol: at every time step the
frozen policy maintains the sketch, the user embedding is adapted on it,
and the model predicts the next interaction.

The protocol runs time-major, as training does: at each step the users
still streaming, up to ``batch_size`` at a time, form one stack, adapted
and scored on the graph-free kernel of :mod:`recmodel`, and the learned
policy selects for the users at a sketch boundary in one deterministic
call, a numpy forward that keeps no graph; a single user still streaming
is the stack B = 1.  Each user draws from its own generator, seeded by
(seed, user id), so a user's records do not depend on which users are
evaluated with it, or in which order.
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
    ``recmodel.user_forward``, then every sketch advances through the
    trainer's ``observe``/``commit``, which reuses the adapted row
    (``hardest``/``influence``) and the stacked selection
    (``dips``/``dips1``).  User ``s`` draws from
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
        states = [tr._UserState(s, rec.n_items, eval_cfg) for s in batch]
        ys = np.stack([st.y for st in states])
        masks = np.stack([st.mask for st in states])
        rngs = [np.random.default_rng((seed, int(s.user))) for s in batch]
        out = [[] for _ in batch]
        for t in range(1, max(len(s.items) for s in batch)):
            active = [i for i, s in enumerate(batch) if t < len(s.items)]
            u = tr.inner_adapt(rec, np.stack([states[i].sketch.z for i in active]),
                               ys[active], masks[active], cfg.inner_lr, cfg.inner_steps)
            nxt = np.array([batch[i].items[t] for i in active], dtype=np.int64)
            # explicit: one prediction per user; implicit: (B, M) scores
            preds, _ = rm.user_forward(rec, u, nxt, np.arange(len(active)))
            for b, i in enumerate(active):
                s = batch[i]
                if cfg.setting == rm.EXPLICIT:
                    err = (preds[b] - float(s.ratings[t])) ** 2
                    out[i].append(EvalRecord(s.user, t, "sq_error", err))
                else:
                    row = preds[b]
                    if exclude_history:
                        past = s.items[:t]
                        row = row.copy()
                        row[past[past != nxt[b]]] = -np.inf
                    out[i].append(EvalRecord(s.user, t, "rank",
                                             float(rank_of(nxt[b], row))))

            # advance the sketches exactly as the trainer would
            inters = [states[i].observe(t, eval_cfg) for i in active]
            z = [None] * len(active)
            at = [b for b, (_, boundary) in enumerate(inters) if learned and boundary]
            if at:
                sel = tr.select_with_policy(phi, np.stack([inters[b][0].zhat for b in at]),
                                            ys[[active[b] for b in at]], eval_cfg)
                for b, row in zip(at, sel.data):
                    z[b] = row
            for b, (i, (inter, _)) in enumerate(zip(active, inters)):
                states[i].commit(inter, rec, phi, eval_cfg, rngs[i], anchors, u=u[b], z=z[b])
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
