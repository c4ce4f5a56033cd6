"""End-to-end acceptance suite.

Each test covers one release gate and prints a single PASS/FAIL line on the
real stdout so the verdicts are visible in any pytest run:

1. gradient fidelity          -- finite-difference suites at stated tolerances
2. top-k projection oracle    -- independent bisection cross-check
3. queue-estimate exactness   -- frozen-policy estimate equals full replay
4. reservoir statistics       -- inclusion probability K/t within 3 sigma
5. policy separation          -- learned policy beats all baselines, 5 seeds
6. queue ablation direction   -- full queue zeroes fewer true coordinates
7. head agreement             -- online and top-k heads keep the same items
8. invariant property suite   -- structural invariants, 200 random cases each
"""

import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dips import cli
from dips import datasets as ds
from dips import diagnostics as dg
from dips import metrics as mx
from dips import policies as pol
from dips import trainer as tr


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    assert ok, line


# ------------------------------------------------- 1. gradient fidelity

def test_acceptance_1_gradient_fidelity(capsys):
    t0 = time.perf_counter()
    failures = cli.run_gradchecks(out=sys.stderr)
    elapsed = time.perf_counter() - t0
    _verdict(1, "gradient fidelity", not failures and elapsed < 60.0,
             f"failures={failures or 'none'} elapsed={elapsed:.1f}s")


# ------------------------------------------- 2. top-k projection oracle

def _oracle_keep_indicator(f, k):
    """Independent solver for u = sigmoid(f + shift) with sum(u) = k.

    Plain interval bisection on the monotone total-mass function, written
    separately from the implementation under test.
    """
    lo, hi = -float(np.max(f)) - 60.0, -float(np.min(f)) + 60.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if np.sum(1.0 / (1.0 + np.exp(-(f + mid)))) < k:
            lo = mid
        else:
            hi = mid
    shift = 0.5 * (lo + hi)
    return 1.0 / (1.0 + np.exp(-(f + shift)))


def test_acceptance_2_topk_projection_oracle():
    rng = np.random.default_rng(20)
    worst_comp, worst_mass, order_ok = 0.0, 0.0, True
    for _ in range(100):
        m = int(rng.integers(4, 65))
        k = int(rng.integers(1, m))
        f = rng.normal(0.0, 3.0, size=m)
        u = pol.topk_project(f, k).data
        ref = _oracle_keep_indicator(f, k)
        worst_comp = max(worst_comp, float(np.abs(u - ref).max()))
        worst_mass = max(worst_mass, abs(float(u.sum()) - k))
        order_ok = order_ok and np.array_equal(np.argsort(u), np.argsort(f))
    ok = worst_comp <= 1e-7 and worst_mass <= 1e-8 and order_ok
    _verdict(2, "top-k projection oracle", ok,
             f"max|u-ref|={worst_comp:.2e} max|sum(u)-K|={worst_mass:.2e} "
             f"order={'kept' if order_ok else 'broken'}")


# --------------------------------------- 3. queue-estimate exactness

def _frozen_cfg(**kw):
    base = dict(sketch_size=3, tau=1, queue_size=200, inner_steps=1,
                inner_lr=0.3, lr_user=0.0, lr_item=0.0, lr_policy=0.0,
                batch_size=1, epochs=1, seed=0, setting="explicit",
                policy="dips", dim=4, hidden=8, policy_hidden=16,
                stochastic_train=False, policy_dropout_rate=0.0,
                weight_decay=0.0)
    base.update(kw)
    return tr.TrainConfig(**base)


def test_acceptance_3_queue_estimate_exactness():
    sd = ds.synth_stream(ds.SynthConfig(
        n_users=6, n_items=40, length=31, n_anchors=2, n_groups=2), seed=7)
    stream = sd.splits.train[0]
    cfg = _frozen_cfg()
    captured = {}
    res = tr.train(cfg, ds.DatasetSplits([stream], [], [], 40),
                   validate_each_epoch=False,
                   policy_grad_hook=lambda u, t, g, v: captured.update(
                       {t: [x.copy() for x in g]}))
    worst = 0.0
    for t in sorted(captured):
        true_g, _ = dg.true_policy_grad(res.rec, res.phi, stream, cfg, t)
        for a, b in zip(captured[t], true_g):
            scale = max(1.0, float(np.abs(b).max()))
            worst = max(worst, float(np.abs(a - b).max()) / scale)
    ok = bool(captured) and worst <= 1e-6
    _verdict(3, "queue-estimate exactness", ok,
             f"boundaries={len(captured)} worst rel diff={worst:.2e}")


# ------------------------------------------- 4. reservoir statistics

def test_acceptance_4_reservoir_statistics():
    K, T, trials = 10, 100, 20000
    rng = np.random.default_rng(4)
    counts = np.zeros(T)
    steps = np.arange(1, T + 1)[None]   # slot p holds item p, streamed at step p + 1
    for _ in range(trials):
        counts[pol.reservoir_update(steps, K, [rng])[0]] += 1
    p = K / T
    sigma = np.sqrt(p * (1 - p) * trials)
    dev = float(np.abs(counts - p * trials).max())
    ok = dev <= 3 * sigma
    _verdict(4, "reservoir statistics", ok,
             f"max deviation {dev:.0f} vs 3 sigma = {3 * sigma:.0f} "
             f"(K={K}, T={T}, trials={trials})")


# ------------------------------------------- 5. policy separation

_BENCH_TRAIN, _BENCH_TEST = 100, 50


def _bench_seed(setting, seed):
    """One seeded benchmark round: shared recommender, four sketch policies."""
    if setting == "explicit":
        dcfg = ds.SynthConfig(n_users=2000, n_items=500, length=40,
                              n_anchors=4, n_groups=2, anchor_weight=0.4,
                              noise=1.0, user_bias_std=0.8, junk_prob=0.12,
                              clip=False)
        pre_lr, adapt_lr, pre_epochs, metric = 0.1, 0.1, 2, "rmse"
    else:
        dcfg = ds.SynthConfig(n_users=2000, n_items=500, length=40,
                              n_anchors=4, n_groups=2, filler_like_prob=0.75,
                              setting="implicit")
        pre_lr, adapt_lr, pre_epochs, metric = 2.0, 5.0, 1, "recall@20"
    data = ds.synth_stream(dcfg, seed=seed)
    sub = ds.DatasetSplits(data.splits.train[:_BENCH_TRAIN],
                           data.splits.valid[:20],
                           data.splits.test[:_BENCH_TEST], dcfg.n_items)
    base = tr.TrainConfig(sketch_size=4, tau=1, queue_size=0, inner_steps=1,
                          inner_lr=pre_lr, lr_user=1e-2, lr_item=1e-2,
                          lr_policy=0.0, batch_size=16, epochs=pre_epochs,
                          seed=seed, setting=setting, policy="oracle",
                          dim=8, hidden=32)
    pre = tr.train(base, sub, oracle_anchors=data.anchors,
                   validate_each_epoch=False)
    ev = replace(base, inner_lr=adapt_lr)
    pcfg = replace(ev, policy="dips", queue_size=8, lr_policy=1e-3,
                   lr_user=0.0, lr_item=0.0, epochs=1)
    learned = tr.train(pcfg, sub, init_rec=pre.rec, validate_each_epoch=False)
    out = {}
    for policy in ("dips", "random", "hardest", "influence"):
        phi = learned.phi if policy == "dips" else pre.phi
        out[policy] = mx.evaluate(pre.rec, phi, sub.test,
                                  replace(ev, policy=policy),
                                  seed=1000 + seed)[metric]
    return out


def test_acceptance_5_policy_separation():
    verdicts = []
    for setting, metric, sign in [("explicit", "rmse", -1.0),
                                  ("implicit", "recall@20", 1.0)]:
        per = {}
        for seed in range(5):
            for k, v in _bench_seed(setting, seed).items():
                per.setdefault(k, []).append(v)
        d = np.array(per["dips"])
        for b in ("random", "hardest", "influence"):
            diff = sign * (d - np.array(per[b]))
            se = float(diff.std(ddof=1) / np.sqrt(len(diff)))
            t_stat = diff.mean() / se if se > 0 else np.inf
            verdicts.append((f"{setting}:{metric} vs {b}",
                             float(diff.mean()), t_stat,
                             bool(np.all(np.isfinite(diff))
                                  and diff.mean() > 0 and t_stat > 2.0)))
    ok = all(v[-1] for v in verdicts)
    detail = "  ".join(f"{name} gain={gain:+.4f} t={t:.1f}"
                       for name, gain, t, _ in verdicts)
    _verdict(5, "policy separation", ok, detail)


# ------------------------------------- 6. queue ablation direction

def test_acceptance_6_queue_ablation_direction():
    zeroed = {"dips": [], "dips1": []}
    for seed in range(5):
        sd = ds.synth_stream(ds.SynthConfig(
            n_users=6, n_items=40, length=20, n_anchors=2, n_groups=2),
            seed=100 + seed)
        stream = sd.splits.train[0]
        for policy in ("dips", "dips1"):
            cfg = _frozen_cfg(policy=policy, lr_policy=1e-4, seed=seed)
            captured = {}
            res = tr.train(cfg, ds.DatasetSplits([stream], [], [], 40),
                           validate_each_epoch=False,
                           policy_grad_hook=lambda u, t, g, v:
                           captured.update({t: [x.copy() for x in g]}))
            replay_cfg = _frozen_cfg(lr_policy=0.0, seed=seed)
            for t in sorted(captured):
                true_g, _ = dg.true_policy_grad(res.rec, res.phi, stream,
                                                replay_cfg, t)
                rep = dg.direction_stats(captured[t], true_g)
                zeroed[policy].append(rep.zeroed)
    full, ablated = np.mean(zeroed["dips"]), np.mean(zeroed["dips1"])
    ok = full < ablated
    _verdict(6, "queue ablation direction", ok,
             f"zeroed fraction: full queue={full:.3f} "
             f"single-step ablation={ablated:.3f}")


# ------------------------------------------------ 7. head agreement

def test_acceptance_7_head_agreement():
    # a tau=1 policy replayed deterministically over every stream: at every
    # boundary the online head (softmax removal) and the top-k head keep
    # the same K of the K+1 items.  Both read a score as keep, so this holds
    # for any finite scores and a seeded, untrained policy shows it.
    sd = ds.synth_stream(ds.SynthConfig(
        n_users=10, n_items=30, length=12, n_anchors=2, n_groups=2), seed=5)
    cfg = tr.TrainConfig(sketch_size=3, tau=1, policy="dips", policy_hidden=16,
                         stochastic_train=False)
    splits = sd.splits
    phi = pol.PolicyParams(splits.n_items, hidden=cfg.policy_hidden,
                           rng=np.random.default_rng(3))
    boundaries = agree = 0
    for stream in splits.train + splits.valid + splits.test:
        table = tr.SketchTable([stream], splits.n_items, cfg)
        for t in range(1, len(stream.items)):
            _, up = table.observe(t, np.zeros(1, dtype=np.int64))
            if up.size:
                zhat, y = table.zhat(up)[0], table.y[0]
                z = tr.select_with_policy(phi, zhat, y, cfg).data
                online = np.flatnonzero(z > 0.5)
                scores = pol.policy_scores(zhat, y, phi)
                _, top_k = pol.batch_keep(pol.topk_project(scores, cfg.sketch_size),
                                          cfg.sketch_size)
                boundaries += 1
                agree += np.array_equal(online, top_k)
                table.commit(up, z=z[None])
    ok = boundaries > 0 and agree == boundaries
    _verdict(7, "head agreement", ok,
             f"same kept items at {agree} of {boundaries} boundaries")


# --------------------------------------- 8. invariant property suite

_CASES = settings(max_examples=200, deadline=None, derandomize=True)


@_CASES
@given(st.integers(1, 8), st.integers(1, 60), st.integers(0, 2 ** 31 - 1))
def _prop_sketch_cardinality(k, t_total, seed):
    rng = np.random.default_rng(seed)
    stream = ds.UserStream(0, np.arange(t_total), np.ones(t_total))
    table = tr.SketchTable([stream], t_total, tr.TrainConfig(sketch_size=k, policy="random"),
                           [rng])
    for t in range(1, t_total + 1):
        _, up = table.observe(t, np.zeros(1, dtype=np.int64))
        table.commit(up)
        assert table.kept[0] == min(t, k) <= k


@_CASES
@given(st.integers(2, 10), st.integers(0, 2 ** 31 - 1),
       st.integers(0, 2 ** 31 - 1))
def _prop_removal_respects_mask(m, phi_seed, z_seed):
    rng = np.random.default_rng(z_seed)
    support = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
    zhat = np.zeros(m)
    zhat[support] = 1.0
    y = rng.normal(3.0, 1.0, size=m) * zhat
    phi = pol.PolicyParams(m, hidden=8, rng=np.random.default_rng(phi_seed))
    scores = pol.policy_scores(zhat, y, phi)
    _, removed = pol.online_remove(scores)
    assert zhat[removed] == 1.0  # never removes an item outside the sketch


@_CASES
@given(st.integers(2, 10), st.integers(0, 2 ** 31 - 1),
       st.integers(0, 2 ** 31 - 1))
def _prop_stochastic_selection_deterministic_under_seed(m, phi_seed, seed):
    zhat = np.ones(m)
    y = np.linspace(1.0, 5.0, m)
    phi = pol.PolicyParams(m, hidden=8, rng=np.random.default_rng(phi_seed))
    scores = pol.policy_scores(zhat, y, phi)
    _, r1 = pol.online_remove(scores, mode="stochastic",
                              rng=np.random.default_rng(seed))
    _, r2 = pol.online_remove(scores, mode="stochastic",
                              rng=np.random.default_rng(seed))
    assert r1 == r2


@_CASES
@given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=50),
       st.integers(1, 30))
def _prop_metric_bounds(ranks, k):
    ranks = [float(r) for r in ranks]
    recall = mx.recall_at_k(ranks, k)
    mrr = mx.mrr_at_k(ranks, k)
    assert 0.0 <= recall <= 1.0
    assert 0.0 <= mrr <= recall  # each reciprocal rank is at most one


@_CASES
@given(st.integers(0, 6), st.lists(st.integers(0, 100), max_size=20))
def _prop_queue_fifo(capacity, payloads):
    q = tr.SketchQueue(capacity)
    for p in payloads:
        q.push(np.array([float(p)]))
    expect = payloads[-capacity:] if capacity else []
    got = [int(a[0]) for a in q.entries()]
    assert got == expect


def test_acceptance_8_invariant_property_suite():
    checks = [("sketch cardinality", _prop_sketch_cardinality),
              ("masked removal", _prop_removal_respects_mask),
              ("seeded determinism", _prop_stochastic_selection_deterministic_under_seed),
              ("metric bounds", _prop_metric_bounds),
              ("queue FIFO", _prop_queue_fifo)]
    failed = []
    for name, prop in checks:
        try:
            prop()
        except Exception as e:  # hypothesis raises the minimal counterexample
            failed.append(f"{name}: {e}")
    _verdict(8, "invariant property suite", not failed,
             "; ".join(failed) if failed else
             f"{len(checks)} invariants x 200 random cases")
