from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dips import datasets as ds
from dips import diagnostics as dg
from dips import diffcore as dc
from dips import metrics as met
from dips import policies as pol
from dips import recmodel as rm
from dips import trainer as tr


# ------------------------------------------------------------------- rmse

def test_aggregate_records_takes_the_rmse_of_the_squared_errors():
    # sqrt of the mean of 0.25, 4 and 2.5, read from the sq_error records
    # only; no sq_error record is an error
    records = [met.EvalRecord(0, 1, "sq_error", 0.25), met.EvalRecord(0, 2, "rank", 9.0),
               met.EvalRecord(1, 1, "sq_error", 4.0), met.EvalRecord(1, 2, "sq_error", 2.5)]
    assert met.aggregate_records(records, "explicit") == {"rmse": 1.5}
    with pytest.raises(ValueError, match="no sq_error records"):
        met.aggregate_records(records[1:2], "explicit")


# ------------------------------------------------------------------- ranks

def test_rank_of_extremes():
    scores = np.array([0.1, 0.9, 0.5])
    assert met.rank_of(1, scores) == 1
    assert met.rank_of(0, scores) == 3


def test_rank_of_all_ties_pessimistic():
    assert met.rank_of(3, np.zeros(10)) == 10


def test_rank_of_out_of_range():
    with pytest.raises(IndexError):
        met.rank_of(5, np.zeros(5))


def test_rank_of_rejects_a_nan_score():
    # a NaN compares false with every score, so a NaN target would rank
    # first and a NaN competitor would never outrank the target
    with pytest.raises(ValueError, match="NaN score at item 1"):
        met.rank_of(1, [0.5, np.nan, 2.0, 0.1])
    with pytest.raises(ValueError, match="NaN score at item 2"):
        met.rank_of(0, [0.5, 0.4, np.nan])


def test_recall_and_mrr_analytic():
    assert met.recall_at_k([1, 1, 1]) == 1.0
    assert met.recall_at_k([21], k=20) == 0.0
    assert met.mrr_at_k([1, 1]) == 1.0
    assert met.mrr_at_k([2], k=20) == 0.5
    with pytest.raises(ValueError):
        met.recall_at_k([])
    with pytest.raises(ValueError):
        met.mrr_at_k([])


# -------------------------------------------------------------- properties

@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-100, 100) | st.just(-np.inf), min_size=2, max_size=40),
       st.integers(0, 39))
def test_rank_of_counting_oracle(scores, target):
    # -inf is a masked item (exclude_history)
    target = target % len(scores)
    scores = np.asarray(scores)
    got = met.rank_of(target, scores)
    brute = 1 + sum(1 for j, s in enumerate(scores)
                    if j != target and s >= scores[target])
    assert got == brute
    assert 1 <= got <= len(scores)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 100), min_size=1, max_size=50),
       st.integers(1, 99))
def test_recall_monotone_and_mrr_bounded(ranks, k):
    r1 = met.recall_at_k(ranks, k)
    r2 = met.recall_at_k(ranks, k + 1)
    m = met.mrr_at_k(ranks, k)
    assert 0.0 <= r1 <= r2 <= 1.0
    assert 0.0 <= m <= r1


# ---------------------------------------------------------------- evaluate

def eval_setup(setting="explicit", seed=0, n_users=8, dim=3, hidden=4):
    cfg = tr.TrainConfig(sketch_size=2, tau=1, queue_size=5, inner_steps=1,
                         inner_lr=0.2, batch_size=4, seed=seed, setting=setting,
                         policy="dips", dim=dim, hidden=hidden, policy_hidden=8,
                         stochastic_train=False)
    sd = ds.synth_stream(
        ds.SynthConfig(n_users=n_users, n_items=30, length=8, n_anchors=2,
                       n_groups=2, setting=setting), seed=seed)
    rng = np.random.default_rng(seed)
    rec = rm.RecParams(30, dim=dim, hidden=hidden, setting=setting, rng=rng)
    phi = pol.PolicyParams(30, hidden=8, rng=rng)
    return rec, phi, sd.splits.test, cfg


def test_evaluate_does_not_mutate_parameters():
    rec, phi, streams, cfg = eval_setup(seed=1)
    before = {**{f"r{n}": a.copy() for n, a in rec.state_arrays().items()},
              **{f"p{n}": a.copy() for n, a in phi.state_arrays().items()}}
    met.evaluate(rec, phi, streams, cfg)
    after = {**{f"r{n}": a for n, a in rec.state_arrays().items()},
             **{f"p{n}": a for n, a in phi.state_arrays().items()}}
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])


EVAL_POLICIES = ("dips", "random", "hardest", "influence", "oracle")


def stack_setup(setting, seed=0, policy="dips"):
    """eval_setup's users cut to unequal lengths, so the stack of users
    still streaming shrinks, plus one user too short to evaluate; the
    oracle anchors every user's first item.  The recommender is wide
    enough that every policy's sketches move the implicit ranks."""
    rec, phi, streams, cfg = eval_setup(setting, seed=seed, n_users=40, dim=4, hidden=16)
    streams = [ds.UserStream(s.user, s.items[:n], s.ratings[:n])
               for s, n in zip(streams, (8, 3, 6, 1, 5, 7, 4, 8))]
    anchors = {s.user: {int(s.items[0])} for s in streams}
    return rec, phi, streams, replace(cfg, policy=policy), anchors


def assert_sketch_decides(rec, phi, streams, cfg, **kw):
    """The learned and the random policy give different rank records, so a
    test on these users sees an output that the sketch decides."""
    ranks = [[r.value for r in met.evaluate(rec, phi, streams, replace(cfg, policy=p),
                                            return_records=True, **kw).records]
             for p in ("dips", "random")]
    assert ranks[0] != ranks[1]


def test_evaluate_deterministic():
    for setting in ("explicit", "implicit"):
        rec, phi, streams, cfg, _ = stack_setup(setting)
        a = met.evaluate(rec, phi, streams, cfg, return_records=True)
        b = met.evaluate(rec, phi, streams, cfg, return_records=True)
        assert a == b
        assert len({r.user for r in a.records}) > 1
        if setting == "implicit":
            assert_sketch_decides(rec, phi, streams, cfg)


def test_evaluate_aggregates_match_records():
    for setting in ("explicit", "implicit"):
        rec, phi, streams, cfg, _ = stack_setup(setting, seed=2)
        res = met.evaluate(rec, phi, streams, cfg, return_records=True)
        assert res.aggregates == met.aggregate_records(res.records, setting)
        assert len({r.user for r in res.records}) > 1
        if setting == "implicit":
            assert_sketch_decides(rec, phi, streams, cfg)


def by_key(records):
    return {(r.user, r.step, r.metric): r.value for r in records}


@pytest.mark.parametrize("batch_size", [3, 64])
@pytest.mark.parametrize("policy", EVAL_POLICIES)
@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_stacked_evaluate_equals_one_user_at_a_time(setting, policy, batch_size):
    rec, phi, streams, cfg, anchors = stack_setup(setting, seed=5, policy=policy)
    cfg = replace(cfg, batch_size=batch_size)
    kw = dict(return_records=True, anchors=anchors, exclude_history=setting == "implicit")
    stacked = met.evaluate(rec, phi, streams, cfg, **kw).records
    alone = [r for s in streams if len(s.items) >= 2
             for r in met.evaluate(rec, phi, [s], cfg, **kw).records]
    assert [(r.user, r.step, r.metric) for r in stacked] == \
        [(r.user, r.step, r.metric) for r in alone]
    np.testing.assert_allclose([r.value for r in stacked], [r.value for r in alone],
                               rtol=1e-12, atol=1e-12)


@pytest.fixture
def no_engine(monkeypatch):
    """Constructing a ``diffcore.Tensor`` raises: every op, the graph
    functions of ``recmodel`` (on plain-array parameters too) and
    ``diffcore.grad`` construct one."""
    def construct(self, *args, **kwargs):
        raise AssertionError("diffcore.Tensor constructed")

    monkeypatch.setattr(dc.Tensor, "__init__", construct)


def test_no_engine_fixture_catches_the_engine(no_engine):
    rec = rm.RecParams(5, dim=2, hidden=3, rng=np.random.default_rng(0))
    for build in (lambda: dc.Tensor(np.ones(2)), lambda: dc.mul(np.ones(2), 2.0),
                  lambda: rm.next_item_loss(rec, np.zeros((1, 2)), [1], [3.0])):
        with pytest.raises(AssertionError, match="diffcore.Tensor constructed"):
            build()


@pytest.mark.parametrize("policy", EVAL_POLICIES)
@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_evaluate_builds_no_gradient(setting, policy, no_engine):
    # adaptation, predictions and every policy's commit are graph-free,
    # through either head
    rec, phi, streams, cfg, anchors = stack_setup(setting, seed=3, policy=policy)
    for tau in (1, 2):
        cfg = replace(cfg, tau=tau, mode="online" if tau == 1 else "batch")
        res = met.evaluate(rec, phi, streams, cfg, return_records=True, anchors=anchors)
        assert len(res.records) > 0


@pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
@pytest.mark.parametrize("stochastic", [False, True])
@pytest.mark.parametrize("policy, tau", [("dips", 1), ("dips", 2), ("dips1", 1), ("dips1", 2)])
def test_training_builds_no_graph(policy, tau, stochastic, dropout_rate, no_engine):
    # the policy gradient, its commits and the recommender's reverse pass
    # are closed forms, in both settings; the run still moves the policy
    # network
    for setting in ("explicit", "implicit"):
        rec, phi, streams, cfg = eval_setup(setting, n_users=20)
        cfg = replace(cfg, policy=policy, tau=tau, mode="online" if tau == 1 else "batch",
                      stochastic_train=stochastic, policy_dropout_rate=dropout_rate,
                      lr_policy=1e-2)
        data = ds.DatasetSplits(streams, streams[:2], [], rec.n_items)
        before = [a.copy() for a in phi.state_arrays().values()]
        res = tr.train(cfg, data, init_phi=phi)
        assert not all(np.array_equal(a, b)
                       for a, b in zip(res.phi.state_arrays().values(), before))


def test_the_exact_replay_builds_no_graph(no_engine):
    # in both settings, through either head
    for setting in ("explicit", "implicit"):
        for tau in (1, 2):
            rec, phi, streams, cfg = eval_setup(setting)
            cfg = replace(cfg, tau=tau, mode="online" if tau == 1 else "batch")
            stream = next(s for s in streams if len(s.items) > cfg.sketch_size + 2)
            grads, v = dg.true_policy_grad(rec, phi, stream, cfg, cfg.sketch_size + 2)
            assert any(np.any(g != 0) for g in grads) and v.shape == (rec.n_items,)


def test_evaluate_order_invariant():
    for setting in ("explicit", "implicit"):
        for policy in EVAL_POLICIES:
            rec, phi, streams, cfg, anchors = stack_setup(setting, seed=3, policy=policy)
            a = met.evaluate(rec, phi, streams, cfg, return_records=True, anchors=anchors)
            b = met.evaluate(rec, phi, list(reversed(streams)), cfg, return_records=True,
                             anchors=anchors)
            ka, kb = by_key(a.records), by_key(b.records)
            assert len(ka) == len(a.records) and ka.keys() == kb.keys()
            for key, value in ka.items():
                assert kb[key] == pytest.approx(value, rel=1e-12, abs=1e-12), (policy, key)
            for name, value in a.aggregates.items():
                assert b.aggregates[name] == pytest.approx(value, rel=1e-12), (policy, name)


def per_user_reference(rec, phi, stream, cfg, exclude_history, anchors):
    """The protocol for one user, step by step, as a plain per-user loop."""
    eval_cfg = replace(cfg, stochastic_train=False)
    st = tr._UserState(stream, rec.n_items, eval_cfg)
    records = []
    for t in range(1, len(stream.items)):
        u = dc.Tensor(tr.inner_adapt(rec, st.sketch.z[None], st.y[None], st.mask[None],
                                     cfg.inner_lr, cfg.inner_steps))
        nxt = int(stream.items[t])
        if cfg.setting == rm.EXPLICIT:
            pred = rm.predict_explicit_many(rec, u, [nxt], [0]).data[0]
            err = (pred - float(stream.ratings[t])) ** 2
            records.append(met.EvalRecord(stream.user, t, "sq_error", err))
        else:
            scores = rm.predict_implicit(rec, u).data[0].copy()
            if exclude_history:
                past = stream.items[:t]
                scores[past[past != nxt]] = -np.inf
            records.append(met.EvalRecord(stream.user, t, "rank",
                                          float(met.rank_of(nxt, scores))))
        inter, _ = st.observe(t, eval_cfg)
        st.commit(inter, rec, phi, eval_cfg, None, anchors)
    return records


@pytest.mark.parametrize("exclude_history", [False, True])
@pytest.mark.parametrize("policy", ["dips", "dips1", "hardest", "influence", "oracle"])
@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_one_user_evaluates_bit_for_bit_as_a_per_user_loop(setting, policy, exclude_history):
    rec, phi, streams, cfg, anchors = stack_setup(setting, seed=6, policy=policy)
    for s in streams[:3]:
        if len(s.items) < 2:
            continue
        got = met.evaluate(rec, phi, [s], cfg, exclude_history=exclude_history,
                           return_records=True, anchors=anchors).records
        assert got == per_user_reference(rec, phi, s, cfg, exclude_history, anchors)


def test_each_user_draws_from_its_own_generator():
    rec, phi, streams, cfg, _ = stack_setup("implicit", seed=7, policy="random")
    res = met.evaluate(rec, phi, streams, cfg, seed=11, return_records=True)
    again = met.evaluate(rec, phi, streams[4:5], cfg, seed=11, return_records=True)
    assert again.records == [r for r in res.records if r.user == streams[4].user]
    with pytest.raises(ValueError):
        met.evaluate(rec, phi, streams, cfg, seed=-1)


def test_untrained_implicit_recall_near_chance():
    # fresh random model: the target's rank is uniform-ish, recall@k ~ k/M
    M, k = 40, 8
    cfg = tr.TrainConfig(sketch_size=2, tau=1, inner_steps=0, setting="implicit",
                         policy="random", dim=3, hidden=4, policy_hidden=8,
                         stochastic_train=False, seed=0)
    streams = []
    rng = np.random.default_rng(0)
    for u in range(60):
        items = rng.choice(M, size=10, replace=False)
        streams.append(ds.UserStream(user=u, items=items, ratings=np.ones(10)))
    rec = rm.RecParams(M, dim=3, hidden=4, setting="implicit",
                       rng=np.random.default_rng(1))
    phi = pol.PolicyParams(M, hidden=8, rng=np.random.default_rng(1))
    agg = met.evaluate(rec, phi, streams, cfg, k=k)
    n = 60 * 9
    p = k / M
    se = np.sqrt(p * (1 - p) / n)
    assert abs(agg[f"recall@{k}"] - p) < 4 * se + 0.02


def test_exclude_history_improves_rank():
    rec, phi, streams, cfg, _ = stack_setup("implicit", seed=4)
    base = met.evaluate(rec, phi, streams, cfg, return_records=True)
    masked = met.evaluate(rec, phi, streams, cfg, exclude_history=True,
                          return_records=True)
    assert_sketch_decides(rec, phi, streams, cfg, exclude_history=True)
    assert len(base.records) == len(masked.records)
    for a, b in zip(base.records, masked.records):
        assert b.value <= a.value  # removing competitors can only help


def test_summary_table_format():
    rows = {("dips", 4, 1, "rmse"): [1.0, 1.2], ("random", 4, 1, "rmse"): [1.5]}
    out = met.summary_table(rows)
    lines = out.strip().split("\n")
    assert lines[0] == "policy,K,tau,metric,mean,std,n_seeds"
    assert lines[1].startswith("dips,4,1,rmse,1.100000")
    assert lines[2].endswith(",1")
