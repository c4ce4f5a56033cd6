import numpy as np
import pytest

from dips import datasets as ds
from dips import diagnostics as dg
from dips import trainer as tr


def frozen_cfg(**kw):
    base = dict(sketch_size=3, tau=1, queue_size=100, inner_steps=1, inner_lr=0.3,
                lr_user=0.0, lr_item=0.0, lr_policy=0.0, batch_size=1,
                epochs=1, seed=0, setting="explicit", policy="dips",
                dim=4, hidden=8, policy_hidden=16, stochastic_train=False,
                weight_decay=0.0)
    base.update(kw)
    return tr.TrainConfig(**base)


def one_stream(length=15, n_items=30, seed=0):
    sd = ds.synth_stream(
        ds.SynthConfig(n_users=6, n_items=n_items, length=length, n_anchors=2,
                       n_groups=2), seed=seed)
    return sd.splits.train[0], n_items


# ------------------------------------------------------------ grad report

def test_report_identical_gradients():
    g = [np.array([1.0, -2.0, 3.0])]
    rep = dg.direction_stats(g, g)
    assert rep.preserved == 1.0 and rep.negated == 0.0 and rep.zeroed == 0.0
    assert rep.cosine == pytest.approx(1.0)


def test_report_negated_gradients():
    g = [np.array([1.0, -2.0, 3.0])]
    rep = dg.direction_stats([-g[0]], g)
    assert rep.negated == 1.0
    assert rep.cosine == pytest.approx(-1.0)


def test_report_partially_zeroed():
    true = [np.arange(1.0, 11.0)]
    approx = [true[0].copy()]
    approx[0][:3] = 0.0  # 30% zeroed
    rep = dg.direction_stats(approx, true)
    assert rep.preserved == pytest.approx(0.7)
    assert rep.zeroed == pytest.approx(0.3)
    assert rep.negated == 0.0


def test_report_spurious_nonzero():
    true = [np.array([0.0, 0.0, 1.0, 2.0])]
    approx = [np.array([0.5, 0.0, 1.0, 2.0])]
    rep = dg.direction_stats(approx, true)
    assert rep.spurious == pytest.approx(0.5)


def test_report_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        dg.direction_stats([np.zeros(3)], [np.zeros(4)])


def test_report_fraction_validation():
    with pytest.raises(ValueError):
        dg.GradReport(preserved=0.9, negated=0.3, zeroed=0.0, spurious=0.0, cosine=0.5)
    rep = dg.GradReport(preserved=0.5, negated=0.25, zeroed=0.25, spurious=0.1, cosine=0.0)
    assert "preserved" in rep.to_json()


# ---------------------------------------------------------- replay oracle

def test_replay_rejects_oversized_instances():
    stream, M = one_stream()
    rec_phi = tr.train(frozen_cfg(), ds.DatasetSplits([stream], [], [], M),
                       validate_each_epoch=False)
    with pytest.raises(ValueError, match="length"):
        dg.true_policy_grad(rec_phi.rec, rec_phi.phi, stream, frozen_cfg(), 5,
                            max_len=3)
    with pytest.raises(ValueError, match="catalog"):
        dg.true_policy_grad(rec_phi.rec, rec_phi.phi, stream, frozen_cfg(), 5,
                            max_items=10)
    with pytest.raises(ValueError, match="probe"):
        dg.true_policy_grad(rec_phi.rec, rec_phi.phi, stream, frozen_cfg(), 2)


def test_frozen_policy_queue_estimate_equals_replay():
    stream, M = one_stream(length=20, seed=1)
    data = ds.DatasetSplits([stream], [], [], M)
    cfg = frozen_cfg()
    captured = {}
    res = tr.train(cfg, data, validate_each_epoch=False,
                   policy_grad_hook=lambda u, t, g, v: captured.update(
                       {t: ([x.copy() for x in g], v[0].copy())}))
    assert captured
    for t in sorted(captured):
        true_g, true_v = dg.true_policy_grad(res.rec, res.phi, stream, cfg, t)
        rep = dg.direction_stats(captured[t][0], true_g)
        assert rep.preserved == 1.0
        for a, b in zip(captured[t][0], true_g):
            np.testing.assert_allclose(a, b, atol=1e-6 * max(1.0, np.abs(b).max()))
        np.testing.assert_allclose(captured[t][1], true_v, atol=1e-12)


def test_first_boundary_replay_equals_first_term_only():
    # at the first post-warm-up step no indicator has been stored yet, so
    # the replay gradient is exactly the single-selection (no-queue) term
    stream, M = one_stream(length=10, seed=2)
    cfg = frozen_cfg()
    res = tr.train(cfg, ds.DatasetSplits([stream], [], [], M),
                   validate_each_epoch=False)
    probe = cfg.sketch_size + 1
    true_g, v = dg.true_policy_grad(res.rec, res.phi, stream, cfg, probe)

    st = tr._UserState(stream, M, cfg)
    for t in range(1, probe):
        e = tr.SketchEntry(int(stream.items[t - 1]), float(stream.ratings[t - 1]), t)
        st.sketch = tr.Sketch(cfg.sketch_size, M, tuple(st.sketch.entries) + (e,))
    zhat = st.sketch.z
    zhat[int(stream.items[probe - 1])] += 1.0
    first_only, _, _, _ = tr.policy_gradient(
        res.phi, res.rec, st.y[None], st.mask[None], zhat[None], [[]],
        stream.items[probe:probe + 1], stream.ratings[probe:probe + 1], cfg)
    for a, b in zip(first_only, true_g):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_queue_truncation_keeps_positive_cosine():
    # small queue vs full replay: approximation should still point the
    # same general direction on a fresh (lightly trained) policy
    stream, M = one_stream(length=24, seed=3)
    data = ds.DatasetSplits([stream], [], [], M)
    cfg = frozen_cfg(queue_size=4, lr_policy=1e-4)
    captured = {}
    res = tr.train(cfg, data, validate_each_epoch=False,
                   policy_grad_hook=lambda u, t, g, v: captured.update(
                       {t: [x.copy() for x in g]}))
    replay_cfg = frozen_cfg(queue_size=4)  # frozen phi for the replay itself
    cosines = []
    for t in sorted(captured):
        true_g, _ = dg.true_policy_grad(res.rec, res.phi, stream, replay_cfg, t)
        rep = dg.direction_stats(captured[t], true_g)
        cosines.append(rep.cosine)
    assert np.mean(cosines) > 0
