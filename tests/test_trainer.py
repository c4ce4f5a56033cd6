import numpy as np
import pytest

from dips import datasets as ds
from dips import diffcore as dc
from dips import policies as pol
from dips import recmodel as rm
from dips import trainer as tr
from dips.diffcore import Tensor

from test_policies import _affine_rig


def small_cfg(**kw):
    base = dict(sketch_size=2, tau=1, queue_size=10, inner_steps=2, inner_lr=0.2,
                lr_user=1e-3, lr_item=1e-3, lr_policy=1e-3, batch_size=4,
                epochs=1, seed=0, setting="explicit", policy="dips",
                dim=3, hidden=4, policy_hidden=8, stochastic_train=False)
    base.update(kw)
    return tr.TrainConfig(**base)


def small_problem(seed=0, M=5, d=3, n_entries=3):
    rng = np.random.default_rng(seed)
    rec = rm.RecParams(n_items=M, dim=d, hidden=4, setting="explicit", rng=rng)
    items = rng.choice(M, size=n_entries + 1, replace=False)
    mask = np.zeros(M)
    y = np.zeros(M)
    mask[items] = 1
    y[items] = rng.uniform(1, 5, size=items.size)
    z = np.zeros(M)
    z[items[:-1]] = 1.0
    return rec, z, y, mask, int(items[-1]), float(y[items[-1]])


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ValueError, match="tau"):
        small_cfg(tau=0)
    with pytest.raises(ValueError, match="sketch_size"):
        small_cfg(sketch_size=0)
    with pytest.raises(ValueError, match="policy"):
        small_cfg(policy="greedy")
    with pytest.raises(ValueError, match="online"):
        small_cfg(mode="online", tau=3)
    with pytest.raises(ValueError, match="lr_user"):
        small_cfg(lr_user=-1.0)
    with pytest.raises(ValueError, match="mode"):
        small_cfg(mode="stream")


# ------------------------------------------------------------------- queue

def test_queue_fifo_eviction():
    q = tr.SketchQueue(3)
    for i in range(5):
        q.push(np.full(2, float(i)))
    assert len(q) == 3
    assert [e[0] for e in q.entries()] == [2.0, 3.0, 4.0]


def test_queue_preserves_order_and_copies():
    q = tr.SketchQueue(4)
    v = np.zeros(3)
    q.push(v)
    v[0] = 9.0  # caller mutation must not leak in
    assert q.entries()[0][0] == 0.0


def test_queue_capacity_zero_stays_empty():
    q = tr.SketchQueue(0)
    q.push(np.ones(2))
    assert len(q) == 0


# -------------------------------------------------------------- optimizers

def test_sgd_momentum_matches_hand_rollout():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = tr.SGDMomentum([p], lr=0.1, momentum=0.9, weight_decay=0.0)
    x, v = 1.0, 0.0
    for g in (0.5, -0.2, 1.0):
        opt.step([np.array([g])])
        v = 0.9 * v + g
        x = x - 0.1 * v
        assert p.data[0] == pytest.approx(x, rel=1e-12)


def test_adam_first_step_is_signed_lr():
    p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    opt = tr.Adam([p], lr=0.01)
    opt.step([np.array([3.0, -7.0])])
    # bias-corrected first step is -lr * g / (|g| + eps)
    np.testing.assert_allclose(p.data, [-0.01, 0.01], rtol=1e-6)


def test_weight_decay_shrinks_parameters():
    p = Tensor(np.array([2.0]), requires_grad=True)
    tr.SGDMomentum([p], lr=0.1, momentum=0.0, weight_decay=0.5).step([np.zeros(1)])
    assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


# ------------------------------------------------------------- inner adapt

def test_inner_adapt_identity_cases():
    rec, z, y, mask, _, _ = small_problem()
    u0 = rec.user_emb.data.copy()
    for theta in (tr.inner_adapt(rec, z, y, mask, 0.2, 0),
                  tr.inner_adapt(rec, z, y, mask, 0.0, 5),
                  tr.inner_adapt(rec, np.zeros(rec.n_items), y, mask, 0.2, 5)):
        np.testing.assert_array_equal(theta.user.data, u0)


def test_inner_adapt_monotone_decrease_convex_toy():
    # keep every relu active so the sketch loss is a convex quadratic in u
    rec, z, y, mask, _, _ = small_problem(seed=2)
    rec.b1.data[:] = 5.0
    rec.w1.data *= 0.1
    prev = rm.sketch_loss(z, y, mask, rm.local_from_global(rec)).item()
    for n in range(1, 11):
        theta = tr.inner_adapt(rec, z, y, mask, 0.2, n, record=False)
        cur = rm.sketch_loss(z, y, mask, theta).item()
        assert cur <= prev + 1e-12
        prev = cur


def test_inner_adapt_leaves_item_params_untouched():
    rec, z, y, mask, _, _ = small_problem(seed=3)
    before = [p.data.copy() for p in rec.item_params()]
    tr.inner_adapt(rec, z, y, mask, 0.5, 4)
    for p, b in zip(rec.item_params(), before):
        np.testing.assert_array_equal(p.data, b)


def test_record_false_matches_recorded_values():
    rec, z, y, mask, _, _ = small_problem(seed=4)
    a = tr.inner_adapt(rec, z, y, mask, 0.1, 3, record=True)
    b = tr.inner_adapt(rec, z, y, mask, 0.1, 3, record=False)
    np.testing.assert_allclose(a.user.data, b.user.data, atol=1e-14)


# ------------------------------------------------------------- outer steps

def test_zero_inner_steps_meta_grad_is_plain_grad():
    rec, z, y, mask, nxt, r = small_problem(seed=5)
    cfg = small_cfg(inner_steps=0)
    grads, _ = tr.theta_gradients(rec, z, y, mask, nxt, r, cfg)
    loss = rm.next_item_loss(rm.local_from_global(rec), nxt, r)
    plain = dc.grad(loss, rec.all_params())
    for g, p in zip(grads, plain):
        np.testing.assert_allclose(g, p.data, atol=1e-12)


def test_outer_step_zero_rate_keeps_params():
    rec, z, y, mask, nxt, r = small_problem(seed=6)
    cfg = small_cfg(lr_user=0.0, lr_item=0.0, weight_decay=0.0)
    before = {n: a.copy() for n, a in rec.state_arrays().items()}
    tr.outer_theta_step(rec, z, y, mask, nxt, r, cfg)
    for n, a in rec.state_arrays().items():
        np.testing.assert_array_equal(a, before[n])


def test_outer_step_rejects_bad_item():
    rec, z, y, mask, _, r = small_problem(seed=7)
    with pytest.raises(IndexError):
        tr.outer_theta_step(rec, z, y, mask, rec.n_items, r, small_cfg())


def test_meta_gradient_matches_finite_differences():
    # M=5, d=3, K=2, two unrolled inner steps
    rec, z, y, mask, nxt, r = small_problem(seed=8, M=5, d=3, n_entries=2)
    cfg = small_cfg(inner_steps=2, inner_lr=0.2)
    grads, _ = tr.theta_gradients(rec, z, y, mask, nxt, r, cfg)

    def loss_at():
        theta = tr.inner_adapt(rec, z, y, mask, cfg.inner_lr, cfg.inner_steps,
                               record=False)
        return rm.next_item_loss(theta, nxt, r).item()

    h = 1e-5
    rng = np.random.default_rng(0)
    for p, g in zip(rec.all_params(), grads):
        flat = p.data.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        idxs = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_at()
            flat[i] = orig - h
            lm = loss_at()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            scale = max(abs(fd), abs(gflat[i]), 1e-6)
            assert abs(gflat[i] - fd) / scale <= 1e-3


# --------------------------------------------------------- grad wrt sketch

def test_grad_wrt_sketch_finite_differences():
    rec, z, y, mask, nxt, r = small_problem(seed=9)
    cfg = small_cfg(inner_steps=2, inner_lr=0.2)
    v = tr.grad_wrt_sketch(rec, z, y, mask, nxt, r, cfg)
    assert v.shape == (rec.n_items,)

    def loss_with(zv):
        theta = tr.inner_adapt(rec, zv, y, mask, cfg.inner_lr, cfg.inner_steps,
                               record=False)
        return rm.next_item_loss(theta, nxt, r).item()

    for j in np.flatnonzero(mask):
        zp, zm = z.copy(), z.copy()
        zp[j] += 1e-4
        zm[j] = max(zm[j] - 1e-4, 0.0)
        fd = (loss_with(zp) - loss_with(zm)) / (zp[j] - zm[j])
        scale = max(abs(fd), abs(v[j]), 1e-6)
        assert abs(v[j] - fd) / scale <= 1e-3


def test_grad_wrt_sketch_defined_on_zero_weight_items():
    rec, z, y, mask, nxt, r = small_problem(seed=10)
    j = next(int(i) for i in np.flatnonzero(mask) if z[i] == 0.0)
    v = tr.grad_wrt_sketch(rec, z, y, mask, nxt, r, small_cfg())
    assert np.isfinite(v[j])


def test_grad_wrt_sketch_duplicate_items_equal_entries():
    rec, z, y, mask, nxt, r = small_problem(seed=11)
    ints = np.flatnonzero(mask)
    a, b = int(ints[0]), int(ints[1])
    rec.item_emb.data[b] = rec.item_emb.data[a]
    y2 = y.copy()
    y2[b] = y2[a]
    z2 = z.copy()
    z2[a] = z2[b] = 1.0
    v = tr.grad_wrt_sketch(rec, z2, y2, mask, nxt, r, small_cfg())
    assert v[a] == pytest.approx(v[b], rel=1e-10)


def test_grad_wrt_sketch_one_step_closed_form():
    # exact affine model, one inner step: v_j = -alpha g_next(u1) . g_j(u0)
    rec, entries, A, C, ratings = _affine_rig()
    M = rec.n_items
    mask = np.zeros(M)
    y = np.zeros(M)
    for e in entries:
        mask[e.item] = 1
        y[e.item] = e.rating
    z = mask.copy()
    z[entries[-1].item] = 0.0
    nxt, r_next = entries[-1].item, entries[-1].rating
    alpha = 0.05
    cfg = small_cfg(inner_steps=1, inner_lr=alpha)
    v = tr.grad_wrt_sketch(rec, z, y, mask, nxt, r_next, cfg)

    u0 = rec.user_emb.data
    items = [e.item for e in entries]
    resid0 = A @ u0 + C - ratings
    grads0 = 2.0 * resid0[:, None] * A
    u1 = u0 - alpha * (z[items][:, None] * grads0).sum(axis=0)
    g_next = 2.0 * (A[-1] @ u1 + C[-1] - ratings[-1]) * A[-1]
    for idx, j in enumerate(items):
        expected = -alpha * float(g_next @ grads0[idx])
        assert v[j] == pytest.approx(expected, rel=1e-8, abs=1e-12)


# ---------------------------------------------------------- policy gradient

def pg_setup(seed=0, M=8, K=2, tau=1):
    rng = np.random.default_rng(seed)
    rec = rm.RecParams(n_items=M, dim=3, hidden=4, setting="explicit", rng=rng)
    phi = pol.PolicyParams(M, hidden=8, rng=rng)
    items = rng.choice(M, size=K + 3, replace=False)
    mask = np.zeros(M)
    y = np.zeros(M)
    mask[items] = 1
    y[items] = rng.uniform(1, 5, size=items.size)
    zhat = np.zeros(M)
    zhat[items[:K + tau]] = 1.0
    cfg = small_cfg(sketch_size=K, tau=tau,
                    mode="online" if tau == 1 else "batch")
    return rec, phi, y, mask, zhat, int(items[-1]), float(y[items[-1]]), cfg


def test_policy_gradient_empty_queue_equals_first_term_only():
    rec, phi, y, mask, zhat, nxt, r, cfg = pg_setup()
    g_empty, v1, _ = tr.policy_gradient(phi, rec, y, mask, zhat, [], nxt, r, cfg)
    g_again, v2, _ = tr.policy_gradient(phi, rec, y, mask, zhat, [], nxt, r, cfg)
    for a, b in zip(g_empty, g_again):  # deterministic
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(v1, v2)


def test_policy_gradient_queue_adds_replay_term():
    rec, phi, y, mask, zhat, nxt, r, cfg = pg_setup(seed=1)
    g0, v, _ = tr.policy_gradient(phi, rec, y, mask, zhat, [], nxt, r, cfg)
    g1, _, _ = tr.policy_gradient(phi, rec, y, mask, zhat, [zhat.copy()], nxt, r, cfg)
    diff = sum(np.abs(a - b).sum() for a, b in zip(g0, g1))
    assert diff > 0  # the stored entry contributes


def test_policy_gradient_masked_outputs_get_zero_gradient():
    rec, phi, y, mask, zhat, nxt, r, cfg = pg_setup(seed=2)
    grads, _, _ = tr.policy_gradient(phi, rec, y, mask, zhat,
                                     [zhat.copy()], nxt, r, cfg)
    b3_grad = grads[-1]
    off = np.flatnonzero(zhat == 0)
    np.testing.assert_allclose(b3_grad[off], 0.0, atol=1e-15)


def test_policy_gradient_finite_differences_first_term():
    # FD through selection is valid while the argmax choice is stable
    rec, phi, y, mask, zhat, nxt, r, cfg = pg_setup(seed=3)
    grads, _, _ = tr.policy_gradient(phi, rec, y, mask, zhat, [], nxt, r, cfg)

    def loss_at():
        with dc.no_grad():
            pass
        scores = pol.policy_scores(zhat, y, phi)
        w, _ = pol.online_remove(scores, "deterministic")
        z = Tensor(zhat) - w
        theta = tr.inner_adapt(rec, z, y, mask, cfg.inner_lr, cfg.inner_steps,
                               record=True)
        return rm.next_item_loss(theta, nxt, r).item()

    # ST treats the hard selection as identity on the probabilities, so FD
    # through the *soft* path is the right oracle: compare against grad of
    # the relaxed loss where w = softmax probabilities
    def relaxed_loss():
        scores = pol.policy_scores(zhat, y, phi)
        probs = dc.softmax(scores)
        z = Tensor(zhat) - probs
        theta = tr.inner_adapt(rec, z, y, mask, cfg.inner_lr, cfg.inner_steps)
        return rm.next_item_loss(theta, nxt, r)

    relaxed_grads = dc.grad(relaxed_loss(), phi.params())
    # ST gradient differs from the relaxed one only through the forward
    # value (hard vs soft z); with identical backward structure the masked
    # coordinates must agree exactly
    off = np.flatnonzero(zhat == 0)
    np.testing.assert_allclose(grads[-1][off], relaxed_grads[-1].data[off], atol=1e-12)

    h = 1e-6
    flat = phi.b3.data
    on = np.flatnonzero(zhat > 0)[:3]
    for i in on:
        orig = flat[i]
        flat[i] = orig + h
        lp = relaxed_loss().item()
        flat[i] = orig - h
        lm = relaxed_loss().item()
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        rg = relaxed_grads[-1].data[i]
        assert abs(rg - fd) <= 1e-4 * max(abs(fd), abs(rg), 1e-3)


def test_policy_gradient_batch_mode_runs():
    rec, phi, y, mask, zhat, nxt, r, cfg = pg_setup(seed=4, tau=2)
    grads, v, loss = tr.policy_gradient(phi, rec, y, mask, zhat,
                                        [zhat.copy(), zhat.copy()], nxt, r, cfg)
    assert all(np.all(np.isfinite(g)) for g in grads)
    assert np.all(np.isfinite(v))


# ------------------------------------------------------------------- train

def synth(seed=0, n_users=10, length=8, setting="explicit"):
    return ds.synth_stream(
        ds.SynthConfig(n_users=n_users, n_items=24, length=length, n_anchors=2,
                       n_groups=2, setting=setting), seed=seed)


def final_state(res):
    arrays = list(res.rec.state_arrays().values()) + list(res.phi.state_arrays().values())
    return [a.copy() for a in arrays]


def test_train_determinism():
    cfg = small_cfg(epochs=1, stochastic_train=True)
    data = synth().splits
    r1 = tr.train(cfg, data)
    r2 = tr.train(cfg, data)
    assert r1.metric_log == r2.metric_log
    for a, b in zip(final_state(r1), final_state(r2)):
        np.testing.assert_array_equal(a, b)


def test_batch_tau1_identical_to_online():
    data = synth(seed=1).splits
    cfg_on = small_cfg(mode="online", tau=1, stochastic_train=True)
    cfg_ba = small_cfg(mode="batch", tau=1, stochastic_train=True)
    r_on = tr.train(cfg_on, data)
    r_ba = tr.train(cfg_ba, data)
    for a, b in zip(final_state(r_on), final_state(r_ba)):
        np.testing.assert_array_equal(a, b)


def test_single_user_one_policy_update():
    K = 2
    sd = synth(seed=2, n_users=6, length=K + 2)  # T = K+2 -> steps 1..K+1
    stream = sd.splits.train[0]
    data = ds.DatasetSplits([stream], [], [], 24)
    calls = []
    cfg = small_cfg(sketch_size=K, batch_size=1)
    tr.train(cfg, data, validate_each_epoch=False,
             policy_grad_hook=lambda u, t, g, v: calls.append(t))
    assert calls == [K + 1]


def test_random_policy_never_updates_phi():
    data = synth(seed=3).splits
    cfg = small_cfg(policy="random", stochastic_train=True)
    res = tr.train(cfg, data, validate_each_epoch=False)
    fresh = tr.train(small_cfg(policy="random", lr_user=0, lr_item=0,
                               weight_decay=0, stochastic_train=True),
                     data, validate_each_epoch=False)
    for a, b in zip(res.phi.state_arrays().values(),
                    fresh.phi.state_arrays().values()):
        np.testing.assert_array_equal(a, b)


def test_train_skips_short_users_with_warning():
    sd = synth(seed=4, n_users=6)
    short = ds.UserStream(user=99, items=np.array([0]), ratings=np.array([3.0]))
    data = ds.DatasetSplits(sd.splits.train + [short], [], [], 24)
    with pytest.warns(UserWarning, match="fewer than 2"):
        tr.train(small_cfg(), data, validate_each_epoch=False)


def test_recommender_improves_with_random_policy():
    # the recommender itself should fit the synthetic structure over epochs
    sd = ds.synth_stream(
        ds.SynthConfig(n_users=30, n_items=24, length=10, n_anchors=2,
                       n_groups=2, anchor_weight=1.5, noise=0.3), seed=5)
    cfg = small_cfg(policy="random", epochs=4, lr_user=5e-3, lr_item=5e-3,
                    inner_steps=1, inner_lr=0.1, stochastic_train=True)
    res = tr.train(cfg, sd.splits)
    rmses = [rec["value"] for rec in res.metric_log if rec["metric"] == "rmse"]
    assert len(rmses) == 4
    assert rmses[-1] < rmses[0]


def test_checkpoint_roundtrip(tmp_path):
    data = synth(seed=6).splits
    cfg = small_cfg()
    res = tr.train(cfg, data, validate_each_epoch=False)
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(path, res.rec, res.phi, cfg)
    rec2, phi2, cfg2 = tr.load_checkpoint(path)
    assert cfg2 == cfg
    for n in res.rec.param_names():
        np.testing.assert_array_equal(getattr(rec2, n).data, getattr(res.rec, n).data)
    for n in res.phi.param_names():
        np.testing.assert_array_equal(getattr(phi2, n).data, getattr(res.phi, n).data)


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    cfg = small_cfg()
    rng = np.random.default_rng(4)
    rec = rm.RecParams(n_items=6, dim=cfg.dim, hidden=cfg.hidden, rng=rng)
    phi = pol.PolicyParams(6, hidden=cfg.policy_hidden, rng=rng)
    path = tmp_path / "checkpoint.npz"
    tr.save_checkpoint(path, rec, phi, cfg)
    before = path.read_bytes()

    def failing_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 partial archive")
        raise OSError("disk full")

    rec.user_emb.data += 1.0
    monkeypatch.setattr(tr.np, "savez", failing_savez)
    with pytest.raises(OSError, match="disk full"):
        tr.save_checkpoint(path, rec, phi, cfg)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz"]

    monkeypatch.undo()
    tr.save_checkpoint(tmp_path / "bare", rec, phi, cfg)   # np.savez naming
    rec2, _, _ = tr.load_checkpoint(tmp_path / "bare.npz")
    np.testing.assert_array_equal(rec2.user_emb.data, rec.user_emb.data)
