import hashlib
import io
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dips import datasets as ds
from dips import diffcore as dc
from dips import policies as pol
from dips import recmodel as rm
from dips import trainer as tr
from dips.diffcore import Tensor

from test_policies import _affine_rig
from policy_reference import graph_policy_gradient, graph_scores, graph_select
from optimizer_reference import TextbookAdam
from tensor_view import tensor_view
from unrolled_reference import recorded_inner_adapt


def small_cfg(**kw):
    base = dict(sketch_size=2, tau=1, queue_size=10, inner_steps=2, inner_lr=0.2,
                lr_user=1e-3, lr_item=1e-3, lr_policy=1e-3, batch_size=4,
                epochs=1, seed=0, setting="explicit", policy="dips",
                dim=3, hidden=4, policy_hidden=8, stochastic_train=False)
    base.update(kw)
    return tr.TrainConfig(**base)


def small_problem(seed=0, M=5, d=3, n_entries=3):
    """One user as a one-row stack: sketch, ratings and mask (1, M), and
    its next item and rating (1,)."""
    rng = np.random.default_rng(seed)
    rec = rm.RecParams(n_items=M, dim=d, hidden=4, setting="explicit", rng=rng)
    items = rng.choice(M, size=n_entries + 1, replace=False)
    mask = np.zeros((1, M))
    y = np.zeros((1, M))
    mask[0, items] = 1
    y[0, items] = rng.uniform(1, 5, size=items.size)
    z = np.zeros((1, M))
    z[0, items[:-1]] = 1.0
    return rec, z, y, mask, items[-1:], y[0, items[-1:]]


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
    p = np.array([1.0])
    opt = tr.SGDMomentum([p], lr=0.1, momentum=0.9, weight_decay=0.0)
    x, v = 1.0, 0.0
    for g in (0.5, -0.2, 1.0):
        opt.step([np.array([g])])
        v = 0.9 * v + g
        x = x - 0.1 * v
        assert p[0] == pytest.approx(x, rel=1e-12)


def test_adam_first_step_is_signed_lr():
    p = np.array([0.0, 0.0])
    opt = tr.Adam([p], lr=0.01)
    opt.step([np.array([3.0, -7.0])])
    # bias-corrected first step is -lr * g / (|g| + eps)
    np.testing.assert_allclose(p, [-0.01, 0.01], rtol=1e-6)


def test_weight_decay_shrinks_parameters():
    p = np.array([2.0])
    tr.SGDMomentum([p], lr=0.1, momentum=0.0, weight_decay=0.5).step([np.zeros(1)])
    assert p[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def test_optimizer_steps_equal_the_textbook_formulas_bit_for_bit():
    # SGD with momentum in the textbook form; Adam in Kingma & Ba's
    # one-division order, alpha = lr sqrt(c2) / c1 and eps_t = eps sqrt(c2)
    rng = np.random.default_rng(11)
    shapes = [(7, 3), (3,), ()]
    init = [rng.normal(size=s) for s in shapes]
    grads = [[rng.normal(size=s) for s in shapes] for _ in range(3)]
    lr, wd, b1, b2, eps, mom = 0.01, 0.3, 0.9, 0.999, 1e-8, 0.9

    params = [a.copy() for a in init]
    adam = tr.Adam(params, lr, betas=(b1, b2), eps=eps, weight_decay=wd)
    ref = [a.copy() for a in init]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    for t, gs in enumerate(grads, start=1):
        adam.step(gs)
        for i, g in enumerate(gs):
            g = np.asarray(g) + wd * ref[i]
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            c1, c2 = 1 - b1 ** t, 1 - b2 ** t
            alpha, eps_t = lr * np.sqrt(c2) / c1, eps * np.sqrt(c2)
            ref[i] = ref[i] - alpha * (m[i] / (np.sqrt(v[i]) + eps_t))
        for p, r in zip(params, ref):
            np.testing.assert_array_equal(p, r)

    params = [a.copy() for a in init]
    sgd = tr.SGDMomentum(params, lr, momentum=mom, weight_decay=wd)
    ref = [a.copy() for a in init]
    vel = [np.zeros(s) for s in shapes]
    for gs in grads:
        sgd.step(gs)
        for i, g in enumerate(gs):
            g = np.asarray(g) + wd * ref[i]
            vel[i] = mom * vel[i] + g
            ref[i] = ref[i] - lr * vel[i]
        for p, r in zip(params, ref):
            np.testing.assert_array_equal(p, r)


def test_optimizer_steps_span_blocks_and_strided_parameters_bit_for_bit():
    # parameters larger than one scratch block, a row longer than a block
    # and a transposed (strided) parameter take the update in place, bit
    # for bit: SGD in the textbook form, Adam in the one-division order
    rng = np.random.default_rng(12)
    init = [rng.normal(size=(300, 200)), rng.normal(size=70000), rng.normal(size=(2, 40000)),
            np.asfortranarray(rng.normal(size=(150, 300)))]
    grads = [[rng.normal(size=a.shape) for a in init] for _ in range(2)]
    lr, wd, b1, b2, eps, mom = 0.01, 0.3, 0.9, 0.999, 1e-8, 0.9
    for make in ("adam", "sgd"):
        params = [a.copy(order="K") for a in init]
        ref = [a.copy() for a in init]
        if make == "adam":
            opt = tr.Adam(params, lr, betas=(b1, b2), eps=eps, weight_decay=wd)
            m = [np.zeros(a.shape) for a in init]
            v = [np.zeros(a.shape) for a in init]
        else:
            opt = tr.SGDMomentum(params, lr, momentum=mom, weight_decay=wd)
            vel = [np.zeros(a.shape) for a in init]
        for t, gs in enumerate(grads, start=1):
            opt.step(gs)
            for i, g in enumerate(gs):
                g = g + wd * ref[i]
                if make == "adam":
                    m[i] = b1 * m[i] + (1 - b1) * g
                    v[i] = b2 * v[i] + (1 - b2) * g * g
                    c1, c2 = 1 - b1 ** t, 1 - b2 ** t
                    ref[i] = ref[i] - lr * np.sqrt(c2) / c1 * (
                        m[i] / (np.sqrt(v[i]) + eps * np.sqrt(c2)))
                else:
                    vel[i] = mom * vel[i] + g
                    ref[i] = ref[i] - lr * vel[i]
        for p, r in zip(params, ref):
            np.testing.assert_array_equal(p, r)


@pytest.mark.parametrize("M", [500, 3706])
def test_adam_stays_within_rounding_of_the_textbook_order(M):
    # 200 steps on phi's shapes (hidden 128) with live-column gradients, as
    # train() gives them: a few rows of w1 and columns of w3/b3, all of the
    # small layers.  phi stays within 1e-14, relative to its largest entry,
    # of the textbook order
    rng = np.random.default_rng(M)
    phi = pol.PolicyParams(M, hidden=128, rng=rng)
    ref = pol.PolicyParams(M, hidden=128,
                           arrays={n: a.copy() for n, a in phi.state_arrays().items()})
    adam = tr.Adam(phi.params(), 2e-4, weight_decay=2e-4)
    textbook = TextbookAdam(ref.params(), 2e-4, weight_decay=2e-4)
    buf = tr.PolicyGradBuffer(phi)
    for _ in range(200):
        cols = rng.choice(M, size=rng.integers(1, 40), replace=False)
        parts = [rng.normal(size=(cols.size, 128)), rng.normal(size=128),
                 rng.normal(size=(128, 128)), rng.normal(size=128),
                 rng.normal(size=(128, cols.size)), rng.normal(size=cols.size)]
        buf.add([part * 10.0 ** rng.uniform(-6, 1) for part in parts], cols)
        adam.step(buf.grads)
        textbook.step(buf.grads)
        buf.clear()
    for a, b in zip(phi.state_arrays().values(), ref.state_arrays().values()):
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


# ------------------------------------------------------------- inner adapt

def test_inner_adapt_identity_cases():
    rec, z, y, mask, _, _ = small_problem()
    u0 = rec.user_emb[None].copy()
    cases = [(z, 0.2, 0), (z, 0.0, 5), (np.zeros((1, rec.n_items)), 0.2, 5)]
    for zc, alpha, n_steps in cases:
        np.testing.assert_array_equal(
            recorded_inner_adapt(rec, zc, y, mask, alpha, n_steps).data, u0)
        u = tr.inner_adapt(rec, zc, y, mask, alpha, n_steps)
        assert isinstance(u, np.ndarray)
        np.testing.assert_array_equal(u, u0)


def test_inner_adapt_monotone_decrease_convex_toy():
    # keep every relu active so the sketch loss is a convex quadratic in u
    rec, z, y, mask, _, _ = small_problem(seed=2)
    rec.b1[:] = 5.0
    rec.w1 *= 0.1
    prev = rm.sketch_loss(rec, Tensor(rec.user_emb[None]), z, y, mask).item()
    for n in range(1, 11):
        u = tr.inner_adapt(rec, z, y, mask, 0.2, n)
        cur = rm.sketch_loss(rec, Tensor(u), z, y, mask).item()
        assert cur <= prev + 1e-12
        prev = cur


def test_inner_adapt_leaves_item_params_untouched():
    rec, z, y, mask, _, _ = small_problem(seed=3)
    before = [p.copy() for p in rec.item_params()]
    tr.inner_adapt(rec, z, y, mask, 0.5, 4)
    for p, b in zip(rec.item_params(), before):
        np.testing.assert_array_equal(p, b)


def test_inner_adapt_matches_the_recorded_reference():
    rec, z, y, mask, _, _ = small_problem(seed=4)
    a = recorded_inner_adapt(rec, z, y, mask, 0.1, 3)
    b = tr.inner_adapt(rec, z, y, mask, 0.1, 3)
    np.testing.assert_allclose(a.data, b, atol=1e-14)


# ------------------------------------------------------------- outer steps

def test_zero_inner_steps_meta_grad_is_plain_grad():
    rec, z, y, mask, nxt, r = small_problem(seed=5)
    cfg = small_cfg(inner_steps=0)
    grads, _ = tr.theta_gradients(rec, z, y, mask, nxt, r, cfg)
    view = tensor_view(rec)
    loss = rm.next_item_loss(view, dc.broadcast_to(view.user_emb, (1, rec.dim)), nxt, r)
    plain = dc.grad(loss, view.params())
    for g, p in zip(grads, plain):
        np.testing.assert_allclose(g, p.data, atol=1e-12)


def test_outer_step_zero_rate_keeps_params():
    # the frozen-recommender phase of gate 5: the policy trains, the
    # recommender (weight decay included) stays bit-identical
    data = synth(seed=6).splits
    init = tr.train(small_cfg(policy="random"), data, validate_each_epoch=False).rec
    before = {n: a.copy() for n, a in init.state_arrays().items()}
    res = tr.train(small_cfg(lr_user=0.0, lr_item=0.0, stochastic_train=True), data,
                   validate_each_epoch=False, init_rec=init)
    for n, a in res.rec.state_arrays().items():
        np.testing.assert_array_equal(a, before[n])


def _spied_train(monkeypatch, cfg, data, init_rec):
    """Train, recording the optimizer steps and the run's generator.

    Returns the result, the parameter groups whose optimizer stepped
    ("user", "item", "policy"), copies of the policy gradients the hook
    saw, and the generator's state after the run."""
    stepped, gens, hooked = [], [], []
    default_rng = np.random.default_rng
    with monkeypatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda *a: gens.append(default_rng(*a)) or gens[-1])
        for cls in (tr.SGDMomentum, tr.Adam):
            def spy(self, grads, step=cls.step):
                stepped.append(self)
                return step(self, grads)
            mp.setattr(cls, "step", spy)
        res = tr.train(cfg, data, validate_each_epoch=False, init_rec=init_rec,
                       policy_grad_hook=lambda u, t, g, v: hooked.append([a.copy() for a in g]))
    groups = {id(res.rec.user_emb): "user", id(res.rec.item_emb): "item", id(res.phi.w1): "policy"}
    return res, {groups[id(opt.params[0])] for opt in stepped}, hooked, gens[0].bit_generator.state


@pytest.mark.parametrize("zero", [("lr_user", "lr_item"), ("lr_policy",),
                                  ("lr_user", "lr_item", "lr_policy")],
                         ids=["recommender", "policy", "both"])
def test_a_zero_rate_optimizer_is_not_stepped_and_changes_nothing(monkeypatch, zero):
    # train() skips the step of an optimizer at rate 0; the run equals one
    # with those steps forced back in, bit for bit: parameters, every policy
    # gradient (a skipped policy step still clears the buffer) and the
    # generator's state after the run
    data = synth(seed=6).splits
    init = tr.train(small_cfg(policy="random"), data, validate_each_epoch=False).rec
    cfg = small_cfg(stochastic_train=True, epochs=2, **{name: 0.0 for name in zero})
    res, stepped, hooked, state = _spied_train(monkeypatch, cfg, data, init)
    groups = {"lr_user": "user", "lr_item": "item", "lr_policy": "policy"}
    assert stepped == {groups[name] for name in groups if name not in zero}

    monkeypatch.setattr(tr, "_moves", lambda opt: True)
    forced, forced_stepped, forced_hooked, forced_state = _spied_train(
        monkeypatch, cfg, data, init)
    assert forced_stepped == {"user", "item", "policy"}
    assert forced_state == state
    for a, b in zip(final_state(res), final_state(forced)):
        np.testing.assert_array_equal(a, b)
    assert len(hooked) == len(forced_hooked) > 10
    for grads, forced_grads in zip(hooked, forced_hooked):
        for a, b in zip(grads, forced_grads):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("lr_user, lr_item", [(0.0, 0.0), (1e-3, 0.0), (0.0, 1e-3),
                                              (1e-3, 1e-3)])
def test_train_checks_only_the_parameters_a_step_wrote(monkeypatch, lr_user, lr_item):
    checked = []
    monkeypatch.setattr(tr, "_check_finite",
                        lambda prefix, params, names, *a: checked.append((prefix, tuple(names))))
    cfg = small_cfg(lr_user=lr_user, lr_item=lr_item, stochastic_train=True)
    tr.train(cfg, synth(seed=6).splits, validate_each_epoch=False)
    rec_names = (("user_emb",) if lr_user else ()) + (
        ("item_emb", "w1", "b1", "w2", "b2") if lr_item else ())
    assert {names for prefix, names in checked if prefix == "rec"} == {rec_names}
    assert {names for prefix, names in checked if prefix == "phi"} == {
        ("w1", "b1", "w2", "b2", "w3", "b3")}


def test_the_finite_check_names_the_first_non_finite_array_without_a_temporary():
    phi = pol.PolicyParams(3706, hidden=128, rng=np.random.default_rng(0))
    names = phi.param_names()
    tr._check_finite("phi", phi, names, 0, 1, [])
    tracemalloc.start()
    try:
        tr._check_finite("phi", phi, names, 0, 1, [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < phi.w1.size  # a bool mask of w1 would take this
    # finite entries whose sum overflows pass; a NaN or an infinity is named
    phi.w2[:] = 1e308
    with np.errstate(over="ignore"):
        tr._check_finite("phi", phi, names, 0, 1, [])
        phi.w3[5, 7] = -np.inf
        phi.b3[0] = np.nan
        with pytest.raises(FloatingPointError, match=r"non-finite phi\.w3 after the "
                           r"optimizer step at epoch 2, step t=3, batch users \[\]"):
            tr._check_finite("phi", phi, names, 2, 3, [])
    tr._check_finite("phi", phi, ["w1", "b1"], 2, 3, [])


def test_outer_step_rejects_bad_item():
    rec, z, y, mask, _, r = small_problem(seed=7)
    with pytest.raises(IndexError):
        tr.theta_gradients(rec, z, y, mask, [rec.n_items], r, small_cfg())


def test_meta_gradient_matches_finite_differences():
    # M=5, d=3, K=2, two unrolled inner steps
    rec, z, y, mask, nxt, r = small_problem(seed=8, M=5, d=3, n_entries=2)
    cfg = small_cfg(inner_steps=2, inner_lr=0.2)
    grads, _ = tr.theta_gradients(rec, z, y, mask, nxt, r, cfg)

    def loss_at():
        u = tr.inner_adapt(rec, z, y, mask, cfg.inner_lr, cfg.inner_steps)
        return rm.next_item_loss(rec, Tensor(u), nxt, r).item()

    h = 1e-5
    rng = np.random.default_rng(0)
    for p, g in zip(rec.params(), grads):
        flat = p.reshape(-1)
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


# ------------------------------------------------------ stacked users

def stacked_problem(setting, B, seed=0, M=12, d=3):
    """B users with 3, 4, ... interacted items; the last one is the next
    item.  With B > 1 the sketch weights of row 1 are all zero."""
    rng = np.random.default_rng(seed)
    rec = rm.RecParams(n_items=M, dim=d, hidden=4, setting=setting, rng=rng)
    rec.b1[:] = 0.2  # live relus, so every parameter gets a gradient
    z, y, mask = np.zeros((3, B, M))
    nxt, r = [], []
    for b in range(B):
        items = rng.choice(M, size=3 + b, replace=False)
        mask[b, items] = 1.0
        y[b, items] = rng.uniform(1, 5, size=items.size) if setting == "explicit" else 1.0
        if b != 1:
            z[b, items[:-1]] = rng.uniform(0.3, 1.5, size=items.size - 1)
        nxt.append(int(items[-1]))
        r.append(float(y[b, items[-1]]))
    return rec, z, y, mask, np.array(nxt), np.array(r)


def assert_close_rel(a, ref, rel=1e-12):
    a, ref = np.asarray(a), np.asarray(ref)
    assert a.shape == ref.shape
    assert np.max(np.abs(a - ref), initial=0.0) <= rel * max(np.max(np.abs(ref), initial=0.0), 1e-300)


@pytest.mark.parametrize("setting", ["explicit", "implicit"])
@pytest.mark.parametrize("B", [1, 3, 5])
def test_theta_gradients_stack_equals_sum_of_row_calls(setting, B):
    rec, z, y, mask, nxt, r = stacked_problem(setting, B)
    cfg = small_cfg(setting=setting, inner_steps=3, inner_lr=0.3)
    grads, loss = tr.theta_gradients(rec, z, y, mask, nxt, r, cfg)
    ref_grads = [np.zeros(p.shape) for p in rec.params()]
    ref_loss = 0.0
    for b in range(B):
        one = slice(b, b + 1)
        g_b, l_b = tr.theta_gradients(rec, z[one], y[one], mask[one], nxt[one], r[one], cfg)
        ref_loss += l_b
        for acc, g in zip(ref_grads, g_b):
            acc += g
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for g, g_ref in zip(grads, ref_grads):
        assert np.any(g_ref != 0)
        assert_close_rel(g, g_ref)


def test_train_stacks_exactly_the_active_users_at_every_step(monkeypatch):
    rng = np.random.default_rng(5)
    M = 30
    streams = []
    for user, length in enumerate((6, 9, 12)):
        items = rng.choice(M, size=length, replace=False)
        streams.append(ds.UserStream(user, items, rng.uniform(1, 5, size=length)))
    calls = []
    original = tr.theta_gradients

    def spy(rec, z, y, mask, next_item, next_rating, cfg):
        calls.append((np.array(z), np.array(mask), np.array(next_item), np.array(next_rating)))
        return original(rec, z, y, mask, next_item, next_rating, cfg)

    monkeypatch.setattr(tr, "theta_gradients", spy)
    cfg = small_cfg(batch_size=3, sketch_size=3)
    tr.train(cfg, ds.DatasetSplits(streams, [], [], M), validate_each_epoch=False)

    assert len(calls) == 11
    for t, (z, mask, nxt, rating) in enumerate(calls, start=1):
        active = [s for s in streams if t < len(s.items)]
        assert z.shape == mask.shape == (len(active), M)
        # each row is one active user's: its interaction mask, its next
        # interaction, and a sketch drawn from its first t items
        by_row = [next(s for s in active if np.array_equal(mask[i], np.isin(np.arange(M), s.items)))
                  for i in range(len(active))]
        assert sorted(s.user for s in by_row) == [s.user for s in active]
        for i, s in enumerate(by_row):
            assert nxt[i] == s.items[t]
            assert rating[i] == s.ratings[t]
            kept = np.flatnonzero(z[i])
            assert set(kept) <= set(s.items[:t]) and kept.size == min(t - 1, cfg.sketch_size)


BAD_ROW_ERRORS = {
    "negative_weight": (ValueError, "sketch_loss: negative sketch weights"),
    "weight_outside_mask": (ValueError, "sketch_loss: positive weight on a non-interacted item"),
    "next_item_out_of_range": (IndexError, "item 12 out of range"),
}


@pytest.mark.parametrize("setting", ["explicit", "implicit"])
@pytest.mark.parametrize("bad_row", [0, 2])
@pytest.mark.parametrize("fault", sorted(BAD_ROW_ERRORS))
def test_stacked_theta_gradients_reject_one_bad_row(setting, bad_row, fault):
    rec, z, y, mask, nxt, r = stacked_problem(setting, 3)
    if fault == "negative_weight":
        z[bad_row, np.flatnonzero(mask[bad_row])[0]] = -0.5
    elif fault == "weight_outside_mask":
        z[bad_row, np.flatnonzero(mask[bad_row] == 0)[0]] = 0.5
    else:
        nxt[bad_row] = rec.n_items
    error, match = BAD_ROW_ERRORS[fault]
    with pytest.raises(error, match=match):
        tr.theta_gradients(rec, z, y, mask, nxt, r, small_cfg(setting=setting))


# --------------------------------------------------------- grad wrt sketch

def sketch_v(rec, zhat, y, mask, nxt, r, cfg, phi=None):
    """The v that policy_gradient returns for one user (empty queue,
    deterministic head) and the sketch z it selected from zhat, as rows
    (M,)."""
    phi = phi or pol.PolicyParams(rec.n_items, hidden=cfg.policy_hidden,
                                  rng=np.random.default_rng(1))
    _, v, z, _ = tr.policy_gradient(phi, rec, y, mask, zhat, [[]], nxt, r, cfg)
    return v[0], z[0]


def test_grad_wrt_sketch_finite_differences():
    rec, zhat, y, mask, nxt, r = small_problem(seed=9)
    cfg = small_cfg(inner_steps=2, inner_lr=0.2)
    v, z = sketch_v(rec, zhat, y, mask, nxt, r, cfg)
    assert v.shape == (rec.n_items,)

    def loss_with(zv):
        u = tr.inner_adapt(rec, zv[None], y, mask, cfg.inner_lr, cfg.inner_steps)
        return rm.next_item_loss(rec, Tensor(u), nxt, r).item()

    for j in np.flatnonzero(mask):
        zp, zm = z.copy(), z.copy()
        zp[j] += 1e-4
        zm[j] = max(zm[j] - 1e-4, 0.0)
        fd = (loss_with(zp) - loss_with(zm)) / (zp[j] - zm[j])
        scale = max(abs(fd), abs(v[j]), 1e-6)
        assert abs(v[j] - fd) / scale <= 1e-3


def test_grad_wrt_sketch_defined_on_zero_weight_items():
    # the item the policy removed and the next item both have z = 0
    rec, zhat, y, mask, nxt, r = small_problem(seed=10)
    v, z = sketch_v(rec, zhat, y, mask, nxt, r, small_cfg())
    off = [int(i) for i in np.flatnonzero(mask) if z[i] == 0.0]
    assert len(off) == 2 and np.all(np.isfinite(v[off]))


def test_grad_wrt_sketch_duplicate_items_equal_entries():
    rec, zhat, y, mask, nxt, r = small_problem(seed=11)
    a, b, c = (int(i) for i in np.flatnonzero(zhat))
    rec.item_emb[b] = rec.item_emb[a]
    y2 = y.copy()
    y2[0, b] = y2[0, a]
    cfg = small_cfg()
    phi = pol.PolicyParams(rec.n_items, hidden=cfg.policy_hidden,
                           rng=np.random.default_rng(1))
    phi.b3[c] = -50.0  # the lowest score: c is removed
    v, z = sketch_v(rec, zhat, y2, mask, nxt, r, cfg, phi)
    assert z[a] == z[b] == 1.0 and z[c] == 0.0
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
    zhat = mask.copy()
    zhat[entries[-1].item] = 0.0
    nxt, r_next = entries[-1].item, entries[-1].rating
    alpha = 0.05
    cfg = small_cfg(sketch_size=len(entries) - 2, inner_steps=1, inner_lr=alpha)
    v, z = sketch_v(rec, zhat[None], y[None], mask[None], [nxt], [r_next], cfg)
    assert z.sum() == cfg.sketch_size

    u0 = rec.user_emb
    items = [e.item for e in entries]
    resid0 = A @ u0 + C - ratings
    grads0 = 2.0 * resid0[:, None] * A
    u1 = u0 - alpha * (z[items][:, None] * grads0).sum(axis=0)
    g_next = 2.0 * (A[-1] @ u1 + C[-1] - ratings[-1]) * A[-1]
    for idx, j in enumerate(items):
        expected = -alpha * float(g_next @ grads0[idx])
        assert v[j] == pytest.approx(expected, rel=1e-8, abs=1e-12)


# ---------------------------------------------------------- policy gradient

def pg_setup(seed=0, M=8, K=2, tau=1, dropout_rate=0.10):
    """One user as a one-row stack: ratings, mask and intermediate
    indicator (1, M), next item and rating (1,)."""
    rng = np.random.default_rng(seed)
    rec = rm.RecParams(n_items=M, dim=3, hidden=4, setting="explicit", rng=rng)
    phi = pol.PolicyParams(M, hidden=8, rng=rng)
    items = rng.choice(M, size=K + 3, replace=False)
    mask = np.zeros((1, M))
    y = np.zeros((1, M))
    mask[0, items] = 1
    y[0, items] = rng.uniform(1, 5, size=items.size)
    zhat = np.zeros((1, M))
    zhat[0, items[:K + tau]] = 1.0
    cfg = small_cfg(sketch_size=K, tau=tau, mode="online" if tau == 1 else "batch",
                    policy_dropout_rate=dropout_rate)
    return rec, phi, y, mask, zhat, items[-1:], y[0, items[-1:]], cfg


def test_policy_gradient_empty_queue_equals_first_term_only():
    rec, phi, y, mask, zhat, nxt, r, cfg = pg_setup()
    g_empty, v1, _, _ = tr.policy_gradient(phi, rec, y, mask, zhat, [[]], nxt, r, cfg)
    g_again, v2, _, _ = tr.policy_gradient(phi, rec, y, mask, zhat, [[]], nxt, r, cfg)
    for a, b in zip(g_empty, g_again):  # deterministic
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(v1, v2)


def test_policy_gradient_queue_adds_replay_term():
    rec, phi, y, mask, zhat, nxt, r, cfg = pg_setup(seed=1)
    g0, v, _, _ = tr.policy_gradient(phi, rec, y, mask, zhat, [[]], nxt, r, cfg)
    g1, _, _, _ = tr.policy_gradient(phi, rec, y, mask, zhat, [[zhat[0].copy()]], nxt, r, cfg)
    diff = sum(np.abs(a - b).sum() for a, b in zip(g0, g1))
    assert diff > 0  # the stored entry contributes


def test_policy_gradient_masked_outputs_get_zero_gradient():
    rec, phi, y, mask, zhat, nxt, r, cfg = pg_setup(seed=2)
    grads, _, _, _ = tr.policy_gradient(phi, rec, y, mask, zhat,
                                        [[zhat[0].copy()]], nxt, r, cfg)
    b3_grad = grads[-1]
    off = np.flatnonzero(zhat == 0)
    np.testing.assert_allclose(b3_grad[off], 0.0, atol=1e-15)


def test_policy_gradient_finite_differences_first_term():
    # FD through selection is valid while the removed item is stable
    rec, phi, y, mask, zhat, nxt, r, cfg = pg_setup(seed=3)
    grads, _, _, _ = tr.policy_gradient(phi, rec, y, mask, zhat, [[]], nxt, r, cfg)

    # the oracle's removal probabilities: softmax(-scores) over the items in
    # the sketch, zero elsewhere
    zhat, live = zhat[0], np.flatnonzero(zhat[0] > 0)
    view = tensor_view(phi)

    def loss_through(removal):
        scores = graph_scores(zhat, y[0], view)
        probs = dc.scatter_add(dc.softmax(dc.neg(dc.gather(scores, live))), live, zhat.shape)
        z = Tensor(zhat) - removal(probs)
        u = recorded_inner_adapt(rec, dc.reshape(z, (1, rec.n_items)), y, mask,
                                 cfg.inner_lr, cfg.inner_steps)
        return rm.next_item_loss(rec, u, nxt, r)

    def hard(probs):
        # forward: drop the likeliest item; backward: identity onto probs
        onehot = np.zeros(zhat.shape)
        onehot[np.argmax(probs.data)] = 1.0
        return dc.straight_through(probs, onehot)

    st_grads = dc.grad(loss_through(hard), view.params())
    for g, g_ref in zip(grads, st_grads):
        np.testing.assert_allclose(g, g_ref.data, rtol=1e-10, atol=1e-14)

    # ST treats the hard selection as identity on the probabilities, so FD
    # through the *soft* path is the right oracle: compare against grad of
    # the relaxed loss where w = the removal probabilities
    relaxed_grads = dc.grad(loss_through(lambda probs: probs), view.params())
    # ST gradient differs from the relaxed one only through the forward
    # value (hard vs soft z); with identical backward structure the masked
    # coordinates must agree exactly
    off = np.flatnonzero(zhat == 0)
    np.testing.assert_allclose(grads[-1][off], relaxed_grads[-1].data[off], atol=1e-12)

    h = 1e-6
    flat = phi.b3
    for i in live[:3]:
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_through(lambda probs: probs).item()
        flat[i] = orig - h
        lm = loss_through(lambda probs: probs).item()
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        rg = relaxed_grads[-1].data[i]
        assert abs(rg - fd) <= 1e-4 * max(abs(fd), abs(rg), 1e-3)


@pytest.mark.parametrize("stochastic", [False, True])
@pytest.mark.parametrize("tau", [1, 2])
def test_policy_gradient_replay_is_the_sum_of_per_row_selections(tau, stochastic):
    rec, phi, y, mask, zhat, nxt, r, cfg = pg_setup(seed=5, tau=tau, dropout_rate=0.0)
    cfg = replace(cfg, stochastic_train=stochastic)
    perm = np.random.default_rng(6).permutation
    interacted = np.flatnonzero(mask)
    past = []
    for _ in range(3):
        z = np.zeros(rec.n_items)
        z[perm(interacted)[:cfg.sketch_size + tau]] = 1.0
        past.append(z)
    grads, v, _, _ = tr.policy_gradient(phi, rec, y, mask, zhat, [past], nxt, r, cfg,
                                        rng=np.random.default_rng(7))

    # reference: the first term alone, then v . z_j for one stored row at a
    # time, drawing from the rng in the same order, each added on its items
    rng = np.random.default_rng(7)
    expected = tr.PolicyGradBuffer(phi)
    _, v_ref, _, _ = tr.policy_gradient(phi, rec, y, mask, zhat, [[]], nxt, r, cfg,
                                        rng=rng, out=expected)
    np.testing.assert_array_equal(v, v_ref)
    for zj in past:
        z = tr.select_with_policy(phi, zj[None], y, cfg, rng)
        expected.add(z.grads(v), z.cols)
    for a, b in zip(grads, expected.grads):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_policy_gradient_batch_mode_runs():
    rec, phi, y, mask, zhat, nxt, r, cfg = pg_setup(seed=4, tau=2)
    grads, v, _, loss = tr.policy_gradient(phi, rec, y, mask, zhat,
                                           [[zhat[0].copy(), zhat[0].copy()]], nxt, r, cfg)
    assert all(np.all(np.isfinite(g)) for g in grads)
    assert np.all(np.isfinite(v))


def stacked_pg_problem(B, tau=1, seed=0, M=12, K=2, setting="explicit"):
    """B users of one policy: rows of y, mask and zhat (K + tau stored
    items each), queues of lengths 2, 0, 3, 1, 2 (one empty for B > 1),
    next items and ratings."""
    rng = np.random.default_rng(seed)
    rec = rm.RecParams(n_items=M, dim=3, hidden=4, setting=setting, rng=rng)
    rec.b1[:] = 0.2
    phi = pol.PolicyParams(M, hidden=8, rng=rng)
    y, mask, zhat = np.zeros((3, B, M))
    queues, nxt, r = [], [], []
    for b in range(B):
        items = rng.choice(M, size=K + tau + 2 + b % 2, replace=False)
        mask[b, items] = 1.0
        y[b, items] = rng.uniform(1, 5, size=items.size) if setting == "explicit" else 1.0
        zhat[b, items[:K + tau]] = 1.0
        queue = []
        for _ in range((2, 0, 3, 1, 2)[b]):
            zj = np.zeros(M)
            zj[rng.permutation(items[:-1])[:K + tau]] = 1.0
            queue.append(zj)
        queues.append(queue)
        nxt.append(int(items[-1]))
        r.append(float(y[b, items[-1]]))
    cfg = small_cfg(sketch_size=K, tau=tau, mode="online" if tau == 1 else "batch",
                    setting=setting)
    return rec, phi, y, mask, zhat, queues, np.array(nxt), np.array(r), cfg


def two_backward_policy_gradient(phi, rec, y, mask, zhat_t, past_zhats, next_item,
                                 next_rating, cfg, rng=None):
    """The policy gradient in its earlier, unfactored form, kept as the
    reference: v and the straight-through term from one backward of the
    loss through the recorded inner loop and the policy network, then a
    second backward through the policy network for the replay term."""
    phi = tensor_view(phi)
    z_t = graph_select(phi, zhat_t, y, cfg, rng)
    z_probe = dc.zeros(z_t.shape, requires_grad=True)
    u = recorded_inner_adapt(rec, z_t + z_probe, y, mask, cfg.inner_lr, cfg.inner_steps)
    loss = rm.next_item_loss(rec, u, next_item, next_rating)
    grads1 = dc.grad(loss, phi.params() + [z_probe])
    v = grads1[-1].data
    total = [g.data.copy() for g in grads1[:-1]]
    past = [z for queue in past_zhats for z in queue]
    if past:
        owner = np.repeat(np.arange(len(past_zhats)), [len(q) for q in past_zhats])
        z_past = graph_select(phi, np.stack(past), y[owner], cfg, rng)
        grads2 = dc.grad(dc.tsum(dc.mul(z_past, Tensor(v[owner]))), phi.params())
        for acc, g in zip(total, grads2):
            acc += g.data
    return total, v, z_t.data, loss.item()


@pytest.mark.parametrize("stochastic", [False, True])
@pytest.mark.parametrize("tau", [1, 2])
@pytest.mark.parametrize("B", [1, 4])
@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_factored_policy_gradient_equals_the_two_backward_form(setting, B, tau, stochastic):
    # the closed-form v and one backward through the policy network give
    # the selection and generator state of the two-backward form through
    # the recorded inner loop bit for bit, and its gradients, v and loss
    # within 1e-12, for one user (B = 1) and for a stack
    rec, phi, y, mask, zhat, queues, nxt, r, cfg = stacked_pg_problem(
        B, tau, seed=8, setting=setting)
    cfg = replace(cfg, stochastic_train=stochastic)
    args = (y, mask, zhat, queues, nxt, r)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    grads, v, z, loss = tr.policy_gradient(phi, rec, *args, cfg, rng=rng)
    ref_grads, ref_v, ref_z, ref_loss = two_backward_policy_gradient(
        phi, rec, *args, cfg, rng=ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert_close_rel(v, ref_v)
    np.testing.assert_array_equal(z, ref_z)
    assert z.shape == v.shape == zhat.shape
    for g, g_ref in zip(grads, ref_grads):
        assert np.any(g_ref != 0)
        assert_close_rel(g, g_ref)


@pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
@pytest.mark.parametrize("stochastic", [False, True])
@pytest.mark.parametrize("tau", [1, 2])
@pytest.mark.parametrize("M", [10, 500, 3706])
def test_policy_gradient_equals_the_recorded_graph_bit_for_bit(M, tau, stochastic,
                                                              dropout_rate):
    # the closed-form backward on the live columns, through the policy
    # network and either head, gives the recorded graph's selection z and
    # generator state bit for bit, and its gradients, v and loss within
    # 1e-12 (the gathered matmuls sum in another order), for four users
    # with queues of 2, 0, 3 and 1 rows; one user's selection from a single
    # indicator (M,) matches too
    rec, phi, y, mask, zhat, queues, nxt, r, cfg = stacked_pg_problem(4, tau, seed=M, M=M)
    cfg = replace(cfg, stochastic_train=stochastic, policy_dropout_rate=dropout_rate)
    args = (y, mask, zhat, queues, nxt, r)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    grads, v, z, loss = tr.policy_gradient(phi, rec, *args, cfg, rng=rng)
    ref_grads, ref_v, ref_z, ref_loss = graph_policy_gradient(phi, rec, *args, cfg,
                                                              rng=ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert z.shape == ref_z.shape and np.array_equal(z, ref_z)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for got, want in zip([v] + grads, [ref_v] + ref_grads):
        assert_close_rel(got, want)
    one = tr.select_with_policy(phi, zhat[0], y[0], cfg, rng)
    np.testing.assert_array_equal(one.data, graph_select(phi, zhat[0], y[0], cfg, ref_rng).data)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("tau", [1, 2])
@pytest.mark.parametrize("B", [1, 3, 5])
def test_policy_gradient_stack_equals_sum_of_row_calls(B, tau):
    rec, phi, y, mask, zhat, queues, nxt, r, cfg = stacked_pg_problem(B, tau)
    grads, v, _, loss = tr.policy_gradient(phi, rec, y, mask, zhat, queues, nxt, r, cfg)
    assert v.shape == (B, rec.n_items)
    ref_grads = [np.zeros(p.shape) for p in phi.params()]
    ref_loss = 0.0
    for b in range(B):
        one = slice(b, b + 1)
        g_b, v_b, _, l_b = tr.policy_gradient(phi, rec, y[one], mask[one], zhat[one],
                                              queues[one], nxt[one], r[one], cfg)
        assert v_b.shape == (1, rec.n_items)
        assert_close_rel(v[one], v_b)
        ref_loss += l_b
        for acc, g in zip(ref_grads, g_b):
            acc += g
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for g, g_ref in zip(grads, ref_grads):
        assert np.any(g_ref != 0)
        assert_close_rel(g, g_ref)


def test_stacked_policy_gradient_draws_the_current_stack_then_the_replay():
    # B = 2, stochastic heads with dropout: the rng serves the current
    # stack first, then every queue row in one stack, users in stack order;
    # the gradient is one backward of v . z_t plus the replay term
    rec, phi, y, mask, zhat, queues, nxt, r, cfg = stacked_pg_problem(2, seed=3)
    cfg = replace(cfg, stochastic_train=True)
    assert cfg.policy_dropout_rate > 0
    rng = np.random.default_rng(7)
    grads, v, z, loss = tr.policy_gradient(phi, rec, y, mask, zhat, queues, nxt, r, cfg,
                                           rng=rng)

    ref_rng = np.random.default_rng(7)
    view = tensor_view(phi)
    z_t = graph_select(view, zhat, y, cfg, ref_rng)
    z_probe = Tensor(z_t.data, requires_grad=True)
    u = recorded_inner_adapt(rec, z_probe, y, mask, cfg.inner_lr, cfg.inner_steps)
    ref_loss = rm.next_item_loss(rec, u, nxt, r)
    (ref_v,) = dc.grad(ref_loss, [z_probe])
    owner = [0, 0]                       # the second user's queue is empty
    z_past = graph_select(view, np.stack(queues[0]), y[owner], cfg, ref_rng)
    first = dc.grad(dc.tsum(dc.mul(z_t, ref_v)), view.params())
    replay = dc.grad(dc.tsum(dc.mul(z_past, Tensor(ref_v.data[owner]))), view.params())

    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert_close_rel(v, ref_v.data)
    np.testing.assert_array_equal(z, z_t.data)
    assert abs(loss - ref_loss.item()) <= 1e-12 * abs(ref_loss.item())
    for g, a, b in zip(grads, first, replay):
        assert_close_rel(g, a.data + b.data)


def test_train_stacks_exactly_the_users_at_a_boundary(monkeypatch):
    rng = np.random.default_rng(5)
    M, K = 30, 3
    streams = []
    for user, length in enumerate((6, 9, 12)):
        items = rng.choice(M, size=length, replace=False)
        streams.append(ds.UserStream(user, items, rng.uniform(1, 5, size=length)))
    calls = []
    original = tr.policy_gradient

    def spy(phi, rec, y, mask, zhat_t, past_zhats, next_item, next_rating, cfg, rng=None,
            out=None):
        calls.append((np.array(mask), np.array(zhat_t), [[q.copy() for q in queue]
                      for queue in past_zhats], np.array(next_item)))
        return original(phi, rec, y, mask, zhat_t, past_zhats, next_item, next_rating,
                        cfg, rng=rng, out=out)

    hooked = []
    monkeypatch.setattr(tr, "policy_gradient", spy)
    cfg = small_cfg(batch_size=3, sketch_size=K, stochastic_train=True)
    tr.train(cfg, ds.DatasetSplits(streams, [], [], M), validate_each_epoch=False,
             policy_grad_hook=lambda users, t, g, v: hooked.append((users, t, v.shape)))

    # tau = 1: every step past warm-up is a boundary of every active user
    assert [t for _, t, _ in hooked] == list(range(K + 1, 12))
    seen = {s.user: [] for s in streams}      # each user's earlier zhats
    for (mask, zhat, queues, nxt), (users, t, v_shape) in zip(calls, hooked):
        at = [s for s in streams if t < len(s.items)]
        assert sorted(users) == [s.user for s in at]
        assert zhat.shape == mask.shape == v_shape == (len(at), M)
        assert len(queues) == len(at)
        for b, user in enumerate(users):
            s = streams[user]
            np.testing.assert_array_equal(mask[b], np.isin(np.arange(M), s.items))
            assert nxt[b] == s.items[t]
            assert zhat[b].sum() == K + 1 and set(np.flatnonzero(zhat[b])) <= set(s.items[:t])
            assert zhat[b, s.items[t - 1]] == 1.0
            assert len(queues[b]) == len(seen[user])
            for q, earlier in zip(queues[b], seen[user]):
                np.testing.assert_array_equal(q, earlier)
            seen[user].append(zhat[b])


PG_BAD_ROW_ERRORS = {
    "empty_intermediate_sketch": (ValueError, "no finite score"),
    "empty_stored_indicator": (ValueError, "no finite score"),
    "next_item_out_of_range": (IndexError, "item 12 out of range"),
}


@pytest.mark.parametrize("bad_row", [0, 2])
@pytest.mark.parametrize("fault", sorted(PG_BAD_ROW_ERRORS))
def test_stacked_policy_gradient_rejects_one_bad_row(bad_row, fault):
    rec, phi, y, mask, zhat, queues, nxt, r, cfg = stacked_pg_problem(3)
    if fault == "empty_intermediate_sketch":
        zhat[bad_row] = 0.0
    elif fault == "empty_stored_indicator":
        queues[bad_row].append(np.zeros(rec.n_items))
    else:
        nxt[bad_row] = rec.n_items
    error, match = PG_BAD_ROW_ERRORS[fault]
    with pytest.raises(error, match=match):
        tr.policy_gradient(phi, rec, y, mask, zhat, queues, nxt, r, cfg)


def test_stacked_policy_gradient_needs_one_queue_per_user():
    rec, phi, y, mask, zhat, queues, nxt, r, cfg = stacked_pg_problem(3)
    with pytest.raises(ValueError, match="2 queues for 3 users"):
        tr.policy_gradient(phi, rec, y, mask, zhat, queues[:2], nxt, r, cfg)


def shared_items_pg_problem(M, K, tau, seed):
    """Four users whose rows share some items and not others: user b holds
    the K + tau items b, ..., b + K + tau - 1 of one window of K + tau + 3
    items, plus two more past items and its next one drawn from the rest
    of the catalog; queues of 0, 1, 2 and 3 rows, each K + tau of the
    user's past items."""
    rng = np.random.default_rng(seed)
    rec = rm.RecParams(n_items=M, dim=3, hidden=4, rng=rng)
    rec.b1[:] = 0.2
    phi = pol.PolicyParams(M, hidden=8, rng=rng)
    order = rng.permutation(M)
    window, rest = order[:K + tau + 3], order[K + tau + 3:]
    y, mask, zhat = np.zeros((3, 4, M))
    queues, nxt, r = [], [], []
    for b in range(4):
        items = np.concatenate([window[b:b + K + tau], rng.choice(rest, size=3, replace=False)])
        mask[b, items] = 1.0
        y[b, items] = rng.uniform(1, 5, size=items.size)
        zhat[b, items[:K + tau]] = 1.0
        queue = []
        for _ in range(b):
            zj = np.zeros(M)
            zj[rng.permutation(items[:-1])[:K + tau]] = 1.0
            queue.append(zj)
        queues.append(queue)
        nxt.append(int(items[-1]))
        r.append(float(y[b, items[-1]]))
    cfg = small_cfg(sketch_size=K, tau=tau, mode="online" if tau == 1 else "batch")
    return rec, phi, y, mask, zhat, queues, np.array(nxt), np.array(r), cfg


@pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
@pytest.mark.parametrize("stochastic", [False, True])
@pytest.mark.parametrize("K, tau", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("M", [10, 500, 3706])
def test_live_column_policy_gradient_equals_the_recorded_graph(M, K, tau, stochastic,
                                                               dropout_rate):
    # rows that share some items and not others, queues of 0 to 3 rows and
    # K = 1 at both heads: on the live columns, the selection and the
    # generator state are the recorded graph's bit for bit, the gradients,
    # v and loss within 1e-12, and the gradients are zero off the live items
    rec, phi, y, mask, zhat, queues, nxt, r, cfg = shared_items_pg_problem(
        M, K, tau, seed=M + 10 * K + tau)
    shared = zhat.sum(axis=0)
    assert np.any(shared > 1) and np.any(shared == 1)
    cfg = replace(cfg, stochastic_train=stochastic, policy_dropout_rate=dropout_rate)
    args = (y, mask, zhat, queues, nxt, r)
    rng, ref_rng = np.random.default_rng(13), np.random.default_rng(13)
    grads, v, z, loss = tr.policy_gradient(phi, rec, *args, cfg, rng=rng)
    ref_grads, ref_v, ref_z, ref_loss = graph_policy_gradient(phi, rec, *args, cfg,
                                                              rng=ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert z.shape == ref_z.shape and np.array_equal(z, ref_z)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for got, want in zip([v] + grads, [ref_v] + ref_grads):
        assert_close_rel(got, want)
    held = np.concatenate([zhat] + [np.stack(q) for q in queues if q]).any(axis=0)
    for g in (grads[0], grads[4].T, grads[5]):
        assert not np.any(g[~held])


def test_policy_gradient_adds_into_the_buffer_it_is_given():
    # two calls into one buffer sum their gradients on the union of their
    # live items; divide and clear touch only those, and leave it all zero
    rec, phi, y, mask, zhat, queues, nxt, r, cfg = stacked_pg_problem(3, M=40)
    buf = tr.PolicyGradBuffer(phi)
    first, _, _, _ = tr.policy_gradient(phi, rec, y, mask, zhat, queues, nxt, r, cfg)
    second, _, _, _ = tr.policy_gradient(phi, rec, y[:1], mask[:1], zhat[:1], queues[:1],
                                         nxt[:1], r[:1], cfg)
    tr.policy_gradient(phi, rec, y, mask, zhat, queues, nxt, r, cfg, out=buf)
    grads, _, _, _ = tr.policy_gradient(phi, rec, y[:1], mask[:1], zhat[:1], queues[:1],
                                        nxt[:1], r[:1], cfg, out=buf)
    assert grads is buf.grads
    for g, a, b in zip(buf.grads, first, second):
        assert_close_rel(g, a + b)
    total = [g.copy() for g in buf.grads]
    buf.divide(4)
    for g, a in zip(buf.grads, total):
        np.testing.assert_array_equal(g, a / 4)
    held = np.flatnonzero(zhat.any(axis=0) | np.stack(sum(queues, [])).any(axis=0))
    np.testing.assert_array_equal(buf.cols, held)
    buf.clear()
    assert buf.cols.size == 0 and not any(np.any(g) for g in buf.grads)


def test_a_policy_step_allocates_no_array_the_size_of_a_weight():
    # at M = 3706 a policy step, the gradient into train()'s buffer, its
    # division, the Adam step on it and the clear, never holds an array as
    # large as one (M, hidden) weight matrix
    rec, phi, y, mask, zhat, queues, nxt, r, cfg = stacked_pg_problem(5, M=3706)
    phi = pol.PolicyParams(3706, hidden=128, rng=np.random.default_rng(2))
    buf = tr.PolicyGradBuffer(phi)
    opt = tr.Adam(phi.params(), 1e-3, weight_decay=2e-4)
    cfg = replace(cfg, stochastic_train=True)
    rng = np.random.default_rng(3)

    def step():
        tr.policy_gradient(phi, rec, y, mask, zhat, queues, nxt, r, cfg, rng=rng, out=buf)
        buf.divide(len(zhat))
        opt.step(buf.grads)
        buf.clear()

    step()
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < phi.w1.nbytes


# ------------------------------------------------------------------- train

# (outcome, boundary, sketch items, pending items) after each step of a
# K=2 stream 5, 1, 7, 3 under the oracle policy with anchor 5: warm-up
# absorbs, then the policy keeps the anchor plus the most recent item
STEPS_TAU2 = [("absorbed", False, [5], []), ("absorbed", False, [1, 5], []),
              (None, False, [1, 5], [7]), ("updated", True, [3, 5], [])]
STEPS_TAU1 = [("absorbed", False, [5], []), ("absorbed", False, [1, 5], []),
              ("updated", True, [5, 7], []), ("updated", True, [3, 5], [])]


@pytest.mark.parametrize("tau, expected", [(2, STEPS_TAU2), (1, STEPS_TAU1)])
def test_stepper_follows_the_transition_rules(tau, expected):
    stream = ds.UserStream(user=0, items=np.array([5, 1, 7, 3, 0]),
                           ratings=np.array([4.0, 2.0, 3.0, 5.0, 1.0]))
    cfg = small_cfg(sketch_size=2, tau=tau, policy="oracle",
                    mode="online" if tau == 1 else "batch")
    st = tr._UserState(stream, 8, cfg)
    got = []
    for t in range(1, 5):
        inter, boundary = st.observe(t, cfg)
        assert inter.incoming[-1] == tr.SketchEntry(int(stream.items[t - 1]),
                                                    float(stream.ratings[t - 1]), t)
        outcome = st.commit(inter, None, None, cfg, None, {0: {5}})
        got.append((outcome, boundary, sorted(st.sketch.items().tolist()),
                    [e.item for e in st.pending]))
    assert got == expected


@pytest.mark.parametrize("setting", ["explicit", "implicit"])
@pytest.mark.parametrize("policy", ["hardest", "influence"])
def test_commit_given_the_adapted_row_keeps_the_same_items(monkeypatch, setting, policy):
    # evaluation hands commit the row of its stacked adaptation; the update
    # keeps what re-running inner_adapt on the same sketch keeps, without
    # that second call
    streams = synth(seed=5, n_users=20, setting=setting).splits.train[:4]
    streams = [ds.UserStream(s.user, s.items[:n], s.ratings[:n])
               for s, n in zip(streams, (8, 5, 7, 6))]
    cfg = small_cfg(setting=setting, policy=policy)
    rec = rm.RecParams(24, dim=3, hidden=4, setting=setting, rng=np.random.default_rng(1))
    shared = [tr._UserState(s, 24, cfg) for s in streams]
    own = [tr._UserState(s, 24, cfg) for s in streams]
    calls = []
    adapt = tr.inner_adapt
    monkeypatch.setattr(tr, "inner_adapt", lambda *a, **kw: calls.append(1) or adapt(*a, **kw))
    updates = 0
    for t in range(1, 8):
        active = [i for i, s in enumerate(streams) if t < len(s.items)]
        u = adapt(rec, np.stack([shared[i].sketch.z for i in active]),
                  np.stack([shared[i].y for i in active]),
                  np.stack([shared[i].mask for i in active]),
                  cfg.inner_lr, cfg.inner_steps)
        for b, i in enumerate(active):
            inter, _ = shared[i].observe(t, cfg)
            outcome = shared[i].commit(inter, rec, None, cfg, None, u=u[b])
            assert not calls
            inter, _ = own[i].observe(t, cfg)
            own[i].commit(inter, rec, None, cfg, None)
            assert len(calls) == (outcome == "updated")
            calls.clear()
            assert shared[i].sketch.items().tolist() == own[i].sketch.items().tolist()
            updates += outcome == "updated"
    assert updates == sum(len(s.items) - 1 - cfg.sketch_size for s in streams)


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


def traced_train(cfg, data, **kwargs):
    """The training result and its sketch trace, one dict per line."""
    trace = io.StringIO()
    res = tr.train(cfg, data, trace_file=trace, **kwargs)
    return res, [json.loads(line) for line in trace.getvalue().splitlines()]


@pytest.mark.parametrize("tau", [1, 2])
def test_train_commits_the_selection_of_the_policy_gradient(monkeypatch, tau):
    # stochastic training: each boundary user's new sketch is the items
    # policy_gradient selected for that user at that step, and commit never
    # selects again (that would be a second, independent draw)
    data = synth(seed=7, length=10).splits
    cfg = small_cfg(tau=tau, mode="online" if tau == 1 else "batch", stochastic_train=True)
    selections, hooked, in_commit, selected_in_commit = [], [], [False], []
    policy_gradient, commit, select = tr.policy_gradient, tr._UserState.commit, \
        tr.select_with_policy

    def pg_spy(*args, **kwargs):
        out = policy_gradient(*args, **kwargs)
        selections.append(out[2].copy())
        return out

    def commit_spy(self, *args, **kwargs):
        in_commit[0] = True
        try:
            return commit(self, *args, **kwargs)
        finally:
            in_commit[0] = False

    def select_spy(*args, **kwargs):
        selected_in_commit.append(in_commit[0])
        return select(*args, **kwargs)

    monkeypatch.setattr(tr, "policy_gradient", pg_spy)
    monkeypatch.setattr(tr._UserState, "commit", commit_spy)
    monkeypatch.setattr(tr, "select_with_policy", select_spy)
    _, trace = traced_train(cfg, data, validate_each_epoch=False,
                            policy_grad_hook=lambda users, t, g, v: hooked.append((users, t)))

    expected = {}
    for (users, t), z in zip(hooked, selections, strict=True):
        for user, row in zip(users, z, strict=True):
            expected[user, t] = np.flatnonzero(row > 0.5).tolist()
    updated = {(rec["user"], rec["step"]): rec["kept"] for rec in trace if not rec["absorbed"]}
    assert len(updated) > 10 and updated == expected
    assert selected_in_commit and not any(selected_in_commit)


@pytest.mark.parametrize("tau", [1, 2])
def test_train_leaves_its_policy_gradient_buffer_zero_after_every_step(monkeypatch, tau):
    # one buffer for the whole run: each policy step writes it, and its
    # clear leaves every entry zero again, over several epochs
    buffers, steps = [], []

    class Spy(tr.PolicyGradBuffer):
        def __init__(self, phi):
            super().__init__(phi)
            buffers.append(self)

        def clear(self):
            written = any(np.any(g) for g in self.grads)
            super().clear()
            steps.append((written, not any(np.any(g) for g in self.grads)))

    monkeypatch.setattr(tr, "PolicyGradBuffer", Spy)
    cfg = small_cfg(tau=tau, mode="online" if tau == 1 else "batch", epochs=3,
                    queue_size=3, stochastic_train=True)
    hooked = []
    tr.train(cfg, synth(seed=9).splits, validate_each_epoch=False,
             policy_grad_hook=lambda users, t, g, v: hooked.append(t))
    assert len(buffers) == 1
    assert len(steps) == len(hooked) > 10
    assert all(zero for _, zero in steps)
    assert sum(written for written, _ in steps) > len(steps) / 2


def test_warm_start_leaves_the_callers_parameters_untouched():
    # train() copies init_rec and init_phi: with nonzero rates its
    # optimizers move its own parameters, never the caller's
    data = synth(seed=10).splits
    cfg = small_cfg(lr_user=1e-2, lr_item=1e-2, lr_policy=1e-2, stochastic_train=True)
    init = tr.train(cfg, data, validate_each_epoch=False)
    before = final_state(init)
    warm = tr.train(replace(cfg, seed=1), data, validate_each_epoch=False,
                    init_rec=init.rec, init_phi=init.phi)
    for a, b in zip(final_state(init), before):
        np.testing.assert_array_equal(a, b)
    assert all(np.any(a != b) for a, b in zip(final_state(warm), before))


@pytest.mark.parametrize("tau", [1, 2])
@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_deterministic_training_is_unchanged_by_commit_reuse(monkeypatch, setting, tau):
    # deterministic heads: the selection commit would make for itself is
    # the one policy_gradient took, so reusing it changes no bit
    data = synth(seed=8, setting=setting).splits
    cfg = small_cfg(setting=setting, tau=tau, mode="online" if tau == 1 else "batch")
    reused, reused_trace = traced_train(cfg, data)
    commit = tr._UserState.commit
    monkeypatch.setattr(tr._UserState, "commit",
                        lambda self, *args, z=None, **kwargs: commit(self, *args, **kwargs))
    own, own_trace = traced_train(cfg, data)
    assert any(not rec["absorbed"] for rec in own_trace)
    assert reused_trace == own_trace
    assert reused.metric_log == own.metric_log
    for a, b in zip(final_state(reused), final_state(own)):
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


def test_parameters_are_float64_arrays_held_without_a_copy():
    # every parameter is a plain float64 array, the one the parameter lists
    # and state_arrays hand out; load_arrays holds a float64 input itself,
    # converts any other, and checks the shapes
    rng = np.random.default_rng(0)
    for params in (rm.RecParams(6, dim=2, hidden=3, rng=rng),
                   rm.RecParams(6, dim=2, hidden=3, setting="implicit", rng=rng),
                   pol.PolicyParams(6, hidden=4, rng=rng)):
        state = params.state_arrays()
        assert list(state) == params.param_names() == list(params.shapes())
        for name, arr in zip(params.param_names(), params.params()):
            assert type(arr) is np.ndarray and arr.dtype == np.float64
            assert getattr(params, name) is arr and state[name] is arr
        arrays = {n: a.copy() for n, a in state.items()}
        params.load_arrays(arrays)
        for name, arr in arrays.items():
            assert np.shares_memory(getattr(params, name), arr)
        params.load_arrays({n: a.astype(np.float32) for n, a in arrays.items()})
        assert all(a.dtype == np.float64 for a in params.state_arrays().values())
        with pytest.raises(ValueError, match="checkpoint mismatch for"):
            params.load_arrays({n: a[..., :1] for n, a in arrays.items()})


@pytest.mark.parametrize("setting, rec_digest, phi_digest, next_draw", [
    ("explicit", "2d538c0825f473c4", "74f199eea0b96964", 519815374767555537),
    ("implicit", "335e806128213d1b", "6d96c2ee02788bca", 4427545624748377404)])
def test_seeded_parameters_draw_the_recorded_arrays(setting, rec_digest, phi_digest,
                                                    next_draw):
    # one generator draws rec, then phi, as train() does: user_emb and
    # item_emb uniform, then the dense w1 and w2 of rec, then w1, w2 and w3
    # of phi.  The digests of the arrays and the generator's next draw are
    # recorded constants, so any change to what is drawn, or in which order,
    # moves them
    def digest(params):
        h = hashlib.sha256()
        for name, arr in params.state_arrays().items():
            h.update(name.encode())
            h.update(arr.tobytes())
        return h.hexdigest()[:16]

    rng = np.random.default_rng(7)
    rec = rm.RecParams(9, dim=3, hidden=5, setting=setting, rng=rng)
    phi = pol.PolicyParams(9, hidden=6, rng=rng)
    assert (digest(rec), digest(phi)) == (rec_digest, phi_digest)
    assert int(rng.integers(2 ** 62)) == next_draw


def test_checkpoint_roundtrip(tmp_path):
    data = synth(seed=6).splits
    cfg = small_cfg()
    res = tr.train(cfg, data, validate_each_epoch=False)
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(path, res.rec, res.phi, cfg)
    rec2, phi2, cfg2 = tr.load_checkpoint(path)
    assert cfg2 == cfg
    for n in res.rec.param_names():
        np.testing.assert_array_equal(getattr(rec2, n), getattr(res.rec, n))
    for n in res.phi.param_names():
        np.testing.assert_array_equal(getattr(phi2, n), getattr(res.phi, n))


def test_load_checkpoint_draws_nothing(tmp_path, monkeypatch):
    # the parameters are built on the stored arrays: no generator is made,
    # and a constructor given arrays leaves a given generator untouched
    data = synth(seed=6).splits
    cfg = small_cfg()
    res = tr.train(cfg, data, validate_each_epoch=False)
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(path, res.rec, res.phi, cfg)

    def no_generator(*args, **kwargs):
        raise AssertionError("load_checkpoint made a generator")

    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", no_generator)
        rec2, phi2, cfg2 = tr.load_checkpoint(path)
    assert cfg2 == cfg
    for a, b in zip(final_state(res), final_state(tr.TrainResult(rec2, phi2))):
        np.testing.assert_array_equal(a, b)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    rm.RecParams(res.rec.n_items, dim=cfg.dim, hidden=cfg.hidden, rng=rng,
                 arrays=res.rec.state_arrays())
    pol.PolicyParams(res.phi.n_items, hidden=cfg.policy_hidden, rng=rng,
                     arrays=res.phi.state_arrays())
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("tau, mode", [(1, "online"), (2, "batch")])
def test_checkpoint_holding_the_removed_policy_dropout_flag_loads(tmp_path, tau, mode):
    # checkpoints written before TrainConfig.policy_dropout was removed
    # still hold it in their meta, and their tau=1 online head dropped the
    # highest score: after the load it must drop the same items
    cfg = small_cfg(tau=tau, mode=mode)
    rng = np.random.default_rng(5)
    rec = rm.RecParams(n_items=6, dim=cfg.dim, hidden=cfg.hidden, rng=rng)
    phi = pol.PolicyParams(6, hidden=cfg.policy_hidden, rng=rng)
    phi.b3 = rng.normal(size=6)
    path = tmp_path / "checkpoint.npz"
    tr.save_checkpoint(path, rec, phi, cfg)
    with np.load(path) as data:
        arrays = dict(data)
    meta = dict(json.loads(bytes(arrays["meta"]).decode()), policy_dropout=True)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    rec2, phi2, cfg2 = tr.load_checkpoint(path)
    assert cfg2 == cfg
    for name in ["w1", "b1", "w2", "b2"]:
        np.testing.assert_array_equal(getattr(phi2, name), getattr(phi, name))
    zhat = np.zeros((20, 6))
    for row in zhat:
        row[rng.choice(6, size=3, replace=False)] = 1.0
    y = rng.normal(size=zhat.shape) * zhat
    before = pol.policy_scores(zhat, y, phi).data
    after = pol.policy_scores(zhat, y, phi2).data
    if tau == 1:
        _, removed = pol.online_remove(after)
        np.testing.assert_array_equal(removed, np.argmax(before, axis=1))
    else:
        np.testing.assert_array_equal(after, before)


def test_checkpoint_holding_the_removed_momentum_and_damping_loads(tmp_path):
    # configs once held momentum and influence_damping, at the values
    # train() still uses; a meta holding them loads unchanged
    cfg = small_cfg()
    rng = np.random.default_rng(6)
    rec = rm.RecParams(n_items=6, dim=cfg.dim, hidden=cfg.hidden, rng=rng)
    phi = pol.PolicyParams(6, hidden=cfg.policy_hidden, rng=rng)
    path = tmp_path / "checkpoint.npz"
    tr.save_checkpoint(path, rec, phi, cfg)
    with np.load(path) as data:
        arrays = dict(data)
    meta = dict(json.loads(bytes(arrays["meta"]).decode()), momentum=0.9,
                influence_damping=1e-3)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    rec2, phi2, cfg2 = tr.load_checkpoint(path)
    assert cfg2 == cfg
    for a, b in zip(final_state(tr.TrainResult(rec, phi)),
                    final_state(tr.TrainResult(rec2, phi2))):
        np.testing.assert_array_equal(a, b)


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

    rec.user_emb += 1.0
    monkeypatch.setattr(tr.np, "savez", failing_savez)
    with pytest.raises(OSError, match="disk full"):
        tr.save_checkpoint(path, rec, phi, cfg)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz"]

    monkeypatch.undo()
    tr.save_checkpoint(tmp_path / "bare", rec, phi, cfg)   # np.savez naming
    rec2, _, _ = tr.load_checkpoint(tmp_path / "bare.npz")
    np.testing.assert_array_equal(rec2.user_emb.data, rec.user_emb)


@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_graph_free_inner_adapt_raises_what_sketch_loss_raises(setting):
    rec = rm.RecParams(n_items=6, dim=3, hidden=4, setting=setting,
                       rng=np.random.default_rng(7))
    mask = np.zeros((2, 6))
    mask[:, [1, 4]] = 1.0
    z = mask.copy()
    bad = [(z[:, :5], mask, "z has shape"),
           (z, mask[0], "mask has shape"),
           (z - 1.5 * mask, mask, "negative sketch weights"),
           (z + np.eye(2, 6), mask, "non-interacted item")]
    for zb, mb, message in bad:
        with pytest.raises(ValueError, match=message) as want:
            rm.sketch_loss(rec, dc.broadcast_to(rec.user_emb, (2, 3)), zb, mask, mb)
        with pytest.raises(ValueError, match=message) as got:
            tr.inner_adapt(rec, zb, mask, mb, 0.2, 2)
        assert str(got.value) == str(want.value)
