import numpy as np
import pytest

from dips import diffcore as dc
from dips import recmodel as rm
from dips.diffcore import Tensor, grad

from fdcheck import finite_difference, rel_error
from unrolled_reference import recorded_backward


def tiny_model(setting="explicit", n_items=5, dim=3, hidden=4, seed=0):
    return rm.RecParams(n_items=n_items, dim=dim, hidden=hidden, setting=setting,
                        rng=np.random.default_rng(seed))


def one_user(rec, u=None):
    """The one-row stack (1, d) of ``u`` (d,), by default the global user
    embedding; a graph reshape, so gradients flow back to ``u``."""
    return dc.reshape(rec.user_emb if u is None else u, (1, rec.dim))


def rows_of(n):
    return np.zeros(n, dtype=np.int64)


def test_predict_explicit_zero_params_is_bias():
    rec = tiny_model()
    for name in rec.param_names():
        setattr(rec, name, np.zeros(getattr(rec, name).shape))
    rec.b2 = np.array([0.37])
    pred = rm.predict_explicit_many(rec, one_user(rec), [2], rows_of(1))
    assert pred.data[0] == pytest.approx(0.37)


def test_predict_explicit_identical_embeddings_identical_predictions():
    rec = tiny_model()
    rec.item_emb[3] = rec.item_emb[1]
    pred = rm.predict_explicit_many(rec, one_user(rec), [1, 3], rows_of(2)).data
    assert pred[0] == pytest.approx(pred[1])


def test_predict_explicit_out_of_range():
    rec = tiny_model()
    with pytest.raises(IndexError):
        rm.predict_explicit_many(rec, one_user(rec), [5], rows_of(1))


def test_predict_explicit_matches_straightline_oracle():
    rec = tiny_model(seed=42)
    item = 4
    x = np.concatenate([rec.user_emb, rec.item_emb[item]])
    expected = float((np.maximum(x @ rec.w1 + rec.b1, 0) @ rec.w2 + rec.b2)[0])
    many = rm.predict_explicit_many(rec, one_user(rec), [4, 1], rows_of(2))
    assert many.data[0] == pytest.approx(expected, abs=1e-12)


def test_predict_implicit_symmetry_and_oracle():
    rec = tiny_model(setting="implicit", seed=7)
    rec.item_emb[2] = rec.item_emb[0]
    scores = rm.predict_implicit(rec, one_user(rec))
    assert scores.shape == (1, rec.n_items)
    assert scores.data[0, 0] == pytest.approx(scores.data[0, 2])

    h = np.maximum(rec.user_emb @ rec.w1 + rec.b1, 0)
    t = h @ rec.w2 + rec.b2
    np.testing.assert_allclose(scores.data[0], rec.item_emb @ t, atol=1e-12)


def test_softmax_shift_invariance_of_scores():
    rec = tiny_model(setting="implicit", seed=3)
    scores = rm.predict_implicit(rec, one_user(rec))
    p1 = dc.softmax(scores).data
    p2 = dc.softmax(scores + 5.0).data
    np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_next_item_losses_analytic():
    rec = tiny_model()
    for name in rec.param_names():
        setattr(rec, name, np.zeros(getattr(rec, name).shape))
    rec.b2 = np.array([2.0])
    assert rm.next_item_loss(rec, one_user(rec), [1], [2.0]).item() == 0.0
    assert rm.next_item_loss(rec, one_user(rec), [1], [5.0]).item() == pytest.approx(9.0)
    # all-zero item embeddings score every item alike: cross-entropy log M
    rec = tiny_model(setting="implicit", n_items=4)
    rec.item_emb[:] = 0.0
    assert rm.next_item_loss(rec, one_user(rec), [1], [1.0]).item() == pytest.approx(np.log(4))
    with pytest.raises(IndexError, match="item 9 out of range"):
        rm.next_item_loss(rec, one_user(rec), [9], [1.0])


def _mask_y(rec, rng, n_interacted=4):
    """One user's interaction mask and ratings as one-row stacks (1, M),
    and the interacted items."""
    items = rng.choice(rec.n_items, size=n_interacted, replace=False)
    mask = np.zeros((1, rec.n_items))
    mask[0, items] = 1
    y = np.zeros((1, rec.n_items))
    y[0, items] = rng.normal(size=n_interacted) + 3.0
    return mask, y, items


def test_sketch_loss_zero_weights():
    rec = tiny_model()
    mask, y, _ = _mask_y(rec, np.random.default_rng(0))
    loss = rm.sketch_loss(rec, one_user(rec), np.zeros((1, rec.n_items)), y, mask)
    assert loss.item() == 0.0


def test_sketch_loss_one_hot_reduces_to_pointwise():
    rec = tiny_model(seed=5)
    mask, y, items = _mask_y(rec, np.random.default_rng(1))
    j = items[0]
    z = np.zeros((1, rec.n_items))
    z[0, j] = 1.0
    loss = rm.sketch_loss(rec, one_user(rec), z, y, mask)
    x = np.concatenate([rec.user_emb, rec.item_emb[j]])
    pred = (np.maximum(x @ rec.w1 + rec.b1, 0) @ rec.w2 + rec.b2)[0]
    assert loss.item() == pytest.approx((pred - y[0, j]) ** 2, abs=1e-12)


def test_sketch_loss_rejects_weight_outside_mask():
    rec = tiny_model()
    mask, y, items = _mask_y(rec, np.random.default_rng(2))
    z = np.zeros((1, rec.n_items))
    off = next(j for j in range(rec.n_items) if mask[0, j] == 0)
    z[0, off] = 0.5
    with pytest.raises(ValueError, match="non-interacted"):
        rm.sketch_loss(rec, one_user(rec), z, y, mask)


def test_stacked_losses_reject_rows_that_do_not_match_the_users():
    rec = tiny_model()
    u = Tensor(np.zeros((2, rec.dim)))
    z = np.zeros((2, rec.n_items))
    with pytest.raises(ValueError, match="z has shape"):
        rm.sketch_loss(rec, u, np.zeros((3, rec.n_items)), z, z)
    with pytest.raises(ValueError, match="z has shape"):
        rm.sketch_loss(rec, u, np.zeros(rec.n_items), z, z)
    with pytest.raises(ValueError, match="mask has shape"):
        rm.sketch_loss(rec, u, z, z, np.zeros(rec.n_items))
    with pytest.raises(ValueError, match="next items of shape"):
        rm.next_item_loss(rec, u, np.array([1, 2, 3]), np.ones(3))
    with pytest.raises(ValueError, match="next items of shape"):
        rm.next_item_loss(rec, u, 1, 1.0)


@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_sketch_loss_grad_wrt_z_is_pointwise_loss(setting):
    rec = tiny_model(setting=setting, seed=11)
    rng = np.random.default_rng(3)
    mask, y, items = _mask_y(rec, rng)
    if setting == "implicit":
        y = mask.copy()
    z0 = np.zeros((1, rec.n_items))
    z0[0, items] = rng.uniform(0.5, 1.5, size=items.size)
    u = one_user(rec)

    z = Tensor(z0, requires_grad=True)
    (gz,) = grad(rm.sketch_loss(rec, u, z, y, mask), [z])

    # dloss/dz_j equals the pointwise loss on item j (linearity in z)
    for j in items:
        lj = rm.next_item_loss(rec, u, [j], [y[0, j]]).item()
        assert gz.data[0, j] == pytest.approx(lj, rel=1e-10)

    # finite differences agree
    def f(zv):
        return rm.sketch_loss(rec, u, zv, y, mask).item()

    for j in items[:2]:
        zp, zm = z0.copy(), z0.copy()
        zp[0, j] += 1e-4
        zm[0, j] -= 1e-4
        fd = (f(zp) - f(zm)) / 2e-4
        assert gz.data[0, j] == pytest.approx(fd, rel=1e-5)


def test_sketch_loss_linear_in_z():
    rec = tiny_model(seed=13)
    rng = np.random.default_rng(4)
    mask, y, items = _mask_y(rec, rng)
    z = np.zeros((1, rec.n_items))
    z[0, items] = rng.uniform(0.1, 1.0, size=items.size)
    l1 = rm.sketch_loss(rec, one_user(rec), z, y, mask).item()
    l2 = rm.sketch_loss(rec, one_user(rec), 2 * z, y, mask).item()
    assert l2 == pytest.approx(2 * l1, rel=1e-12)


def test_sketch_loss_grad_wrt_user_is_weighted_sum():
    rec = tiny_model(seed=17)
    rng = np.random.default_rng(5)
    mask, y, items = _mask_y(rec, rng)
    z = np.zeros((1, rec.n_items))
    z[0, items] = rng.uniform(0.1, 1.0, size=items.size)

    u = Tensor(rec.user_emb[None].copy(), requires_grad=True)
    (g,) = grad(rm.sketch_loss(rec, u, z, y, mask), [u])

    total = np.zeros((1, rec.dim))
    for j in items:
        uj = Tensor(rec.user_emb[None].copy(), requires_grad=True)
        lj = rm.next_item_loss(rec, uj, [j], [y[0, j]])
        (gj,) = grad(lj, [uj])
        total += z[0, j] * gj.data
    np.testing.assert_allclose(g.data, total, atol=1e-10)


def test_checkpoint_roundtrip(tmp_path):
    rec = tiny_model(seed=23)
    arrays = rec.state_arrays()
    rec2 = tiny_model(seed=99)
    rec2.load_arrays(arrays)
    for name in rec.param_names():
        np.testing.assert_array_equal(getattr(rec2, name), getattr(rec, name))
    bad = dict(arrays)
    bad["w1"] = np.zeros((2, 2))
    with pytest.raises(ValueError, match="mismatch"):
        rec2.load_arrays(bad)


# ------------------------------------------------- closed-form derivatives

def _autodiff_derivatives(rec, u0, items, ratings):
    """Per-entry gradients from one backward pass each, and the Hessian of
    their sum from one more pass per row (the d-pass reference)."""
    u = Tensor(u0.copy(), requires_grad=True)
    grads = [grad(rm.next_item_loss(rec, one_user(rec, u), [j], [r]), [u],
                  create_graph=True)[0]
             for j, r in zip(items, ratings)]
    total = grads[0]
    for g in grads[1:]:
        total = total + g
    hess = np.array([grad(dc.gather(total, i), [u])[0].data for i in range(rec.dim)])
    return np.array([g.data for g in grads]), hess


@pytest.mark.parametrize("n_entries", [1, 5])
@pytest.mark.parametrize("n_items", [10, 500])
@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_user_derivatives_match_autodiff(setting, n_items, n_entries):
    rng = np.random.default_rng(n_items + n_entries)
    rec = rm.RecParams(n_items=n_items, dim=4, hidden=6, setting=setting, rng=rng)
    rec.b1[:] = 0.2
    rec.b1[2] = -50.0                      # hidden unit 2 is dead
    u0 = 0.5 * rng.normal(size=4)
    items = rng.choice(n_items, size=n_entries, replace=False)
    ratings = rng.uniform(1, 5, size=n_entries)
    x = np.concatenate([np.tile(u0, (n_entries, 1)), rec.item_emb[items]], axis=1) \
        if setting == "explicit" else u0
    pre = x @ rec.w1 + rec.b1
    assert np.all(pre[..., 2] < 0) and np.any(pre > 0)

    grads, hess = rm.user_derivatives(rec, u0, items, ratings)
    ref_grads, ref_hess = _autodiff_derivatives(rec, u0, items, ratings)
    assert grads.shape == (n_entries, 4) and hess.shape == (4, 4)
    assert np.max(np.abs(grads - ref_grads)) <= 1e-12 * np.max(np.abs(ref_grads))
    assert np.max(np.abs(hess - ref_hess)) <= 1e-12 * np.max(np.abs(ref_hess))


def test_user_derivatives_take_one_user():
    rec = tiny_model()
    with pytest.raises(ValueError, match="one user embedding"):
        rm.user_derivatives(rec, np.zeros((2, rec.dim)), [1], [1.0])
    with pytest.raises(IndexError, match="out of range"):
        rm.user_derivatives(rec, rec.user_emb, [5], [1.0])


@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_constant_weights_give_the_full_mask_loss_and_gradient(setting, monkeypatch):
    # a constant z predicts only its support in the explicit setting; a graph
    # z keeps the full mask, which makes it the reference
    rec = tiny_model(setting=setting, n_items=12, seed=29)
    rng = np.random.default_rng(6)
    mask = np.zeros((3, 12))
    for row in mask:
        row[rng.choice(12, size=6, replace=False)] = 1.0
    y = mask * rng.uniform(1, 5, size=mask.shape)
    z = np.zeros((3, 12))
    z[0, np.flatnonzero(mask[0])[:3]] = 1.0     # row 1 weights nothing (t = 1)
    z[2] = mask[2] * rng.uniform(0.5, 1.5, size=12)
    u0 = 0.3 * rng.normal(size=(3, rec.dim))
    predicted = []
    orig = rm.predict_explicit_many

    def counting(rec, u, items, rows):
        predicted.append(len(items))
        return orig(rec, u, items, rows)

    monkeypatch.setattr(rm, "predict_explicit_many", counting)

    for rows in (slice(None), slice(1, 2), slice(0, 1)):
        zc, uc, mc, yc = z[rows], u0[rows], mask[rows], y[rows]
        out = []
        for weights in (zc, Tensor(zc, requires_grad=True)):
            u = Tensor(uc.copy(), requires_grad=True)
            loss = rm.sketch_loss(rec, u, weights, yc, mc)
            out.append((loss.item(), grad(loss, [u])[0].data))
        (l_const, g_const), (l_graph, g_graph) = out
        assert abs(l_const - l_graph) <= 1e-12 * max(abs(l_graph), 1.0)
        assert np.max(np.abs(g_const - g_graph)) <= 1e-12 * max(np.max(np.abs(g_graph)), 1.0)
    if setting == "explicit":
        assert predicted == [9, 18, 0, 6, 3, 6]
    else:
        assert predicted == []


def kernel_problem(setting, n_items, seed):
    """A stack of three users whose middle row weights nothing, with
    non-integer weights on part of each mask, at a point whose relu
    pre-activations stay clear of 0."""
    rng = np.random.default_rng(seed)
    rec = rm.RecParams(n_items=n_items, dim=4, hidden=6, setting=setting, rng=rng)
    rec.b1[:] = 0.3
    rec.b1[2] = -50.0                      # hidden unit 2 is dead
    mask = np.zeros((3, n_items))
    for row in mask:
        row[rng.choice(n_items, size=min(7, n_items), replace=False)] = 1.0
    y = mask * rng.uniform(1, 5, size=mask.shape) if setting == "explicit" else mask
    z = mask * rng.uniform(0.5, 1.5, size=mask.shape) * (rng.random(mask.shape) < 0.7)
    z[1] = 0.0
    u0 = 0.5 * rng.normal(size=(3, 4))
    rows, items = np.nonzero(mask)
    x = u0 if setting == "implicit" else np.concatenate(
        [u0[rows], rec.item_emb[items]], axis=1)
    pre = x @ rec.w1 + rec.b1
    assert np.min(np.abs(pre)) > 1e-4 and np.all(pre[:, 2] < 0) and np.any(pre > 0)
    return rec, z, y, mask, u0


@pytest.mark.parametrize("n_items", [10, 500, 3706])
@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_graph_free_kernel_matches_autodiff(setting, n_items):
    # the closed-form forward and sketch gradient against the graph ops
    # and a backward of sketch_loss, for the stack and for its first row
    rec, z, y, mask, u0 = kernel_problem(setting, n_items, seed=n_items)
    items = np.array([3, 0, 7, 3])
    for uc, zc, yc, mc, rows in ((u0, z, y, mask, np.array([0, 2, 1, 1])),
                                 (u0[:1], z[:1], y[:1], mask[:1], np.zeros(4, dtype=int))):
        u = Tensor(uc.copy(), requires_grad=True)
        if setting == "explicit":
            out, m = rm.user_forward(rec, uc, items, rows)
            ref = rm.predict_explicit_many(rec, u, items, rows).data
            assert m.shape == (4, rec.hidden)
        else:
            out, m = rm.user_forward(rec, uc)
            ref = rm.predict_implicit(rec, u).data
            assert m.shape == (len(uc), rec.hidden)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

        got = rm.sketch_gradient(rec, uc, zc, yc, mc)
        (want,) = grad(rm.sketch_loss(rec, u, zc, yc, mc), [u])
        assert got.shape == uc.shape
        assert np.max(np.abs(got - want.data)) <= 1e-12 * np.max(np.abs(want.data))
    np.testing.assert_array_equal(rm.sketch_gradient(rec, u0, z, y, mask)[1], 0.0)


def max_rel_diff(a, ref):
    """max |a - ref| over max |ref|; exact where ``ref`` is all zero."""
    a, ref = np.asarray(a), np.asarray(ref)
    assert a.shape == ref.shape
    diff = np.max(np.abs(a - ref), initial=0.0)
    return diff / np.max(np.abs(ref)) if np.any(ref) else diff


@pytest.mark.parametrize("n_steps", [0, 1, 5])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("n_items", [10, 500, 3706])
@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_unrolled_backward_matches_the_recorded_double_backward(setting, n_items, B, n_steps):
    # the closed-form reverse pass against one backward of the recorded
    # inner loop: theta gradients, v and loss within 1e-12, for the first
    # row alone and for the stack whose middle row weights nothing
    rec, z, y, mask, _ = kernel_problem(setting, n_items, seed=n_items)
    z, y, mask = z[:B], y[:B], mask[:B]
    nxt = np.array([np.flatnonzero(row)[-1] for row in mask])
    r = y[np.arange(B), nxt]
    args = (rec, z, y, mask, nxt, r, 0.3, n_steps)
    ref_grads, ref_v, ref_loss = recorded_backward(*args)
    grads, v, loss = rm.unrolled_backward(*args, sketch=True)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert max_rel_diff(v, ref_v) <= 1e-12
    assert not np.any(v[mask == 0])
    assert (n_steps == 0) == (not np.any(v))
    for g, g_ref in zip(grads, ref_grads, strict=True):
        assert max_rel_diff(g, g_ref) <= 1e-12

    # theta alone takes the explicit steps on the support of z only; v
    # alone is the same v, bit for bit
    theta_only, none, loss_t = rm.unrolled_backward(*args)
    assert none is None and abs(loss_t - ref_loss) <= 1e-12 * abs(ref_loss)
    for g, g_ref in zip(theta_only, ref_grads, strict=True):
        assert max_rel_diff(g, g_ref) <= 1e-12
    none, v_only, _ = rm.unrolled_backward(*args, theta=False, sketch=True)
    assert none is None
    np.testing.assert_array_equal(v_only, v)


@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_unroll_checks_the_sketch_once_per_call(monkeypatch, setting):
    # the checks and gathers of the sketch run once however many steps are
    # taken, and not at all when no step is
    rec, z, y, mask, _ = kernel_problem(setting, 10, seed=10)
    checked = []
    check = rm._check_sketch
    monkeypatch.setattr(rm, "_check_sketch", lambda *a: checked.append(1) or check(*a))
    for n_steps, alpha in ((5, 0.3), (0, 0.3), (5, 0.0)):
        checked.clear()
        u, _, steps = rm.unroll(rec, z, y, mask, alpha, n_steps, keep=True)
        stepped = n_steps > 0 and alpha > 0
        assert len(checked) == stepped and len(steps) == n_steps * stepped
        if not stepped:
            np.testing.assert_array_equal(u, np.tile(rec.user_emb, (3, 1)))
