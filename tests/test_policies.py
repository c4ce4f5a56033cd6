import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dips import diffcore as dc
from dips import policies as pol
from dips import recmodel as rm
from dips.diffcore import Tensor, grad
from dips import trainer as tr
from dips.datasets import UserStream

from fdcheck import finite_difference, rel_error


def stepped_table(items, K, M, policy, ratings=None, tau=1, rng=None):
    """A one-user table after observing (and committing) every item of
    ``items`` but the last, which it has just observed; returns the table
    and the rows deciding at that last step."""
    ratings = ratings if ratings is not None else [1.0] * len(items)
    stream = UserStream(0, np.array(items), np.array(ratings, dtype=np.float64))
    cfg = tr.TrainConfig(sketch_size=K, tau=tau, mode="online" if tau == 1 else "batch",
                         policy=policy)
    table = tr.SketchTable([stream], M, cfg, [rng])
    for t in range(1, len(items) + 1):
        _, up = table.observe(t, np.zeros(1, dtype=np.int64))
        if t < len(items) and up.size:
            table.commit(up)
    return table, up


def kept_items(table):
    return sorted(table.items[0, :table.kept[0]].tolist())


# ---------------------------------------------------------------- reservoir

def test_reservoir_under_capacity_always_inserts():
    # the table absorbs while the sketch has room, drawing nothing
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    table, up = stepped_table([0, 1, 2, 7], K=4, M=10, policy="random", rng=rng)
    assert up.size == 0 and kept_items(table) == [0, 1, 2, 7]
    assert rng.bit_generator.state == state


def test_reservoir_rejects_duplicates():
    with pytest.raises(ValueError, match="user 0, step t=3: item 1 is already in the sketch"):
        stepped_table([0, 1, 1], K=4, M=10, policy="random", rng=np.random.default_rng(0))


def test_reservoir_replaces_a_kept_slot_in_place():
    # a draw j < k puts the pending slot's item in slot j; every other
    # kept slot keeps its item and its place
    steps = np.array([[1, 2, 3, 4, 9]])
    rng = np.random.default_rng(0)
    j = int(np.random.default_rng(0).integers(9))
    src = pol.reservoir_update(steps, 4, [rng])
    expected = np.arange(4)
    if j < 4:
        expected[j] = 4
    np.testing.assert_array_equal(src, [expected])


def test_reservoir_size_invariant():
    rng = np.random.default_rng(1)
    K, M, T = 5, 100, 30
    stream = UserStream(0, np.arange(T), np.ones(T))
    table = tr.SketchTable([stream], M, tr.TrainConfig(sketch_size=K, policy="random"), [rng])
    for t in range(1, T + 1):
        _, up = table.observe(t, np.zeros(1, dtype=np.int64))
        table.commit(up)
        assert table.kept[0] == min(t, K)


def test_reservoir_inclusion_probability():
    # each of 100 streamed items should be retained with probability K/T
    rng = np.random.default_rng(2)
    K, M, T, trials = 10, 100, 100, 20000
    counts = np.zeros(T)
    steps = np.arange(1, T + 1)[None]
    for _ in range(trials):
        counts[pol.reservoir_update(steps, K, [rng])[0]] += 1
    p = K / T
    sigma = np.sqrt(p * (1 - p) * trials)
    assert np.all(np.abs(counts - p * trials) <= 3 * sigma)


# ------------------------------------------------------------------ hardest

def tiny_model(setting="explicit", n_items=8, seed=0):
    return rm.RecParams(n_items=n_items, dim=3, hidden=4, setting=setting,
                        rng=np.random.default_rng(seed))


def entry_loss(rec, u, item, rating):
    """The graph loss of one entry at ``u`` (d,), a Tensor or an array."""
    return rm.next_item_loss(rec, dc.reshape(u, (1, rec.dim)), [item], [rating])


@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_entry_losses_equal_the_graph_losses(setting):
    rec = tiny_model(setting, n_items=40, seed=8)
    rng = np.random.default_rng(8)
    items = rng.choice(40, size=(2, 6), replace=False)
    ratings = rng.uniform(1, 5, size=(2, 6))
    u = rng.normal(size=(2, 3))
    want = np.array([[entry_loss(rec, u[r], j, y).item() for j, y in zip(items[r], ratings[r])]
                     for r in range(2)])
    got = pol.entry_losses(rec, u, items, ratings)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    if setting == "implicit":
        scores, _ = rm.user_forward(rec, u)
        np.testing.assert_array_equal(pol.entry_losses(rec, u, items, ratings, scores), got)


def test_hardest_under_capacity_keeps_all():
    table, up = stepped_table([0, 1], K=3, M=8, policy="hardest")
    assert up.size == 0 and kept_items(table) == [0, 1]


def test_hardest_keeps_largest_losses():
    rec = tiny_model(seed=1)
    # force known predictions: zero weights -> prediction = bias = 0, loss = rating^2
    for name in rec.param_names():
        setattr(rec, name, np.zeros(getattr(rec, name).shape))
    ratings = [0.9, 0.1, 0.5]  # losses 0.81, 0.01, 0.25
    table, up = stepped_table([3, 4, 5], K=2, M=8, policy="hardest", ratings=ratings)
    table.commit(up, rec, rec.user_emb[None])
    assert kept_items(table) == [3, 5]


def test_hardest_ties_keep_most_recent():
    rec = tiny_model(seed=2)
    for name in rec.param_names():
        setattr(rec, name, np.zeros(getattr(rec, name).shape))
    table, up = stepped_table([0, 1, 2], K=2, M=8, policy="hardest")
    table.commit(up, rec, rec.user_emb[None])
    assert kept_items(table) == [1, 2]


# ---------------------------------------------------------------- influence

def test_influence_single_entry_analytic():
    # with one entry, target = its own loss, so I = -g . (H + lam I)^-1 . g
    rec = tiny_model(seed=3)
    scores = pol.influence_scores(rec, rec.user_emb[None], np.array([[2]]), np.array([[4.0]]),
                                  damping=1e-3)[0]

    u = Tensor(rec.user_emb.copy(), requires_grad=True)
    loss = entry_loss(rec, u, 2, 4.0)
    (g,) = grad(loss, [u], create_graph=True)
    d = rec.dim
    H = np.zeros((d, d))
    for i in range(d):
        (row,) = grad(dc.gather(g, i), [u])
        H[i] = row.data
    H = 0.5 * (H + H.T) + 1e-3 * np.eye(d)
    expected = -float(g.data @ np.linalg.solve(H, g.data))
    assert scores[0] == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_influence_scores_match_a_d_pass_hessian_reference(setting):
    rng = np.random.default_rng(12)
    rec = rm.RecParams(n_items=10, dim=4, hidden=6, setting=setting, rng=rng)
    rec.b1[:] = 0.2
    items = rng.choice(10, size=5, replace=False)
    ratings = np.array([rng.uniform(1, 5) for _ in items])
    u0 = 0.5 * rng.normal(size=4)
    damping = 1e-3
    scores = pol.influence_scores(rec, u0[None], items[None], ratings[None], damping=damping)[0]

    # one backward pass per entry, one more per Hessian row
    u = Tensor(u0.copy(), requires_grad=True)
    grads = [grad(entry_loss(rec, u, j, r), [u], create_graph=True)[0]
             for j, r in zip(items, ratings)]
    total = grads[0]
    for g in grads[1:]:
        total = total + g
    H = np.array([grad(dc.gather(total, i), [u])[0].data for i in range(4)])
    H = 0.5 * (H + H.T) + damping * np.eye(4)
    x = np.linalg.solve(H, np.mean([g.data for g in grads], axis=0))
    expected = np.array([-float(x @ g.data) for g in grads])
    assert np.max(np.abs(scores - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_influence_builds_no_graph(setting, monkeypatch):
    def no_grad_allowed(*args, **kwargs):
        raise AssertionError("influence called dc.grad")

    monkeypatch.setattr(dc, "grad", no_grad_allowed)
    rec = tiny_model(setting, seed=5)
    table, up = stepped_table([1, 4, 6], K=2, M=8, policy="influence",
                              ratings=[2.0, 4.0, 3.0])
    u = rec.user_emb[None]
    assert np.all(np.isfinite(pol.influence_scores(rec, u, table.items[up],
                                                   table.ratings[up])))
    table.commit(up, rec, u)
    assert table.kept[0] == 2 and len(kept_items(table)) == 2


def test_a_non_finite_influence_solve_names_its_user_and_step():
    # an overflowing user embedding makes the Hessian solve non-finite: a
    # numerical error naming the user and the step, not a silent keep
    rec = tiny_model(seed=5)
    table, up = stepped_table([1, 4, 6], K=2, M=8, policy="influence")
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match="influence: non-finite Hessian solve for user 0 at step t=3"):
        table.commit(up, rec, np.full((1, 3), -1e200))


def test_influence_equal_gradients_equal_scores():
    rec = tiny_model(seed=4)
    rec.item_emb[5] = rec.item_emb[2]
    scores = pol.influence_scores(rec, rec.user_emb[None], np.array([[2, 5, 1]]),
                                  np.array([[3.0, 3.0, 1.0]]))[0]
    assert scores[0] == pytest.approx(scores[1], rel=1e-10)


def test_influence_solves_a_stack_as_its_rows():
    # the R systems of a stack solve together: each row's scores are those
    # of the row alone
    rng = np.random.default_rng(6)
    for setting in ("explicit", "implicit"):
        rec = tiny_model(setting, n_items=12, seed=6)
        items = np.stack([rng.choice(12, size=4, replace=False) for _ in range(5)])
        ratings = rng.uniform(1, 5, size=(5, 4))
        u = rng.normal(size=(5, 3))
        stack = pol.influence_scores(rec, u, items, ratings)
        for r in range(5):
            alone = pol.influence_scores(rec, u[r:r + 1], items[r:r + 1], ratings[r:r + 1])
            np.testing.assert_array_equal(stack[r], alone[0])


def _affine_rig():
    """Model whose relu pattern is item-determined with wide margins, so each
    prediction is exactly affine in the user vector: p_j(u) = a_j . u + c_j.

    Returns (rec, items, A, C, ratings) with the affine coefficients
    computed from plain numpy, independent of the autodiff graph.
    """
    d, hidden, M = 2, 4, 6
    rec = rm.RecParams(n_items=M, dim=d, hidden=hidden, setting="explicit",
                       rng=np.random.default_rng(0))
    w1u = 0.3 * np.array([[1.0, 0.0, 0.5, -0.5],
                          [0.0, 1.0, -0.5, -1.0]])
    w1i = 20.0 * np.array([[1.0, 0.0, 1.0, -1.0],
                           [0.0, 1.0, 1.0, 1.0]])
    rec.w1[:] = np.vstack([w1u, w1i])
    rec.b1[:] = 0.0
    rec.w2[:] = np.array([[1.0], [-1.0], [0.7], [0.4]])
    rec.b2[:] = 0.1
    angles = np.array([0.3, 1.2, 2.0, 2.9, 4.0, 5.2])
    rec.item_emb[:] = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    items = np.arange(5)
    A, C = [], []
    for it in items:
        pre = rec.item_emb[it] @ w1i  # user part is tiny; sign is item-driven
        act = pre > 0
        A.append((w1u[:, act] @ rec.w2[act]).ravel())
        C.append(float((pre[act] @ rec.w2[act]).ravel()[0] + rec.b2[0]))
    A, C = np.array(A), np.array(C)
    rng = np.random.default_rng(3)
    ratings = A @ np.array([0.4, -0.3]) + C + rng.uniform(-0.2, 0.2, size=5)
    return rec, items, A, C, ratings


def _check_affine_margins(rec, u, items):
    # the rig is only exact while no relu pre-activation changes sign
    for it in items:
        x = np.concatenate([u, rec.item_emb[it]])
        assert np.abs(x @ rec.w1 + rec.b1).min() > 1.0


def test_influence_matches_affine_closed_form():
    # at a non-stationary user vector, I(j) = -g_t . (H + lam)^-1 . g_j with
    # g and H computed in closed form from the affine coefficients
    rec, items, A, C, ratings = _affine_rig()
    u = np.array([0.25, 0.1])
    _check_affine_margins(rec, u, items)
    damping = 1e-8
    scores = pol.influence_scores(rec, u[None], items[None], ratings[None], damping=damping)[0]

    resid = A @ u + C - ratings
    grads = 2.0 * resid[:, None] * A          # per-entry d(resid^2)/du
    H = 2.0 * A.T @ A + damping * np.eye(2)
    g_target = grads.mean(axis=0)
    expected = -grads @ np.linalg.solve(H, g_target)
    assert np.max(np.abs(resid)) > 0.05       # non-degenerate residuals
    np.testing.assert_allclose(scores, expected, rtol=1e-8)


def test_influence_vanishes_at_refit_optimum():
    # the target is the mean loss over the same entries the refit minimizes,
    # so at the exact least-squares optimum every influence score is ~0
    rec, items, A, C, ratings = _affine_rig()
    u_star, *_ = np.linalg.lstsq(A, ratings - C, rcond=None)
    _check_affine_margins(rec, u_star, items)
    scores = pol.influence_scores(rec, u_star[None], items[None], ratings[None],
                                  damping=1e-8)[0]
    resid = A @ u_star + C - ratings
    assert np.max(np.abs(resid)) > 0.05       # losses themselves are not zero
    np.testing.assert_allclose(scores, 0.0, atol=1e-10)


# -------------------------------------------------------------- policy net

def test_policy_scores_masking():
    M = 6
    phi = pol.PolicyParams(M, hidden=8, rng=np.random.default_rng(0))
    zhat = np.array([1.0, 0, 1, 0, 1, 0])
    y = np.ones(M)
    scores = pol.policy_scores(zhat, y, phi).data
    assert np.all(np.isneginf(scores[[1, 3, 5]]))
    probs = np.exp(scores - scores.max())
    probs /= probs.sum()
    assert np.all(probs[[1, 3, 5]] <= 1e-12)
    assert probs.sum() == pytest.approx(1.0)


def test_policy_scores_symmetry_under_weight_tying():
    M = 4
    phi = pol.PolicyParams(M, hidden=8, rng=np.random.default_rng(1))
    # tie the weights of coordinates 0 and 2 in and out
    phi.w1[2] = phi.w1[0]
    phi.w3[:, 2] = phi.w3[:, 0]
    phi.b3[2] = phi.b3[0]
    zhat = np.array([1.0, 1, 1, 0])
    y = np.array([2.5, 1.0, 2.5, 0.0])
    s = pol.policy_scores(zhat, y, phi).data

    zhat_p = np.array([1.0, 1, 1, 0])
    y_p = np.array([2.5, 1.0, 2.5, 0.0])
    s_p = pol.policy_scores(zhat_p, y_p, phi).data
    assert s[0] == pytest.approx(s[2])
    np.testing.assert_allclose(s, s_p)


def test_policy_scores_forward_oracle():
    M = 5
    phi = pol.PolicyParams(M, hidden=8, rng=np.random.default_rng(2))
    zhat = np.array([1.0, 0, 1, 1, 0])
    y = np.array([3.0, 0, 1.5, 4.0, 0])
    s = pol.policy_scores(zhat, y, phi).data

    x = zhat * y
    h1 = np.maximum(x @ phi.w1 + phi.b1, 0)
    h2 = np.maximum(h1 @ phi.w2 + phi.b2, 0)
    f = h2 @ phi.w3 + phi.b3
    with np.errstate(divide="ignore"):
        expected = f + np.log(zhat)
    np.testing.assert_allclose(s, expected, atol=1e-12)


def test_policy_scores_batched_rows_match_single():
    M = 5
    phi = pol.PolicyParams(M, hidden=8, rng=np.random.default_rng(3))
    y = np.array([3.0, 1.0, 1.5, 4.0, 2.0])
    rows = np.array([[1.0, 1, 0, 1, 0], [0, 1, 1, 0, 1]])
    batch = pol.policy_scores(rows, y, phi).data
    for i in range(2):
        single = pol.policy_scores(rows[i], y, phi).data
        np.testing.assert_allclose(batch[i], single, atol=1e-12)


# ------------------------------------------------------------ online remove

def test_online_remove_forced_choice():
    scores = np.array([-np.inf, 2.0, -np.inf])
    for mode in ("deterministic", "stochastic"):
        w, removed = pol.online_remove(scores, mode, rng=np.random.default_rng(0))
        assert removed == 1
        np.testing.assert_array_equal(w.data, [0, 1, 0])


def test_online_remove_drops_the_lowest_score():
    # a score means keep: the deterministic head removes the argmin
    w, removed = pol.online_remove(np.array([5.0, 1.0, 3.0, -np.inf]),
                                   "deterministic")
    assert removed == 1
    np.testing.assert_array_equal(w.data, [0, 1, 0, 0])


def test_online_remove_all_masked_rejected():
    with pytest.raises(ValueError):
        pol.online_remove(np.full(3, -np.inf), "deterministic")


def test_online_remove_stochastic_frequencies():
    # removal frequencies follow softmax(-scores); the masked item never goes
    scores = np.array([1.0, 0.0, -1.0, -np.inf])
    p = np.exp(-scores[:3] - 1.0)
    p = np.concatenate([p / p.sum(), [0.0]])
    rng = np.random.default_rng(4)
    counts = np.zeros(4)
    n = 10000
    for _ in range(n):
        _, removed = pol.online_remove(scores, "stochastic", rng=rng)
        counts[removed] += 1
    sigma = np.sqrt(np.maximum(p * (1 - p) * n, 1e-12))
    assert np.all(np.abs(counts - p * n) <= 3 * sigma + 1e-9)


# ------------------------------------------------------------------- top-k

def oracle_topk(f, k, lo=-1e3, hi=1e3):
    """Independent high-precision bisection on the shift."""
    finite = np.isfinite(f)
    for _ in range(10000):
        mid = 0.5 * (lo + hi)
        total = np.sum(1.0 / (1.0 + np.exp(-(f[finite] + mid))))
        if total > k:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-14:
            break
    nu = 0.5 * (lo + hi)
    u = np.zeros_like(f)
    u[finite] = 1.0 / (1.0 + np.exp(-(f[finite] + nu)))
    return u


def test_topk_equal_scores_symmetric():
    u = pol.topk_project(np.full(4, 1.7), 2)
    np.testing.assert_allclose(u.data, np.full(4, 0.5), atol=1e-9)
    assert abs(u.data.sum() - 2) <= 1e-8


def test_topk_matches_oracle_and_is_monotone():
    f = np.array([2.0, 1.0, 0.0, -1.0])
    u = pol.topk_project(f, 2).data
    expected = oracle_topk(f, 2)
    np.testing.assert_allclose(u, expected, atol=1e-7)
    assert np.all(np.diff(u) < 0)
    assert abs(u.sum() - 2) <= 1e-8


def test_topk_shift_invariance():
    rng = np.random.default_rng(5)
    f = rng.normal(size=6)
    u1 = pol.topk_project(f, 3).data
    u2 = pol.topk_project(f + 4.2, 3).data
    np.testing.assert_allclose(u1, u2, atol=1e-7)


def test_topk_rejects_k_too_large():
    f = np.array([1.0, 2.0, -np.inf])
    with pytest.raises(ValueError):
        pol.topk_project(f, 2)


def test_topk_masked_items_exactly_zero():
    f = np.array([1.0, -np.inf, 0.5, -np.inf, -0.2])
    u = pol.topk_project(f, 2).data
    assert u[1] == 0.0 and u[3] == 0.0
    assert abs(u.sum() - 2) <= 1e-8


def test_topk_grad_constraint_direction_is_null():
    rng = np.random.default_rng(6)
    f = rng.normal(size=6)
    u = pol.topk_project(f, 2).data
    g = pol.topk_grad(f, u, np.ones(6))
    np.testing.assert_allclose(g, np.zeros(6), atol=1e-10)


def test_topk_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    f0 = rng.normal(size=6)
    k = 2
    u0 = pol.topk_project(f0, k).data
    v = rng.normal(size=6)
    g = pol.topk_grad(f0, u0, v)
    fd = finite_difference(lambda f: float(np.dot(oracle_topk(f, k), v)), f0, h=1e-6)
    assert rel_error(g, fd, floor=1e-6) <= 1e-4


def test_topk_grad_symmetric_rows():
    f = np.full(5, 0.3)
    u = pol.topk_project(f, 2).data
    for i in range(5):
        v = np.zeros(5)
        v[i] = 1.0
        row = pol.topk_grad(f, u, v)
        ref = pol.topk_grad(f, u, np.roll(v, 1))
        np.testing.assert_allclose(np.roll(row, 1), ref, atol=1e-12)


def test_topk_grad_degenerate_rejected():
    u = np.array([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        pol.topk_grad(np.zeros(4), u, np.ones(4))


def test_topk_grad_of_a_stack_names_its_saturated_row():
    u = np.array([[0.5, 0.5, 0.5, 0.5], [1.0, 1.0, 0.0, 0.0]])
    with pytest.raises(pol.ScoreError, match="topk_grad: the Top-K head's u of row 1 "):
        pol.topk_grad(np.zeros((2, 4)), u, np.ones((2, 4)))


def test_topk_backward_through_graph():
    # the projection's backward is topk_grad, bit for bit
    rng = np.random.default_rng(8)
    f0 = rng.normal(size=5)
    v = rng.normal(size=5)
    u = pol.topk_project(f0, 2)
    np.testing.assert_array_equal(u.grads(v), pol.topk_grad(f0, u.data, v))


# --------------------------------------------------------------- batch keep

def test_batch_keep_saturated_case():
    u = np.array([0.999, 0.995, 0.002, 0.003, 0.001])
    for mode in ("deterministic", "stochastic"):
        w, kept = pol.batch_keep(u, 2, mode, rng=np.random.default_rng(9))
        assert sorted(kept.tolist()) == [0, 1]
        assert w.data.sum() == 2


def test_batch_keep_sum_invariant():
    rng = np.random.default_rng(10)
    for _ in range(20):
        f = rng.normal(size=7)
        u = pol.topk_project(f, 3)
        w, kept = pol.batch_keep(u, 3, "stochastic", rng=rng)
        assert w.data.sum() == 3
        assert len(kept) == 3


def test_batch_keep_deterministic_equals_topk_of_scores():
    rng = np.random.default_rng(11)
    f = rng.normal(size=8)
    u = pol.topk_project(f, 3)
    _, kept = pol.batch_keep(u, 3, "deterministic")
    by_score = np.sort(np.argsort(-f)[:3])
    np.testing.assert_array_equal(kept, by_score)


def test_batch_keep_too_few_candidates():
    u = np.array([0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        pol.batch_keep(u, 2, "stochastic", rng=np.random.default_rng(0))


# ------------------------------------------------------------ stacked rows

def score_stack(seed, R=4, M=9, n_live=5):
    """R score rows, each finite on its own n_live items and -inf elsewhere."""
    rng = np.random.default_rng(seed)
    f = np.full((R, M), -np.inf)
    for row in f:
        row[rng.choice(M, size=n_live, replace=False)] = rng.normal(size=n_live)
    return f


@pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
def test_online_remove_stack_equals_row_calls(mode):
    f = score_stack(12)
    rng_stack, rng_rows = np.random.default_rng(3), np.random.default_rng(3)
    w, removed = pol.online_remove(f, mode, rng=rng_stack)
    assert w.data.shape == f.shape and removed.shape == (len(f),)
    for r, row in enumerate(f):
        w_r, removed_r = pol.online_remove(row, mode, rng=rng_rows)
        assert removed[r] == removed_r
        np.testing.assert_array_equal(w.data[r], w_r.data)
    assert rng_stack.random() == rng_rows.random()


@pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
def test_topk_project_and_batch_keep_stack_equal_row_calls(mode):
    f = score_stack(14)
    v = np.random.default_rng(15).normal(size=f.shape)
    rng_stack, rng_rows = np.random.default_rng(3), np.random.default_rng(3)
    u = pol.topk_project(f, 2)
    w, kept = pol.batch_keep(u, 2, mode, rng=rng_stack)
    g = w.grads(v)
    assert kept.shape == (len(f), 2)
    for r, row in enumerate(f):
        u_r = pol.topk_project(row, 2)
        w_r, kept_r = pol.batch_keep(u_r, 2, mode, rng=rng_rows)
        np.testing.assert_array_equal(u.data[r], u_r.data)
        np.testing.assert_array_equal(w.data[r], w_r.data)
        np.testing.assert_array_equal(kept[r], kept_r)
        np.testing.assert_array_equal(g[r], w_r.grads(v[r]))
    assert rng_stack.random() == rng_rows.random()


@pytest.mark.parametrize("seed", range(20))
def test_online_and_topk_heads_keep_the_same_items(seed):
    # finite scores on K+1 of M entries: deterministic removal of one item
    # and the top-k head keep the same K, for one row and for a stack
    rng = np.random.default_rng(seed)
    M = int(rng.integers(3, 40))
    K = int(rng.integers(1, M))
    f = score_stack(seed, R=int(rng.integers(1, 6)), M=M, n_live=K + 1)
    f[np.isfinite(f)] *= rng.uniform(0.1, 5.0)
    for scores in [f[0], f]:
        w, _ = pol.online_remove(scores, "deterministic")
        _, kept = pol.batch_keep(pol.topk_project(scores, K), K, "deterministic")
        for row, w_row, kept_row in zip(np.atleast_2d(scores), np.atleast_2d(w.data),
                                        np.atleast_2d(kept)):
            np.testing.assert_array_equal(np.flatnonzero(np.isfinite(row) & (w_row == 0)),
                                          kept_row)


def test_stacked_heads_reject_one_all_masked_row():
    f = score_stack(16)
    f[2] = -np.inf
    with pytest.raises(ValueError, match="online_remove: no finite score"):
        pol.online_remove(f, "deterministic")
    with pytest.raises(ValueError, match="topk_project: no finite scores"):
        pol.topk_project(f, 2)
    u = pol.topk_project(score_stack(16), 2).data
    u[2] = 0.0
    with pytest.raises(ValueError, match="batch_keep: only 0 candidates for k=2"):
        pol.batch_keep(u, 2, "deterministic")


# ------------------------------------------------- the stacked shift solve

def outcome(fn):
    """The bytes of a result, or the type and message of its error."""
    try:
        return fn().tobytes()
    except Exception as e:  # noqa: BLE001 - the error is the outcome compared
        return type(e), str(e)


def assert_stack_equals_its_rows(f, k):
    """topk_project of a stack gives every row, to the last bit, the u that
    topk_project gives the row alone; or it fails as the first row that
    fails alone does, naming that row by its place in the stack."""
    got = outcome(lambda: pol.topk_project(f, k).data)
    alone = [outcome(lambda: pol.topk_project(row, k).data) for row in np.atleast_2d(f)]
    failed = [r for r, out in enumerate(alone) if isinstance(out, tuple)]
    if not failed:
        assert got == b"".join(alone)
        return got
    r = failed[0]
    kind, message = alone[r]
    assert got == (kind, message.replace("row 0", f"row {r}"))
    return got


def random_scores(rng, R, M, k, scale, n_live=None):
    """R rows of M scores, each finite on n_live entries, or on a count of
    its own above k."""
    f = np.full((R, M), -np.inf)
    for row in f:
        n = n_live or int(rng.integers(k + 1, M + 1))
        row[rng.choice(M, size=n, replace=False)] = scale * rng.normal(size=n)
    return f


@pytest.mark.parametrize("seed", range(4))
def test_stacked_topk_bisection_matches_the_per_row_loop_bit_for_bit(seed):
    # 1-11 rows of 3-59 entries at score scales 0.1-100, every row finite on
    # the same count of them or each on its own: rows of one count are
    # solved together, and a stack is the rows solved one at a time
    rng = np.random.default_rng(seed)
    for i in range(75):
        M = int(rng.integers(3, 60))
        k = int(rng.integers(1, M))
        n_live = int(rng.integers(k + 1, M + 1)) if i % 2 else None
        f = random_scores(rng, int(rng.integers(1, 12)), M, k, 10 ** rng.uniform(-1, 2), n_live)
        assert isinstance(assert_stack_equals_its_rows(f, k), bytes)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("M, scale", [(4, 1.0), (8, 3.0), (9, 3.0), (200, 1.0),
                                      (12, 1e3), (40, 1e200)])
def test_stacked_topk_bisection_at_short_long_and_overflowing_rows(M, scale):
    # np.sum unrolls by 8 and sums pairwise past 128 entries; scores of 1e3
    # and beyond overflow exp, which maps them to exactly 0 or 1 and warns
    # nothing
    rng = np.random.default_rng(M)
    f = random_scores(rng, 6, M, 2, scale, n_live=M - M // 4)
    assert_stack_equals_its_rows(f, 2)
    u = pol.topk_project(f, 2).data
    assert np.all(np.isfinite(u))
    np.testing.assert_allclose(u.sum(axis=1), 2.0, rtol=0, atol=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_stacked_topk_bisection_raises_as_the_first_failing_row_would(seed):
    rng = np.random.default_rng(100 + seed)
    faults = ("nan", "inf", "masked", "few", "k0", "k-1")
    for _ in range(60):
        M = int(rng.integers(4, 20))
        k = int(rng.integers(1, M - 1))
        f = random_scores(rng, int(rng.integers(1, 8)), M, k, 1.0)
        for r in rng.choice(len(f), size=int(rng.integers(1, len(f) + 1)), replace=False):
            fault = faults[int(rng.integers(len(faults)))]
            live = np.flatnonzero(np.isfinite(f[r]))
            if fault == "nan":
                f[r, rng.choice(M)] = np.nan
            elif fault == "inf":
                f[r, rng.choice(M)] = np.inf
            elif fault == "masked":
                f[r] = -np.inf
            elif fault == "few":
                f[r, live[:len(live) - k]] = -np.inf
            else:
                k = 0 if fault == "k0" else -1
        assert isinstance(assert_stack_equals_its_rows(f, k), tuple)


def test_the_input_checks_run_before_the_solve(monkeypatch):
    # a bad row anywhere in the stack is named before any row is solved
    def fail(f, k):
        raise AssertionError("solved before the input checks")

    monkeypatch.setattr(pol, "_topk_rows", fail)
    f = score_stack(20)
    f[2, np.flatnonzero(np.isfinite(f[2]))[0]] = np.nan
    with pytest.raises(pol.ScoreError, match="NaN score in row 2"):
        pol.topk_project(f, 2)
    with pytest.raises(ValueError, match="k=5 must be smaller"):
        pol.topk_project(score_stack(20), 5)


LARGE_SCORES = [
    # equal scores far from 0: centred at their maximum, every entry is 0,
    # so the solve never adds a margin to a score it cannot resolve
    (np.full(10, 1e20), 2, np.full(10, 0.2)),
    (np.full(10, 1e18), 2, np.full(10, 0.2)),
    (np.array([1e20, 1e20, 1e20, 5.0]), 2, np.array([2 / 3, 2 / 3, 2 / 3, 0.0])),
    # u depends on score differences only, so a common offset costs nothing
    (1e10 + np.random.default_rng(0).normal(size=12), 8, None),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f, k, expected", LARGE_SCORES, ids=["1e20", "1e18", "ties", "offset"])
def test_topk_project_at_large_scores_as_a_row_and_in_a_stack(f, k, expected):
    stack = np.stack([np.random.default_rng(1).normal(size=f.size), f, np.full(f.size, 3.0)])
    for scores, row in ((f, 0), (stack, 1)):
        u = np.atleast_2d(pol.topk_project(scores, k).data)[row]
        assert abs(u.sum() - k) <= 1e-9
        if expected is not None:
            np.testing.assert_allclose(u, expected, rtol=0, atol=1e-12)
    assert_stack_equals_its_rows(stack, k)


@pytest.mark.filterwarnings("error")
def test_a_shift_float64_cannot_hold_is_a_score_error_naming_the_row():
    # sum(u) = 5 needs nu within 1e184 of 1e200, where float64 steps by
    # about 1e184: the bracket collapses before the residual test is met
    f = np.array([0.0] + [-1e200] * 9)
    assert no_float64_shift_meets_the_sum(f, 5)
    with pytest.raises(pol.ScoreError, match="no shift of row 0 meets sum"):
        pol.topk_project(f, 5)
    stack = np.stack([np.linspace(-1.0, 1.0, 10), np.linspace(0.0, 2.0, 10), f])
    with pytest.raises(pol.ScoreError, match="no shift of row 2 meets sum"):
        pol.topk_project(stack, 5)
    assert_stack_equals_its_rows(stack, 5)


def near_tie_row(scale, seed):
    """A row of 4-60 scores at ``scale`` in which 2 to all entries sit in a
    near-tie of relative spread 1e-9, and its k."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 61))
    f = scale * rng.normal(size=n)
    tie = rng.choice(n, int(rng.integers(2, n + 1)), replace=False)
    f[tie] = f[tie[0]] * (1 + 1e-9 * rng.normal(size=tie.size))
    return f, int(rng.integers(1, n))


def residual_bound(f, k):
    """The residual the shift solve meets on the finite scores of ``f``:
    1e-11 k, or what one ulp of a shift nu resolves, slope * ulp(nu), with
    slope at most n / 4 and |nu| at most 20 plus the scores' spread."""
    g = f[np.isfinite(f)]
    ulp = np.spacing(20.0 + (g.max() - g.min()))
    return max(1e-11 * k, g.size / 4 * ulp if ulp <= pol._LINEAR_ULP else 0.0)


# rows whose K-th place falls in a near-tie far below the maximum, where
# one ulp of the shift moves sum(u) by more than 1e-11 k: (scale, seed)
NEAR_TIES = [(1e5, 205), (1e5, 353), (1e6, 9), (1e6, 21), (1e6, 30), (1e8, 5), (1e8, 9),
             (1e11, 4), (1e11, 5)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, seed", NEAR_TIES)
def test_topk_project_solves_a_near_tie_as_a_row_and_in_a_stack(scale, seed):
    f, k = near_tie_row(scale, seed)
    stack = np.stack([np.random.default_rng(1).normal(size=f.size), f,
                      np.linspace(0.0, 3.0, f.size)])
    for scores, row in ((f, 0), (stack, 1)):
        u = np.atleast_2d(pol.topk_project(scores, k).data)[row]
        assert abs(u.sum() - k) <= residual_bound(f, k)
    assert isinstance(assert_stack_equals_its_rows(stack, k), bytes)


def no_float64_shift_meets_the_sum(row, k):
    """Whether float64 cannot hold the shift of ``row``: at the two adjacent
    float64 shifts that bracket the root of sum(u) = k, found by bisection
    over float64, neither residual meets the solve's stopping test."""
    g = row[np.isfinite(row)]
    g = g - g.max()

    def residual(nu):
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-(g + nu)))
        return s.sum() - k, (s * (1.0 - s)).sum()

    part = np.sort(g)
    lo, hi = -20.0 - part[-k], 20.0 - part[-k - 1]
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        if residual(mid)[0] < 0:
            lo = mid
        else:
            hi = mid
    return all(abs(r) > max(1e-11 * k, pol._resolution(nu, slope))
               for nu in (lo, hi) for r, slope in [residual(nu)])


@st.composite
def score_stacks(draw):
    """R score rows of n entries at a common scale, some tied or near-tied
    (relative spread 1e-9) to another entry of their row, some masked,
    every row with more than k finite."""
    R, n = draw(st.integers(1, 8)), draw(st.integers(2, 60))
    n_masked = draw(st.integers(0, n - 2))
    k = draw(st.integers(1, n - n_masked - 1))
    scale = 10.0 ** draw(st.floats(-3, 200))
    ties = draw(st.integers(0, n))
    spread = draw(st.sampled_from([0.0, 1e-9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = scale * rng.normal(size=(R, n))
    for row in f:
        tied = rng.choice(n, size=ties, replace=True)
        row[tied] = row[rng.integers(n)] * (1 + spread * rng.normal(size=ties))
        row[rng.choice(n, size=n_masked, replace=False)] = -np.inf
    return f, k


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@given(score_stacks())
def test_topk_project_meets_its_sum_or_names_the_row_it_cannot(case):
    f, k = case
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = pol.topk_project(f, k).data
    except pol.ScoreError as e:
        # only a row whose shift float64 cannot hold may fail
        r = int(re.fullmatch(r"topk_project: no shift of row (\d+) meets .*", str(e))[1])
        assert no_float64_shift_meets_the_sum(f[r], k)
    else:
        for f_row, u_row in zip(f, u):
            assert abs(u_row.sum() - k) <= max(1e-9, residual_bound(f_row, k))
        assert np.all(u[f == -np.inf] == 0.0)
        for f_row, u_row in zip(f, u):
            live = f_row > -np.inf
            order = np.argsort(f_row[live])
            fs, us = f_row[live][order], u_row[live][order]
            assert np.all(np.diff(us) >= 0)
            assert np.all(np.diff(us)[np.diff(fs) == 0] == 0)
    assert_stack_equals_its_rows(f, k)


# ---------------------------------------------------------- straight-through

def test_st_composed_with_softmax_matches_fd():
    # the online head's gradient w.r.t. f = -scores, straight through its
    # removal onto softmax(f), should equal the gradient of softmax(f).v
    rng = np.random.default_rng(12)
    f0 = rng.normal(size=4)
    v = rng.normal(size=4)

    w, _ = pol.online_remove(-f0)
    g = -w.grads(v)

    def soft_value(fv):
        e = np.exp(fv - fv.max())
        return float(np.dot(e / e.sum(), v))

    fd = finite_difference(soft_value, f0)
    assert rel_error(g, fd, floor=1e-6) <= 1e-4


def test_st_zero_downstream_gradient():
    for head in (lambda f: pol.online_remove(f)[0],
                 lambda f: pol.batch_keep(pol.topk_project(f, 1), 1)[0]):
        w = head(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(w.grads(np.zeros(2)), np.zeros(2))


# ----------------------------------------------------------------- sketches

def test_sketch_duplicate_rejected():
    # an item already in its row's slots, kept or pending, names the user
    # and the step that brought it again
    for items in ([1, 1], [0, 2, 4, 2], [0, 2, 4, 4]):
        with pytest.raises(ValueError, match=f"user 0, step t={len(items)}: item "
                           f"{items[-1]} is already in the sketch"):
            stepped_table(items, K=2, M=5, policy="oracle", tau=2)


def test_keep_rejects_unknown_items():
    # the learned policy keeps the slots its selection keeps: a selection
    # keeping an item outside the row's slots keeps fewer than K of them
    table, up = stepped_table([0, 2, 4], K=2, M=5, policy="dips")
    z = np.zeros((1, 5))
    z[0, [0, 3]] = 1.0
    with pytest.raises(ValueError, match="the selection for user 0 does not keep 2 of"):
        table.commit(up, z=z)


def test_intermediate_zhat_identity():
    table, up = stepped_table([0, 2, 4], K=2, M=5, policy="oracle")
    expected = table.z(up)
    expected[0, 4] += 1
    np.testing.assert_array_equal(table.zhat(up), expected)


# ------------------------------------------------------- vectorised draws

def choice_loop_remove(scores, rng):
    """online_remove's earlier stochastic draw, kept as the reference: one
    ``rng.choice`` per row over softmax(-scores)."""
    neg = np.where(np.isfinite(scores), -scores, -np.inf)
    probs = np.atleast_2d(dc.softmax(Tensor(neg)).data)
    return np.array([rng.choice(probs.shape[1], p=p) for p in probs])


def choice_loop_keep(u, k, rng):
    """batch_keep's earlier stochastic draw, kept as the reference:
    sequential sampling without replacement, one ``rng.choice`` per pick."""
    kept_rows = []
    for uv in np.atleast_2d(u):
        pool = list(np.flatnonzero(uv > 0))
        weights = uv[pool].copy()
        kept = []
        for _ in range(k):
            pick = int(rng.choice(len(pool), p=weights / weights.sum()))
            kept.append(pool.pop(pick))
            weights = np.delete(weights, pick)
        kept_rows.append(np.sort(kept))
    return np.array(kept_rows)


def random_score_stack(rng):
    """R random score rows, -inf outside each row's live items; about one
    row in five has a single live item, and about one case in three is a
    single (M,) row."""
    M, R = int(rng.integers(1, 30)), int(rng.integers(1, 7))
    n_live = rng.integers(1, M + 1, size=R)
    n_live[rng.random(R) < 0.2] = 1
    f = np.full((R, M), -np.inf)
    for row, n in zip(f, n_live):
        row[rng.choice(M, size=n, replace=False)] = rng.normal(size=n) * rng.uniform(0.1, 5.0)
    return (f[0], n_live[:1]) if rng.random() < 0.3 else (f, n_live)


def test_vectorised_draws_equal_one_rng_choice_per_row():
    # both heads draw their uniforms in one call and look up the inverse
    # CDF; that picks the same items and leaves the generator in the same
    # state as one rng.choice per row (online) or per pick (top-K)
    rng = np.random.default_rng(21)
    for case in range(400):
        f, n_live = random_score_stack(rng)
        got, ref = np.random.default_rng(case), np.random.default_rng(case)
        _, removed = pol.online_remove(f, "stochastic", rng=got)
        np.testing.assert_array_equal(np.atleast_1d(removed), choice_loop_remove(f, ref))
        assert got.bit_generator.state == ref.bit_generator.state

        u = np.where(np.isfinite(f), 1.0 / (1.0 + np.exp(-f)), 0.0)
        k = int(rng.integers(1, n_live.min() + 1))
        _, kept = pol.batch_keep(u, k, "stochastic", rng=got)
        np.testing.assert_array_equal(np.atleast_2d(kept), choice_loop_keep(u, k, ref))
        assert got.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
def test_heads_reject_a_nan_score_row_by_name(mode):
    # rng.choice rejected NaN probabilities; the inverse-CDF lookup would
    # return an index, so the heads check each row themselves
    f = score_stack(17)
    f[2, np.flatnonzero(np.isfinite(f[2]))[0]] = np.nan
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="online_remove: NaN, .* probability in row 2"):
        pol.online_remove(f, mode, rng=rng)
    with pytest.raises(ValueError, match="online_remove: NaN, .* probability in row 0"):
        pol.online_remove(f[2], mode, rng=rng)
    with pytest.raises(ValueError, match="topk_project: NaN score in row 2"):
        pol.topk_project(f, 2)
    u = pol.topk_project(score_stack(17), 2).data
    for bad in (np.nan, -0.5):
        u_bad = u.copy()
        u_bad[1, np.flatnonzero(u[1])[0]] = bad
        with pytest.raises(ValueError, match="batch_keep: NaN, .* probability in row 1"):
            pol.batch_keep(u_bad, 2, mode, rng=rng)


def test_a_row_of_nan_scores_is_a_numerical_error_not_an_empty_sketch():
    # a diverged network scores NaN (and overflowed +inf) wherever an item
    # is held: the NaN is named before the row could pass for an empty one,
    # as an error that is numerical and still a ValueError
    f = score_stack(18)
    f[1] = np.where(np.isfinite(f[1]), np.nan, -np.inf)
    f[1, np.flatnonzero(np.isnan(f[1]))[0]] = np.inf
    for scores, row in ((f, 1), (f[1], 0)):
        with pytest.raises(pol.ScoreError,
                           match=f"online_remove: NaN, .* probability in row {row}") as err:
            pol.online_remove(scores, "deterministic")
        assert isinstance(err.value, FloatingPointError) and isinstance(err.value, ValueError)
    with pytest.raises(pol.ScoreError, match="topk_project: NaN score in row 1"):
        pol.topk_project(f, 2)


@pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
def test_online_remove_rejects_a_positive_infinite_score_by_row(mode):
    # softmax(-s) would give an overflowed keep probability 0, so the item
    # could never go: a numerical error naming the row, as NaN is
    rng = np.random.default_rng(0)
    with pytest.raises(pol.ScoreError, match=r"online_remove: \+inf score in row 0"):
        pol.online_remove(np.array([np.inf, 1.0, 2.0]), mode, rng=rng)
    f = score_stack(19)
    f[2, np.flatnonzero(np.isfinite(f[2]))[0]] = np.inf
    with pytest.raises(pol.ScoreError, match=r"online_remove: \+inf score in row 2"):
        pol.online_remove(f, mode, rng=rng)


def test_topk_project_rejects_a_positive_infinite_score_by_row():
    # a +inf score is not masked: it would map to u = 0 and never be kept
    with pytest.raises(pol.ScoreError, match=r"topk_project: \+inf score in row 0"):
        pol.topk_project(np.array([np.inf, 1.0, 2.0, 0.5]), 2)
    f = score_stack(19)
    f[2, np.flatnonzero(np.isfinite(f[2]))[0]] = np.inf
    with pytest.raises(pol.ScoreError, match=r"topk_project: \+inf score in row 2"):
        pol.topk_project(f, 2)
