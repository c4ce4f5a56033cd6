import numpy as np
import pytest

from dips import diffcore as dc
from dips.diffcore import Tensor, grad, grad_through_grad

from fdcheck import finite_difference, rel_error


def test_softmax_symmetry():
    out = dc.softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-15)


def test_relu_definition():
    out = dc.relu(Tensor([-1.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 2.0])


def test_mlp_forward_matches_straightline():
    # two-layer MLP on the graph vs. the same arithmetic done in plain numpy
    rng = np.random.default_rng(0)
    x = rng.normal(size=6)
    w1 = rng.normal(size=(6, 8))
    b1 = rng.normal(size=8)
    w2 = rng.normal(size=(8, 1))
    b2 = rng.normal(size=1)

    out = dc.add(dc.matmul(dc.relu(dc.add(dc.matmul(Tensor(x), Tensor(w1)), Tensor(b1))), Tensor(w2)), Tensor(b2))
    expected = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_grad_square():
    x = Tensor(3.0, requires_grad=True)
    (g,) = grad(dc.mul(x, x), [x])
    assert g.data == pytest.approx(6.0)


def test_grad_linear_mse_closed_form():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(7, 4))
    y = rng.normal(size=7)
    w = Tensor(rng.normal(size=4), requires_grad=True)
    resid = dc.sub(dc.matmul(Tensor(X), w), Tensor(y))
    loss = dc.tmean(dc.mul(resid, resid))
    (g,) = grad(loss, [w])
    closed = 2 * X.T @ (X @ w.data - y) / 7
    np.testing.assert_allclose(g.data, closed, atol=1e-10)


def test_grad_rejects_nonscalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(dc.GraphError):
        grad(dc.mul(x, x), [x])


def test_unused_param_gets_zero():
    x = Tensor(2.0, requires_grad=True)
    y = Tensor(1.0, requires_grad=True)
    frozen = Tensor([3.0, 4.0])      # on the graph, but requires no gradient
    loss = dc.mul(x, dc.tsum(dc.mul(x, frozen)))
    (gx, gy, gf) = grad(loss, [x, y, frozen])
    assert gx.data == 2 * 2.0 * 7.0
    assert gy.data == 0.0
    np.testing.assert_array_equal(gf.data, [0.0, 0.0])


def _mlp_loss(params, x, target):
    w1, b1, w2, b2 = params
    h = dc.relu(dc.add(dc.matmul(x, w1), b1))
    pred = dc.add(dc.matmul(h, w2), b2)
    d = dc.sub(pred, target)
    return dc.tsum(dc.mul(d, d))


def test_mlp_grad_vs_finite_differences():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=5))
    target = Tensor(rng.normal(size=2))
    shapes = [(5, 6), (6,), (6, 2), (2,)]
    vals = [rng.normal(size=s) * 0.7 for s in shapes]

    params = [Tensor(v, requires_grad=True) for v in vals]
    grads = grad(_mlp_loss(params, x, target), params)
    for i in range(4):
        def f(v, i=i):
            ps = [Tensor(v if j == i else vals[j]) for j in range(4)]
            return _mlp_loss(ps, x, target).item()

        fd = finite_difference(f, vals[i])
        assert rel_error(grads[i].data, fd, floor=1e-4) <= 1e-4


OPS_1D = {
    "relu": dc.relu,
    "sigmoid": dc.sigmoid,
    "exp": dc.exp,
    "softmax": dc.softmax,
    "sum": dc.tsum,
    "mean": dc.tmean,
    "neg": dc.neg,
}


@pytest.mark.parametrize("name", sorted(OPS_1D))
def test_unary_op_backward_matches_fd(name):
    op = OPS_1D[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(20):
        x0 = rng.normal(size=5)
        if name == "relu":
            # stay away from the kink
            x0 = x0 + np.sign(x0) * 0.05
        v = rng.normal(size=np.asarray(op(Tensor(x0)).data).shape)

        def f(x):
            return float(np.sum(op(Tensor(x)).data * v))

        xt = Tensor(x0, requires_grad=True)
        (g,) = grad(dc.tsum(dc.mul(op(xt), Tensor(v))), [xt])
        fd = finite_difference(f, x0)
        assert rel_error(g.data, fd, floor=1e-4) <= 1e-4, name


def test_log_backward_matches_fd():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x0 = rng.uniform(0.2, 3.0, size=4)
        v = rng.normal(size=4)
        xt = Tensor(x0, requires_grad=True)
        (g,) = grad(dc.tsum(dc.mul(dc.log(xt), Tensor(v))), [xt])
        fd = finite_difference(lambda x: float(np.sum(np.log(x) * v)), x0)
        assert rel_error(g.data, fd, floor=1e-4) <= 1e-4


def test_binary_ops_backward_match_fd():
    rng = np.random.default_rng(4)
    for op, np_op in [(dc.add, np.add), (dc.sub, np.subtract), (dc.mul, np.multiply), (dc.div, np.divide)]:
        for _ in range(20):
            a0 = rng.normal(size=4)
            b0 = rng.normal(size=4) + 2.0  # keep divisors away from zero
            v = rng.normal(size=4)
            a = Tensor(a0, requires_grad=True)
            b = Tensor(b0, requires_grad=True)
            ga, gb = grad(dc.tsum(dc.mul(op(a, b), Tensor(v))), [a, b])
            fd_a = finite_difference(lambda x: float(np.sum(np_op(x, b0) * v)), a0)
            fd_b = finite_difference(lambda x: float(np.sum(np_op(a0, x) * v)), b0)
            assert rel_error(ga.data, fd_a, floor=1e-4) <= 1e-4
            assert rel_error(gb.data, fd_b, floor=1e-4) <= 1e-4


def test_matmul_gather_concat_backward_match_fd():
    rng = np.random.default_rng(5)
    A0 = rng.normal(size=(3, 4))
    B0 = rng.normal(size=(4, 2))
    idx = np.array([2, 0])
    v = rng.normal(size=(2, 2))

    def f(a_flat):
        A = a_flat.reshape(3, 4)
        return float(np.sum((A[idx] @ B0) * v))

    A = Tensor(A0, requires_grad=True)
    out = dc.matmul(dc.gather(A, idx), Tensor(B0))
    (g,) = grad(dc.tsum(dc.mul(out, Tensor(v))), [A])
    fd = finite_difference(lambda a: f(a), A0)
    assert rel_error(g.data, fd, floor=1e-4) <= 1e-4

    # concat backward
    a = Tensor(rng.normal(size=3), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    w = rng.normal(size=5)
    ga, gb = grad(dc.tsum(dc.mul(dc.concat([a, b]), Tensor(w))), [a, b])
    np.testing.assert_allclose(ga.data, w[:3], atol=1e-12)
    np.testing.assert_allclose(gb.data, w[3:], atol=1e-12)


def test_shape_mismatch_diagnostic():
    with pytest.raises(dc.ShapeError, match="matmul"):
        dc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(dc.ShapeError, match="add"):
        dc.add(Tensor(np.ones(3)), Tensor(np.ones(4)))


def test_grad_is_linear():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=4), requires_grad=True)
    l1 = dc.tsum(dc.mul(x, x))
    l2 = dc.tsum(dc.sigmoid(x))
    a, b = 0.7, -1.3
    (g_combo,) = grad(dc.add(dc.mul(Tensor(a), l1), dc.mul(Tensor(b), l2)), [x])
    (g1,) = grad(l1, [x])
    (g2,) = grad(l2, [x])
    np.testing.assert_allclose(g_combo.data, a * g1.data + b * g2.data, atol=1e-10)


def test_dropout_deterministic_with_mask_and_identity_at_zero():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=10))
    mask = (rng.random(10) >= 0.3).astype(float)
    out1 = dc.dropout(x, 0.3, mask=mask)
    out2 = dc.dropout(x, 0.3, mask=mask)
    np.testing.assert_array_equal(out1.data, out2.data)
    np.testing.assert_array_equal(out1.ctx, mask)

    ident = dc.dropout(x, 0.0)
    np.testing.assert_array_equal(ident.data, x.data)


def test_grad_through_grad_analytic():
    # inner step w' = w - a * 2w on loss w^2; outer loss (w')^2
    alpha = 0.3
    w = Tensor(1.7, requires_grad=True)
    inner_loss = dc.mul(w, w)
    (g,) = grad(inner_loss, [w], create_graph=True)
    w_prime = dc.sub(w, dc.mul(Tensor(alpha), g))
    outer = dc.mul(w_prime, w_prime)
    (meta,) = grad_through_grad(outer, [w])
    assert meta.data == pytest.approx(2 * 1.7 * (1 - 2 * alpha) ** 2, rel=1e-12)


def test_grad_through_grad_vs_fd_quadratic():
    # one inner GD step on a 2-parameter quadratic, quadratic outer loss
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([0.3, -0.7])
    alpha = 0.1
    w0 = np.array([0.9, -0.4])

    def outer_value(wv):
        w = Tensor(wv, requires_grad=True)
        inner = dc.add(dc.mul(Tensor(0.5), dc.matmul(w, dc.matmul(Tensor(A), w))), dc.matmul(Tensor(b), w))
        (g,) = grad(inner, [w], create_graph=True)
        w1 = dc.sub(w, dc.mul(Tensor(alpha), g))
        outer = dc.matmul(dc.sub(w1, Tensor([1.0, 1.0])), dc.sub(w1, Tensor([1.0, 1.0])))
        return w, outer

    w, outer = outer_value(w0)
    (meta,) = grad_through_grad(outer, [w])
    fd = finite_difference(lambda v: outer_value(v)[1].item(), w0)
    assert rel_error(meta.data, fd, floor=1e-6) <= 1e-4


def test_grad_through_grad_alpha_zero_degenerates():
    rng = np.random.default_rng(8)
    w0 = rng.normal(size=3)
    w = Tensor(w0, requires_grad=True)
    inner = dc.tsum(dc.mul(w, dc.mul(w, w)))
    (g,) = grad(inner, [w], create_graph=True)
    w1 = dc.sub(w, dc.mul(Tensor(0.0), g))
    outer = dc.tsum(dc.sigmoid(w1))
    (meta,) = grad_through_grad(outer, [w])

    w_plain = Tensor(w0, requires_grad=True)
    (plain,) = grad(dc.tsum(dc.sigmoid(w_plain)), [w_plain])
    np.testing.assert_allclose(meta.data, plain.data, atol=1e-14)


def test_grad_through_grad_rejects_detached_inner():
    w = Tensor(1.0, requires_grad=True)
    with dc.no_grad():
        inner = dc.mul(w, w)
    # inner graph was never recorded, so the outer loss is disconnected
    outer = dc.mul(dc.Tensor(inner.data), dc.Tensor(inner.data))
    with pytest.raises(dc.GraphError, match="no-grad"):
        grad_through_grad(outer, [w])


def test_straight_through_identity_backward():
    p = Tensor([0.2, 0.5, 0.3], requires_grad=True)
    hard = np.array([0.0, 1.0, 0.0])
    w = dc.straight_through(p, hard)
    np.testing.assert_array_equal(w.data, hard)
    v = np.array([1.0, -2.0, 3.0])
    (g,) = grad(dc.tsum(dc.mul(w, Tensor(v))), [p])
    np.testing.assert_array_equal(g.data, v)


def test_backward_skips_branches_that_reach_no_requested_tensor():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0, -1.0], requires_grad=True)

    def boom(g, need):
        raise AssertionError("VJP of a branch nobody asked for")

    side = dc.custom_op(2.0 * y.data, (y,), boom, "boom")
    loss = dc.add(dc.tsum(dc.mul(x, x)), dc.tsum(dc.mul(side, x)))
    (gx,) = grad(loss, [x])
    np.testing.assert_array_equal(gx.data, 2.0 * x.data + side.data)
    with pytest.raises(AssertionError, match="nobody asked"):
        grad(loss, [y])


def _adapted_loss(a, b, c, inner_params=None):
    """A loss of ``a``, ``b`` and ``c``.  With ``inner_params``, one recorded
    inner step on ``a`` comes first (as in trainer.inner_adapt), and the
    inner gradient asks for ``inner_params``."""
    idx = np.array([0, 2, 3, 2])
    target = Tensor([1.0, -0.5, 0.25, 2.0])

    def loss_of(u):
        pred = dc.matmul(dc.gather(b, idx), dc.sigmoid(u))
        resid = dc.sub(pred, target)
        return dc.tsum(dc.mul(c, dc.mul(resid, resid)))

    if inner_params is None:
        return loss_of(a)
    g = grad(loss_of(a), inner_params, create_graph=True)[0]
    return loss_of(dc.sub(a, dc.mul(Tensor(0.3), g)))


def test_grad_of_one_tensor_matches_grad_of_all_bit_for_bit():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=3), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    c = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
    first = _adapted_loss(a, b, c, [a])
    for loss in (_adapted_loss(a, b, c), first, _adapted_loss(a, b, c, [a, b, c])):
        (alone,) = grad(loss, [a])
        together = grad(loss, [a, b, c])
        np.testing.assert_array_equal(alone.data, together[0].data)
    # recording the inner step for [a] alone leaves the outer loss unchanged
    outer_all = grad(_adapted_loss(a, b, c, [a, b, c]), [a, b, c])
    for g_pruned, g_full in zip(grad(first, [a, b, c]), outer_all):
        np.testing.assert_array_equal(g_pruned.data, g_full.data)
