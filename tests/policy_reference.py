"""The recorded graph of the policy network and both selection heads.

Production takes the policy gradient in closed form: ``policy_scores``
keeps its activations, and ``policy_backward`` and each head's
straight-through backward run in numpy.  This is the autodiff form it
replaced, kept as the reference the tests pin it to bit for bit: the same
forward recorded on ``diffcore`` tensors, and one ``diffcore.grad`` of the
two-term objective.  The heads' picks, and the draws they take, come from
the production heads, whose forward the graph only wraps.
"""

import numpy as np

from dips import diffcore as dc
from dips import policies as pol
from dips import recmodel as rm
from dips.diffcore import Tensor

from tensor_view import tensor_view


def graph_scores(zhat, y, phi, dropout=0.0, rng=None):
    """``policies.policy_scores`` as a recorded graph."""
    zhat = np.asarray(zhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x = Tensor(zhat * y)
    h1 = dc.relu(dc.matmul(x, phi.w1) + phi.b1)
    if dropout > 0:
        h1 = dc.dropout(h1, dropout, rng=rng)
    h2 = dc.relu(dc.matmul(h1, phi.w2) + phi.b2)
    if dropout > 0:
        h2 = dc.dropout(h2, dropout, rng=rng)
    f = dc.matmul(h2, phi.w3) + phi.b3
    return f + Tensor(pol.log_indicator(zhat))


def graph_online_remove(scores, mode="deterministic", rng=None):
    """The online head's removal, straight through onto softmax(-scores)."""
    w, removed = pol.online_remove(scores.data, mode, rng=rng)
    neg = dc.custom_op(np.where(scores.data == -np.inf, -np.inf, -scores.data), (scores,),
                       lambda g, need: (dc.neg(g),), "neg_finite")
    return dc.straight_through(dc.softmax(neg), w.data), removed


def graph_topk_project(scores, k):
    """The Top-K projection as a custom op whose backward is ``topk_grad``
    per row."""
    u = pol.topk_project(scores.data, k).data

    def vjp(g, need):
        rows = zip(np.atleast_2d(scores.data), np.atleast_2d(u), np.atleast_2d(g.data))
        return (Tensor(np.array([pol.topk_grad(*r) for r in rows]).reshape(u.shape)),)

    return dc.custom_op(u, (scores,), vjp, "topk_project")


def graph_batch_keep(u, k, mode="deterministic", rng=None):
    """The Top-K head's picks, straight through onto u."""
    w, kept = pol.batch_keep(u.data, k, mode, rng=rng)
    return dc.straight_through(u, w.data), kept


def graph_select(phi, zhat, y, cfg, rng=None):
    """``trainer.select_with_policy`` as a recorded graph: the selection
    ``z`` as a Tensor, with the same draws in the same order."""
    stochastic = cfg.stochastic_train
    dropout = cfg.policy_dropout_rate if stochastic else 0.0
    scores = graph_scores(zhat, y, phi, dropout, rng=rng)
    mode = "stochastic" if stochastic else "deterministic"
    if cfg.tau == 1:
        w, _ = graph_online_remove(scores, mode, rng=rng)
        return Tensor(np.asarray(zhat, dtype=np.float64)) - w
    u = graph_topk_project(scores, cfg.sketch_size)
    w, _ = graph_batch_keep(u, cfg.sketch_size, mode, rng=rng)
    return w


def graph_policy_gradient(phi, rec, y, mask, zhat_t, past_zhats, next_item, next_rating,
                          cfg, rng=None):
    """``trainer.policy_gradient`` with one ``diffcore.grad`` of
    v . z_t + v . z_past through the recorded selections; returns
    (grads, v, z, loss)."""
    phi = tensor_view(phi)
    z_t = graph_select(phi, zhat_t, y, cfg, rng)
    _, v, loss = rm.unrolled_backward(rec, z_t.data, y, mask, next_item, next_rating,
                                      cfg.inner_lr, cfg.inner_steps, theta=False, sketch=True)
    objective = dc.tsum(dc.mul(z_t, Tensor(v)))
    past = [z for queue in past_zhats for z in queue]
    if past:
        owner = np.repeat(np.arange(len(zhat_t)), [len(q) for q in past_zhats])
        z_past = graph_select(phi, np.stack(past), y[owner], cfg, rng)
        objective = objective + dc.tsum(dc.mul(z_past, Tensor(v[owner])))
    grads = dc.grad(objective, phi.params())
    return [g.data for g in grads], v, z_t.data, loss
