"""Bilevel training loop: per-step user adaptation on the sketch, outer
recommender updates, and the queue-based approximate policy gradient.

Every time step runs a fixed number of gradient-descent steps on the user
embedding (the inner problem), evaluates the next-interaction loss, and
differentiates it through the unrolled inner steps to update the global
model.  The users of a mini-batch are independent inner problems that
share one initialisation, so each time step adapts all users still
streaming at once: their user embeddings are stacked (B, d) and their
losses summed.  Every user-side function takes such stacks, rows (B, M)
and embeddings (B, d); one user is the stack B = 1.  The inner loop and
the reverse pass through it are the closed-form kernel of
:mod:`recmodel` (:func:`recmodel.unroll`,
:func:`recmodel.unrolled_backward`), which records no graph: the
meta-gradient of :func:`theta_gradients` and the sketch-weight gradient v
of :func:`policy_gradient` come from one adjoint recursion each, and
:func:`inner_adapt` returns the adapted stack as an ndarray.  The sketching
policy is updated with a two-term gradient, a straight-through term for
the current selection plus a replay term over each user's queue of stored
intermediate sketch indicators, taken in closed form too: each selection
is a :class:`policies.Selection` whose ``grads`` runs the head's
straight-through backward and :func:`policies.policy_backward`, once per
time step over the users at a sketch boundary, and each of those users
commits the selection its gradient was taken at.  A selection runs on its
stack's live columns, the items its rows hold, since every other item
scores -inf and gets no gradient; :func:`train` adds the gradients into
one :class:`PolicyGradBuffer` for the whole run, whose written entries (the
live rows of w1, columns of w3 and b3, and the small layers) are divided
by the user count before the dense Adam step and zeroed after it, so no
step allocates an (M, hidden) array.  No step records an autodiff
graph.  The optimizers step in place through fixed scratch rows: the
recommender's gradients are divided by the user count in place, Adam
takes Kingma & Ba's one-division order (alpha = lr sqrt(c2) / c1 and
eps sqrt(c2) folded into the step, pinned bit for bit by the tests and to
the textbook order within 1e-14 relative), and an optimizer at rate 0,
whose step would leave every parameter bit-identical, is not stepped.
Per time step, the policy phase draws from the
generator in a fixed order: the current stack's dropout masks, then one
uniform per head pick (row by row), then the replay stack's masks and picks
(users in stack order, each queue oldest first).  The commits of a learned
policy draw nothing.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import warnings
from collections import deque
from dataclasses import dataclass, field, asdict

import numpy as np

from . import policies as pol
from . import recmodel as rm
from .recmodel import RecParams
from .policies import IntermediateSketch, PolicyParams, Sketch, SketchEntry

POLICIES = ("random", "hardest", "influence", "dips", "dips1", "oracle")
# policies whose scores come from the trained network phi
LEARNED_POLICIES = ("dips", "dips1")


@dataclass
class TrainConfig:
    sketch_size: int = 4
    tau: int = 1
    queue_size: int = 50
    inner_steps: int = 5
    inner_lr: float = 0.2
    lr_user: float = 1e-4
    lr_item: float = 2e-5
    lr_policy: float = 2e-4
    batch_size: int = 32
    epochs: int = 1
    seed: int = 0
    mode: str = "online"
    setting: str = "explicit"
    policy: str = "dips"
    dim: int = 32
    hidden: int = 64
    policy_hidden: int = 128
    policy_dropout_rate: float = 0.10
    stochastic_train: bool = True
    weight_decay: float = 2e-4

    def __post_init__(self):
        for name in ("sketch_size", "tau", "batch_size", "dim", "hidden", "policy_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("inner_steps", "epochs", "queue_size", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("inner_lr", "lr_user", "lr_item", "lr_policy"):
            # written so that NaN fails too
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.mode not in ("online", "batch"):
            raise ValueError(f"mode must be online or batch, got {self.mode!r}")
        if self.mode == "online" and self.tau != 1:
            raise ValueError("online mode requires tau == 1")
        if self.setting not in (rm.EXPLICIT, rm.IMPLICIT):
            raise ValueError(f"unknown setting {self.setting!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if not 0.0 <= self.policy_dropout_rate < 1.0:
            raise ValueError("policy_dropout_rate must lie in [0, 1)")


class SketchQueue:
    """FIFO of stored intermediate-sketch indicator vectors, oldest evicted."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._entries = deque()

    def push(self, zhat):
        if self.capacity == 0:
            return
        self._entries.append(np.asarray(zhat, dtype=np.float64).copy())
        while len(self._entries) > self.capacity:
            self._entries.popleft()

    def entries(self):
        return list(self._entries)

    def __len__(self):
        return len(self._entries)


# entries per scratch row of the optimizers: a parameter is updated in
# blocks of whole rows this large, so its temporaries stay in cache and no
# step allocates
_BLOCK = 1 << 15


def _block_plan(params, n):
    """The blocks an optimizer updates its parameters in, made once: per
    parameter, a list of ``(index, scratch)``, ``index`` a block of whole
    rows (the whole parameter when it fits in one) and ``scratch`` views of
    ``n`` scratch rows shaped like that block.  The scratch rows are one
    buffer, as long as a block or the longest parameter row."""
    longest = max(p[0].size if p.ndim else 1 for p in params)
    buf = np.empty((n, max(_BLOCK, longest)))
    plan = []
    for p in params:
        shape = p.shape
        if not shape:
            plan.append([(..., [row[:1].reshape(()) for row in buf])])
            continue
        row = int(np.prod(shape[1:]))
        step = max(1, buf.shape[1] // max(row, 1))
        blocks = []
        for i in range(0, shape[0], step):
            index = slice(i, min(i + step, shape[0]))
            block = (index.stop - i,) + shape[1:]
            blocks.append((index, [r[:block[0] * row].reshape(block) for r in buf]))
        plan.append(blocks)
    return plan


class SGDMomentum:
    def __init__(self, params, lr, momentum=0.9, weight_decay=0.0):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros(p.shape) for p in params]
        self.plan = _block_plan(params, 1)

    def step(self, grads):
        # g + wd * p, v = momentum * v + g, p -= lr * v, block by block
        # through one scratch row: the same operations in the same order,
        # bit for bit
        for p, v, g, blocks in zip(self.params, self.velocity, grads, self.plan):
            for index, (s,) in blocks:
                p_b, v_b = p[index], v[index]
                np.multiply(p_b, self.weight_decay, out=s)
                s += np.asarray(g)[index]
                v_b *= self.momentum
                v_b += s
                np.multiply(v_b, self.lr, out=s)
                p_b -= s


class Adam:
    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = [np.zeros(p.shape) for p in params]
        self.v = [np.zeros(p.shape) for p in params]
        self.t = 0
        self.plan = _block_plan(params, 2)

    def step(self, grads):
        # g = grad + wd * p, m and v moving averages, then the update in
        # Kingma & Ba's one-division order (end of their section 2):
        # p -= alpha * m / (sqrt(v) + eps_t) with alpha = lr * sqrt(c2) / c1
        # and eps_t = eps * sqrt(c2), equal to the textbook
        # lr * mhat / (sqrt(vhat) + eps) up to rounding; one division and
        # one square root per entry instead of three divisions and one.
        # Block by block through two scratch rows, without a temporary
        # per operation
        self.t += 1
        c1, c2 = 1 - self.b1 ** self.t, 1 - self.b2 ** self.t
        alpha, eps_t = self.lr * math.sqrt(c2) / c1, self.eps * math.sqrt(c2)
        for p, m, v, g, blocks in zip(self.params, self.m, self.v, grads, self.plan):
            for index, (s1, s2) in blocks:
                p_b, m_b, v_b = p[index], m[index], v[index]
                np.multiply(p_b, self.weight_decay, out=s1)
                s1 += np.asarray(g)[index]                 # s1 = g
                np.multiply(s1, 1 - self.b1, out=s2)
                m_b *= self.b1
                m_b += s2
                np.multiply(s1, 1 - self.b2, out=s2)
                s2 *= s1
                v_b *= self.b2
                v_b += s2
                np.sqrt(v_b, out=s2)
                s2 += eps_t
                np.divide(m_b, s2, out=s1)
                s1 *= alpha
                p_b -= s1


def inner_adapt(rec: RecParams, z, y, mask, alpha, n_steps):
    """Adapt B copies of the user embedding on the weighted sketch loss,
    copy b on row b of ``z``, ``y`` and ``mask`` (B, M).

    Returns the adapted stack (B, d), an ndarray: every step takes the
    closed-form :func:`recmodel.sketch_gradient` through
    :func:`recmodel.unroll`, which checks ``z`` and ``mask`` once, as
    :func:`recmodel.sketch_loss` does.  No graph is built and item-side
    parameters are never touched.
    """
    return rm.unroll(rec, z, y, mask, alpha, n_steps)[0]


def theta_gradients(rec: RecParams, z, y, mask, next_item, next_rating, cfg):
    """Meta-gradient of the next-interaction loss w.r.t. the global parameters.

    ``z``, ``y`` and ``mask`` are (B, M), the next items and ratings (B,):
    one reverse pass through the unrolled inner loop of all B users
    (:func:`recmodel.unrolled_backward`).  Returns the gradients and the
    loss, both summed over the users; the gradients are fresh arrays, which
    :func:`train` divides by the user count in place.
    """
    grads, _, loss = rm.unrolled_backward(rec, z, y, mask, next_item, next_rating,
                                          cfg.inner_lr, cfg.inner_steps)
    return grads, loss


def select_with_policy(phi: PolicyParams, zhat, y, cfg, rng=None):
    """Score ``zhat`` with the policy network and apply the selection head.

    ``zhat`` is one intermediate indicator (M,) or a stack (R, M) whose
    rows are selected one by one, in row order.  Returns the new indicator
    ``z``, shaped like ``zhat``, as a :class:`policies.Selection` whose
    ``grads(g)`` are phi's parameter gradients of sum(g * z) on its
    ``cols``, straight through the head onto the policy scores; the kept
    items of a row are ``flatnonzero(z > 0.5)``.  The network, the head and
    the backward run on ``cols``, the items some row of ``zhat`` holds:
    every other item scores -inf, is never kept and gets no gradient.
    ``cfg.tau`` picks the head: softmax removal for tau = 1, the Top-K
    projection otherwise.  Both read a score as keep, so in deterministic
    mode they keep the same K of K + 1 items.  With ``cfg.stochastic_train``
    dropout at ``cfg.policy_dropout_rate`` is on and the head samples:
    ``rng`` gives the dropout masks of the whole stack, then one uniform per
    head pick, R for the online head and R x K (row-major) for the Top-K head.
    Without it the selection is deterministic, dropout off and ``rng``
    untouched.
    """
    stochastic = cfg.stochastic_train
    zhat = np.asarray(zhat, dtype=np.float64)
    cols = np.flatnonzero(np.atleast_2d(zhat).any(axis=0))
    dropout = cfg.policy_dropout_rate if stochastic else 0.0
    scores = pol.policy_scores(zhat, y, phi, dropout, rng=rng, cols=cols)
    mode = "stochastic" if stochastic else "deterministic"
    if cfg.tau == 1:
        w, _ = pol.online_remove(scores, mode, rng=rng)
        live, grads = zhat[..., cols] - w.data, lambda g: w.grads(-g[..., cols])
    else:
        u = pol.topk_project(scores, cfg.sketch_size)
        w, _ = pol.batch_keep(u, cfg.sketch_size, mode, rng=rng)
        live, grads = w.data, lambda g: w.grads(g[..., cols])
    z = np.zeros(zhat.shape)
    z[..., cols] = live
    return pol.Selection(z, grads, cols)


class PolicyGradBuffer:
    """phi's gradient, one dense array per parameter, of which a policy step
    writes only the live entries.

    :meth:`add` sums a selection's gradients on its items ``cols`` in: rows
    ``cols`` of w1, columns ``cols`` of w3 and b3, and all of b1, w2 and b2.
    Every other entry stays zero, so ``grads`` is always phi's dense
    gradient.  :meth:`divide` and :meth:`clear` touch only the entries
    written since the last clear, so one buffer serves every policy step of
    a run and no step allocates an (M, hidden) array.
    """

    def __init__(self, phi: PolicyParams):
        self.grads = [np.zeros(p.shape) for p in phi.params()]
        self.cols = np.empty(0, dtype=np.int64)

    @staticmethod
    def _index(cols):
        """Per parameter, the entries a gradient on items ``cols`` has."""
        return cols, ..., ..., ..., (slice(None), cols), cols

    def add(self, grads, cols):
        for g, index, part in zip(self.grads, self._index(cols), grads):
            g[index] += part
        self.cols = np.union1d(self.cols, cols)

    def divide(self, n):
        for g, index in zip(self.grads, self._index(self.cols)):
            g[index] /= n

    def clear(self):
        for g, index in zip(self.grads, self._index(self.cols)):
            g[index] = 0.0
        self.cols = np.empty(0, dtype=np.int64)


def policy_gradient(phi: PolicyParams, rec: RecParams, y, mask, zhat_t, past_zhats,
                    next_item, next_rating, cfg, rng=None, out=None):
    """Two-term approximate policy gradient; returns (grads, v, z, loss).

    B users pass ``y``, ``mask`` and ``zhat_t`` as (B, M), their queues
    ``past_zhats`` as a list of B lists of stored indicator rows, and (B,)
    next items and ratings.  The gradients and the loss are summed over
    the users; ``v`` and the selection ``z`` are (B, M), row b user b's.
    The gradients are added into ``out``, a cleared
    :class:`PolicyGradBuffer` (by default a new one), and ``grads`` are its
    arrays.

    v is the gradient of the next-interaction loss w.r.t. the sketch
    weights, taken through the inner loop with the selection ``z`` from
    ``zhat_t`` held constant.  The policy gradient is then the gradient of
    v . z (the straight-through term) plus v . sum_j z_j, where each past
    z_j is recomputed from its stored indicator with the current policy
    (the replay term): every user's queue, oldest first, forms one stack,
    and each of its rows reads its owner's ``y`` and v.  Cross-step
    Jacobians are treated as identity.  Both selections go through
    :func:`select_with_policy`, so ``cfg`` decides mode and dropout, and
    ``rng`` is drawn for the current stack first, then for the replay.
    Each term is backpropagated on the items its stack holds only.
    """
    n_users = len(zhat_t)
    if len(past_zhats) != n_users:
        raise ValueError(f"policy_gradient: {len(past_zhats)} queues for {n_users} users")
    out = out if out is not None else PolicyGradBuffer(phi)
    z_t = select_with_policy(phi, zhat_t, y, cfg, rng)
    _, v, loss = rm.unrolled_backward(rec, z_t.data, y, mask, next_item, next_rating,
                                      cfg.inner_lr, cfg.inner_steps, theta=False, sketch=True)
    out.add(z_t.grads(v), z_t.cols)
    past = [z for queue in past_zhats for z in queue]
    if past:
        owner = np.repeat(np.arange(n_users), [len(q) for q in past_zhats])
        z_past = select_with_policy(phi, np.stack(past), y[owner], cfg, rng)
        out.add(z_past.grads(v[owner]), z_past.cols)
    return out.grads, v, z_t.data, loss


class _UserState:
    """Per-user mutable state: sketch, pending items, queue.

    ``observe`` and ``commit`` are the one copy of the sketch transition,
    shared by training, evaluation and the exact replay.
    """

    def __init__(self, stream, n_items, cfg):
        self.stream = stream
        self.sketch = Sketch(cfg.sketch_size, n_items)
        self.pending = []
        self.queue = SketchQueue(cfg.queue_size if cfg.policy == "dips" else 0)
        self.mask = np.zeros(n_items)
        self.y = np.zeros(n_items)
        self.mask[stream.items] = 1.0
        if cfg.setting == rm.EXPLICIT:
            self.y[stream.items] = stream.ratings
        else:
            self.y[stream.items] = 1.0

    def observe(self, t, cfg):
        """Queue interaction ``t-1``; returns the intermediate sketch and
        whether step ``t`` is a policy boundary (past warm-up, tau pending)."""
        s = self.stream
        self.pending.append(SketchEntry(int(s.items[t - 1]), float(s.ratings[t - 1]), t))
        inter = IntermediateSketch(self.sketch, tuple(self.pending))
        return inter, t > cfg.sketch_size and len(self.pending) == cfg.tau

    def commit(self, inter, rec, phi, cfg, rng, anchors=None, u=None, z=None):
        """Absorb while the intermediate sketch fits, else apply the policy
        once tau items are pending; returns "absorbed", "updated" or None.

        A caller that already holds this user's embedding adapted on the
        current sketch passes it as ``u`` (d,) (``hardest``/``influence``),
        or the indicator the learned policy selected from ``inter.zhat`` as
        ``z``: training passes the row of its policy gradient's selection,
        evaluation the row of its stacked selection.  By default the update
        computes them itself, and a learned policy then selects (and, with
        ``cfg.stochastic_train``, draws from ``rng``) here.
        """
        if len(inter) <= cfg.sketch_size:
            self.sketch = Sketch(cfg.sketch_size, inter.base.n_items, inter.all_entries())
            outcome = "absorbed"
        elif len(self.pending) == cfg.tau:
            self.sketch = _update_sketch(self, inter, rec, phi, cfg, rng, anchors, u, z)
            outcome = "updated"
        else:
            return None
        self.pending = []
        return outcome


def _update_sketch(state: _UserState, inter, rec, phi, cfg, rng, oracle_anchors=None,
                   u=None, z=None):
    """The sketch the configured policy keeps from ``inter``; ``u`` and
    ``z`` are as in :meth:`_UserState.commit`."""
    if cfg.policy == "random":
        sk = inter.base
        for e in inter.incoming:
            sk = pol.reservoir_update(sk, e.item, e.rating, e.step, rng)
        return sk
    if cfg.policy in ("hardest", "influence"):
        if u is None:
            u = inner_adapt(rec, inter.base.z[None], state.y[None], state.mask[None],
                            cfg.inner_lr, cfg.inner_steps)[0]
        if cfg.policy == "hardest":
            return pol.hardest_update(rec, u, inter)
        return pol.influence_update(rec, u, inter)
    if cfg.policy == "oracle":
        anchors = oracle_anchors.get(state.stream.user, set()) if oracle_anchors else set()
        entries = inter.all_entries()
        preferred = [e for e in entries if e.item in anchors]
        rest = sorted((e for e in entries if e.item not in anchors), key=lambda e: -e.step)
        return inter.keep([e.item for e in (preferred + rest)[: cfg.sketch_size]])
    # dips / dips1
    if z is None:
        z = select_with_policy(phi, inter.zhat, state.y, cfg, rng).data
    return inter.keep(np.flatnonzero(z > 0.5))


@dataclass
class TrainResult:
    rec: RecParams
    phi: PolicyParams
    metric_log: list = field(default_factory=list)


def train(cfg: TrainConfig, data, oracle_anchors=None, trace_file=None,
          validate_each_epoch=True, policy_grad_hook=None,
          init_rec=None, init_phi=None) -> TrainResult:
    """Run the full bilevel training loop over mini-batches of users.

    ``init_rec`` / ``init_phi`` warm-start from existing parameters
    (copied, the originals are left untouched).  ``policy_grad_hook(users,
    t, grads, v)`` is called once per time step at which some users reach a
    sketch boundary: their ids in stack order, their summed policy
    gradient, before the division by their number, and their (B', M)
    sketch-weight gradients ``v``.  ``grads`` are the run's
    :class:`PolicyGradBuffer` arrays, zeroed after the step: a hook copies
    what it keeps.
    """
    from . import metrics as met  # late import to avoid a cycle

    rng = np.random.default_rng(cfg.seed)
    rec = RecParams(data.n_items, dim=cfg.dim, hidden=cfg.hidden,
                    setting=cfg.setting, rng=rng)
    phi = PolicyParams(data.n_items, hidden=cfg.policy_hidden, rng=rng)
    # copies: the optimizers update the parameters in place
    if init_rec is not None:
        rec.load_arrays({n: a.copy() for n, a in init_rec.state_arrays().items()})
    if init_phi is not None:
        phi.load_arrays({n: a.copy() for n, a in init_phi.state_arrays().items()})
    opt_user = SGDMomentum([rec.user_emb], cfg.lr_user, weight_decay=cfg.weight_decay)
    opt_item = Adam(rec.item_params(), cfg.lr_item, weight_decay=cfg.weight_decay)
    opt_policy = Adam(phi.params(), cfg.lr_policy, weight_decay=cfg.weight_decay)
    learned = cfg.policy in LEARNED_POLICIES
    policy_grad = PolicyGradBuffer(phi) if learned else None
    metric_log = []

    usable = []
    for s in data.train:
        if len(s.items) < 2:
            warnings.warn(f"skipping user {s.user}: fewer than 2 interactions")
            continue
        usable.append(s)

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(usable))
        for start in range(0, len(order), cfg.batch_size):
            batch = [usable[i] for i in order[start:start + cfg.batch_size]]
            states = [_UserState(s, data.n_items, cfg) for s in batch]
            ys = np.stack([st.y for st in states])
            masks = np.stack([st.mask for st in states])
            max_t = max(len(s.items) for s in batch)
            for t in range(1, max_t):
                active = [i for i, s in enumerate(batch) if t < len(s.items)]
                nxt = np.array([batch[i].items[t] for i in active], dtype=np.int64)
                nxt_rating = np.array([batch[i].ratings[t] for i in active], dtype=np.float64)

                # outer model update on the current sketches, one reverse
                # pass for every active user; it reads rec and the sketches
                # only, so it runs before any sketch of this step is committed
                theta_acc, _ = theta_gradients(
                    rec, np.stack([states[i].sketch.z for i in active]), ys[active],
                    masks[active], nxt, nxt_rating, cfg)
                n_theta = len(active)

                inters = [states[i].observe(t, cfg) for i in active]
                # one policy gradient for the users at a sketch boundary;
                # each of them commits the selection it returns, so the
                # commits of a learned policy draw nothing from rng
                at = [k for k, (_, boundary) in enumerate(inters) if learned and boundary]
                z = [None] * len(active)
                if at:
                    rows = [active[k] for k in at]
                    zhats = np.stack([inters[k][0].zhat for k in at])
                    policy_acc, v, z_at, _ = policy_gradient(
                        phi, rec, ys[rows], masks[rows], zhats,
                        [states[i].queue.entries() for i in rows], nxt[at], nxt_rating[at],
                        cfg, rng=rng, out=policy_grad)
                    if policy_grad_hook is not None:
                        policy_grad_hook([batch[i].user for i in rows], t, policy_acc, v)
                    for i, zhat in zip(rows, zhats):
                        states[i].queue.push(zhat)
                    for k, row in zip(at, z_at):
                        z[k] = row

                for k, (i, (inter, _)) in enumerate(zip(active, inters)):
                    st = states[i]
                    outcome = st.commit(inter, rec, phi, cfg, rng, oracle_anchors, z=z[k])
                    if outcome is not None and trace_file is not None:
                        _trace(trace_file, st, t, absorbed=outcome == "absorbed")

                # the optimizer steps, each on gradients divided in place by
                # the user count; a zero-rate step is skipped (see _moves)
                # and its parameters are not checked again
                written = []
                if _moves(opt_user):
                    theta_acc[0] /= n_theta
                    opt_user.step(theta_acc[:1])
                    written += rec.param_names()[:1]
                if _moves(opt_item):
                    for g in theta_acc[1:]:
                        g /= n_theta
                    opt_item.step(theta_acc[1:])
                    written += rec.param_names()[1:]
                _check_finite("rec", rec, written, epoch, t, batch)
                if at:
                    if _moves(opt_policy):
                        policy_grad.divide(len(at))
                        opt_policy.step(policy_acc)
                        _check_finite("phi", phi, phi.param_names(), epoch, t, batch)
                    policy_grad.clear()

        if validate_each_epoch and data.valid:
            aggregates = met.evaluate(rec, phi, data.valid, cfg)
            for name, value in aggregates.items():
                metric_log.append(_record(cfg, epoch, "valid", name, value))
    return TrainResult(rec=rec, phi=phi, metric_log=metric_log)


def _moves(opt):
    """Whether a step of ``opt`` can move a parameter.  At rate 0 a step of
    either optimizer leaves every parameter bit-identical and draws
    nothing, so :func:`train` skips it; the skipped moments are written
    nowhere."""
    return opt.lr != 0


def _check_finite(prefix, params, names, epoch, t, batch):
    """Raise on the first non-finite array among the parameters ``names``
    of ``params``, after an optimizer step wrote them.  A finite sum proves
    every entry finite, since a NaN or an infinity carries into it, so only
    a non-finite sum, from a non-finite entry or an overflow of finite
    ones, looks at the entries: a finite array takes no temporary its size."""
    for name in names:
        arr = getattr(params, name)
        if not np.isfinite(np.sum(arr)) and not np.isfinite(arr).all():
            users = [int(s.user) for s in batch]
            raise FloatingPointError(
                f"non-finite {prefix}.{name} after the optimizer step at epoch {epoch}, "
                f"step t={t}, batch users {users}")


def _record(cfg, epoch, split, metric, value):
    return {
        "epoch": epoch, "split": split, "metric": metric, "value": value,
        "K": cfg.sketch_size, "tau": cfg.tau, "policy": cfg.policy, "seed": cfg.seed,
    }


def _trace(fh, state, t, absorbed):
    fh.write(json.dumps({
        "user": int(state.stream.user),
        "step": int(t),
        "incoming": int(state.stream.items[t - 1]),
        "kept": sorted(state.sketch.items().tolist()),
        "absorbed": absorbed,
    }) + "\n")


class _AtomicFiles:
    """The files of one :func:`atomic_files` block; see there."""

    def __init__(self):
        self.pending = []    # (temporary file, target), in write order

    @contextlib.contextmanager
    def open(self, path, mode="w"):
        """Write ``path`` through a temporary file in the same directory;
        flushed and fsynced on a clean exit, removed on an exception."""
        head, tail = os.path.split(os.fspath(path))
        tmp = os.path.join(head, f".{os.getpid()}.{tail}")
        try:
            with open(tmp, mode) as fh:
                yield fh
                fh.flush()
                os.fsync(fh.fileno())
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise
        self.pending.append((tmp, path))


@contextlib.contextmanager
def atomic_files():
    """Write several files as one group.

    ``files.open(path, mode)`` of the yielded group writes ``path`` through
    a temporary file.  Only after the block exits cleanly, every temporary
    file is moved onto its target, in the order they were written; on an
    exception every temporary file is removed, so all targets keep their
    previous content.
    """
    files = _AtomicFiles()
    try:
        yield files
        while files.pending:
            os.replace(*files.pending[0])
            files.pending.pop(0)
    except BaseException:
        for tmp, _ in files.pending:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def save_checkpoint(path, rec: RecParams, phi: PolicyParams, cfg: TrainConfig, files=None):
    """Write the parameters and config to ``path`` atomically.

    A failed write leaves the previous checkpoint intact.  Like
    ``np.savez``, a name without the ``.npz`` suffix gets one.  ``files``
    is an open :func:`atomic_files` group to write into; by default the
    checkpoint is a group of its own.
    """
    arrays = {"version": np.array([1])}
    for name, arr in rec.state_arrays().items():
        arrays[f"rec_{name}"] = arr
    for name, arr in phi.state_arrays().items():
        arrays[f"phi_{name}"] = arr
    arrays["meta"] = np.frombuffer(json.dumps(asdict(cfg)).encode(), dtype=np.uint8)
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with contextlib.ExitStack() as stack:
        if files is None:
            files = stack.enter_context(atomic_files())
        with files.open(path, "wb") as fh:
            np.savez(fh, **arrays)


def load_checkpoint(path):
    with np.load(path) as data:
        if int(data["version"][0]) != 1:
            raise ValueError(f"unsupported checkpoint version {data['version'][0]}")
        meta = json.loads(bytes(data["meta"]).decode())
        # A meta holding ``policy_dropout`` predates the keep convention: its
        # tau = 1 policy scores removal, which a negated last layer maps onto.
        older = meta.pop("policy_dropout", None) is not None
        # fields of older configs that no caller set; their values are the
        # defaults of SGDMomentum and influence_update, which train() uses
        for name in ("momentum", "influence_damping"):
            meta.pop(name, None)
        cfg = TrainConfig(**meta)
        # built on the stored arrays, so nothing is drawn
        stored = {k: data[k] for k in data.files}
        n_items = stored["rec_item_emb"].shape[0]
        rec = RecParams(n_items, dim=cfg.dim, hidden=cfg.hidden, setting=cfg.setting,
                        arrays={k[4:]: a for k, a in stored.items() if k.startswith("rec_")})
        arrays = {k[4:]: a for k, a in stored.items() if k.startswith("phi_")}
        if older and cfg.tau == 1:
            arrays["w3"], arrays["b3"] = -arrays["w3"], -arrays["b3"]
        phi = PolicyParams(n_items, hidden=cfg.policy_hidden, arrays=arrays)
    return rec, phi, cfg
