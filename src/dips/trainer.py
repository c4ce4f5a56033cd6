"""Bilevel training loop: per-step user adaptation on the sketch, outer
recommender updates, and the queue-based approximate policy gradient.

Every time step runs a fixed number of recorded gradient-descent steps on
the user embedding (the inner problem), evaluates the next-interaction
loss, and backpropagates through the unrolled inner steps to update the
global model.  The sketching policy is updated with a two-term gradient:
a straight-through term for the current selection plus a replay term
over a queue of stored intermediate sketch indicators.
"""

from __future__ import annotations

import contextlib
import json
import os
import warnings
from collections import deque
from dataclasses import dataclass, field, asdict

import numpy as np

from . import diffcore as dc
from . import policies as pol
from . import recmodel as rm
from .diffcore import Tensor
from .recmodel import LocalParams, RecParams
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
    policy_dropout: bool = True
    stochastic_train: bool = True
    momentum: float = 0.9
    weight_decay: float = 2e-4
    influence_damping: float = 1e-3

    def __post_init__(self):
        if self.sketch_size < 1:
            raise ValueError("sketch_size must be >= 1")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if self.inner_steps < 0:
            raise ValueError("inner_steps must be >= 0")
        for name in ("inner_lr", "lr_user", "lr_item", "lr_policy"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.mode not in ("online", "batch"):
            raise ValueError(f"mode must be online or batch, got {self.mode!r}")
        if self.mode == "online" and self.tau != 1:
            raise ValueError("online mode requires tau == 1")
        if self.setting not in (rm.EXPLICIT, rm.IMPLICIT):
            raise ValueError(f"unknown setting {self.setting!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.queue_size < 0:
            raise ValueError("queue_size must be >= 0")

    @property
    def loss_kind(self):
        return "mse" if self.setting == rm.EXPLICIT else "cce"


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


class SGDMomentum:
    def __init__(self, params, lr, momentum=0.9, weight_decay=0.0):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros(p.shape) for p in params]

    def step(self, grads):
        for p, v, g in zip(self.params, self.velocity, grads):
            g = np.asarray(g) + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data -= self.lr * v


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

    def step(self, grads):
        self.t += 1
        for p, m, v, g in zip(self.params, self.m, self.v, grads):
            g = np.asarray(g) + self.weight_decay * p.data
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            mhat = m / (1 - self.b1 ** self.t)
            vhat = v / (1 - self.b2 ** self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def inner_adapt(rec: RecParams, z, y, mask, alpha, n_steps, record=True) -> LocalParams:
    """Adapt the user embedding on the weighted sketch loss.

    With ``record`` the gradient steps stay on the graph so the outer loss
    can be meta-differentiated; item-side parameters are never touched.
    """
    if n_steps == 0 or alpha == 0.0:
        return LocalParams(user=rec.user_emb, base=rec)
    u = rec.user_emb
    if record:
        for _ in range(n_steps):
            loss = rm.sketch_loss(z, y, mask, LocalParams(user=u, base=rec))
            (g,) = dc.grad(loss, [u], create_graph=True, allow_unused=True)
            u = u - alpha * g
        return LocalParams(user=u, base=rec)
    u_data = u.data.copy()
    for _ in range(n_steps):
        ut = Tensor(u_data, requires_grad=True)
        loss = rm.sketch_loss(z, y, mask, LocalParams(user=ut, base=rec))
        (g,) = dc.grad(loss, [ut], allow_unused=True)
        u_data = u_data - alpha * g.data
    return LocalParams(user=Tensor(u_data), base=rec)


def theta_gradients(rec: RecParams, z, y, mask, next_item, next_rating, cfg):
    """Meta-gradient of the next-interaction loss w.r.t. the global parameters."""
    theta_star = inner_adapt(rec, z, y, mask, cfg.inner_lr, cfg.inner_steps)
    loss = rm.next_item_loss(theta_star, next_item, next_rating)
    grads = dc.grad(loss, rec.all_params())
    return [g.data for g in grads], loss.item()


def outer_theta_step(rec: RecParams, z, y, mask, next_item, next_rating, cfg,
                     opt_user=None, opt_item=None):
    """One outer update of the recommender on a single interaction."""
    if not 0 <= int(next_item) < rec.n_items:
        raise IndexError(f"next item {next_item} out of range [0, {rec.n_items})")
    if opt_user is None:
        opt_user = SGDMomentum([rec.user_emb], cfg.lr_user, cfg.momentum, cfg.weight_decay)
    if opt_item is None:
        opt_item = Adam(rec.item_params(), cfg.lr_item, weight_decay=cfg.weight_decay)
    grads, loss = theta_gradients(rec, z, y, mask, next_item, next_rating, cfg)
    opt_user.step(grads[:1])
    opt_item.step(grads[1:])
    return loss


def grad_wrt_sketch(rec: RecParams, z, y, mask, next_item, next_rating, cfg):
    """v_j = d(next-interaction loss)/dz_j, defined for every interacted item."""
    zt = Tensor(np.asarray(z, dtype=np.float64), requires_grad=True)
    theta_star = inner_adapt(rec, zt, y, mask, cfg.inner_lr, cfg.inner_steps)
    loss = rm.next_item_loss(theta_star, next_item, next_rating)
    (v,) = dc.grad(loss, [zt])
    return v.data


def select_with_policy(phi: PolicyParams, zhat, y, k, tau, mode, rng=None,
                       training=False, drop_rng=None):
    """Run the scoring network and the selection head on one indicator.

    Returns ``(z, kept_items)`` where ``z`` is the new indicator tensor with
    straight-through backward onto the policy scores.
    """
    scores = pol.policy_scores(zhat, y, phi, training=training, rng=drop_rng)
    if tau == 1:
        w, removed = pol.online_remove(scores, mode, rng=rng)
        z = Tensor(np.asarray(zhat, dtype=np.float64)) - w
        kept = np.flatnonzero(z.data > 0.5)
    else:
        u = pol.topk_project(scores, k)
        w, kept = pol.batch_keep(u, k, mode, rng=rng)
        z = w
    return z, kept


def policy_gradient(phi: PolicyParams, rec: RecParams, y, mask, zhat_t, past_zhats,
                    next_item, next_rating, cfg, rng=None, stochastic=False):
    """Two-term approximate policy gradient.

    First term: straight-through gradient of the next-interaction loss
    through the current selection from ``zhat_t``.  Second term: with the
    sketch-weight gradient v held fixed, gradient of v . sum_j z_j where
    each past z_j is recomputed from its stored indicator with the current
    policy.  Cross-step Jacobians are treated as identity.
    """
    mode = "stochastic" if stochastic else "deterministic"
    drop_rng = rng if (cfg.policy_dropout and stochastic) else None
    training = drop_rng is not None

    z_t, _ = select_with_policy(phi, zhat_t, y, cfg.sketch_size, cfg.tau, mode,
                                rng=rng, training=training, drop_rng=drop_rng)
    z_probe = dc.zeros(rec.n_items, requires_grad=True)
    z_used = z_t + z_probe
    theta_star = inner_adapt(rec, z_used, y, mask, cfg.inner_lr, cfg.inner_steps)
    loss = rm.next_item_loss(theta_star, next_item, next_rating)
    grads1 = dc.grad(loss, phi.params() + [z_probe])
    v = grads1[-1].data
    total = [g.data.copy() for g in grads1[:-1]]

    if past_zhats:
        scalar = _replay_term(phi, y, past_zhats, v, cfg, rng=rng, mode=mode,
                              training=training, drop_rng=drop_rng)
        grads2 = dc.grad(scalar, phi.params())
        for acc, g in zip(total, grads2):
            acc += g.data
    return total, v, loss.item()


def _replay_term(phi, y, past_zhats, v, cfg, rng, mode, training, drop_rng):
    """v^T sum_j z_j(zhat_j; phi) over stored indicators, v constant."""
    zhat_mat = np.stack(past_zhats)
    vt = Tensor(v)
    if cfg.tau == 1:
        scores = pol.policy_scores(zhat_mat, y, phi, training=training, rng=drop_rng)
        probs = dc.softmax(scores, axis=1)
        hard = np.zeros_like(probs.data)
        if mode == "deterministic":
            hard[np.arange(len(past_zhats)), np.argmax(probs.data, axis=1)] = 1.0
        else:
            for i in range(len(past_zhats)):
                hard[i, int(rng.choice(probs.data.shape[1], p=probs.data[i]))] = 1.0
        w = dc.straight_through(probs, hard)
        z_rows = Tensor(zhat_mat) - w
        return dc.tsum(dc.mul(z_rows, vt))
    scores = pol.policy_scores(zhat_mat, y, phi, training=training, rng=drop_rng)
    parts = []
    for i in range(len(past_zhats)):
        row = dc.slice_axis(scores, i, i + 1, axis=0)
        row = dc.reshape(row, (scores.shape[1],))
        u = pol.topk_project(row, cfg.sketch_size)
        w, _ = pol.batch_keep(u, cfg.sketch_size, mode, rng=rng)
        parts.append(dc.matmul(w, vt))
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out


class _UserState:
    """Per-user mutable training state: sketch, pending items, queue."""

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


def _update_sketch(state: _UserState, rec, phi, cfg, rng, t, oracle_anchors=None):
    """Commit the pending items into the sketch using the configured policy."""
    inter = IntermediateSketch(state.sketch, tuple(state.pending))
    if cfg.policy == "random":
        sk = state.sketch
        for e in state.pending:
            sk = pol.reservoir_update(sk, e.item, e.rating, e.step, rng)
        state.sketch = sk
    elif cfg.policy in ("hardest", "influence"):
        theta = inner_adapt(rec, state.sketch.z, state.y, state.mask,
                            cfg.inner_lr, cfg.inner_steps, record=False)
        if cfg.policy == "hardest":
            state.sketch = pol.hardest_update(inter, theta)
        else:
            state.sketch = pol.influence_update(inter, theta, damping=cfg.influence_damping)
    elif cfg.policy == "oracle":
        anchors = oracle_anchors.get(state.stream.user, set()) if oracle_anchors else set()
        entries = inter.all_entries()
        preferred = [e for e in entries if e.item in anchors]
        rest = sorted((e for e in entries if e.item not in anchors), key=lambda e: -e.step)
        kept = (preferred + rest)[: cfg.sketch_size]
        state.sketch = inter.keep([e.item for e in kept])
    else:  # dips / dips1
        mode = "stochastic" if cfg.stochastic_train else "deterministic"
        drop_rng = rng if (cfg.policy_dropout and cfg.stochastic_train) else None
        with dc.no_grad():
            _, kept = select_with_policy(
                phi, inter.zhat, state.y, cfg.sketch_size, cfg.tau, mode,
                rng=rng, training=drop_rng is not None, drop_rng=drop_rng)
        state.sketch = inter.keep(kept)
    state.pending = []


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
    (copied, the originals are left untouched).
    """
    from . import metrics as met  # late import to avoid a cycle

    rng = np.random.default_rng(cfg.seed)
    rec = RecParams(data.n_items, dim=cfg.dim, hidden=cfg.hidden,
                    setting=cfg.setting, rng=rng)
    phi = PolicyParams(data.n_items, hidden=cfg.policy_hidden,
                       dropout_rate=cfg.policy_dropout_rate, rng=rng)
    if init_rec is not None:
        rec.load_arrays(init_rec.state_arrays())
    if init_phi is not None:
        phi.load_arrays(init_phi.state_arrays())
    opt_user = SGDMomentum([rec.user_emb], cfg.lr_user, cfg.momentum, cfg.weight_decay)
    opt_item = Adam(rec.item_params(), cfg.lr_item, weight_decay=cfg.weight_decay)
    opt_policy = Adam(phi.params(), cfg.lr_policy, weight_decay=cfg.weight_decay)
    learned = cfg.policy in LEARNED_POLICIES
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
            max_t = max(len(s.items) for s in batch)
            for t in range(1, max_t):
                theta_acc = None
                policy_acc = None
                n_theta = 0
                n_policy = 0
                for st in states:
                    items = st.stream.items
                    if t >= len(items):
                        continue
                    x_t = int(items[t - 1])
                    nxt = int(items[t])
                    nxt_rating = float(st.stream.ratings[t])
                    entry = SketchEntry(x_t, float(st.stream.ratings[t - 1]), t)

                    # outer model update on the current sketch
                    grads, loss_val = theta_gradients(
                        rec, st.sketch.z, st.y, st.mask, nxt, nxt_rating, cfg)
                    theta_acc = grads if theta_acc is None else [
                        a + g for a, g in zip(theta_acc, grads)]
                    n_theta += 1

                    st.pending.append(entry)
                    inter_zhat = st.sketch.z
                    for e in st.pending:
                        inter_zhat[e.item] += 1.0

                    if learned and t > cfg.sketch_size and len(st.pending) == cfg.tau:
                        pg, v, _ = policy_gradient(
                            phi, rec, st.y, st.mask, inter_zhat, st.queue.entries(),
                            nxt, nxt_rating, cfg, rng=rng, stochastic=cfg.stochastic_train)
                        policy_acc = pg if policy_acc is None else [
                            a + g for a, g in zip(policy_acc, pg)]
                        n_policy += 1
                        if policy_grad_hook is not None:
                            policy_grad_hook(st.stream.user, t, pg, v)
                        st.queue.push(inter_zhat)

                    # sketch transition
                    if len(st.sketch) + len(st.pending) <= cfg.sketch_size:
                        state_entries = tuple(st.sketch.entries) + tuple(st.pending)
                        st.sketch = Sketch(cfg.sketch_size, data.n_items, state_entries)
                        st.pending = []
                        if trace_file is not None:
                            _trace(trace_file, st, t, x_t, kept=None, absorbed=True)
                    elif len(st.pending) == cfg.tau:
                        _update_sketch(st, rec, phi, cfg, rng, t, oracle_anchors)
                        if trace_file is not None:
                            _trace(trace_file, st, t, x_t,
                                   kept=sorted(st.sketch.items().tolist()), absorbed=False)

                if n_theta:
                    opt_user.step([theta_acc[0] / n_theta])
                    opt_item.step([g / n_theta for g in theta_acc[1:]])
                if learned and n_policy:
                    opt_policy.step([g / n_policy for g in policy_acc])

        if validate_each_epoch and data.valid:
            aggregates = met.evaluate(rec, phi, data.valid, cfg)
            for name, value in aggregates.items():
                metric_log.append(_record(cfg, epoch, "valid", name, value))
    return TrainResult(rec=rec, phi=phi, metric_log=metric_log)


def _record(cfg, epoch, split, metric, value):
    return {
        "epoch": epoch, "split": split, "metric": metric, "value": value,
        "K": cfg.sketch_size, "tau": cfg.tau, "policy": cfg.policy, "seed": cfg.seed,
    }


def _trace(fh, state, t, incoming, kept, absorbed):
    fh.write(json.dumps({
        "user": int(state.stream.user),
        "step": int(t),
        "incoming": int(incoming),
        "kept": kept if kept is not None else sorted(state.sketch.items().tolist()),
        "absorbed": bool(absorbed),
    }) + "\n")


def save_checkpoint(path, rec: RecParams, phi: PolicyParams, cfg: TrainConfig):
    """Write the parameters and config to ``path`` atomically.

    The archive goes to a temporary file in the same directory, which then
    replaces ``path``; a failed write leaves the previous checkpoint intact.
    Like ``np.savez``, a name without the ``.npz`` suffix gets one.
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
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{os.getpid()}.{tail}")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    with np.load(path) as data:
        if int(data["version"][0]) != 1:
            raise ValueError(f"unsupported checkpoint version {data['version'][0]}")
        meta = json.loads(bytes(data["meta"]).decode())
        cfg = TrainConfig(**meta)
        rec = RecParams(n_items=data["rec_item_emb"].shape[0], dim=cfg.dim,
                        hidden=cfg.hidden, setting=cfg.setting)
        rec.load_arrays({n: data[f"rec_{n}"] for n in rec.param_names()})
        phi = PolicyParams(rec.n_items, hidden=cfg.policy_hidden,
                           dropout_rate=cfg.policy_dropout_rate)
        phi.load_arrays({n: data[f"phi_{n}"] for n in phi.param_names()})
    return rec, phi, cfg
