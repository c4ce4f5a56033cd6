"""Experiment driver: flat key=value configs, train/eval/gradcheck/diagnose
subcommands, deterministic artifacts plus a run manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import platform
import sys
import time

import numpy as np

from . import datasets as ds
from . import diagnostics as dg
from . import metrics as met
from . import policies as pol
from . import recmodel as rm
from . import trainer as tr

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    pass


def _field_keys(cls, prefix, exceptions):
    """Each field of the dataclass ``cls`` and the config key that sets it:
    ``prefix.field`` unless ``exceptions`` names another key, or None for a
    field no key sets."""
    return {f.name: key for f in dataclasses.fields(cls)
            if (key := exceptions.get(f.name, f"{prefix}.{f.name}")) is not None}


# The train.* and synth.* keys are the fields of TrainConfig and SynthConfig,
# with their defaults; the only exceptions are these.  weight_decay keeps the
# library's default, and SynthConfig's setting is the run's train.setting.
TRAIN_KEYS = _field_keys(tr.TrainConfig, "train",
                         {"stochastic_train": "train.stochastic", "weight_decay": None})
SYNTH_KEYS = _field_keys(ds.SynthConfig, "synth", {"setting": "train.setting"})

# every recognized key with its default; values are parsed to the default's type
DEFAULTS = {
    "data.kind": "synth",          # synth | movielens-dat | csv
    "data.path": "",
    "data.min_ratings": 20,
    "data.k_core": 0,              # 0 disables the filter
    "data.split_seed": 0,
    **{key: getattr(ds.SynthConfig, name) for name, key in SYNTH_KEYS.items()
       if key.startswith("synth.")},
    "synth.seed": 0,
    **{key: getattr(tr.TrainConfig, name) for name, key in TRAIN_KEYS.items()},
    "eval.k": 20,
    "eval.exclude_history": False,
    "eval.seeds": "0",
    "eval.policies": "",           # empty -> train.policy only
    "eval.sketch_sizes": "",       # empty -> the checkpoint's sketch_size only
    "eval.taus": "",               # empty -> the checkpoint's tau only
    "diagnose.probe_steps": 10,
    "diagnose.max_len": 50,
    "diagnose.max_items": 100,
    "out.dir": "runs/latest",
}


def _parse_value(key, raw):
    default = DEFAULTS[key]
    try:
        if isinstance(default, bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError as e:
        raise ConfigError(f"config key {key}: {e}") from None


def parse_config(path=None, overrides=()):
    """Resolve config file + key=value overrides against the defaults."""
    cfg = dict(DEFAULTS)

    def apply(key, raw, where):
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        cfg[key] = _parse_value(key, raw.strip())

    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key = value")
                key, raw = line.split("=", 1)
                apply(key, raw, f"{path}:{line_no}")
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r}: expected key=value")
        key, raw = ov.split("=", 1)
        apply(key, raw, "command line")
    return cfg


def train_config(cfg, **kw):
    base = {name: cfg[key] for name, key in TRAIN_KEYS.items()}
    base.update(kw)
    try:
        return tr.TrainConfig(**base)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def load_data(cfg):
    """Returns (DatasetSplits, oracle_anchors-or-None)."""
    for key in ("synth.seed", "data.split_seed"):
        if cfg[key] < 0:
            raise ConfigError(f"{key} must be >= 0, got {cfg[key]}")
    kind = cfg["data.kind"]
    if kind == "synth":
        try:
            synth = ds.SynthConfig(**{name: cfg[key] for name, key in SYNTH_KEYS.items()})
        except ValueError as e:
            raise ConfigError(f"synth.{e}") from None
        sd = ds.synth_stream(synth, seed=cfg["synth.seed"],
                             split=ds.SplitSpec(seed=cfg["data.split_seed"]))
        return sd.splits, sd.anchors
    if kind not in ("movielens-dat", "csv"):
        raise ConfigError(f"data.kind must be synth, movielens-dat or csv, got {kind!r}")
    if not cfg["data.path"]:
        raise ConfigError("data.path is required for file-backed datasets")
    if cfg["train.setting"] == rm.IMPLICIT:
        streams, catalog = ds.load_implicit(cfg["data.path"], fmt=kind,
                                            min_ratings=cfg["data.min_ratings"])
    else:
        streams, catalog = ds.load_explicit(cfg["data.path"], fmt=kind,
                                            min_ratings=cfg["data.min_ratings"])
    if cfg["data.k_core"] > 0:
        streams = ds.k_core_filter(streams, k=cfg["data.k_core"])
    train, valid, test = ds.split_users(streams, ds.SplitSpec(seed=cfg["data.split_seed"]))
    return ds.DatasetSplits(train, valid, test, catalog.n_items), None


def _out_dir(cfg):
    """Make the directory ``out.dir`` unless it exists; returns its path."""
    path = cfg["out.dir"]
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:    # "" or a file on the path
        raise ConfigError(f"out.dir {path!r}: {e.strerror}") from None
    return path


def _write_manifest(files, out_dir, cfg, artifacts, started):
    """Write ``manifest.json`` into the open ``trainer.atomic_files`` group;
    written last, it is also the last file the group moves into place.

    Besides the config and the artefacts it records the Python and numpy
    versions and ``wall_s``, the seconds since ``started`` (the command's
    ``time.perf_counter()`` at its start).  No other artefact holds either.
    """
    manifest = {"config": cfg, "artifacts": sorted(artifacts),
                "versions": {"python": platform.python_version(), "numpy": np.__version__},
                "wall_s": time.perf_counter() - started}
    path = os.path.join(out_dir, "manifest.json")
    with files.open(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def cmd_train(cfg):
    started = time.perf_counter()
    tcfg = train_config(cfg)
    data, anchors = load_data(cfg)
    _check_anchors([tcfg.policy], anchors)
    out_dir = _out_dir(cfg)
    ckpt = os.path.join(out_dir, "checkpoint.npz")
    # the four artefacts replace an earlier run's only once all are written
    with tr.atomic_files() as files:
        with files.open(os.path.join(out_dir, "sketch_trace.jsonl")) as trace:
            result = tr.train(tcfg, data, oracle_anchors=anchors, trace_file=trace)
        tr.save_checkpoint(ckpt, result.rec, result.phi, tcfg, files=files)
        with files.open(os.path.join(out_dir, "metrics.jsonl")) as fh:
            for record in result.metric_log:
                fh.write(json.dumps(record) + "\n")
        _write_manifest(files, out_dir, cfg, ["checkpoint.npz", "metrics.jsonl",
                                              "sketch_trace.jsonl", "manifest.json"], started)
    print(f"wrote {ckpt}")
    return EXIT_OK


def _int_list(cfg, key, fallback):
    """The comma-separated integers of ``cfg[key]``, or ``[fallback]`` if it
    lists none."""
    try:
        return [int(x) for x in cfg[key].split(",") if x.strip()] or [fallback]
    except ValueError:
        raise ConfigError(f"config key {key}: expected comma-separated integers, "
                          f"got {cfg[key]!r}") from None


def _check_anchors(policies, anchors):
    """``oracle`` keeps the anchors planted in synthetic data; file-backed
    data has none (``anchors`` None)."""
    if "oracle" in policies and anchors is None:
        raise ConfigError("policy oracle needs the planted anchors of synthetic data "
                          "(data.kind=synth)")


def cmd_eval(cfg, checkpoint):
    started = time.perf_counter()
    if not os.path.exists(checkpoint):
        raise ConfigError(f"checkpoint not found: {checkpoint}")
    if cfg["eval.k"] < 1:
        raise ConfigError(f"eval.k must be >= 1, got {cfg['eval.k']}")
    rec, phi, ckpt_cfg = tr.load_checkpoint(checkpoint)
    data, anchors = load_data(cfg)
    if data.n_items != rec.n_items:
        raise ConfigError(
            f"checkpoint/config mismatch: checkpoint has {rec.n_items} items, "
            f"dataset has {data.n_items}")
    for key in ("dim", "setting"):
        if getattr(ckpt_cfg, key) != cfg[f"train.{key}"]:
            raise ConfigError(
                f"checkpoint/config mismatch: checkpoint {key} {getattr(ckpt_cfg, key)}, "
                f"config {key} {cfg[f'train.{key}']}")
    policies = [p for p in cfg["eval.policies"].split(",") if p.strip()] \
        or [cfg["train.policy"]]
    for p in policies:
        if p not in tr.POLICIES:
            raise ConfigError(f"unknown eval policy {p!r}")
    _check_anchors(policies, anchors)
    grid = itertools.product(
        policies, _int_list(cfg, "eval.sketch_sizes", ckpt_cfg.sketch_size),
        _int_list(cfg, "eval.taus", ckpt_cfg.tau), _int_list(cfg, "eval.seeds", 0))
    # every cell's config is checked before the first evaluation; an error
    # in a cell's sketch_size, tau or seed names the eval list that set it
    cells = []
    for policy, K, tau, seed in grid:
        try:
            cells.append(train_config(cfg, policy=policy, sketch_size=K, tau=tau,
                                      mode="online" if tau == 1 else "batch", seed=seed))
        except ConfigError as e:
            # TrainConfig's messages begin with the field they name
            key = {"sketch_size": "eval.sketch_sizes", "tau": "eval.taus",
                   "seed": "eval.seeds"}.get(str(e).split(" ", 1)[0])
            if key is None:
                raise
            raise ConfigError(f"{e} (from {key}={cfg[key]})") from None
    out_dir = _out_dir(cfg)
    rows = {}
    for cell in cells:
        agg = met.evaluate(rec, phi, data.test, cell, k=cfg["eval.k"],
                           exclude_history=cfg["eval.exclude_history"], seed=cell.seed,
                           anchors=anchors)
        for name, value in agg.items():
            rows.setdefault((cell.policy, cell.sketch_size, cell.tau, name), []).append(value)
    table = met.summary_table(rows)
    with tr.atomic_files() as files:
        with files.open(os.path.join(out_dir, "eval.csv")) as fh:
            fh.write(table)
        _write_manifest(files, out_dir, cfg, ["eval.csv", "manifest.json"], started)
    print(table, end="")
    return EXIT_OK


# ------------------------------------------------------------- gradcheck

def _fd_error(f, x, grad, points, h, floor, lower=None):
    """The worst relative error of ``grad`` against central differences
    (f(x + h e_i) - f(x - h e_i)) / 2h at each flat index i in ``points``.

    ``x`` (contiguous) is moved in place and restored; ``f()`` reads it and
    returns a number or an array.  ``grad`` holds one row per entry of
    ``x``: its entries shaped like ``x``, or rows shaped like f's value.
    With ``lower`` the minus step stops at that bound, and the difference
    divides by the step taken.
    """
    flat = x.reshape(-1)
    rows = np.reshape(grad, (x.size, -1))
    worst = 0.0
    for i in points:
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h if lower is None else max(orig - h, lower)
        fm = f()
        step = 2 * h if lower is None else (orig + h) - flat[i]
        flat[i] = orig
        fd = (np.asarray(fp) - fm) / step
        err = np.abs(fd - rows[i]) / np.maximum(np.maximum(np.abs(fd), np.abs(rows[i])), floor)
        worst = max(worst, float(err.max()))
    return worst


def _check_policy_backward():
    # the policy network's closed-form backward on the live columns, dropout
    # on, against central differences of sum(g * scores) over the finite
    # scores of a stack, at every parameter entry: the rows share some
    # items and not others, items 2 and 6 are in no row, and the gradients
    # are scattered onto phi's shapes as training adds them; biases clear
    # of zero keep a row whose units all drop out off the relu kinks
    rng = np.random.default_rng(0)
    phi = pol.PolicyParams(8, hidden=5, rng=rng)
    for b in (phi.b1, phi.b2):
        b[:] = rng.uniform(0.1, 0.5, size=b.shape)
    zhat = np.array([[1.0, 1, 0, 1, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0, 0, 1],
                     [1, 0, 0, 1, 1, 1, 0, 0]])
    y = zhat * rng.uniform(1, 5, size=zhat.shape)
    cols = np.flatnonzero(zhat.any(axis=0))
    live = zhat[:, cols] > 0
    g = np.where(live, rng.normal(size=live.shape), 0.0)

    def scores():
        return pol.policy_scores(zhat, y, phi, 0.3, rng=np.random.default_rng(7), cols=cols)

    def value():
        return float(np.sum(g[live] * scores().data[live]))

    grads = tr.PolicyGradBuffer(phi)
    grads.add(scores().grads(g), cols)
    return max(_fd_error(value, p, gp, range(p.size), 1e-6, 1e-8)
               for p, gp in zip(phi.params(), grads.grads)), 1e-4


def _meta_setup(setting):
    """A stack of three users: intermediate indicators, ratings and mask
    (3, 8), next items and ratings (3,), and the config.

    Each user has four interacted items, the last one next.  Users 0 and 2
    hold three items in their indicators, user 1 only one, so the online
    head removes it and user 1's selection weights nothing.
    """
    rng = np.random.default_rng(1)
    rec = rm.RecParams(n_items=8, dim=3, hidden=6, setting=setting, rng=rng)
    rec.b1[:] = 0.2
    zhat, y, mask = np.zeros((3, 3, 8))
    nxt = []
    for b in range(3):
        items = rng.choice(8, size=4, replace=False)
        mask[b, items] = 1
        y[b, items] = rng.uniform(1, 5, size=4) if setting == rm.EXPLICIT else 1.0
        zhat[b, items[:1 if b == 1 else 3]] = 1.0
        nxt.append(items[3])
    nxt = np.array(nxt)
    cfg = tr.TrainConfig(sketch_size=2, inner_steps=2, inner_lr=0.2, setting=setting,
                         dim=3, hidden=6, policy_hidden=8, stochastic_train=False)
    return rec, zhat, y, mask, nxt, y[np.arange(3), nxt], cfg


def _margin(rec, u, rows, items):
    """The least |relu pre-activation| of the tower at the stack ``u``:
    of each (row, item) pair (explicit) or each row (implicit)."""
    x = u if rec.setting == rm.IMPLICIT else np.concatenate(
        [u[rows], rec.item_emb[items]], axis=1)
    return np.min(np.abs(x @ rec.w1 + rec.b1))


def _kink_margin(rec, z, y, mask, cfg):
    """The least margin over the inner steps, at every interacted item;
    finite differences need it clear of 0."""
    rows, items = np.nonzero(mask)
    return min(_margin(rec, tr.inner_adapt(rec, z, y, mask, cfg.inner_lr, k), rows, items)
               for k in range(cfg.inner_steps + 1))


def _next_item_loss(rec, z, y, mask, nxt, r, cfg):
    """The next-item loss after the inner loop on the sketch ``z``, as the
    reverse pass computes it."""
    return rm.unrolled_backward(rec, z, y, mask, nxt, r, cfg.inner_lr, cfg.inner_steps,
                                theta=False)[2]


def _sketch_loss(rec, u, z, y):
    """The value of :func:`recmodel.sketch_loss` at the stack ``u`` from the
    graph-free forward, over the entries ``z`` weights."""
    rows, items = np.nonzero(z)
    if rec.setting == rm.EXPLICIT:
        d = rm.user_forward(rec, u, items, rows)[0] - y[rows, items]
        return float(np.sum(z[rows, items] * d * d))
    s = rm.user_forward(rec, u)[0]
    top = np.max(s, axis=-1)
    lse = np.log(np.sum(np.exp(s - top[:, None]), axis=-1)) + top
    return float(np.sum(z[rows, items] * (lse[rows] - s[rows, items])))


def _check_meta_gradient():
    # the reverse pass of theta_gradients against finite differences of
    # the inner loop, in both settings, for a stack whose middle row
    # weights nothing
    worst = 0.0
    h = 1e-5
    for setting in (rm.EXPLICIT, rm.IMPLICIT):
        rec, zhat, y, mask, nxt, r, cfg = _meta_setup(setting)
        z = zhat * np.random.default_rng(3).uniform(0.5, 1.5, size=zhat.shape)
        z[1] = 0.0
        if _kink_margin(rec, z, y, mask, cfg) <= 1e-3:
            return np.inf, 1e-3
        grads, _ = tr.theta_gradients(rec, z, y, mask, nxt, r, cfg)
        rng = np.random.default_rng(2)
        for p, g in zip(rec.params(), grads):
            points = rng.choice(p.size, size=min(3, p.size), replace=False)
            worst = max(worst, _fd_error(lambda: _next_item_loss(rec, z, y, mask, nxt, r, cfg),
                                         p, g, points, h, 1e-6))
    return worst, 1e-3


def _check_grad_wrt_sketch():
    # the v that policy_gradient returns, against finite differences of the
    # loss over the sketch z it selected, at every interacted item of a
    # stack whose middle row's selection weights nothing, in both settings
    worst = 0.0
    for setting in (rm.EXPLICIT, rm.IMPLICIT):
        rec, zhat, y, mask, nxt, r, cfg = _meta_setup(setting)
        phi = pol.PolicyParams(rec.n_items, hidden=cfg.policy_hidden,
                               rng=np.random.default_rng(4))
        _, v, z, _ = tr.policy_gradient(phi, rec, y, mask, zhat, [[], [], []], nxt, r, cfg)
        if np.any(z[1]) or _kink_margin(rec, z, y, mask, cfg) <= 1e-3:
            return np.inf, 1e-3
        worst = max(worst, _fd_error(lambda: _next_item_loss(rec, z, y, mask, nxt, r, cfg),
                                     z, v, np.flatnonzero(mask), 1e-4, 1e-6, lower=0.0))
    return worst, 1e-3


def _check_topk_grad():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        f = rng.normal(size=10)
        k = int(rng.integers(1, 9))
        u = pol.topk_project(f, k).data
        v = rng.normal(size=10)
        g = pol.topk_grad(f, u, v)
        worst = max(worst, _fd_error(lambda: v @ pol.topk_project(f, k).data, f, g, range(10),
                                     1e-6, 1e-6))
    return worst, 1e-3


def _check_sketch_gradient():
    # the closed-form gradient every graph-free inner step takes, against
    # central differences of the sketch loss, for a stack whose middle row
    # weights nothing and for its first row alone, at a point where no relu
    # pre-activation changes sign within the step
    h = 1e-5
    worst = 0.0
    for setting in (rm.EXPLICIT, rm.IMPLICIT):
        rng = np.random.default_rng(6)
        rec = rm.RecParams(n_items=8, dim=3, hidden=6, setting=setting, rng=rng)
        mask = np.zeros((3, 8))
        for row in mask:
            row[rng.choice(8, size=4, replace=False)] = 1.0
        y = mask * rng.uniform(1, 5, size=mask.shape) if setting == rm.EXPLICIT else mask
        z = mask * rng.uniform(0.5, 1.5, size=mask.shape)
        z[1] = 0.0
        u0 = rng.normal(size=(3, 3))
        if _margin(rec, u0, *np.nonzero(mask)) <= h * np.abs(rec.w1[:3]).sum(axis=0).max():
            return np.inf, 1e-5
        for zc, yc, mc, uc in ((z, y, mask, u0), (z[:1], y[:1], mask[:1], u0[:1])):
            grad = rm.sketch_gradient(rec, uc, zc, yc, mc)
            worst = max(worst, _fd_error(lambda: _sketch_loss(rec, uc, zc, yc), uc, grad,
                                         range(uc.size), h, 1e-6))
    return worst, 1e-5


def _check_influence_derivatives():
    # the closed-form derivatives influence reads: each entry's gradient
    # against central differences of its entry loss, and the Hessian
    # against central differences of the summed gradient, at a point where
    # no relu pre-activation changes sign within the step
    h = 1e-5
    worst = 0.0
    for setting in (rm.EXPLICIT, rm.IMPLICIT):
        rng = np.random.default_rng(5)
        rec = rm.RecParams(n_items=8, dim=3, hidden=6, setting=setting, rng=rng)
        u0 = rng.normal(size=3)
        items = rng.choice(8, size=5, replace=False)
        ratings = rng.uniform(1, 5, size=5)
        if _margin(rec, u0[None], np.zeros(5, int), items) <= (
                h * np.abs(rec.w1[:3]).sum(axis=0).max()):
            return np.inf, 1e-5
        entries = [pol.SketchEntry(int(j), float(r), 0) for j, r in zip(items, ratings)]

        def gradient_sum():
            return rm.user_derivatives(rec, u0, items, ratings)[0].sum(axis=0)

        grads, hess = rm.user_derivatives(rec, u0, items, ratings)
        worst = max(worst, _fd_error(lambda: pol.entry_losses(rec, u0, entries), u0, grads.T,
                                     range(3), h, 1e-6),
                    _fd_error(gradient_sum, u0, hess.T, range(3), h, 1e-6))
    return worst, 1e-5


GRADCHECKS = [
    ("policy_backward", _check_policy_backward),
    ("sketch_gradient", _check_sketch_gradient),
    ("meta_gradient_unrolled", _check_meta_gradient),
    ("grad_wrt_sketch", _check_grad_wrt_sketch),
    ("topk_grad", _check_topk_grad),
    ("influence_derivatives", _check_influence_derivatives),
]


def run_gradchecks(out=sys.stdout):
    """Run every registered finite-difference oracle once; returns failures."""
    failures = []
    for name, fn in GRADCHECKS:
        err, tol = fn()
        ok = err <= tol
        out.write(f"{'PASS' if ok else 'FAIL'} {name}: max rel error "
                  f"{err:.2e} (tolerance {tol:.0e})\n")
        if not ok:
            failures.append(name)
    return failures


def cmd_gradcheck():
    failures = run_gradchecks()
    if failures:
        print(f"gradcheck failed: {', '.join(failures)}")
        return EXIT_NUMERIC
    print("all gradient checks passed")
    return EXIT_OK


def cmd_diagnose(cfg):
    started = time.perf_counter()
    tcfg = train_config(cfg)
    data, anchors = load_data(cfg)
    _check_anchors([tcfg.policy], anchors)
    if tcfg.policy not in tr.LEARNED_POLICIES:
        # only a learned policy has a policy gradient to compare
        raise ConfigError(f"diagnose needs a learned policy: train.policy must be one of "
                          f"{', '.join(tr.LEARNED_POLICIES)}, got {tcfg.policy!r}")
    stream = data.train[0]
    # true_policy_grad rejects these instances too, but only after training
    for what, size, key in (("stream length", len(stream.items), "diagnose.max_len"),
                            ("catalog size", data.n_items, "diagnose.max_items")):
        if size > cfg[key]:
            raise ConfigError(f"diagnose: {what} {size} exceeds the replay limit "
                              f"{key}={cfg[key]}")
    out_dir = _out_dir(cfg)
    captured = {}
    res = tr.train(tcfg, ds.DatasetSplits([stream], [], [], data.n_items),
                   oracle_anchors=anchors, validate_each_epoch=False,
                   policy_grad_hook=lambda u, t, g, v: captured.update(
                       {t: [x.copy() for x in g]}))
    n = 0
    with tr.atomic_files() as files:
        with files.open(os.path.join(out_dir, "diagnose.jsonl")) as fh:
            for t in sorted(captured):
                if n >= cfg["diagnose.probe_steps"]:
                    break
                true_g, _ = dg.true_policy_grad(
                    res.rec, res.phi, stream, tcfg, t,
                    max_len=cfg["diagnose.max_len"], max_items=cfg["diagnose.max_items"])
                rep = dg.direction_stats(captured[t], true_g)
                record = json.loads(rep.to_json())
                record["step"] = t
                fh.write(json.dumps(record) + "\n")
                print(f"step {t}: preserved {rep.preserved:.2f} negated {rep.negated:.2f} "
                      f"zeroed {rep.zeroed:.2f} cosine {rep.cosine:.3f}")
                n += 1
        _write_manifest(files, out_dir, cfg, ["diagnose.jsonl", "manifest.json"], started)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dips", description="Sketch-policy recommender experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "eval", "diagnose"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        if name == "eval":
            p.add_argument("--checkpoint", required=True)
    sub.add_parser("gradcheck")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck()
        cfg = parse_config(args.config, args.overrides)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint)
        if args.command == "diagnose":
            return cmd_diagnose(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ds.DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
