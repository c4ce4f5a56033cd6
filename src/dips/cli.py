"""Experiment driver: flat key=value configs, train/eval/gradcheck/diagnose
subcommands, deterministic artifacts plus a run manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import datasets as ds
from . import diagnostics as dg
from . import metrics as met
from . import policies as pol
from . import recmodel as rm
from . import trainer as tr
from .diffcore import GraphError, ShapeError, Tensor
from . import diffcore as dc

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    pass


# every recognized key with its default; values are parsed to the default's type
DEFAULTS = {
    "data.kind": "synth",          # synth | movielens-dat | csv
    "data.path": "",
    "data.min_ratings": 20,
    "data.k_core": 0,              # 0 disables the filter
    "data.split_seed": 0,
    "synth.n_users": 200,
    "synth.n_items": 100,
    "synth.length": 30,
    "synth.n_anchors": 3,
    "synth.n_groups": 4,
    "synth.anchor_weight": 1.5,
    "synth.noise": 0.6,
    "synth.user_bias_std": 0.0,
    "synth.junk_prob": 0.0,
    "synth.filler_like_prob": 0.75,
    "synth.clip": True,
    "synth.seed": 0,
    "train.sketch_size": 4,
    "train.tau": 1,
    "train.queue_size": 50,
    "train.inner_steps": 5,
    "train.inner_lr": 0.2,
    "train.lr_user": 1e-4,
    "train.lr_item": 2e-5,
    "train.lr_policy": 2e-4,
    "train.batch_size": 32,
    "train.epochs": 1,
    "train.seed": 0,
    "train.mode": "online",
    "train.setting": "explicit",
    "train.policy": "dips",
    "train.dim": 32,
    "train.hidden": 64,
    "train.policy_hidden": 128,
    "train.policy_dropout_rate": 0.10,
    "train.stochastic": True,
    "eval.k": 20,
    "eval.exclude_history": False,
    "eval.seeds": "0",
    "eval.policies": "",           # empty -> train.policy only
    "eval.sketch_sizes": "",       # empty -> train.sketch_size only
    "eval.taus": "",
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
    base = dict(
        sketch_size=cfg["train.sketch_size"], tau=cfg["train.tau"],
        queue_size=cfg["train.queue_size"], inner_steps=cfg["train.inner_steps"],
        inner_lr=cfg["train.inner_lr"], lr_user=cfg["train.lr_user"],
        lr_item=cfg["train.lr_item"], lr_policy=cfg["train.lr_policy"],
        batch_size=cfg["train.batch_size"], epochs=cfg["train.epochs"],
        seed=cfg["train.seed"], mode=cfg["train.mode"],
        setting=cfg["train.setting"], policy=cfg["train.policy"],
        dim=cfg["train.dim"], hidden=cfg["train.hidden"],
        policy_hidden=cfg["train.policy_hidden"],
        policy_dropout_rate=cfg["train.policy_dropout_rate"],
        stochastic_train=cfg["train.stochastic"])
    base.update(kw)
    try:
        return tr.TrainConfig(**base)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def load_data(cfg):
    """Returns (DatasetSplits, oracle_anchors-or-None)."""
    kind = cfg["data.kind"]
    if kind == "synth":
        sd = ds.synth_stream(
            ds.SynthConfig(n_users=cfg["synth.n_users"], n_items=cfg["synth.n_items"],
                           length=cfg["synth.length"], n_anchors=cfg["synth.n_anchors"],
                           n_groups=cfg["synth.n_groups"],
                           anchor_weight=cfg["synth.anchor_weight"],
                           noise=cfg["synth.noise"],
                           user_bias_std=cfg["synth.user_bias_std"],
                           junk_prob=cfg["synth.junk_prob"],
                           filler_like_prob=cfg["synth.filler_like_prob"],
                           clip=cfg["synth.clip"], setting=cfg["train.setting"]),
            seed=cfg["synth.seed"], split=ds.SplitSpec(seed=cfg["data.split_seed"]))
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


def _write_manifest(out_dir, cfg, artifacts):
    manifest = {"config": cfg, "artifacts": sorted(artifacts)}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def cmd_train(cfg):
    out_dir = cfg["out.dir"]
    os.makedirs(out_dir, exist_ok=True)
    tcfg = train_config(cfg)
    data, anchors = load_data(cfg)
    trace_path = os.path.join(out_dir, "sketch_trace.jsonl")
    with open(trace_path, "w") as trace:
        result = tr.train(tcfg, data, oracle_anchors=anchors, trace_file=trace)
    ckpt = os.path.join(out_dir, "checkpoint.npz")
    tr.save_checkpoint(ckpt, result.rec, result.phi, tcfg)
    log_path = os.path.join(out_dir, "metrics.jsonl")
    with open(log_path, "w") as fh:
        for record in result.metric_log:
            fh.write(json.dumps(record) + "\n")
    _write_manifest(out_dir, cfg, ["checkpoint.npz", "metrics.jsonl",
                                   "sketch_trace.jsonl", "manifest.json"])
    print(f"wrote {ckpt}")
    return EXIT_OK


def _int_list(raw, fallback):
    if not raw.strip():
        return [fallback]
    return [int(x) for x in raw.split(",") if x.strip()]


def cmd_eval(cfg, checkpoint):
    if not os.path.exists(checkpoint):
        raise ConfigError(f"checkpoint not found: {checkpoint}")
    rec, phi, ckpt_cfg = tr.load_checkpoint(checkpoint)
    data, _ = load_data(cfg)
    if data.n_items != rec.n_items:
        raise ConfigError(
            f"checkpoint/config mismatch: checkpoint has {rec.n_items} items, "
            f"dataset has {data.n_items}")
    if ckpt_cfg.dim != cfg["train.dim"]:
        raise ConfigError(
            f"checkpoint/config mismatch: checkpoint dim {ckpt_cfg.dim}, "
            f"config dim {cfg['train.dim']}")
    policies = [p for p in cfg["eval.policies"].split(",") if p.strip()] \
        or [cfg["train.policy"]]
    for p in policies:
        if p not in tr.POLICIES:
            raise ConfigError(f"unknown eval policy {p!r}")
    sketch_sizes = _int_list(cfg["eval.sketch_sizes"], cfg["train.sketch_size"])
    taus = _int_list(cfg["eval.taus"], cfg["train.tau"])
    seeds = _int_list(cfg["eval.seeds"], 0)
    # the tau=1 head removes the highest score, the top-K head keeps the
    # highest scores, so a trained policy reads inverted across tau=1
    learned = [p for p in policies if p in tr.LEARNED_POLICIES]
    crossing = [t for t in taus if (t == 1) != (ckpt_cfg.tau == 1)]
    if learned and crossing and ckpt_cfg.policy in tr.LEARNED_POLICIES:
        raise ConfigError(
            f"checkpoint was trained at tau={ckpt_cfg.tau}, so policy "
            f"{learned[0]!r} cannot be evaluated at eval.taus entry {crossing[0]}: "
            f"the tau=1 and tau>1 heads read the scores with opposite signs")

    rows = {}
    for policy in policies:
        for K in sketch_sizes:
            for tau in taus:
                for seed in seeds:
                    cell = train_config(cfg, policy=policy, sketch_size=K, tau=tau,
                                        mode="online" if tau == 1 else "batch",
                                        seed=seed)
                    agg = met.evaluate(rec, phi, data.test, cell, k=cfg["eval.k"],
                                       exclude_history=cfg["eval.exclude_history"],
                                       seed=seed)
                    for name, value in agg.items():
                        rows.setdefault((policy, K, tau, name), []).append(value)
    out_dir = cfg["out.dir"]
    os.makedirs(out_dir, exist_ok=True)
    table = met.summary_table(rows)
    table_path = os.path.join(out_dir, "eval.csv")
    with open(table_path, "w") as fh:
        fh.write(table)
    _write_manifest(out_dir, cfg, ["eval.csv", "manifest.json"])
    print(table, end="")
    return EXIT_OK


# ------------------------------------------------------------- gradcheck

def _check_mlp_grads():
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    x = rng.normal(size=4)

    def loss_value():
        h = dc.sigmoid(dc.matmul(Tensor(x), w) + b)
        return dc.tsum(h * h)

    grads = dc.grad(loss_value(), [w, b])
    worst = 0.0
    h = 1e-6
    for p, g in zip((w, b), grads):
        flat, gflat = p.data.reshape(-1), g.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_value().item()
            flat[i] = orig - h
            lm = loss_value().item()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8))
    return worst, 1e-4


def _meta_setup():
    rng = np.random.default_rng(1)
    rec = rm.RecParams(n_items=5, dim=3, hidden=4, setting="explicit", rng=rng)
    items = rng.choice(5, size=3, replace=False)
    mask = np.zeros(5)
    y = np.zeros(5)
    mask[items] = 1
    y[items] = rng.uniform(1, 5, size=3)
    z = np.zeros(5)
    z[items[:2]] = 1.0
    cfg = tr.TrainConfig(sketch_size=2, inner_steps=2, inner_lr=0.2,
                         dim=3, hidden=4, policy_hidden=8)
    return rec, z, y, mask, int(items[2]), float(y[items[2]]), cfg


def _check_meta_gradient():
    rec, z, y, mask, nxt, r, cfg = _meta_setup()
    grads, _ = tr.theta_gradients(rec, z, y, mask, nxt, r, cfg)

    def loss_value():
        theta = tr.inner_adapt(rec, z, y, mask, cfg.inner_lr, cfg.inner_steps,
                               record=False)
        return rm.next_item_loss(theta, nxt, r).item()

    worst = 0.0
    h = 1e-5
    rng = np.random.default_rng(2)
    for p, g in zip(rec.all_params(), grads):
        flat, gflat = p.data.reshape(-1), np.asarray(g).reshape(-1)
        for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_value()
            flat[i] = orig - h
            lm = loss_value()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6))
    return worst, 1e-3


def _check_grad_wrt_sketch():
    rec, z, y, mask, nxt, r, cfg = _meta_setup()
    v = tr.grad_wrt_sketch(rec, z, y, mask, nxt, r, cfg)

    def loss_with(zv):
        theta = tr.inner_adapt(rec, zv, y, mask, cfg.inner_lr, cfg.inner_steps,
                               record=False)
        return rm.next_item_loss(theta, nxt, r).item()

    worst = 0.0
    for j in np.flatnonzero(mask):
        zp, zm = z.copy(), z.copy()
        zp[j] += 1e-4
        zm[j] = max(zm[j] - 1e-4, 0.0)
        fd = (loss_with(zp) - loss_with(zm)) / (zp[j] - zm[j])
        worst = max(worst, abs(fd - v[j]) / max(abs(fd), abs(v[j]), 1e-6))
    return worst, 1e-3


def _check_topk_grad():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        f = rng.normal(size=10)
        k = int(rng.integers(1, 9))
        scores = Tensor(f, requires_grad=True)
        u = pol.topk_project(scores, k)
        v = rng.normal(size=10)
        (g,) = dc.grad(dc.tsum(u * Tensor(v)), [scores])
        h = 1e-6
        for i in range(10):
            fp, fm = f.copy(), f.copy()
            fp[i] += h
            fm[i] -= h
            up = pol.topk_project(Tensor(fp), k).data
            um = pol.topk_project(Tensor(fm), k).data
            fd = float(v @ (up - um)) / (2 * h)
            worst = max(worst, abs(fd - g.data[i]) / max(abs(fd), abs(g.data[i]), 1e-6))
    return worst, 1e-3


GRADCHECKS = [
    ("diffcore_mlp_grads", _check_mlp_grads),
    ("meta_gradient_unrolled", _check_meta_gradient),
    ("grad_wrt_sketch", _check_grad_wrt_sketch),
    ("topk_grad", _check_topk_grad),
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
    data, _ = load_data(cfg)
    if cfg["synth.length"] > cfg["diagnose.max_len"]:
        raise ConfigError(
            f"diagnose: stream length {cfg['synth.length']} exceeds limit "
            f"{cfg['diagnose.max_len']}")
    tcfg = train_config(cfg, queue_size=cfg["train.queue_size"])
    stream = data.train[0]
    captured = {}
    res = tr.train(tcfg, ds.DatasetSplits([stream], [], [], data.n_items),
                   validate_each_epoch=False,
                   policy_grad_hook=lambda u, t, g, v: captured.update(
                       {t: [x.copy() for x in g]}))
    out_dir = cfg["out.dir"]
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "diagnose.jsonl")
    n = 0
    with open(report_path, "w") as fh:
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
    _write_manifest(out_dir, cfg, ["diagnose.jsonl", "manifest.json"])
    return EXIT_OK


def cmd_dump_trace(cfg):
    out_dir = cfg["out.dir"]
    os.makedirs(out_dir, exist_ok=True)
    tcfg = train_config(cfg)
    data, anchors = load_data(cfg)
    trace_path = os.path.join(out_dir, "sketch_trace.jsonl")
    with open(trace_path, "w") as trace:
        tr.train(tcfg, data, oracle_anchors=anchors, trace_file=trace,
                 validate_each_epoch=False)
    _write_manifest(out_dir, cfg, ["sketch_trace.jsonl", "manifest.json"])
    print(f"wrote {trace_path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dips", description="Sketch-policy recommender experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "eval", "diagnose", "dump-trace"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        if name == "eval":
            p.add_argument("--checkpoint", required=True)
    sub.add_parser("gradcheck")
    return parser


def _apply_thread_limit():
    """Honor DIPS_THREADS by capping the BLAS/OpenMP pools numpy uses."""
    n = os.environ.get("DIPS_THREADS", "").strip()
    if not n:
        return
    if not n.isdigit() or int(n) < 1:
        raise ConfigError(f"DIPS_THREADS must be a positive integer, got {n!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = n


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _apply_thread_limit()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
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
        if args.command == "dump-trace":
            return cmd_dump_trace(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ds.DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (GraphError, ShapeError, np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
