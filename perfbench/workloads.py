"""The benchmark's workloads, their output checks and the timed run loop.

Every workload drives the program through its public API only:
``dips.trainer.train``, ``dips.metrics.evaluate`` and ``dips.cli.main``.
One run sets the workload up several times (the median is ``setup_s``),
then repeats one identical round of the pipeline until the time budget is
spent.  Rounds repeat the same inputs and seeds, so every round must give
bit-identical outputs; that is one of the output checks.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from dips import cli
from dips import datasets as ds
from dips import metrics as mx
from dips import policies as pol
from dips import recmodel as rm
from dips import trainer as tr

import tracer as trc

EVAL_POLICIES = ("dips", "random", "hardest", "influence")

# end-to-end metric name -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "pretrain_steps_per_s": "user-steps/s",
    "train_steps_per_s": "user-steps/s",
    **{f"eval_steps_per_s.{p}": "user-steps/s" for p in EVAL_POLICIES},
    "peak_rss_mb": "MB",
}

# printed with the end-to-end metrics but not gated: failed_frac is 0 on a
# correct run and the gain changes sign between seeds
REPORTED = {"failed_frac": "ratio", "dips_gain_vs_random": "metric units"}


@dataclass(frozen=True)
class Size:
    """User counts and repetitions; the data shapes are fixed per workload."""

    gate5_users: int = 2000     # generated users, as in acceptance gate 5
    gate5_length: int = 40
    train_users: int = 4        # users in pretraining and in policy training
    eval_users: int = 4         # users per evaluated policy
    influence_users: int = 2    # influence is ~10x slower per step
    ml1m_users: int = 5         # generated users, split 60/20/20 by the CLI
    ml1m_length: int = 40
    eval_reps: int = 3          # timed repetitions of each cheap evaluation
    setup_reps: int = 5
    min_rounds: int = 3


FULL = Size()
TINY = Size(gate5_users=40, gate5_length=12, train_users=2, eval_users=2,
            influence_users=1, ml1m_users=5, ml1m_length=16, eval_reps=1,
            setup_reps=1, min_rounds=1)


def eval_reps(size, policy):
    """Short evaluations are timed several times per round, for a steadier
    median; influence is ~10x slower per step and is timed once."""
    return 1 if policy == "influence" else size.eval_reps


@dataclass(frozen=True)
class Op:
    """One timed operation: ``run`` is timed, ``verify`` checks its result
    untimed and returns what must be identical in every round."""

    phase: str
    steps: int            # user-steps one run of the operation performs
    run: Callable
    verify: Callable
    reps: int = 1


class CheckFailed(Exception):
    """An output of the program did not satisfy one of the benchmark's checks."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def user_steps(streams, epochs=1):
    return epochs * sum(max(len(s.items) - 1, 0) for s in streams)


def params_digest(*param_objs):
    """Hash of every parameter array, to compare rounds bit for bit; checks
    on the way that every parameter is finite."""
    h = hashlib.sha256()
    for obj in param_objs:
        for name, arr in sorted(obj.state_arrays().items()):
            a = np.ascontiguousarray(arr)
            check(np.all(np.isfinite(a)), f"non-finite parameter {name}")
            h.update(name.encode())
            h.update(a.tobytes())
    return h.hexdigest()


def check_eval_value(metric, value, n_items):
    check(math.isfinite(value), f"non-finite {metric}: {value}")
    if metric == "rmse":
        check(value >= 0.0, f"negative rmse {value}")
    elif metric.startswith(("recall@", "mrr@")):
        check(0.0 <= value <= 1.0, f"{metric} out of [0, 1]: {value}")
    elif metric == "sq_error":
        check(value >= 0.0, f"negative squared error {value}")
    elif metric == "rank":
        check(1 <= value <= n_items, f"rank {value} out of [1, {n_items}]")


class LossCheck:
    """Records every non-finite outer and policy loss the trainer computes.

    ``train`` discards these losses, so the check wraps the two functions
    that return them.  It only inspects the return value.
    """

    def __init__(self):
        self.bad = 0

    def targets(self):
        return [(tr, "theta_gradients", self._make), (tr, "policy_gradient", self._make)]

    def _make(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not math.isfinite(out[-1]):
                self.bad += 1
            return out
        return wrapper


# --------------------------------------------------------------- gate 5

class Gate5:
    """One seed of the gate-5 pipeline, scaled to ``Size`` users.

    Oracle pretraining of the recommender, then ``dips`` policy training on
    the frozen recommender, then frozen-model evaluation of four policies.
    """

    def __init__(self, setting, seed, size, out_dir):
        self.setting, self.seed, self.size = setting, seed, size
        if setting == rm.EXPLICIT:
            self.dcfg = ds.SynthConfig(
                n_users=size.gate5_users, n_items=500, length=size.gate5_length,
                n_anchors=4, n_groups=2, anchor_weight=0.4, noise=1.0,
                user_bias_std=0.8, junk_prob=0.12, clip=False)
            pre_lr, adapt_lr, pre_epochs = 0.1, 0.1, 2
            self.metric = "rmse"
        else:
            self.dcfg = ds.SynthConfig(
                n_users=size.gate5_users, n_items=500, length=size.gate5_length,
                n_anchors=4, n_groups=2, filler_like_prob=0.75, setting=rm.IMPLICIT)
            pre_lr, adapt_lr, pre_epochs = 2.0, 5.0, 1
            self.metric = "recall@20"
        self.base = tr.TrainConfig(
            sketch_size=4, tau=1, queue_size=0, inner_steps=1, inner_lr=pre_lr,
            lr_user=1e-2, lr_item=1e-2, lr_policy=0.0, batch_size=16,
            epochs=pre_epochs, seed=seed, setting=setting, policy="oracle",
            dim=8, hidden=32)
        self.ev = replace(self.base, inner_lr=adapt_lr)
        self.pcfg = replace(self.ev, policy="dips", queue_size=8, lr_policy=1e-3,
                            lr_user=0.0, lr_item=0.0, epochs=1)

    def setup(self):
        """Generate the data and construct the parameters; returns a digest."""
        data = ds.synth_stream(self.dcfg, seed=self.seed)
        s = self.size
        self.anchors = data.anchors
        self.sub = ds.DatasetSplits(data.splits.train[:s.train_users], [],
                                    data.splits.test[:s.eval_users], self.dcfg.n_items)
        self.eval_users = {p: self.sub.test for p in EVAL_POLICIES}
        self.eval_users["influence"] = self.sub.test[:s.influence_users]
        # parameter construction is part of set-up; the pipeline builds its own
        rng = np.random.default_rng(self.seed)
        rm.RecParams(self.dcfg.n_items, dim=self.base.dim, hidden=self.base.hidden,
                     setting=self.setting, rng=rng)
        pol.PolicyParams(self.dcfg.n_items, hidden=self.base.policy_hidden, rng=rng)
        h = hashlib.sha256()
        for st in self.sub.train + self.sub.test:
            h.update(st.items.tobytes())
            h.update(st.ratings.tobytes())
        return h.hexdigest()

    def ops(self):
        def pretrain():
            return tr.train(self.base, self.sub, oracle_anchors=self.anchors,
                            validate_each_epoch=False)

        def keep_pretrained(res):
            self.pre = res
            return params_digest(res.rec)

        def train():
            return tr.train(self.pcfg, self.sub, init_rec=self.pre.rec,
                            validate_each_epoch=False)

        def keep_learned(res):
            self.learned = res
            return params_digest(res.phi)

        def evaluate(policy):
            phi = self.learned.phi if policy == "dips" else self.pre.phi
            return mx.evaluate(self.pre.rec, phi, self.eval_users[policy],
                               replace(self.ev, policy=policy), seed=1000 + self.seed,
                               return_records=True)

        def check_eval(res):
            for r in res.records:
                check_eval_value(r.metric, r.value, self.dcfg.n_items)
            for name, value in res.aggregates.items():
                check_eval_value(name, value, self.dcfg.n_items)
            return res.aggregates[self.metric]

        out = [Op("pretrain", user_steps(self.sub.train, self.base.epochs), pretrain,
                  keep_pretrained),
               Op("train", user_steps(self.sub.train), train, keep_learned)]
        for p in EVAL_POLICIES:
            out.append(Op(f"eval.{p}", user_steps(self.eval_users[p]),
                          functools.partial(evaluate, p), check_eval,
                          eval_reps(self.size, p)))
        return out

    def gain(self, outputs):
        d, r = outputs["eval.dips"], outputs["eval.random"]
        return r - d if self.metric == "rmse" else d - r


# ------------------------------------------------------- Movielens scale

class Ml1mScaleBatch:
    """``dips train`` then ``dips eval`` through ``dips.cli.main``, in-process,
    on synthetic data at the Movielens-1M catalog size (M = 3706).

    The recommender-only phase is the Movielens playbook's ``random``-policy
    training run; the policy phase trains the batch (top-K) head with
    nonzero recommender and policy learning rates.
    """

    N_ITEMS = 3706
    SKETCH_SIZE = 8

    def __init__(self, seed, size, out_dir):
        self.seed, self.size, self.out_dir = seed, size, out_dir
        self.overrides = [
            f"synth.n_users={size.ml1m_users}", f"synth.n_items={self.N_ITEMS}",
            f"synth.length={size.ml1m_length}", f"synth.seed={seed}",
            f"train.seed={seed}", f"train.sketch_size={self.SKETCH_SIZE}",
            "train.tau=4", "train.mode=batch", "train.queue_size=50",
            "train.inner_steps=5", "train.lr_user=1e-4", "train.lr_item=2e-5",
            "train.lr_policy=2e-4"]

    def setup(self):
        cfg = cli.parse_config(None, self.overrides)
        self.data, _ = cli.load_data(cfg)
        self.items_of = {s.user: set(s.items.tolist()) for s in self.data.train}
        tcfg = cli.train_config(cfg)
        # parameter construction is part of set-up; the CLI builds its own
        rng = np.random.default_rng(self.seed)
        rm.RecParams(self.data.n_items, dim=tcfg.dim, hidden=tcfg.hidden, rng=rng)
        pol.PolicyParams(self.data.n_items, hidden=tcfg.policy_hidden, rng=rng)
        h = hashlib.sha256()
        for st in self.data.train + self.data.valid + self.data.test:
            h.update(st.items.tobytes())
            h.update(st.ratings.tobytes())
        return h.hexdigest()

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def _sets(self, extra):
        out = []
        for kv in self.overrides + extra:
            out += ["--set", kv]
        return out

    def _train_op(self, name, policy):
        run_dir = os.path.join(self.out_dir, name)
        argv = ["train"] + self._sets([f"train.policy={policy}", f"out.dir={run_dir}"])

        def verify(code):
            check(code == cli.EXIT_OK, f"dips train exited with {code}")
            self._check_trace(os.path.join(run_dir, "sketch_trace.jsonl"))
            with open(os.path.join(run_dir, "metrics.jsonl")) as fh:
                for line in fh:
                    rec = json.loads(line)
                    check_eval_value(rec["metric"], rec["value"], self.N_ITEMS)
            return self._check_checkpoint(os.path.join(run_dir, "checkpoint.npz"))

        phase = "pretrain" if policy == "random" else "train"
        return Op(phase, user_steps(self.data.train),
                  functools.partial(self._cli, argv), verify)

    def _check_trace(self, path):
        n = 0
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                kept = rec["kept"]
                n += 1
                check(len(set(kept)) == len(kept), f"duplicate item in sketch {rec}")
                check(len(kept) <= self.SKETCH_SIZE, f"sketch over capacity {rec}")
                check(set(kept) <= self.items_of[rec["user"]],
                      f"sketch holds an item the user never interacted with {rec}")
        check(n > 0, f"empty sketch trace {path}")

    def _check_checkpoint(self, path):
        rec, phi, _ = tr.load_checkpoint(path)
        with np.load(path) as raw:
            for prefix, obj in (("rec", rec), ("phi", phi)):
                for name, arr in obj.state_arrays().items():
                    check(np.array_equal(raw[f"{prefix}_{name}"], arr),
                          f"checkpoint {prefix}_{name} does not round-trip")
        return params_digest(rec, phi)

    def _eval_op(self, policy):
        run_dir = os.path.join(self.out_dir, f"eval-{policy}")
        ckpt = os.path.join(self.out_dir, "train", "checkpoint.npz")
        argv = ["eval", "--checkpoint", ckpt] + self._sets(
            [f"eval.policies={policy}", f"out.dir={run_dir}"])

        def verify(code):
            check(code == cli.EXIT_OK, f"dips eval exited with {code}")
            with open(os.path.join(run_dir, "eval.csv")) as fh:
                rows = [line.strip().split(",") for line in fh][1:]
            check(len(rows) == 1 and rows[0][0] == policy, f"unexpected eval.csv rows {rows}")
            value = float(rows[0][4])
            check_eval_value(rows[0][3], value, self.N_ITEMS)
            return value

        return Op(f"eval.{policy}", user_steps(self.data.test),
                  functools.partial(self._cli, argv), verify, eval_reps(self.size, policy))

    def ops(self):
        return ([self._train_op("pretrain", "random"), self._train_op("train", "dips")]
                + [self._eval_op(p) for p in EVAL_POLICIES])

    def gain(self, outputs):
        return outputs["eval.random"] - outputs["eval.dips"]


WORKLOADS = {
    "gate5-explicit": lambda seed, size, out: Gate5(rm.EXPLICIT, seed, size, out),
    "gate5-implicit": lambda seed, size, out: Gate5(rm.IMPLICIT, seed, size, out),
    "ml1m-scale-batch": lambda seed, size, out: Ml1mScaleBatch(seed, size, out),
}


# ------------------------------------------------------------- run loop

@dataclass
class Round:
    traced: bool
    wall_s: float       # one pass of the pipeline: the first sample of each op
    samples: dict       # phase -> seconds of each timed repetition
    outputs: dict
    attempted: int
    failed: int


def _run_round(ops, losses, traced):
    """One pass of the pipeline; untraced rounds time short operations
    several times, traced rounds run every operation once."""
    samples, outputs = {}, {}
    reps = {op.phase: 1 if traced else op.reps for op in ops}
    attempted = sum(reps.values())
    done = 0
    try:
        for op in ops:
            for rep in range(reps[op.phase]):
                bad_before = losses.bad
                t0 = time.perf_counter()
                result = op.run()
                dt = time.perf_counter() - t0
                check(losses.bad == bad_before,
                      f"{losses.bad - bad_before} non-finite training losses")
                out = op.verify(result)
                check(rep == 0 or out == outputs[op.phase],
                      f"{op.phase}: repetition {rep} differs from repetition 0")
                outputs[op.phase] = out
                samples.setdefault(op.phase, []).append(dt)
                done += 1
    except Exception:  # a failed operation is counted, then the run stops
        print(f"[{op.phase}] failed:\n{traceback.format_exc()}", file=sys.stderr)
    wall = sum(times[0] for times in samples.values())
    return Round(traced, wall, samples, outputs, attempted, attempted - done)


def run(name, seed, seconds, trace, import_s, env, out_root, size=FULL):
    """Run one workload; returns (correct, attempted, failed, metrics, report)."""
    out_dir = os.path.join(out_root, name)
    os.makedirs(out_dir, exist_ok=True)
    wl = WORKLOADS[name](seed, size, out_dir)
    losses = LossCheck()
    tracer = trc.Tracer(name) if trace else None
    attempted = failed = 0
    with trc.patched(losses.targets()):
        setup_times, digests = [], []
        for _ in range(size.setup_reps):
            with _maybe_traced(tracer, "setup"):
                t0 = time.perf_counter()
                digests.append(wl.setup())
                setup_times.append(time.perf_counter() - t0)
        attempted += 1
        if len(set(digests)) != 1:
            print("set-up is not deterministic: data differs between repetitions",
                  file=sys.stderr)
            failed += 1

        ops = wl.ops()
        # a traced run alternates untraced and traced rounds, so both see the
        # same machine state; the difference of their walls is the overhead
        need = size.min_rounds + (size.min_rounds % 2 if trace else 0)
        rounds = []
        t_start = time.perf_counter()
        while True:
            traced = trace and len(rounds) % 2 == 1
            with _maybe_traced(tracer if traced else None, "round"):
                r = _run_round(ops, losses, traced)
            rounds.append(r)
            attempted += r.attempted
            failed += r.failed
            if r.failed:
                break
            if rounds[0].outputs != r.outputs:
                print(f"round {len(rounds) - 1} outputs differ from round 0: "
                      f"{r.outputs} vs {rounds[0].outputs}", file=sys.stderr)
                failed += 1
                break
            elapsed = time.perf_counter() - t_start
            next_round = max(x.wall_s for x in rounds[-2:])
            if len(rounds) >= need and elapsed + next_round > seconds:
                break

    plain = [r for r in rounds if not r.traced and not r.failed]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {"rounds": len(rounds), "setup_reps": size.setup_reps,
              "failed_frac": failed / attempted}
    if failed:
        return False, attempted, failed, {}, report
    e2e = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_s": statistics.median(r.wall_s for r in plain),
        "peak_rss_mb": peak_rss_mb,
    }
    for op in ops:
        key = "pretrain_steps_per_s" if op.phase == "pretrain" else (
            "train_steps_per_s" if op.phase == "train"
            else f"eval_steps_per_s.{op.phase[5:]}")
        e2e[key] = statistics.median(
            op.steps / t for r in plain for t in r.samples[op.phase])
    report["dips_gain_vs_random"] = wl.gain(rounds[0].outputs)
    if not trace:
        return True, attempted, failed, {k: e2e[k] for k in END_TO_END}, report

    traced = [r for r in rounds if r.traced]
    layer = tracer.layer_metrics(len(traced), size.setup_reps)
    traced_wall = statistics.median(r.wall_s for r in traced)
    layer["trace.wall_s"] = statistics.mean(r.wall_s for r in traced) + \
        statistics.mean(setup_times)
    layer["trace.untraced_wall_s"] = e2e["wall_s"]
    layer["trace.overhead_s"] = traced_wall - e2e["wall_s"]
    layer["trace.overhead_frac"] = layer["trace.overhead_s"] / e2e["wall_s"]
    tracer.write(os.path.join(out_root, f"spans-{name}.jsonl"), env)
    report.update(e2e)
    return True, attempted, failed, layer, report


@contextlib.contextmanager
def _maybe_traced(tracer, label):
    if tracer is None:
        yield
        return
    tracer.label = label
    with trc.patched(tracer.targets()):
        yield
