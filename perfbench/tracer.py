"""Span recording around the public functions of the ``dips`` modules.

The wrappers are installed on the module objects (and on the two optimizer
classes) from this file only; nothing under ``src/`` knows about them.  Spans
are kept in memory and written out once, when the benchmark ends.  A layer's
self time is its span's duration minus the time its direct child spans cover;
spans nest on one thread, so the children of a span never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict

import numpy as np

from dips import cli, datasets, diffcore, metrics, policies, recmodel, trainer

# (metric prefix, owner object, attribute) for every wrapped function.
# SGDMomentum.step and Adam.step share one prefix: the optimizer layer.
LAYERS = [
    ("diffcore.grad", diffcore, "grad"),
    ("trainer.theta_gradients", trainer, "theta_gradients"),
    ("trainer.policy_gradient", trainer, "policy_gradient"),
    ("trainer.optimizer_step", trainer.SGDMomentum, "step"),
    ("trainer.optimizer_step", trainer.Adam, "step"),
    ("trainer.inner_adapt", trainer, "inner_adapt"),
    ("trainer.select_with_policy", trainer, "select_with_policy"),
    ("trainer.save_checkpoint", trainer, "save_checkpoint"),
    ("policies.policy_scores", policies, "policy_scores"),
    ("policies.topk_project", policies, "topk_project"),
    ("policies.influence_scores", policies, "influence_scores"),
    ("policies.entry_losses", policies, "entry_losses"),
    ("policies.online_remove", policies, "online_remove"),
    ("policies.batch_keep", policies, "batch_keep"),
    ("policies.reservoir_update", policies, "reservoir_update"),
    ("recmodel.sketch_loss", recmodel, "sketch_loss"),
    ("recmodel.next_item_loss", recmodel, "next_item_loss"),
    ("recmodel.predict_explicit_many", recmodel, "predict_explicit_many"),
    ("recmodel.predict_implicit", recmodel, "predict_implicit"),
    ("metrics.evaluate", metrics, "evaluate"),
    ("metrics.rank_of", metrics, "rank_of"),
    ("datasets.synth_stream", datasets, "synth_stream"),
    ("cli.main", cli, "main"),
]

# cli.main is reported per command, because train and eval do unrelated work
CLI_COMMANDS = ("train", "eval")

HOOK_SPAN = "trace.hook"


def _span_names():
    names = []
    for prefix, _, _ in LAYERS:
        if prefix == "cli.main":
            names += [f"cli.main.{c}" for c in CLI_COMMANDS]
        elif prefix not in names:
            names.append(prefix)
    return names


SPAN_NAMES = _span_names()
_SPAN_NAME_SET = frozenset(SPAN_NAMES)

EXTRA_METRICS = {
    "diffcore.grad.nodes": "count",
    "diffcore.grad.create_graph_calls": "count",
    "trainer.theta_gradients.frozen_frac": "ratio",
    "policies.policy_scores.rows": "count",
    "policies.policy_scores.live_col_frac": "ratio",
}

SUMMARY_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.ms_p50"] = "ms"
    units.update(EXTRA_METRICS)
    units.update(SUMMARY_METRICS)
    return units


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def count_graph_nodes(root):
    """Nodes reachable from ``root`` that ``diffcore.grad`` would traverse."""
    if not root.requires_grad:
        return 0
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


@contextlib.contextmanager
def patched(targets):
    """Replace ``owner.attr`` by ``make(original)`` for each (owner, attr, make)."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder plus the counters measured at layer boundaries."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []          # [name, start, end, parent index, pass label]
        self._stack = []
        self.label = None
        self.counts = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.label]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def _wrap(self, name, fn, hook=None, name_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                # counting has its own span, so it is not charged to a layer
                with self.span(HOOK_SPAN):
                    hook(self, args, kwargs)
            with self.span(name_of(args, kwargs) if name_of else name):
                return fn(*args, **kwargs)
        return wrapper

    def targets(self):
        """(owner, attr, make) triples for :func:`patched`."""
        hooks = {
            "diffcore.grad": _grad_hook,
            "trainer.theta_gradients": _theta_hook,
            "policies.policy_scores": _scores_hook,
        }
        return [(owner, attr, functools.partial(
                    self._wrap, prefix, hook=hooks.get(prefix),
                    name_of=_cli_span_name if prefix == "cli.main" else None))
                for prefix, owner, attr in LAYERS]

    def layer_metrics(self, n_rounds, n_setups):
        """Per-layer figures for one pass: one set-up plus one round.

        Spans labelled ``setup`` are divided by the number of traced set-ups,
        spans labelled ``round`` by the number of traced rounds.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)      # (name, label) -> count
        self_s = defaultdict(float)
        durations = defaultdict(list)
        for idx, (name, start, end, parent, label) in enumerate(self.spans):
            if name not in _SPAN_NAME_SET:
                continue
            calls[name, label] += 1
            self_s[name, label] += end - start - child_time[idx]
            durations[name].append(end - start)
        per = {"setup": n_setups, "round": n_rounds}
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = sum(calls[name, lb] / n for lb, n in per.items())
            out[f"{name}.self_s"] = sum(self_s[name, lb] / n for lb, n in per.items())
            out[f"{name}.ms_p50"] = (1e3 * statistics.median(durations[name])
                                     if durations[name] else 0.0)
        c = self.counts     # counted in traced rounds only
        out["diffcore.grad.nodes"] = c["grad_nodes"] / n_rounds
        out["diffcore.grad.create_graph_calls"] = c["create_graph_calls"] / n_rounds
        out["trainer.theta_gradients.frozen_frac"] = (
            c["theta_frozen"] / c["theta_calls"] if c["theta_calls"] else 0.0)
        out["policies.policy_scores.rows"] = c["score_rows"] / n_rounds
        out["policies.policy_scores.live_col_frac"] = (
            c["score_live"] / c["score_cells"] if c["score_cells"] else 0.0)
        return out

    def write(self, path, env):
        """Write every span as one JSON line, after a header line with ``env``."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"env": env, "workload": self.workload}) + "\n")
            for name, start, end, parent, label in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "workload": self.workload, "pass": label}) + "\n")


def _cli_span_name(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv") or ["?"]
    return f"cli.main.{argv[0]}"


def _grad_hook(tracer, args, kwargs):
    loss = _arg(args, kwargs, 0, "loss")
    tracer.counts["grad_nodes"] += count_graph_nodes(loss)
    if _arg(args, kwargs, 2, "create_graph", False):
        tracer.counts["create_graph_calls"] += 1


def _theta_hook(tracer, args, kwargs):
    cfg = _arg(args, kwargs, 6, "cfg")
    tracer.counts["theta_calls"] += 1
    if cfg.lr_user == 0 and cfg.lr_item == 0:
        tracer.counts["theta_frozen"] += 1


def _scores_hook(tracer, args, kwargs):
    zhat = np.asarray(_arg(args, kwargs, 0, "zhat"))
    rows = 1 if zhat.ndim == 1 else zhat.shape[0]
    tracer.counts["score_rows"] += rows
    tracer.counts["score_live"] += np.count_nonzero(zhat)
    tracer.counts["score_cells"] += rows * zhat.shape[-1]
