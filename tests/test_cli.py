import dataclasses
import io
import json
import platform
import re
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dips import cli
from dips import datasets as ds
from dips import metrics as met
from dips import policies as pol
from dips import recmodel as rm
from dips import trainer as tr
from dips.diffcore import Tensor

from tensor_view import tensor_view


TINY = [
    "synth.n_users=10", "synth.n_items=30", "synth.length=8",
    "train.dim=3", "train.hidden=4", "train.policy_hidden=8",
    "train.sketch_size=2", "train.inner_steps=1", "train.batch_size=4",
]


def tiny_overrides(out_dir, *extra):
    return [f"--set={kv}" for kv in TINY + [f"out.dir={out_dir}"] + list(extra)]


# ------------------------------------------------------------------ config

def test_unknown_key_rejected():
    with pytest.raises(cli.ConfigError, match="unknown config key"):
        cli.parse_config(overrides=["train.sketchsize=2"])


def test_bad_value_rejected():
    with pytest.raises(cli.ConfigError, match="train.epochs"):
        cli.parse_config(overrides=["train.epochs=two"])


def test_config_file_with_comments_and_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\ntrain.epochs = 3\ntrain.policy = random  # inline\n")
    cfg = cli.parse_config(str(p), overrides=["train.epochs=5"])
    assert cfg["train.epochs"] == 5          # override wins
    assert cfg["train.policy"] == "random"
    assert cfg["train.tau"] == 1             # defaults preserved


def test_config_file_bad_line(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("train.epochs\n")
    with pytest.raises(cli.ConfigError, match="run.cfg:1"):
        cli.parse_config(str(p))


def test_missing_config_file():
    assert cli.main(["train", "--config", "/nonexistent.cfg"]) == cli.EXIT_CONFIG


def test_bool_parsing():
    cfg = cli.parse_config(overrides=["eval.exclude_history=true",
                                      "train.stochastic=no"])
    assert cfg["eval.exclude_history"] is True
    assert cfg["train.stochastic"] is False
    with pytest.raises(cli.ConfigError):
        cli.parse_config(overrides=["train.stochastic=maybe"])


def test_default_config_builds_the_dataclass_defaults(monkeypatch):
    cfg = cli.parse_config(None, [])
    assert cli.train_config(cfg) == tr.TrainConfig()
    built = []
    real = ds.synth_stream

    def spy(synth, **kw):
        built.append(synth)
        return real(synth, **kw)

    monkeypatch.setattr(ds, "synth_stream", spy)
    cli.load_data(cfg)
    assert built == [ds.SynthConfig()]


def test_each_dataclass_field_has_one_key():
    # every TrainConfig field but the library-only weight_decay, and every
    # SynthConfig field, is set by exactly one key; no other train.* or
    # synth.* key exists but synth.seed
    train_fields = [f.name for f in dataclasses.fields(tr.TrainConfig)]
    assert sorted(cli.TRAIN_KEYS) == sorted(set(train_fields) - {"weight_decay"})
    assert sorted(cli.SYNTH_KEYS) == sorted(f.name for f in dataclasses.fields(ds.SynthConfig))
    keys = list(cli.TRAIN_KEYS.values()) + list(cli.SYNTH_KEYS.values()) + ["synth.seed"]
    assert sorted(set(keys)) == sorted(k for k in cli.DEFAULTS
                                       if k.startswith(("train.", "synth.")))
    assert len(set(cli.TRAIN_KEYS.values())) == len(cli.TRAIN_KEYS)
    assert cli.TRAIN_KEYS["stochastic_train"] == "train.stochastic"
    assert cli.SYNTH_KEYS["setting"] == "train.setting"
    with pytest.raises(cli.ConfigError, match="unknown config key 'train.weight_decay'"):
        cli.parse_config(overrides=["train.weight_decay=0"])


@pytest.fixture(scope="module")
def rating_files(tmp_path_factory):
    """A directory holding one rating log as ``ratings.csv`` and as
    ``ratings.dat``: 6 users who each rate all 30 items, the catalog of the
    tiny checkpoint, in an order of their own.  No anchors are planted."""
    root = tmp_path_factory.mktemp("files")
    log = [(u, i, 1 + (u + i) % 5, (7 * i + u) % 30) for u in range(6) for i in range(30)]
    (root / "ratings.csv").write_text("user,item,rating,timestamp\n" + "".join(
        f"{u},{i},{r}.0,{t}\n" for u, i, r, t in log))
    (root / "ratings.dat").write_text("".join(f"{u}::{i}::{r}::{t}\n" for u, i, r, t in log))
    return root


# every key, and a value strategy for each; "@" stands for the directory of
# rating_files, so every path the draws name lies in it
_KEYS = list(cli.DEFAULTS)
_CHOICES = {"train.mode": ("online", "batch"), "train.setting": (rm.EXPLICIT, rm.IMPLICIT),
            "train.policy": tr.POLICIES, "data.kind": ("synth", "movielens-dat", "csv"),
            "data.path": ("", "@ratings.csv", "@ratings.dat", "@missing.csv")}
_LIST_ITEMS = {"eval.policies": st.sampled_from(tr.POLICIES),
               "eval.sketch_sizes": st.integers(-1, 4).map(str),
               "eval.taus": st.integers(-1, 4).map(str),
               "eval.seeds": st.integers(-1, 3).map(str)}


def _raw_values(key):
    default = cli.DEFAULTS[key]
    if key == "out.dir":
        # a directory to make, or one the path cannot be
        return st.sampled_from(["@out", "@out/run", "", "@ratings.csv"])
    if isinstance(default, bool):
        values = st.sampled_from(["true", "false"])
    elif isinstance(default, int):
        # small enough that every accepted shape generates in milliseconds,
        # and often at the bounds the checks draw: -1, 0 and 1
        values = (st.integers(-2, 2 * max(default, 1) + 2) | st.integers(-1, 1)).map(str)
    elif isinstance(default, float):
        values = (st.floats(-2, 2) | st.sampled_from([1e308, -1e308])
                  | st.floats(allow_nan=True, allow_infinity=True)).map(repr)
    elif key in _LIST_ITEMS:
        values = st.lists(_LIST_ITEMS[key], max_size=3).map(",".join)
    else:
        values = st.sampled_from(_CHOICES[key])
    # one value in ten does not parse, or names nothing
    return st.integers(0, 9).flatmap(lambda i: values if i else st.just("x"))


def _overrides(keys, max_size):
    return st.lists(st.sampled_from(keys).flatmap(
        lambda key: _raw_values(key).map(lambda raw: f"{key}={raw}")), max_size=max_size)


# any keys, then keys that only the commands read, which a draw of any keys
# rarely reaches past the train.* and synth.* checks
_OVERRIDES = st.tuples(
    _overrides(_KEYS, 6),
    _overrides([k for k in _KEYS if not k.startswith(("train.", "synth."))], 3)).map(
        lambda drawn: drawn[0] + drawn[1])


class _Reached(Exception):
    """Raised in place of training or evaluation: the command's parsing and
    checks passed."""


def _train_stand_in(cfg, data, oracle_anchors=None, **kwargs):
    # what training reads: finite ratings, items in the catalog, and the
    # anchors of an oracle policy
    for s in data.train + data.valid + data.test:
        assert np.all(np.isfinite(s.ratings))
        assert np.all((s.items >= 0) & (s.items < data.n_items))
    assert cfg.policy != "oracle" or oracle_anchors is not None
    raise _Reached


def _evaluate_stand_in(rec, phi, streams, cfg, k=20, anchors=None, **kwargs):
    assert k >= 1
    assert cfg.policy != "oracle" or anchors is not None
    raise _Reached


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@given(st.sampled_from(tr.POLICIES), st.booleans(), _OVERRIDES)
def test_overrides_generate_valid_data_or_name_the_error(trained, rating_files, policy,
                                                         from_file, overrides):
    # any --set of any key, for any policy on the tiny synthetic data or on
    # a rating file: dips train, eval (of the tiny checkpoint) and diagnose
    # each end in a configuration or data error, or pass their checks and
    # reach training or evaluation (stand-ins that check what they are
    # given, then stop)
    base = TINY + ["out.dir=@out", f"train.policy={policy}"] + (
        ["data.kind=csv", "data.path=@ratings.csv"] if from_file else [])
    overrides = [ov.replace("@", f"{rating_files}/") for ov in base + overrides]
    checkpoint = str(trained / "checkpoint.npz")
    commands = {"train": cli.cmd_train, "eval": lambda cfg: cli.cmd_eval(cfg, checkpoint),
                "diagnose": cli.cmd_diagnose}
    with mock.patch.object(tr, "train", _train_stand_in), \
            mock.patch.object(met, "evaluate", _evaluate_stand_in), np.errstate(all="ignore"):
        for name, command in commands.items():
            try:
                cfg = cli.parse_config(None, overrides)
                command(cfg)
            except (cli.ConfigError, ds.DataError):
                pass
            except _Reached:
                # diagnose compares policy gradients, which only a learned
                # policy has: any other is a configuration error
                assert name != "diagnose" or cfg["train.policy"] in tr.LEARNED_POLICIES


# ------------------------------------------------------------------- train

def test_train_smoke_writes_declared_artifacts(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train"] + tiny_overrides(out)) == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["artifacts"]:
        assert (out / name).exists()
    assert "checkpoint.npz" in manifest["artifacts"]
    assert manifest["config"]["train.sketch_size"] == 2


def test_train_deterministic_logs(tmp_path):
    # apart from out.dir, the manifest's wall_s is the one field that differs
    # between two runs: metrics, trace and every checkpoint array are the
    # same bytes
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["train"] + tiny_overrides(out1))
    cli.main(["train"] + tiny_overrides(out2))
    assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
    assert (out1 / "sketch_trace.jsonl").read_bytes() == \
           (out2 / "sketch_trace.jsonl").read_bytes()
    # the zip container stamps its members with the time of writing
    with zipfile.ZipFile(out1 / "checkpoint.npz") as z1, \
            zipfile.ZipFile(out2 / "checkpoint.npz") as z2:
        assert z1.namelist() == z2.namelist()
        for name in z1.namelist():
            assert z1.read(name) == z2.read(name), name
    m1, m2 = (json.loads((out / "manifest.json").read_text()) for out in (out1, out2))
    assert m1.pop("wall_s") > 0 and m2.pop("wall_s") > 0
    assert m1["config"].pop("out.dir") != m2["config"].pop("out.dir")
    assert m1 == m2


def test_manifest_records_versions_and_wall_time(trained, tmp_path):
    commands = {"train": ["train"], "diagnose": ["diagnose"],
                "eval": ["eval", "--checkpoint", str(trained / "checkpoint.npz")]}
    for name, argv in commands.items():
        out = tmp_path / name
        assert cli.main(argv + tiny_overrides(out)) == cli.EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["versions"] == {"python": platform.python_version(),
                                        "numpy": np.__version__}, name
        assert 0 < manifest["wall_s"] < 600, name


def test_train_missing_dataset_path(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["train"] + tiny_overrides(out, "data.kind=csv"))
    assert code == cli.EXIT_CONFIG
    assert not (out / "checkpoint.npz").exists()

    code = cli.main(["train"] + tiny_overrides(
        out, "data.kind=csv", "data.path=/no/such/file.csv"))
    assert code == cli.EXIT_DATA
    assert not (out / "checkpoint.npz").exists()


def test_train_invalid_config_exits_config_code(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["train"] + tiny_overrides(out, "train.tau=0"))
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("extra, message", [
    (("synth.n_groups=1",), "synth.n_groups must be at least 2"),
    (("synth.n_users=12", "synth.n_items=11", "synth.length=10", "synth.n_anchors=2",
      "synth.n_groups=2"), "synth.length 10 is longer than n_anchors = 2 plus the 7 items"),
    (("train.policy_dropout_rate=1",), "policy_dropout_rate must lie in [0, 1)"),
    (("synth.anchor_weight=nan",), "synth.anchor_weight must be finite, got nan"),
    (("synth.anchor_weight=inf",), "synth.anchor_weight must be finite, got inf"),
    (("synth.noise=nan",), "synth.noise must be >= 0 and finite, got nan"),
    (("synth.noise=inf",), "synth.noise must be >= 0 and finite, got inf"),
    (("synth.user_bias_std=inf",), "synth.user_bias_std must be >= 0 and finite, got inf"),
    (("synth.user_bias_std=inf", "synth.clip=false"),
     "synth.user_bias_std must be >= 0 and finite, got inf"),
    (("synth.junk_prob=nan",), "synth.junk_prob must lie in [0, 1], got nan"),
    (("synth.junk_prob=-1",), "synth.junk_prob must lie in [0, 1], got -1.0"),
    (("synth.junk_prob=1.5",), "synth.junk_prob must lie in [0, 1], got 1.5"),
    # synth.seed=-1 is a failing example of the --set property above: numpy
    # rejected it with a traceback
    (("synth.seed=-1",), "synth.seed must be >= 0, got -1"),
    (("data.split_seed=-1",), "data.split_seed must be >= 0, got -1"),
    (("train.seed=-1",), "seed must be >= 0, got -1"),
])
def test_invalid_synthetic_data_or_dropout_exits_config_code(tmp_path, capsys, extra,
                                                              message):
    out = tmp_path / "run"
    assert cli.main(["train"] + tiny_overrides(out, *extra)) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (out / "checkpoint.npz").exists()


@pytest.mark.parametrize("extra, user", [
    # the first is a failing example of the --set property above
    (("synth.user_bias_std=1e+308",), 7), (("synth.noise=1e308",), 0)])
def test_overflowing_synthetic_ratings_exit_data_code(tmp_path, capsys, extra, user):
    # finite settings whose ratings overflow float64 without the clip
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = cli.main(["train"] + tiny_overrides(out, *extra, "synth.clip=false"))
    assert code == cli.EXIT_DATA
    assert f"data error: synthetic user {user}: a rating overflows float64" in \
        capsys.readouterr().err
    assert not (out / "checkpoint.npz").exists()


def test_an_empty_liked_pool_trains(tmp_path):
    # seed 0 draws no group-liked filler for some user: implicit data whose
    # liked pool is empty still generates, and trains
    out = tmp_path / "run"
    code = cli.main(["train"] + tiny_overrides(
        out, "synth.n_items=8", "synth.length=4", "synth.n_anchors=2", "synth.n_groups=2",
        "train.setting=implicit"))
    assert code == cli.EXIT_OK


@pytest.mark.parametrize("policy", ["random", "dips"])
def test_train_non_finite_parameters_exit_numeric(tmp_path, capsys, policy):
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = cli.main(["train"] + tiny_overrides(
            out, f"train.policy={policy}", "train.lr_item=1e200", "train.lr_user=1e200"))
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "non-finite rec.user_emb after the optimizer step at epoch 0, step t=" in err
    assert "batch users [" in err
    assert not (out / "checkpoint.npz").exists()


@pytest.mark.parametrize("head", [[], ["train.tau=2", "train.mode=batch"]],
                         ids=["online", "topk"])
def test_non_finite_policy_parameters_exit_numeric(tmp_path, capsys, head):
    # Adam's step is bounded by about its rate, so a finite rate never makes
    # phi non-finite in one step (a huge one overflows the next forward pass
    # instead), and an infinite rate is a configuration error; a non-finite
    # gradient does, at the first policy step.  A huge inner rate overflows
    # the adapted users and so v, while the frozen recommender takes no step
    # that would be checked first
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = cli.main(["train"] + tiny_overrides(
            out, *head, "train.inner_lr=1e200", "train.lr_user=0", "train.lr_item=0"))
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "non-finite phi.w1 after the optimizer step at epoch 0, step t=" in err
    assert "batch users [" in err
    assert not (out / "checkpoint.npz").exists()


@pytest.mark.parametrize("head, rate, message", [
    ([], "1e200", "online_remove: NaN, infinite or negative probability in row "),
    (["train.tau=2", "train.mode=batch"], "1e200", "topk_project: NaN score in row "),
    (["train.tau=2", "train.mode=batch"], "1e6", "topk_grad: the Top-K head's u of row ")],
    ids=["online", "topk", "topk-saturated"])
def test_a_diverged_policy_network_exits_numeric(tmp_path, capsys, head, rate, message):
    # a huge rate leaves phi finite, near 1e200, and the next forward pass
    # overflows to NaN scores; a large one saturates every u of a Top-K row
    # at 0 or 1, where the backward has no gradient: a numerical error
    # naming the head and the row, not an empty sketch or a traceback
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = cli.main(["train"] + tiny_overrides(out, *head, f"train.lr_policy={rate}"))
    assert code == cli.EXIT_NUMERIC
    assert f"numerical error: {message}" in capsys.readouterr().err
    assert not (out / "checkpoint.npz").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["inner_lr", "lr_user", "lr_item", "lr_policy"])
def test_non_finite_rates_exit_config_code(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    assert cli.main(["train"] + tiny_overrides(out, f"train.{key}={value}")) == cli.EXIT_CONFIG
    assert f"config error: {key} must be finite and >= 0, got {value}" in \
        capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("key, value", [("batch_size", 0), ("epochs", -1), ("dim", 0),
                                        ("hidden", 0), ("policy_hidden", 0)])
def test_invalid_train_sizes_exit_config_code(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    assert cli.main(["train"] + tiny_overrides(out, f"train.{key}={value}")) == cli.EXIT_CONFIG
    assert f"config error: {key} must be >= " in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("head", [[], ["train.tau=2", "train.mode=batch"]],
                         ids=["train", "train-tau2"])
def test_failed_run_keeps_the_previous_sketch_trace(tmp_path, head):
    out = tmp_path / "run"
    assert cli.main(["train"] + tiny_overrides(out, *head)) == cli.EXIT_OK
    before = (out / "sketch_trace.jsonl").read_bytes()
    files = sorted(p.name for p in out.iterdir())
    with np.errstate(all="ignore"):
        code = cli.main(["train"] + tiny_overrides(
            out, *head, "train.lr_item=1e200", "train.lr_user=1e200"))
    assert code == cli.EXIT_NUMERIC
    assert (out / "sketch_trace.jsonl").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == files


def test_failed_manifest_write_keeps_the_previous_manifest(tmp_path, monkeypatch):
    # every artefact of the first run survives a second run whose manifest
    # write fails, so the manifest still names the files next to it
    out = tmp_path / "run"
    assert cli.main(["train"] + tiny_overrides(out)) == cli.EXIT_OK
    files = sorted(p.name for p in out.iterdir())
    before = {name: (out / name).read_bytes() for name in files}

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"config": {')
        raise OSError("no space left on device")

    monkeypatch.setattr(cli.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="no space left"):
        cli.main(["train"] + tiny_overrides(out, "train.seed=1"))
    assert files == ["checkpoint.npz", "manifest.json", "metrics.jsonl", "sketch_trace.jsonl"]
    assert sorted(p.name for p in out.iterdir()) == files
    for name in files:
        assert (out / name).read_bytes() == before[name], name


# -------------------------------------------------------------------- eval

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert cli.main(["train"] + tiny_overrides(out)) == cli.EXIT_OK
    return out


def test_eval_seed_sweep(trained, tmp_path, capsys):
    out = tmp_path / "eval"
    code = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.npz")]
                    + tiny_overrides(out, "eval.seeds=0,1,2,3,4",
                                     "eval.policies=random,dips"))
    assert code == cli.EXIT_OK
    lines = (out / "eval.csv").read_text().strip().split("\n")
    assert lines[0] == "policy,K,tau,metric,mean,std,n_seeds"
    assert len(lines) == 3  # two policies x one K x one tau x one metric
    assert all(line.endswith(",5") for line in lines[1:])


def test_eval_rerun_identical(trained, tmp_path):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    args = ["eval", "--checkpoint", str(trained / "checkpoint.npz")]
    cli.main(args + tiny_overrides(out1))
    cli.main(args + tiny_overrides(out2))
    assert (out1 / "eval.csv").read_text() == (out2 / "eval.csv").read_text()


def test_eval_mismatched_catalog_rejected(trained, tmp_path):
    out = tmp_path / "eval"
    code = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.npz")]
                    + tiny_overrides(out, "synth.n_items=40"))
    assert code == cli.EXIT_CONFIG


def test_eval_learned_policy_at_any_tau(trained, tmp_path):
    # the fixture's checkpoint holds a dips policy trained at tau=1; both
    # heads read a score as keep, so it evaluates at tau=1 and tau=2 alike
    out = tmp_path / "e"
    code = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.npz")]
                    + tiny_overrides(out, "eval.policies=dips,random", "eval.taus=1,2"))
    assert code == cli.EXIT_OK
    rows = (out / "eval.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[:3] for r in rows] == [
        ["dips", "2", "1"], ["dips", "2", "2"], ["random", "2", "1"], ["random", "2", "2"]]


def test_eval_defaults_to_checkpoint_sketch_size_and_tau(tmp_path):
    ckpt_dir = tmp_path / "tau2"
    assert cli.main(["train"] + tiny_overrides(
        ckpt_dir, "train.sketch_size=3", "train.tau=2", "train.mode=batch")) == cli.EXIT_OK
    # the config still says K=2, tau=1; the checkpoint's K=3, tau=2 win
    out = tmp_path / "eval"
    code = cli.main(["eval", "--checkpoint", str(ckpt_dir / "checkpoint.npz")]
                    + tiny_overrides(out, "eval.policies=dips,random"))
    assert code == cli.EXIT_OK
    rows = (out / "eval.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[:3] for r in rows] == [["dips", "3", "2"], ["random", "3", "2"]]


def test_eval_mismatched_setting_rejected(trained, tmp_path, capsys):
    code = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.npz")]
                    + tiny_overrides(tmp_path / "e", "train.setting=implicit"))
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "checkpoint setting explicit" in err and "config setting implicit" in err


def test_eval_missing_checkpoint(tmp_path):
    code = cli.main(["eval", "--checkpoint", str(tmp_path / "nope.npz")]
                    + tiny_overrides(tmp_path / "e"))
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("policy", ["dips", "random", "hardest", "influence", "oracle"])
def test_a_diverged_adaptation_in_evaluation_exits_numeric(trained, tmp_path, capsys, policy):
    # a huge inner rate overflows the adapted users' squared errors after
    # one inner step, and the adapted users themselves after a few: every
    # policy's evaluation stops with a numerical error naming the step and
    # the users, and writes no eval.csv with a NaN or infinite metric
    for steps, name in ((1, "squared errors"), (3, "adapted user embeddings")):
        out = tmp_path / f"eval-{steps}"
        with np.errstate(all="ignore"):
            code = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.npz")]
                            + tiny_overrides(out, "train.inner_lr=1e250",
                                             f"train.inner_steps={steps}",
                                             f"eval.policies={policy}"))
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.search(rf"numerical error: evaluate: non-finite {name} at step t=\d+, "
                         r"users \[\d+", err), err
        assert not out.exists() or not (out / "eval.csv").exists()


def test_eval_oracle_keeps_the_planted_anchors(trained, tmp_path):
    # oracle keeps the anchors that load_data planted; without them it would
    # keep the K most recent items, and score otherwise
    out = tmp_path / "eval"
    code = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.npz")]
                    + tiny_overrides(out, "eval.policies=oracle"))
    assert code == cli.EXIT_OK
    cfg = cli.parse_config(None, TINY)
    data, anchors = cli.load_data(cfg)
    rec, phi, _ = tr.load_checkpoint(trained / "checkpoint.npz")
    cell = cli.train_config(cfg, policy="oracle")
    planted = met.evaluate(rec, phi, data.test, cell, seed=0, anchors=anchors)["rmse"]
    assert planted != met.evaluate(rec, phi, data.test, cell, seed=0)["rmse"]
    row = (out / "eval.csv").read_text().strip().split("\n")[1].split(",")
    assert row[:5] == ["oracle", "2", "1", "rmse", f"{planted:.6f}"]


@pytest.mark.parametrize("command, extra", [
    ("train", ["train.policy=oracle"]), ("diagnose", ["train.policy=oracle"]),
    ("eval", ["eval.policies=random,oracle"]), ("eval", ["train.policy=oracle"])])
def test_oracle_on_file_backed_data_exits_config_code(trained, rating_files, tmp_path,
                                                     monkeypatch, capsys, command, extra):
    # a rating file plants no anchors, so oracle has none to keep; a
    # failing example of the --set property above
    monkeypatch.setattr(tr, "train", no_training)
    monkeypatch.setattr(met, "evaluate", no_evaluation)
    argv = [command] + (["--checkpoint", str(trained / "checkpoint.npz")]
                        if command == "eval" else [])
    out = tmp_path / "run"
    code = cli.main(argv + tiny_overrides(out, "data.kind=csv",
                                          f"data.path={rating_files / 'ratings.csv'}", *extra))
    assert code == cli.EXIT_CONFIG
    assert "config error: policy oracle needs the planted anchors of synthetic data" in \
        capsys.readouterr().err
    assert not out.exists()


def no_evaluation(*args, **kwargs):
    raise AssertionError("eval evaluated before checking its configuration")


@pytest.mark.parametrize("key, value", [
    # the first is a failing example of the --set property above
    ("eval.sketch_sizes", "x"), ("eval.taus", "1,x"), ("eval.seeds", "0.5")])
def test_a_bad_eval_list_exits_config_code(trained, tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.setattr(met, "evaluate", no_evaluation)
    code = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.npz")]
                    + tiny_overrides(tmp_path / "e", f"{key}={value}"))
    assert code == cli.EXIT_CONFIG
    assert (f"config error: config key {key}: expected comma-separated integers, "
            f"got {value!r}") in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    ("eval.seeds=0,-1", "seed must be >= 0, got -1"),
    ("eval.sketch_sizes=2,0", "sketch_size must be >= 1, got 0"),
    ("eval.taus=1,0", "tau must be >= 1, got 0")])
def test_every_eval_cell_is_checked_before_the_first_evaluation(trained, tmp_path, monkeypatch,
                                                                capsys, extra, message):
    monkeypatch.setattr(met, "evaluate", no_evaluation)
    out = tmp_path / "e"
    code = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.npz")]
                    + tiny_overrides(out, extra))
    assert code == cli.EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", ["eval.sketch_sizes=2,0", "eval.taus=1,3,0",
                                   "eval.seeds=0,-1"])
def test_an_eval_cell_error_names_the_eval_list_that_set_it(trained, tmp_path, monkeypatch,
                                                            capsys, extra):
    # the TrainConfig field alone read as train.sketch_size, train.tau or
    # train.seed
    monkeypatch.setattr(met, "evaluate", no_evaluation)
    code = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.npz")]
                    + tiny_overrides(tmp_path / "e", extra))
    assert code == cli.EXIT_CONFIG
    assert f" (from {extra})" in capsys.readouterr().err


def test_a_train_key_error_in_an_eval_cell_names_no_eval_list(trained, tmp_path, monkeypatch,
                                                              capsys):
    monkeypatch.setattr(met, "evaluate", no_evaluation)
    code = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.npz")]
                    + tiny_overrides(tmp_path / "e", "train.batch_size=0", "eval.seeds=0,1"))
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: batch_size must be >= 1, got 0\n" in err and "eval." not in err


@pytest.mark.parametrize("k", [0, -3])
def test_eval_k_below_one_exits_config_code(trained, tmp_path, monkeypatch, capsys, k):
    # a failing example of the --set property above; eval.k=-3 wrote
    # recall@-3 rows of 0.0
    monkeypatch.setattr(met, "evaluate", no_evaluation)
    code = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.npz")]
                    + tiny_overrides(tmp_path / "e", f"eval.k={k}", "train.setting=implicit"))
    assert code == cli.EXIT_CONFIG
    assert f"config error: eval.k must be >= 1, got {k}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "diagnose"])
@pytest.mark.parametrize("where", ["empty", "file"])
def test_an_out_dir_that_cannot_be_made_exits_config_code(trained, tmp_path, monkeypatch,
                                                         capsys, command, where):
    # a failing example of the --set property above: os.makedirs raised
    monkeypatch.setattr(tr, "train", no_training)
    monkeypatch.setattr(met, "evaluate", no_evaluation)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = "" if where == "empty" else blocker / "run"
    argv = [command] + (["--checkpoint", str(trained / "checkpoint.npz")]
                        if command == "eval" else [])
    assert cli.main(argv + tiny_overrides(out)) == cli.EXIT_CONFIG
    assert f"config error: out.dir {str(out)!r}: " in capsys.readouterr().err


# --------------------------------------------------------------- gradcheck

def test_gradcheck_passes_and_enumerates_all():
    buf = io.StringIO()
    failures = cli.run_gradchecks(out=buf)
    assert failures == []
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == len(cli.GRADCHECKS)
    for name, _ in cli.GRADCHECKS:
        assert sum(name in line for line in lines) == 1


@pytest.mark.parametrize("setting", ["explicit", "implicit"])
def test_gradcheck_losses_equal_the_graph_losses(setting):
    # the numpy losses that gradcheck finite-differences are the values of
    # the graph losses on the parameters' tensor view, for a stack whose
    # middle row weights nothing: the sketch loss at the adapted users, and
    # the next-item loss after the inner loop
    rec, zhat, y, mask, nxt, r, cfg = cli._meta_setup(setting)
    z = zhat * np.random.default_rng(3).uniform(0.5, 1.5, size=zhat.shape)
    z[1] = 0.0
    view = tensor_view(rec)
    u = tr.inner_adapt(rec, z, y, mask, cfg.inner_lr, cfg.inner_steps)
    assert np.all(u[1] == rec.user_emb) and np.any(u[0] != rec.user_emb)
    for zc, yc, mc, uc in ((z, y, mask, u), (z[1:2], y[1:2], mask[1:2], u[1:2])):
        want = rm.sketch_loss(view, Tensor(uc), zc, yc, mc).item()
        assert cli._sketch_loss(rec, uc, zc, yc) == pytest.approx(want, rel=1e-12, abs=1e-12)
    want = rm.next_item_loss(view, Tensor(u), nxt, r).item()
    assert cli._next_item_loss(rec, z, y, mask, nxt, r, cfg) == pytest.approx(want, rel=1e-12)


def test_gradcheck_detects_injected_sign_flip(monkeypatch):
    orig = pol.topk_grad
    monkeypatch.setattr(pol, "topk_grad", lambda f, u, v: -orig(f, u, v))
    buf = io.StringIO()
    failures = cli.run_gradchecks(out=buf)
    assert "topk_grad" in failures
    assert "FAIL topk_grad" in buf.getvalue()


def test_gradcheck_checks_the_v_that_policy_gradient_returns(monkeypatch):
    orig = tr.policy_gradient

    def negated_v(*args, **kwargs):
        grads, v, z, loss = orig(*args, **kwargs)
        return grads, -v, z, loss

    monkeypatch.setattr(tr, "policy_gradient", negated_v)
    buf = io.StringIO()
    assert cli.run_gradchecks(out=buf) == ["grad_wrt_sketch"]
    assert "FAIL grad_wrt_sketch" in buf.getvalue()


def test_gradcheck_checks_the_closed_form_influence_hessian(monkeypatch):
    orig = rm.user_derivatives

    def negated_hessian(*args, **kwargs):
        grads, hess = orig(*args, **kwargs)
        return grads, -hess

    monkeypatch.setattr(rm, "user_derivatives", negated_hessian)
    buf = io.StringIO()
    assert cli.run_gradchecks(out=buf) == ["influence_derivatives"]
    assert "FAIL influence_derivatives" in buf.getvalue()


def test_gradcheck_checks_the_graph_free_sketch_gradient(monkeypatch):
    orig = rm.sketch_gradient

    def negated_on_a_stack(rec, u, *args):
        g = orig(rec, u, *args)
        return -g if len(u) > 1 else g

    # only the sketch_gradient check calls it: the inner loop takes the
    # step it wraps, once set up
    monkeypatch.setattr(rm, "sketch_gradient", negated_on_a_stack)
    buf = io.StringIO()
    assert cli.run_gradchecks(out=buf) == ["sketch_gradient"]
    assert "FAIL sketch_gradient" in buf.getvalue()

    # a wrong step moves the inner loop that the two checks through it
    # finite-difference, but not the reverse pass they check against it
    monkeypatch.undo()
    step = rm._step

    def negated_step(*args):
        g, forward = step(*args)
        return -g, forward

    monkeypatch.setattr(rm, "_step", negated_step)
    assert cli.run_gradchecks(out=io.StringIO()) == [
        "sketch_gradient", "meta_gradient_unrolled", "grad_wrt_sketch"]


def test_gradcheck_checks_the_mixed_term_of_the_reverse_pass(monkeypatch):
    # the reverse pass's second-order term, -alpha d[lambda . grad S], reads
    # the tower's tangent along lambda; with its sign flipped, the theta
    # gradients and v are wrong, and nothing else the checks read changes
    tangent = rm._tangent
    monkeypatch.setattr(rm, "_tangent", lambda *args: tuple(-t for t in tangent(*args)))
    buf = io.StringIO()
    assert cli.run_gradchecks(out=buf) == ["meta_gradient_unrolled", "grad_wrt_sketch"]
    assert "FAIL meta_gradient_unrolled" in buf.getvalue()


def test_gradcheck_checks_the_policy_backward(monkeypatch):
    # the policy network's backward: only its own check reads the parameter
    # gradients (grad_wrt_sketch checks the v of policy_gradient)
    backward = pol.policy_backward
    monkeypatch.setattr(pol, "policy_backward",
                        lambda *args: [-g for g in backward(*args)])
    buf = io.StringIO()
    assert cli.run_gradchecks(out=buf) == ["policy_backward"]
    assert "FAIL policy_backward" in buf.getvalue()

    # without the dropout scale the backward is wrong where units dropped
    monkeypatch.setattr(pol, "policy_backward", lambda phi, inputs, gates, g: backward(
        phi, inputs, [(relu, None) for relu, _ in gates], g))
    assert cli.run_gradchecks(out=io.StringIO()) == ["policy_backward"]


def test_gradcheck_exit_codes(monkeypatch):
    assert cli.main(["gradcheck"]) == cli.EXIT_OK
    orig = pol.topk_grad
    monkeypatch.setattr(pol, "topk_grad", lambda f, u, v: -orig(f, u, v))
    assert cli.main(["gradcheck"]) == cli.EXIT_NUMERIC


# ---------------------------------------------------------------- diagnose

def test_diagnose_frozen_policy_preserves_everything(tmp_path):
    out = tmp_path / "diag"
    code = cli.main(["diagnose"] + tiny_overrides(
        out, "train.lr_user=0", "train.lr_item=0", "train.lr_policy=0",
        "train.stochastic=false", "train.queue_size=100",
        "synth.length=10", "diagnose.probe_steps=4"))
    assert code == cli.EXIT_OK
    records = [json.loads(line) for line in
               (out / "diagnose.jsonl").read_text().strip().split("\n")]
    assert records
    for r in records:
        assert r["preserved"] == pytest.approx(1.0)
        assert r["preserved"] + r["negated"] + r["zeroed"] == pytest.approx(1.0)
        assert r["cosine"] == pytest.approx(1.0)


def test_diagnose_respects_instance_limits(tmp_path):
    out = tmp_path / "diag"
    code = cli.main(["diagnose"] + tiny_overrides(
        out, "synth.length=20", "diagnose.max_len=10"))
    assert code == cli.EXIT_CONFIG


def no_training(*args, **kwargs):
    raise AssertionError("diagnose trained before checking the replay limits")


@pytest.mark.parametrize("extra, message", [
    (("synth.length=20", "diagnose.max_len=10"),
     "stream length 20 exceeds the replay limit diagnose.max_len=10"),
    (("synth.n_items=150",), "catalog size 150 exceeds the replay limit diagnose.max_items=100"),
])
def test_diagnose_checks_the_replay_limits_before_training(tmp_path, monkeypatch, capsys,
                                                           extra, message):
    out = tmp_path / "diag"
    monkeypatch.setattr(tr, "train", no_training)
    code = cli.main(["diagnose"] + tiny_overrides(out, *extra))
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (out / "diagnose.jsonl").exists() and not (out / "manifest.json").exists()


@pytest.mark.parametrize("policy", ["random", "hardest", "influence", "oracle"])
def test_diagnose_rejects_a_policy_without_a_policy_gradient(tmp_path, monkeypatch, capsys,
                                                             policy):
    # it trained in full, captured no policy gradient and wrote an empty
    # diagnose.jsonl with exit 0
    out = tmp_path / "diag"
    monkeypatch.setattr(tr, "train", no_training)
    code = cli.main(["diagnose"] + tiny_overrides(out, f"train.policy={policy}"))
    assert code == cli.EXIT_CONFIG
    assert (f"config error: diagnose needs a learned policy: train.policy must be one of "
            f"dips, dips1, got {policy!r}") in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_checks_the_replayed_stream_of_a_file_backed_dataset(tmp_path, monkeypatch):
    # every user of the file streams 12 items; synth.length plays no part
    rows = ["user,item,rating,timestamp"] + [
        f"{u},{i},{1 + (u + i) % 5}.0,{i}" for u in range(5) for i in range(12)]
    path = tmp_path / "ratings.csv"
    path.write_text("\n".join(rows) + "\n")
    data = ["data.kind=csv", f"data.path={path}", "data.min_ratings=1"]
    out = tmp_path / "diag"
    assert cli.main(["diagnose"] + tiny_overrides(out, *data, "synth.length=60")) == cli.EXIT_OK
    assert (out / "diagnose.jsonl").exists()
    monkeypatch.setattr(tr, "train", no_training)
    out = tmp_path / "diag-limited"
    code = cli.main(["diagnose"] + tiny_overrides(out, *data, "diagnose.max_len=11"))
    assert code == cli.EXIT_CONFIG
    assert not out.exists() or not any(out.iterdir())


# ------------------------------------------------------------ sketch trace

def test_train_writes_a_bounded_sketch_trace(tmp_path):
    out = tmp_path / "trace"
    code = cli.main(["train"] + tiny_overrides(out))
    assert code == cli.EXIT_OK
    lines = (out / "sketch_trace.jsonl").read_text().strip().split("\n")
    assert lines
    for line in lines:
        rec = json.loads(line)
        assert len(rec["kept"]) <= 2  # never exceeds the sketch size
        assert rec["step"] >= 1


def test_no_separate_trace_command():
    with pytest.raises(SystemExit):
        cli.main(["dump-trace"])
