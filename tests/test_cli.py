import io
import json
import os

import numpy as np
import pytest

from dips import cli
from dips import policies as pol


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
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["train"] + tiny_overrides(out1))
    cli.main(["train"] + tiny_overrides(out2))
    assert (out1 / "metrics.jsonl").read_text() == (out2 / "metrics.jsonl").read_text()
    assert (out1 / "sketch_trace.jsonl").read_text() == \
           (out2 / "sketch_trace.jsonl").read_text()


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


def test_eval_learned_policy_across_tau_boundary_rejected(trained, tmp_path, capsys):
    # the fixture's checkpoint holds a dips policy trained at tau=1
    ckpt = str(trained / "checkpoint.npz")
    code = cli.main(["eval", "--checkpoint", ckpt]
                    + tiny_overrides(tmp_path / "e", "eval.policies=dips", "eval.taus=1,2"))
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "tau=1" in err and "eval.taus entry 2" in err
    assert not (tmp_path / "e" / "eval.csv").exists()
    # baselines do not read the policy scores, so any tau is fine
    code = cli.main(["eval", "--checkpoint", ckpt]
                    + tiny_overrides(tmp_path / "b", "eval.policies=random,hardest",
                                     "eval.taus=2"))
    assert code == cli.EXIT_OK


def test_eval_missing_checkpoint(tmp_path):
    code = cli.main(["eval", "--checkpoint", str(tmp_path / "nope.npz")]
                    + tiny_overrides(tmp_path / "e"))
    assert code == cli.EXIT_CONFIG


# --------------------------------------------------------------- gradcheck

def test_gradcheck_passes_and_enumerates_all():
    buf = io.StringIO()
    failures = cli.run_gradchecks(out=buf)
    assert failures == []
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == len(cli.GRADCHECKS)
    for name, _ in cli.GRADCHECKS:
        assert sum(name in line for line in lines) == 1


def test_gradcheck_detects_injected_sign_flip(monkeypatch):
    orig = pol.topk_grad
    monkeypatch.setattr(pol, "topk_grad", lambda f, u, v: -orig(f, u, v))
    buf = io.StringIO()
    failures = cli.run_gradchecks(out=buf)
    assert "topk_grad" in failures
    assert "FAIL topk_grad" in buf.getvalue()


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


# --------------------------------------------------------------- dump-trace

def test_dump_trace(tmp_path):
    out = tmp_path / "trace"
    code = cli.main(["dump-trace"] + tiny_overrides(out))
    assert code == cli.EXIT_OK
    lines = (out / "sketch_trace.jsonl").read_text().strip().split("\n")
    assert lines
    for line in lines:
        rec = json.loads(line)
        assert len(rec["kept"]) <= 2  # never exceeds the sketch size
        assert rec["step"] >= 1

# ------------------------------------------------------------------ threads

def test_thread_limit_env(monkeypatch):
    monkeypatch.setenv("DIPS_THREADS", "2")
    assert cli.main(["gradcheck"]) == cli.EXIT_OK
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_thread_limit_rejects_garbage(monkeypatch):
    monkeypatch.setenv("DIPS_THREADS", "lots")
    assert cli.main(["gradcheck"]) == cli.EXIT_CONFIG
