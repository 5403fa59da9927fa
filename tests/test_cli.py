"""End-to-end command-line tests; every subcommand runs in-process."""

import hashlib
import json
import struct

import pytest

from vcl.cli import main
from vcl.datasets import MAGIC, VERSION
from vcl.datasets import load as load_dataset
from vcl.trainer import CheckpointError, load_checkpoint

TINY = {"steps": 4, "batch_n": 16, "data": {"m": 48}}


def write_cfg(directory, extra=None, name="cfg.json"):
    obj = json.loads(json.dumps(TINY))
    for key, value in (extra or {}).items():
        if isinstance(value, dict):
            obj.setdefault(key, {}).update(value)
        else:
            obj[key] = value
    path = directory / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny pretrain plus a matching dataset, shared by eval tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_cfg(root)
    run_dir = root / "run"
    assert main(["pretrain", "--config", str(cfg),
                 "--out", str(run_dir)]) == 0
    data_path = root / "probe.vcld"
    assert main(["gen-data", "--config", str(cfg), "--seed", "7",
                 "--out", str(data_path)]) == 0
    return {"root": root, "cfg": cfg, "run": run_dir, "data": data_path}


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_writes_dataset_and_sidecar(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "train.vcld"
    code = main(["gen-data", "--config", str(cfg), "--rho", "0.25",
                 "--seed", "3", "--out", str(out)])
    assert code == 0

    ds = load_dataset(out)
    assert len(ds) == 48
    assert ds.labels.shape == (48, 8)

    sidecar = json.loads((tmp_path / "train.vcld.json").read_text())
    assert sidecar["m"] == 48
    assert sidecar["rho"] == 0.25
    assert sidecar["gen_seed"] == 3
    assert sidecar["outlier_count"] == int(0.25 * 48)
    assert sidecar["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()

    lines = capsys.readouterr().out.splitlines()
    assert f"sha256={sidecar['sha256']}" in lines
    assert f"path={out}" in lines


def test_gen_data_rejects_bad_rho(tmp_path, capsys):
    out = tmp_path / "d.vcld"
    assert main(["gen-data", "--rho", "1.0", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# a directory where the dataset or its sidecar goes, or a file where the
# parent directory goes
@pytest.mark.parametrize("kind,blocker,out", [
    ("dir", "taken", "taken"), ("dir", "d.vcld.json", "d.vcld"),
    ("file", "taken", "taken/d.vcld")])
def test_gen_data_unusable_out_is_usage_error(kind, blocker, out, tmp_path,
                                              capsys):
    if kind == "dir":
        (tmp_path / blocker).mkdir()
    else:
        (tmp_path / blocker).write_text("x", encoding="utf-8")
    assert main(["gen-data", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == [blocker]


# ---------------------------------------------------------------------------
# pretrain

def test_pretrain_artifacts(workspace):
    run_dir = workspace["run"]
    resolved = json.loads((run_dir / "resolved-config.json").read_text())
    assert resolved["steps"] == 4
    assert resolved["data"]["m"] == 48

    metric_lines = (run_dir / "metrics.jsonl").read_text().splitlines()
    assert len(metric_lines) == 4
    for i, line in enumerate(metric_lines):
        rec = json.loads(line)
        assert rec["step"] == i
        assert {"lr", "l_beta", "l_dist", "l_norm", "total",
                "wall_ms"} <= set(rec)

    epoch_lines = (run_dir / "epochs.jsonl").read_text().splitlines()
    assert len(epoch_lines) >= 1
    assert json.loads(epoch_lines[0])["epoch"] == 0

    ck = load_checkpoint(run_dir / "checkpoint.vclc")
    assert ck.step == 4
    assert "enc0.w" in ck.params


def test_pretrain_stdout_and_seed_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["pretrain", "--config", str(cfg), "--seed", "5",
                 "--out", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "steps=4" in out
    assert "final_total=" in out
    assert "checkpoint=" in out
    resolved = json.loads((run_dir / "resolved-config.json").read_text())
    assert resolved["seed"] == 5


def test_pretrain_rejects_unknown_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra={"stpes": 9})
    assert main(["pretrain", "--config", str(cfg),
                 "--out", str(tmp_path / "r")]) == 2
    assert "stpes" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pretrain", "--config", "run.json", "--seed", "-1"],
    ["gen-data", "--seed", "-1"],
    ["eval", "--checkpoint", "c.vclc", "--data", "d.vcld",
     "--protocol", "linear", "--seed", "-1"],
    ["gradcheck", "--seed", "-1"],
    ["gradcheck", "--instances", "0"],
], ids=["pretrain-seed", "gen-data-seed", "eval-seed", "gradcheck-seed",
        "gradcheck-instances"])
def test_out_of_range_integer_flags_are_usage_errors(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_pretrain_rejects_non_finite_config_number(literal, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY)[:-1] + f', "loss": {{"tau": {literal}}}}}',
                   encoding="utf-8")
    assert main(["pretrain", "--config", str(cfg),
                 "--out", str(tmp_path / "r")]) == 2
    assert "loss.tau" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_pretrain_missing_config_file(tmp_path):
    assert main(["pretrain", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "r")]) == 2


def test_pretrain_requires_out(tmp_path, monkeypatch):
    monkeypatch.delenv("VCL_OUT_DIR", raising=False)
    cfg = write_cfg(tmp_path)
    assert main(["pretrain", "--config", str(cfg)]) == 2


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("VCL_OUT_DIR", str(env_dir))
    assert main(["gradcheck", "--instances", "1"]) == 0
    assert (env_dir / "gradcheck-report.json").is_file()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pretrain_nan_abort(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra={"steps": 8, "optim": {"lr": 1e12}})
    run_dir = tmp_path / "run"
    assert main(["pretrain", "--config", str(cfg),
                 "--out", str(run_dir)]) == 3
    assert "error:" in capsys.readouterr().err
    dump = json.loads((run_dir / "nan_dump.json").read_text())
    assert {"step", "l_beta", "l_dist", "l_norm", "total"} <= set(dump)
    # every step before the abort is in the streamed metrics
    logged = [json.loads(line) for line in
              (run_dir / "metrics.jsonl").read_text().splitlines()]
    assert dump["step"] >= 1
    assert [r["step"] for r in logged] == list(range(dump["step"]))


def test_pretrain_resume_past_budget_is_artifact_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra={"steps": 2})
    run_dir = tmp_path / "run"
    assert main(["pretrain", "--config", str(cfg),
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["pretrain", "--config", str(cfg), "--out", str(run_dir),
                 "--resume", str(run_dir / "checkpoint.vclc")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint is at step 2")
    assert err.count("\n") == 1


def test_refused_resume_changes_no_file(tmp_path):
    run_dir = tmp_path / "run"
    assert main(["pretrain", "--config", str(write_cfg(tmp_path)),
                 "--out", str(run_dir)]) == 0
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    other = write_cfg(tmp_path, extra={"seed": 9}, name="seed9.json")
    assert main(["pretrain", "--config", str(other), "--out", str(run_dir),
                 "--resume", str(run_dir / "checkpoint.vclc")]) == 4
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


@pytest.mark.parametrize("log", ["garbage\n", '{"epoch": 0}\n', "[1]\n"])
def test_resume_over_a_foreign_log_is_artifact_error(tmp_path, capsys, log):
    run_dir = tmp_path / "run"
    assert main(["pretrain", "--config", str(write_cfg(tmp_path)),
                 "--out", str(run_dir)]) == 0
    (run_dir / "metrics.jsonl").write_text(log, encoding="utf-8")
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    capsys.readouterr()
    longer = write_cfg(tmp_path, extra={"steps": 6}, name="longer.json")
    assert main(["pretrain", "--config", str(longer), "--out", str(run_dir),
                 "--resume", str(run_dir / "checkpoint.vclc")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "metrics.jsonl" in err
    assert err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


def test_resume_into_another_model_is_artifact_error(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["pretrain", "--config",
                 str(write_cfg(tmp_path, extra={"steps": 2})),
                 "--out", str(run_dir)]) == 0
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    capsys.readouterr()
    narrow = write_cfg(tmp_path, extra={"model": {"hidden_dims": [32]}},
                       name="narrow.json")
    assert main(["pretrain", "--config", str(narrow), "--out", str(run_dir),
                 "--resume", str(run_dir / "checkpoint.vclc")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint was trained on another model")
    assert "'enc0.w'" in err
    assert err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


@pytest.mark.parametrize("where", ["flag", "env", "under_file"])
def test_pretrain_unusable_out_is_usage_error(where, tmp_path, monkeypatch,
                                              capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("x", encoding="utf-8")
    argv = ["pretrain", "--config", str(write_cfg(tmp_path))]
    if where == "env":
        monkeypatch.setenv("VCL_OUT_DIR", str(blocker))
    else:
        argv += ["--out", str(blocker / "run" if where == "under_file"
                              else blocker)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: VCL_OUT_DIR " if where == "env"
                          else "error: --out ")
    assert err.count("\n") == 1
    assert blocker.read_text(encoding="utf-8") == "x"


def test_min_lr_above_lr_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra={"optim": {"lr": 0.001},
                                     "schedule": {"min_lr": 0.1}})
    assert main(["pretrain", "--config", str(cfg),
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: schedule")
    assert err.count("\n") == 1
    assert not (tmp_path / "r").exists()


# ---------------------------------------------------------------------------
# eval

def test_eval_linear(workspace, tmp_path, capsys):
    out = tmp_path / "probe"
    code = main(["eval",
                 "--checkpoint", str(workspace["run"] / "checkpoint.vclc"),
                 "--data", str(workspace["data"]),
                 "--protocol", "linear", "--out", str(out)])
    assert code == 0
    result = json.loads((out / "probe_result.json").read_text())
    assert result["protocol"] == "linear"
    assert 0.0 <= result["mean_accuracy"] <= 1.0
    assert result["train_size"] + result["test_size"] == 48
    assert "mean_acc=" in capsys.readouterr().out


def test_eval_lowshot(workspace, tmp_path):
    out = tmp_path / "probe"
    code = main(["eval",
                 "--checkpoint", str(workspace["run"] / "checkpoint.vclc"),
                 "--data", str(workspace["data"]),
                 "--protocol", "lowshot", "--fraction", "0.5",
                 "--out", str(out)])
    assert code == 0
    result = json.loads((out / "probe_result.json").read_text())
    assert result["protocol"] == "low_shot"
    assert result["fraction"] == 0.5
    assert result["subsample_size"] is not None


def test_eval_lowshot_requires_fraction(workspace, tmp_path):
    code = main(["eval",
                 "--checkpoint", str(workspace["run"] / "checkpoint.vclc"),
                 "--data", str(workspace["data"]),
                 "--protocol", "lowshot", "--out", str(tmp_path / "p")])
    assert code == 2


def test_eval_rejects_bad_fraction(workspace, tmp_path):
    code = main(["eval",
                 "--checkpoint", str(workspace["run"] / "checkpoint.vclc"),
                 "--data", str(workspace["data"]),
                 "--protocol", "lowshot", "--fraction", "1.5",
                 "--out", str(tmp_path / "p")])
    assert code == 2


def test_eval_linear_rejects_a_fraction(workspace, tmp_path, capsys):
    code = main(["eval",
                 "--checkpoint", str(workspace["run"] / "checkpoint.vclc"),
                 "--data", str(workspace["data"]),
                 "--protocol", "linear", "--fraction", "0.5",
                 "--out", str(tmp_path / "p")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --fraction")
    assert err.count("\n") == 1
    assert not (tmp_path / "p").exists()


def test_eval_lowshot_fraction_leaving_no_row(workspace, tmp_path, capsys):
    code = main(["eval",
                 "--checkpoint", str(workspace["run"] / "checkpoint.vclc"),
                 "--data", str(workspace["data"]),
                 "--protocol", "lowshot", "--fraction", "0.01",
                 "--out", str(tmp_path / "p")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --fraction 0.01")
    assert err.count("\n") == 1
    assert not (tmp_path / "p").exists()


def test_eval_missing_checkpoint(workspace, tmp_path):
    code = main(["eval", "--checkpoint", str(tmp_path / "none.vclc"),
                 "--data", str(workspace["data"]),
                 "--protocol", "linear", "--out", str(tmp_path / "p")])
    assert code == 2


def test_eval_dimension_mismatch(workspace, tmp_path):
    cfg = write_cfg(tmp_path, extra={"batch_n": 16,
                                     "data": {"m": 32, "height": 20,
                                              "width": 20}})
    wide = tmp_path / "wide.vcld"
    assert main(["gen-data", "--config", str(cfg), "--out", str(wide)]) == 0
    code = main(["eval",
                 "--checkpoint", str(workspace["run"] / "checkpoint.vclc"),
                 "--data", str(wide),
                 "--protocol", "linear", "--out", str(tmp_path / "p")])
    assert code == 4


def test_eval_corrupt_checkpoint(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.vclc"
    bad.write_bytes(b"XXXX" + bytes(64))
    code = main(["eval", "--checkpoint", str(bad),
                 "--data", str(workspace["data"]),
                 "--protocol", "linear", "--out", str(tmp_path / "p")])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_eval_dataset_whose_header_outgrows_the_file(workspace, tmp_path,
                                                     capsys):
    bad = tmp_path / "huge.vcld"  # 44 bytes claiming 2^31 rows
    bad.write_bytes(MAGIC + struct.pack("<7I", VERSION, 2**31, 8, 3, 3, 16,
                                        16) + bytes(12))
    code = main(["eval",
                 "--checkpoint", str(workspace["run"] / "checkpoint.vclc"),
                 "--data", str(bad),
                 "--protocol", "linear", "--out", str(tmp_path / "p")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: truncated file: wanted ")
    assert err.count("\n") == 1


def test_eval_checkpoint_with_non_utf8_name(workspace, tmp_path, capsys):
    raw = bytearray((workspace["run"] / "checkpoint.vclc").read_bytes())
    raw[raw.index(b"enc0.w")] ^= 0x80  # b"e" becomes a bare lead byte
    bad = tmp_path / "bad.vclc"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="not UTF-8"):
        load_checkpoint(bad)
    code = main(["eval", "--checkpoint", str(bad),
                 "--data", str(workspace["data"]),
                 "--protocol", "linear", "--out", str(tmp_path / "p")])
    assert code == 4
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck

def test_gradcheck_report(tmp_path, capsys):
    assert main(["gradcheck", "--instances", "1",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "gradcheck-report.json").read_text())
    assert report["passed"] is True
    assert report["failures"] == 0
    assert report["total"] == len(report["checks"])
    assert report["total"] > 20
    assert "passed=True" in capsys.readouterr().out


def test_gradcheck_include_broken(tmp_path):
    assert main(["gradcheck", "--instances", "1", "--include-broken",
                 "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "gradcheck-report.json").read_text())
    assert report["failures"] >= 1
    assert report["passed"] is False
    names = [c["name"] for c in report["checks"]]
    assert "selftest_broken_op" in names


# ---------------------------------------------------------------------------
# ablate

def test_ablate_grid(tmp_path, capsys, monkeypatch):
    from vcl import cli

    trained = []
    real_pretrain = cli.pretrain

    def counting(run, out_dir):
        trained.append(out_dir.name)
        return real_pretrain(run, out_dir=out_dir)

    monkeypatch.setattr(cli, "pretrain", counting)
    cfg = write_cfg(tmp_path, extra={"steps": 2})
    out = tmp_path / "grid"
    assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
    # at the default tau and beta, full, tau_sweep 0.07 and beta_sweep
    # 0.005 are one run: 8 distinct runs fill the 10 rows
    assert len(trained) == 8
    assert sorted(p.name for p in (out / "cells").iterdir()) == sorted(trained)
    assert "tau_sweep-tau0.07-beta0.005" not in trained

    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "variant,tau,beta,mean_acc,seed"
    assert len(lines) == 11
    variants = [line.split(",")[0] for line in lines[1:]]
    assert variants.count("tau_sweep") == 3
    assert variants.count("beta_sweep") == 3
    for name in ("full", "beta_only", "beta_dist", "beta_norm"):
        assert variants.count(name) == 1
    for line in lines[1:]:
        acc = line.split(",")[3]
        assert acc != "nan"
        assert 0.0 <= float(acc) <= 1.0
    shared = [line.split(",")[3] for line in lines[1:]
              if line.split(",")[0] in ("full", "tau_sweep", "beta_sweep")
              and line.split(",")[1:3] == ["0.07", "0.005"]]
    assert len(shared) == 3 and len(set(shared)) == 1

    cell = out / "cells" / "full-tau0.07-beta0.005"
    assert (cell / "resolved-config.json").is_file()
    assert (cell / "metrics.jsonl").is_file()
    assert "cells=10" in capsys.readouterr().out


def test_failed_ablation_write_keeps_the_old_csv(tmp_path, monkeypatch):
    from vcl import cli

    def no_pretrain(run, out_dir):
        raise RuntimeError("cell skipped")

    real_writer = cli.csv.writer

    class TornWriter:
        # writes the header, then fails before the rows
        def __init__(self, fh, **kwargs):
            self.inner = real_writer(fh, **kwargs)

        def writerow(self, row):
            self.inner.writerow(row)

        def writerows(self, rows):
            raise OSError("disk full")

    cfg = write_cfg(tmp_path)
    out = tmp_path / "grid"
    out.mkdir()
    old = b"variant,tau,beta,mean_acc,seed\nfull,0.07,0.005,0.5,0\n"
    (out / "ablation.csv").write_bytes(old)
    monkeypatch.setattr(cli, "pretrain", no_pretrain)
    monkeypatch.setattr(cli.csv, "writer", TornWriter)
    with pytest.raises(OSError, match="disk full"):
        main(["ablate", "--config", str(cfg), "--out", str(out)])
    assert (out / "ablation.csv").read_bytes() == old
    assert sorted(p.name for p in out.iterdir()) == ["ablation.csv", "cells"]
    cell = out / "cells" / "full-tau0.07-beta0.005"
    assert sorted(p.name for p in cell.iterdir()) == ["error.txt"]
    assert (cell / "error.txt").read_text() == "RuntimeError: cell skipped\n"
