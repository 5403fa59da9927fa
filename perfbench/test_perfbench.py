"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Smoke-size runs of every workload check that each metric is printed by
name with its unit, and that the result line is well formed; a
corrupted kernel must be counted as a failed operation; and the
launcher must fail without a result when the program is missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import worker  # first: it puts the checkout's src/ on sys.path
import kernel_stage  # noqa: E402
from vcl import kernels  # noqa: E402
from workloads import END_TO_END, KERNELS, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _smoke(w):
    return replace(w, batch_n=16, steps_per_call=2, m=64, probe_steps=5,
                   finetune_steps=3)


def _main(monkeypatch, capsys, name, trace):
    monkeypatch.setitem(worker.WORKLOADS, name, _smoke(WORKLOADS[name]))
    code = worker.main(["--workload", name, "--seed", "3", "--seconds",
                        "0.01", "--trace", str(trace)])
    assert code == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(monkeypatch, capsys, name, trace):
    lines = _main(monkeypatch, capsys, name, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(units)
    for metric, unit in units.items():
        m = result["metrics"][metric]
        assert m["unit"] == unit
        assert isinstance(m["value"], (int, float)), metric
        assert math.isfinite(m["value"]), metric
        assert any(line.strip().startswith(f"{metric} = ")
                   and line.rstrip().endswith(f" {unit}") for line in lines)
    assert any(line.strip().startswith("error_rate = 0 ") for line in lines)
    assert lines[0].startswith("env ")
    env = json.loads(lines[0][4:])
    for key in ("python", "numpy", "blas", "blas_threads", "nproc",
                "using_numba", "git_commit"):
        assert key in env


@pytest.mark.parametrize("steps", [2, 4, 6])
def test_traced_driver_matches_pretrain(steps):
    # 64 rows in batches of 16 pairs: 4 steps per epoch, so the budget
    # ends inside an epoch, at its end, and inside the next one
    w = replace(_smoke(WORKLOADS["pretrain_beta"]), steps_per_call=steps)
    run = worker.run_config(w, seed=5)
    ds = worker.datasets.generate_synthetic(run.data.gen)
    ref, _ = worker.pretrain_call(run, ds)
    traced = worker.traced_pretrain(run, ds, worker.Tracer(True))
    worker.check_traced(ref, traced)
    assert traced["tape"][0] > 0 and traced["tape"][1] > 0


def _corrupt(monkeypatch):
    real = kernels.pairwise_sqdist

    def corrupted(z):
        out = real(z).copy()
        out[0, 1] += 1e-2 * float(out.max())
        return out
    monkeypatch.setattr(kernels, "pairwise_sqdist", corrupted)


def test_corrupted_kernel_is_a_failed_operation(monkeypatch, tmp_path):
    w = _smoke(WORKLOADS["pretrain_beta"])
    _corrupt(monkeypatch)
    result = worker.measure(w, seed=1, seconds=0.01, trace=False,
                            workdir=tmp_path)
    assert result["correct"] is False
    assert result["failed"] == 1


def test_every_kernel_matches_its_oracle_and_rejects_corruption(
        monkeypatch):
    rng = np.random.default_rng(0)
    image = rng.random((3, 16, 16)).astype(np.float32)
    inp = kernel_stage.make_inputs(rng, 64, 32, 12, (16, 16), image,
                                   [(8, 4), (4,)])
    for name in KERNELS:
        kernel_stage.verify(inp, name)
    _corrupt(monkeypatch)
    with pytest.raises(kernel_stage.KernelMismatch):
        kernel_stage.verify(inp, "pairwise_sqdist")


def test_launcher_runs_a_workload_end_to_end():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "pretrain_beta",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(END_TO_END)


def test_launcher_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "pretrain_beta", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
