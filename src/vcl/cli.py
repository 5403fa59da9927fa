"""Command-line surface for pretraining, evaluation and dataset tooling.

Subcommands

    pretrain   run the self-supervised loop from a JSON config
    eval       linear probe or low-shot fine-tune against a checkpoint
    ablate     component and hyperparameter grid, one CSV row per cell
    gradcheck  run the finite-difference suite and write its report
    gen-data   generate (and optionally corrupt) a dataset file

stdout carries only key=value summary lines so runs are grep-friendly;
detail goes to files under --out. The --out flag falls back to the
VCL_OUT_DIR environment variable.

Exit codes: 0 success, 1 failed gradient check, 2 config or usage
error, 3 non-finite loss abort, 4 artifact mismatch (unreadable or
incompatible checkpoint or dataset).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
from dataclasses import replace
from pathlib import Path

from vcl.config import ConfigError, RunConfig, load_run_config
from vcl.datasets import FormatError, atomic_write, dataset_summary
from vcl.datasets import load as load_dataset
from vcl.datasets import save as save_dataset
from vcl.evaluation import (FinetuneConfig, ProbeConfig, linear_probe,
                            low_shot_finetune, train_test_split)
from vcl.gradcheck import run_suite, suite_report
from vcl.trainer import (NanLossError, ResumeError, build_dataset,
                         load_checkpoint, pretrain, write_json)

EXIT_OK = 0
EXIT_GRADCHECK = 1
EXIT_CONFIG = 2
EXIT_NAN = 3
EXIT_ARTIFACT = 4

TAU_GRID = (0.07, 0.1, 0.2)
BETA_GRID = (0.001, 0.005, 0.01)

# objective components toggled via the loss weights; base values are
# taken from the supplied config so a custom weighting stays honored
_COMPONENT_VARIANTS = (
    ("beta_only", ("lambda_dist", "lambda_norm")),
    ("beta_dist", ("lambda_norm",)),
    ("beta_norm", ("lambda_dist",)),
    ("full", ()),
)


class UsageError(Exception):
    """Bad flag combination or unusable path; maps to exit code 2."""


class ArtifactError(Exception):
    """Artifact loads but does not fit the operation; maps to exit 4."""


def _kv(key: str, value) -> None:
    print(f"{key}={value}")


def _out_dir(args) -> Path:
    given = args.out or os.environ.get("VCL_OUT_DIR")
    if not given:
        raise UsageError("--out is required (or set VCL_OUT_DIR)")
    out = Path(given)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        flag = "--out" if args.out else "VCL_OUT_DIR"
        raise UsageError(f"{flag} {given} is not a usable directory: "
                         f"{err.strerror}") from err
    return out


def _load_config(path: str) -> RunConfig:
    if not Path(path).is_file():
        raise UsageError(f"config file not found: {path}")
    return load_run_config(path)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# pretrain

def cmd_pretrain(args) -> int:
    run = _load_config(args.config)
    if args.seed is not None:
        run = replace(run, seed=args.seed)
    out = _out_dir(args)

    try:
        result = pretrain(run, out_dir=out, resume=args.resume)
    except NanLossError as err:
        write_json(out / "nan_dump.json", err.diagnostics)
        print(f"error: {err} (diagnostics in {out / 'nan_dump.json'})",
              file=sys.stderr)
        return EXIT_NAN

    _kv("steps", result.step)
    if result.step_records:
        _kv("final_total", result.step_records[-1]["total"])
    _kv("checkpoint", result.checkpoint_path)
    _kv("metrics", out / "metrics.jsonl")
    _kv("config", out / "resolved-config.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval

def _load_artifacts(args):
    for name, path in (("checkpoint", args.checkpoint), ("data", args.data)):
        if not Path(path).is_file():
            raise UsageError(f"{name} file not found: {path}")
    ck = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data)
    if "enc0.w" not in ck.params:
        raise ArtifactError("checkpoint carries no encoder parameters")
    flat = 1
    for d in ds.inputs.shape[1:]:
        flat *= int(d)
    expected = ck.params["enc0.w"].data.shape[0]
    if flat != expected:
        raise ArtifactError(
            f"dataset rows flatten to {flat} values but the checkpoint "
            f"encoder expects {expected}")
    return ck, ds


def cmd_eval(args) -> int:
    if args.protocol == "lowshot" and args.fraction is None:
        raise UsageError("--fraction is required with --protocol lowshot")
    if args.protocol == "linear" and args.fraction is not None:
        raise UsageError("--fraction applies to --protocol lowshot only")
    if args.fraction is not None and not 0.0 < args.fraction <= 1.0:
        raise UsageError(f"--fraction must be in (0, 1], got {args.fraction}")
    ck, ds = _load_artifacts(args)
    train_ds, test_ds = train_test_split(ds, test_fraction=0.2,
                                         seed=args.seed)
    if args.protocol == "lowshot" and args.fraction * len(train_ds) < 1:
        raise UsageError(f"--fraction {args.fraction} of {len(train_ds)} "
                         "training rows leaves no row to fine-tune on")
    out = _out_dir(args)

    if args.protocol == "linear":
        result = linear_probe(ck.params, train_ds, test_ds,
                              ProbeConfig(seed=args.seed))
    else:
        result = low_shot_finetune(ck.params, args.fraction, train_ds,
                                   test_ds, FinetuneConfig(seed=args.seed))

    write_json(out / "probe_result.json", result.to_dict())
    _kv("protocol", result.protocol)
    _kv("mean_acc", result.mean_accuracy)
    _kv("train_size", result.train_size)
    _kv("test_size", result.test_size)
    if result.subsample_size is not None:
        _kv("subsample_size", result.subsample_size)
    _kv("result", out / "probe_result.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablate

def _grid(base: RunConfig):
    """Yield (variant, tau, beta, run) cells; 4 components + 3 + 3 sweeps."""
    for variant, zeroed in _COMPONENT_VARIANTS:
        loss = replace(base.loss, **{k: 0.0 for k in zeroed})
        yield variant, loss.tau, loss.beta, replace(base, loss=loss)
    for tau in TAU_GRID:
        loss = replace(base.loss, tau=tau)
        yield "tau_sweep", tau, loss.beta, replace(base, loss=loss)
    for beta in BETA_GRID:
        loss = replace(base.loss, beta=beta)
        yield "beta_sweep", loss.tau, beta, replace(base, loss=loss)


def cmd_ablate(args) -> int:
    base = _load_config(args.config)
    out = _out_dir(args)

    # probe data is always clean; a shifted generator seed keeps it
    # disjoint from the (possibly corrupted) pretraining draws
    probe_gen = replace(base.data.gen, seed=base.data.gen.seed + 1)
    probe_run = replace(base, data=replace(base.data, gen=probe_gen,
                                           rho=0.0))
    probe_ds = build_dataset(probe_run)
    train_ds, test_ds = train_test_split(probe_ds, test_fraction=0.2,
                                         seed=base.seed)

    rows = []
    # a run the grid names again (at the defaults, full is also tau_sweep
    # 0.07 and beta_sweep 0.005) is trained once, in its first cell's
    # directory, and its accuracy fills each of its rows
    accs: dict[RunConfig, str] = {}
    for variant, tau, beta, cell_run in _grid(base):
        if cell_run not in accs:
            cell_dir = out / "cells" / f"{variant}-tau{tau:g}-beta{beta:g}"
            cell_dir.mkdir(parents=True, exist_ok=True)
            try:
                result = pretrain(cell_run, out_dir=cell_dir)
                probe = linear_probe(result.params, train_ds, test_ds,
                                     ProbeConfig(seed=cell_run.seed))
                accs[cell_run] = f"{probe.mean_accuracy:.6f}"
            except Exception as err:  # noqa: BLE001  cell failures must not stop the grid
                with atomic_write(cell_dir / "error.txt", "w",
                                  encoding="utf-8") as fh:
                    fh.write(f"{type(err).__name__}: {err}\n")
                accs[cell_run] = "nan"
        rows.append((variant, f"{tau:g}", f"{beta:g}", accs[cell_run],
                     cell_run.seed))
    failed = sum(row[3] == "nan" for row in rows)

    csv_path = out / "ablation.csv"
    with atomic_write(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "tau", "beta", "mean_acc", "seed"])
        writer.writerows(rows)

    _kv("cells", len(rows))
    _kv("failed", failed)
    _kv("csv", csv_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck

def cmd_gradcheck(args) -> int:
    out = _out_dir(args)
    results = run_suite(instances=args.instances, seed=args.seed,
                        include_broken=args.include_broken)
    report = suite_report(results)
    write_json(out / "gradcheck-report.json", report)
    _kv("checks", report["total"])
    _kv("failures", report["failures"])
    _kv("passed", report["passed"])
    _kv("report", out / "gradcheck-report.json")
    return EXIT_OK if report["passed"] else EXIT_GRADCHECK


# ---------------------------------------------------------------------------
# gen-data

def cmd_gen_data(args) -> int:
    run = _load_config(args.config) if args.config else RunConfig()
    gen = run.data.gen
    if args.seed is not None:
        gen = replace(gen, seed=args.seed)
    rho = run.data.rho if args.rho is None else args.rho
    try:
        run = replace(run, data=replace(run.data, gen=gen, rho=rho))
    except ValueError as err:
        raise UsageError(f"--rho: {err}") from err

    out = Path(args.out)
    sidecar = Path(str(out) + ".json")
    for path in (out, sidecar):
        if path.is_dir():
            raise UsageError(f"--out {out}: {path} is a directory, not a file")
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise UsageError(f"--out {out} has no usable parent directory: "
                         f"{err.strerror}") from err
    ds = build_dataset(run)
    save_dataset(ds, out)

    summary = dict(dataset_summary(ds))
    summary.update({
        "path": str(out),
        "sha256": _sha256(out),
        "rho": rho,
        "outlier_mode": run.data.outlier_mode,
        "gen_seed": gen.seed,
    })
    write_json(sidecar, summary)

    _kv("m", summary["m"])
    _kv("attributes", summary["attributes"])
    _kv("outlier_count", summary["outlier_count"])
    _kv("path", out)
    _kv("sha256", summary["sha256"])
    _kv("summary", sidecar)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _at_least(lo: int):
    """argparse type: an integer >= lo, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    parse.__name__ = "integer"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcl",
        description="variational contrastive learning workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run the self-supervised loop")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", help="output directory (default VCL_OUT_DIR)")
    p.add_argument("--seed", type=_at_least(0),
                   help="override the config seed")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("eval", help="probe a checkpoint against a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--protocol", required=True,
                   choices=("linear", "lowshot"))
    p.add_argument("--fraction", type=float,
                   help="labeled fraction (lowshot only)")
    p.add_argument("--seed", type=_at_least(0), default=0,
                   help="split and probe seed")
    p.add_argument("--out", help="output directory (default VCL_OUT_DIR)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate",
                       help="objective component and hyperparameter grid")
    p.add_argument("--config", required=True, help="base run config JSON")
    p.add_argument("--out", help="output directory (default VCL_OUT_DIR)")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--out", help="output directory (default VCL_OUT_DIR)")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--instances", type=_at_least(1), default=20,
                   help="random instances per check")
    p.add_argument("--include-broken", action="store_true",
                   help="add a known-bad op to prove the harness catches it")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("gen-data", help="write a synthetic dataset file")
    p.add_argument("--config", help="run config JSON (defaults when absent)")
    p.add_argument("--rho", type=float, help="outlier fraction override")
    p.add_argument("--seed", type=_at_least(0),
                   help="generator seed override")
    p.add_argument("--out", required=True, help="dataset file path")
    p.set_defaults(func=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except (ConfigError, UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, ArtifactError, ResumeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ARTIFACT


if __name__ == "__main__":
    sys.exit(main())
