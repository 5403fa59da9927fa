"""Per-seed values of acceptance criteria 6-10, and the noise band that a
rounding change is judged against.

    python3 benchmarks/criteria_spread.py measure [--src DIR] \\
        [--first-seed 0] [--seeds 10] --out SIDE.json
    python3 benchmarks/criteria_spread.py compare PARENT.json CHANGE.json \\
        --out BENCH_criteria.json

``measure`` imports ``vcl`` from ``--src`` (by default this checkout's
``src/``) and, for each seed s, runs the acceptance file's experiments
with its own ``_run_cfg`` and ``_probe_acc`` on its probe split
(generator seed 0, 80/20, split seed 0). It records one value per
criterion:

    c6   last-50 minus first-50 mean loss of the clean beta run
    c7   100 x (probe of the clean run - probe of init_params at seed s)
    c8   100 x (full - cosine) at rho 0.3
    c9   100 x (full - contrastive-only) at rho 0.3
    c10  100 x (low-shot at 0.10 - low-shot at 0.01) on the clean run

and the accuracies they come from. Seeds 0-2 (c6, c7, c10) and 0-4
(c8, c9) are the acceptance file's own runs. The file is rewritten
after every seed, so an interrupted run keeps the seeds it finished.
One seed is four 500-step pretrains, five linear probes and two low-shot
fine-tunes; run two sides at once with OPENBLAS_NUM_THREADS=1 each.

``compare`` matches the two sides' seeds by value and, per criterion,
gives each side's mean, sd and quartiles, and:

    band   the parent's per-seed sd / sqrt(5): the standard error of the
           acceptance file's 5-seed means
    shift  the mean over seeds of (change_s - parent_s)

A criterion holds when |shift| <= 3 bands. For a change that acts like
a reseed, shift / band is about N(0, 1).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CRITERIA = ("c6", "c7", "c8", "c9", "c10")
GATE_SEEDS = 5  # seeds per mean in the acceptance file's criteria 8 and 9
BANDS = 3.0


def spread(values) -> dict:
    """Mean, sample sd and quartiles of one side's per-seed values."""
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"mean": float(np.mean(values)),
            "sd": float(np.std(values, ddof=1)),
            "q1": float(q1), "median": float(med), "q3": float(q3),
            "iqr": float(q3 - q1)}


def verdict(parent: dict, change: dict) -> dict:
    """Band, shift and whether |shift| <= BANDS bands, for one criterion
    given as {seed: value} on each side; seeds pair by value."""
    if set(parent) != set(change):
        raise ValueError(f"seed sets differ: {sorted(parent)} against "
                         f"{sorted(change)}")
    if len(parent) < 2:
        raise ValueError("a band needs at least two seeds")
    band = spread(list(parent.values()))["sd"] / math.sqrt(GATE_SEEDS)
    shift = float(np.mean([change[s] - parent[s] for s in parent]))
    return {"band": band, "shift": shift,
            "shift_in_bands": shift / band if band > 0 else math.inf,
            "within": abs(shift) <= BANDS * band}


def compare(parent: dict, change: dict) -> dict:
    """Both sides' per-seed values, spreads and each criterion's verdict
    from two ``measure`` files."""
    out = {"bands": BANDS, "gate_seeds": GATE_SEEDS, "criteria": {}}
    for c in CRITERIA:
        sides = {name: {s: rec[c] for s, rec in side["seeds"].items()}
                 for name, side in (("parent", parent), ("change", change))}
        out["criteria"][c] = {
            **{name: {"per_seed": vals, **spread(list(vals.values()))}
               for name, vals in sides.items()},
            **verdict(sides["parent"], sides["change"])}
    out["all_within"] = all(v["within"] for v in out["criteria"].values())
    out["sides"] = {"parent": parent, "change": change}
    return out


def _acceptance():
    """The acceptance file as a module, for its ``_run_cfg`` and
    ``_probe_acc``."""
    spec = importlib.util.spec_from_file_location(
        "acceptance", ROOT / "tests" / "test_acceptance.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def measure_seed(acc, seed: int, split) -> dict:
    """One seed's criterion values and the accuracies behind them."""
    from vcl.evaluation import FinetuneConfig, low_shot_finetune
    from vcl.model import init_params
    from vcl.trainer import encoder_config_for_run, pretrain

    run = acc._run_cfg(seed)
    clean = pretrain(run)
    totals = [r["total"] for r in clean.step_records]
    rnd = init_params(encoder_config_for_run(run), run.model.head_dim,
                      run.seed)
    acc_of = {"clean": acc._probe_acc(clean.params, split),
              "random": acc._probe_acc(rnd, split)}
    for f in (0.01, 0.10):
        acc_of[f"low_shot_{f}"] = low_shot_finetune(
            clean.params, f, *split, FinetuneConfig(seed=0)).mean_accuracy
    del clean
    for name, noisy in (
            ("full", acc._run_cfg(seed, rho=0.3)),
            ("cosine", acc._run_cfg(seed, rho=0.3,
                                    objective="nt_xent_cosine")),
            ("contrastive_only", acc._run_cfg(
                seed, rho=0.3,
                loss={"lambda_dist": 0.0, "lambda_norm": 0.0}))):
        acc_of[name] = acc._probe_acc(pretrain(noisy).params, split)
    return {
        "c6": sum(totals[-50:]) / 50.0 - sum(totals[:50]) / 50.0,
        "c7": (acc_of["clean"] - acc_of["random"]) * 100.0,
        "c8": (acc_of["full"] - acc_of["cosine"]) * 100.0,
        "c9": (acc_of["full"] - acc_of["contrastive_only"]) * 100.0,
        "c10": (acc_of["low_shot_0.1"] - acc_of["low_shot_0.01"]) * 100.0,
        "accuracy": acc_of}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    m = sub.add_parser("measure")
    m.add_argument("--src", default=str(ROOT / "src"),
                   help="the src/ directory of the checkout to measure")
    m.add_argument("--first-seed", type=int, default=0)
    m.add_argument("--seeds", type=int, default=10)
    m.add_argument("--out", type=Path, required=True)
    c = sub.add_parser("compare")
    c.add_argument("parent", type=Path)
    c.add_argument("change", type=Path)
    c.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    if args.cmd == "compare":
        report = compare(json.loads(args.parent.read_text()),
                         json.loads(args.change.read_text()))
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        for name, v in report["criteria"].items():
            print(f"{name}: parent {v['parent']['mean']:+.3f} "
                  f"(sd {v['parent']['sd']:.3f}), change "
                  f"{v['change']['mean']:+.3f}, band {v['band']:.3f}, "
                  f"shift {v['shift']:+.3f} = "
                  f"{v['shift_in_bands']:+.2f} bands")
        print("all within" if report["all_within"] else "NOT all within",
              f"{BANDS:g} bands")
        return 0 if report["all_within"] else 1

    if args.seeds < 2 or args.first_seed < 0:
        ap.error("--seeds must be >= 2 and --first-seed >= 0")
    sys.path.insert(0, str(Path(args.src).resolve()))
    from vcl.datasets import GenConfig, generate_synthetic
    from vcl.evaluation import train_test_split

    acc = _acceptance()
    # the acceptance file's probe_split fixture
    split = train_test_split(generate_synthetic(GenConfig(m=2048, seed=0)),
                             test_fraction=0.2, seed=0)
    side = {"numpy": np.__version__, "seeds": {}}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        side["seeds"][str(seed)] = measure_seed(acc, seed, split)
        args.out.write_text(json.dumps(side, indent=1) + "\n")
        rec = side["seeds"][str(seed)]
        print(f"seed {seed}: " + ", ".join(f"{k} {rec[k]:+.3f}"
                                           for k in CRITERIA), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
