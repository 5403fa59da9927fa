"""Paired perfbench runs of two checkouts, summarised into one JSON file.

    python3 benchmarks/pairs.py --parent DIR --change DIR \\
        --workload pretrain_beta [--workload pretrain_beta_wide] \\
        --first-seed 101 --pairs 10 [--seconds 60] --out BENCH.json

For each workload, pair k runs ``perfbench/run.py`` untraced with seed
first_seed + k once in each checkout, from that checkout's root, so
each side runs its own benchmark and program code. The side that runs
first alternates from pair to pair, so a slow phase of the host does not
always fall on one side. Runs go one at a time.

The output holds every run's metrics, the ``env`` line it printed and
the code its checkout held: the ``git rev-parse HEAD`` commit, whether
``git status --porcelain`` lists anything, and the sha256 of
``git diff HEAD`` (all None when the root is not a git work tree's top
level). perfbench's ``env`` line gives a commit id even for a tree with
uncommitted changes; the dirty flag and diff hash tell those apart.
Per workload and end-to-end metric (the ``end_to_end`` list of the
change's BENCHMARK.json), each side's median and quartiles, the number
of pairs the change won (ties count for neither side), the change's
median relative to the parent's, whether a gain is shown (the change
wins at least nine tenths of the pairs and the medians differ by more
than the parent's interquartile range) and whether the change's median
stays inside the metric's bound. Per workload it also holds each
side's operations attempted and failed, summed over its runs, from
which the share of failed operations follows. The file is rewritten
after every pair, so an interrupted campaign keeps the pairs it
finished.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def _git(root: Path, *args: str) -> bytes | None:
    proc = subprocess.run(["git", *args], cwd=root, capture_output=True)
    return proc.stdout if proc.returncode == 0 else None


def code_state(root: Path) -> dict:
    """The commit ``root`` has checked out, whether its tree differs from
    it, and the sha256 of ``git diff HEAD``; None each outside git."""
    top = _git(root, "rev-parse", "--show-toplevel")
    head = _git(root, "rev-parse", "HEAD")
    if (top is None or head is None
            or Path(top.decode().strip()).resolve() != root.resolve()):
        return {"commit": None, "dirty": None, "diff_sha256": None}
    diff = _git(root, "diff", "HEAD")
    return {"commit": head.decode().strip(),
            "dirty": bool(_git(root, "status", "--porcelain")),
            "diff_sha256": hashlib.sha256(diff).hexdigest()}


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in ``root``; its result, env and the
    code it ran."""
    code = code_state(root)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited with "
                           f"{proc.returncode}:\n{proc.stdout}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    return {"seed": seed, "env": env, "code": code,
            "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def _quartiles(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summarise(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric medians, quartiles, pair wins and the two verdicts."""
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        vals = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        stats = {s: _quartiles(vals[s]) for s in SIDES}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(vals["parent"], vals["change"]))
        base, new = stats["parent"]["median"], stats["change"]["median"]
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        worse = (new - base) if lower else (base - new)
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            **stats, "change_wins": wins, "pairs": len(pairs),
            "change_over_parent": new / base,
            "gain_shown": (wins >= 0.9 * len(pairs) and worse < 0
                           and -worse > iqr),
            "within_bound": worse <= spec["bound"] * abs(base),
        }
    return out


def operations(pairs: list[dict]) -> dict:
    """Each side's operations attempted and failed, summed over pairs."""
    return {s: {k: sum(p[s][k] for p in pairs)
                for k in ("attempted", "failed")} for s in SIDES}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="root of the parent checkout")
    ap.add_argument("--change", type=Path, required=True,
                    help="root of the changed checkout")
    ap.add_argument("--workload", action="append", required=True,
                    help="perfbench workload; repeat for several")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.first_seed < 0:
        ap.error("--pairs must be >= 1 and --first-seed >= 0")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads(
        (roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    report = {"seconds": args.seconds, "first_seed": args.first_seed,
              "workloads": {}}
    for workload in args.workload:
        pairs: list[dict] = []
        entry = {"pairs": pairs}
        report["workloads"][workload] = entry
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                t0 = time.monotonic()
                pair[side] = run_once(roots[side], workload, seed,
                                      args.seconds)
                print(f"{workload} seed {seed} {side}: "
                      f"{time.monotonic() - t0:.0f} s, "
                      + json.dumps(pair[side]["metrics"]), flush=True)
            pairs.append(pair)
            entry["summary"] = summarise(pairs, end_to_end)
            entry["operations"] = operations(pairs)
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
