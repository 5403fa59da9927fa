"""The vcl benchmark: one workload per call, in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; vcl is imported from its ``src/``, so
nothing needs installing. The workload runs in a child process
(worker.py) so that its set-up time counts from process start and its
peak memory is its own. The child gets one BLAS thread. Its summary
lines are passed through, and the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see workloads.py). If the workload process fails, or
ends without a well-formed result, this exits with a non-zero code and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
# One thread: on a 2-core machine shared with other work, two OpenBLAS
# threads made pretrain throughput vary by +-15 % between runs against
# +-4 % for one, and the matmuls here are too small to gain much.
BLAS_THREADS = 1
# a run must end within 180 s; leave room to report
TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--launched-at", repr(launched)],
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran past {TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"error: workload process exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    expected = PER_LAYER if args.trace else END_TO_END
    if (not isinstance(result, dict)
            or set(result) != {"correct", "attempted", "failed", "metrics"}
            or set(result["metrics"]) != set(expected)):
        sys.stdout.write(proc.stdout)
        print("error: workload process printed no well-formed result",
              file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
