"""mimowave benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload design_small --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a separate traced run. The workload runs in one
fresh worker process whose BLAS thread variables are pinned to 1 or, for
``design_small_threads``, removed. ``setup_s`` is the median over several
fresh processes that import mimowave and build the workload's scenarios and
priors. Every output is checked; a failed check makes ``correct`` false and
the exit code 1. Human-readable lines come first, the result line last; the
result plus the environment block is also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import WORKLOADS, worker_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_REPS = 5
SETUP_TIMEOUT_S = 60
# the whole command must finish within 180 s
WORKER_TIMEOUT_S = 150


def _worker_cmd(args, *extra) -> list:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    return cmd + ["--tiny"] if args.tiny else cmd


def setup_seconds(args, env) -> list:
    """Wall time of fresh processes that import and build the inputs."""
    cmd = _worker_cmd(args, "--setup-only")
    times = []
    for _ in range(1 if args.tiny else SETUP_REPS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times


def run_worker(args, env) -> dict:
    cmd = _worker_cmd(args, "--seconds", str(args.seconds),
                      "--trace", str(args.trace))
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mimowave benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="desk-scale inputs for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "mimowave" / "__init__.py").is_file():
        print(f"error: no mimowave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["per_layer" if args.trace else "end_to_end"]

    env = worker_env(args.workload)
    try:
        setup = [] if args.trace else setup_seconds(args, env)
        raw = run_worker(args, env)
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as exc:
        print(f"error: {args.workload} worker failed: {exc}", file=sys.stderr)
        return 1
    if setup:
        raw["metrics"]["setup_s"] = statistics.median(setup)
        raw["notes"]["setup_s_samples"] = setup

    mismatch = {m["name"] for m in declared} ^ set(raw["metrics"])
    if mismatch:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(mismatch)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": raw["metrics"][m["name"]],
                                "unit": m["unit"]} for m in declared},
    }

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{raw['attempted']} operations")
    for m in declared:
        print(f"  {m['name']:<44} {raw['metrics'][m['name']]:>14.6g} "
              f"{m['unit']:<6} ({m['better']} is better)")
    print(f"  {'error_rate':<44} {raw['failed'] / raw['attempted']:>14.6g} ratio  "
          f"({raw['failed']} of {raw['attempted']} operations failed)")
    print("notes " + json.dumps(raw["notes"]))
    print("environment " + json.dumps(raw["environment"]))

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = dict(result, notes=raw["notes"], environment=raw["environment"])
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
