"""Benchmark of postlie-sl2: one workload per run, each in a fresh interpreter.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's ``src``; numpy's BLAS is held to one thread.  With ``--trace 0``
the last line of stdout is one JSON object with the end-to-end metrics,
including ``setup_s``, the median over fresh interpreters of the time until
``postlie_sl2`` is imported; with ``--trace 1`` it holds the per-layer
metrics of a traced run.  Exits with 2 when the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUTDIR = ROOT / ".bench_out"
#: fresh interpreters timed for setup_s; one more runs first, untimed, so
#: that bytecode compilation is not counted
SETUP_SAMPLES = 9
SETUP_CODE = "import time, postlie_sl2; print(time.monotonic())"
#: the whole run, setup and worker included, ends within this many seconds
DEADLINE_S = 170


def bench_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict, timeout: float) -> float:
    """Time from spawning an interpreter until postlie_sl2 is imported,
    read on the system-wide monotonic clock inside the child."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout, check=True,
    )
    return float(proc.stdout.split()[-1]) - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec.SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "postlie_sl2" / "__init__.py").is_file():
        print(f"no postlie_sl2 package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    env = bench_env()
    OUTDIR.mkdir(exist_ok=True)
    metrics = {}
    try:
        if not args.trace:
            setup_seconds(env, DEADLINE_S)
            samples = [setup_seconds(env, DEADLINE_S) for _ in range(SETUP_SAMPLES)]
            metrics["setup_s"] = statistics.median(samples)
        proc = subprocess.run(
            [
                sys.executable, str(BENCH / "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)),
        )
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded its deadline", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"setup interpreter failed: {exc.stderr}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    units = spec.units("per_layer" if args.trace else "end_to_end")
    result["metrics"] = {
        **{k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **result["metrics"],
    }
    if set(result["metrics"]) != set(units):
        print(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json's "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
