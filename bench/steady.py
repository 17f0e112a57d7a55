"""Steadiness of one workload: run it with several seeds and print, for
each end-to-end metric, the median and quartiles beside the metric's bound.

    python3 bench/steady.py --workload NAME [--first-seed 1] [--against FILE]

Each of the ten runs measures for ``run_seconds`` of ``BENCHMARK.json``,
as the benchmark's own runs do.  The spread is (Q3 - Q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``; the benchmark is steady when every
spread but that of ``setup_s`` stays within its bound, and a third of the
bound leaves room for a second set of runs.  ``--against`` compares the
medians with an earlier set written by this command.  Each set is written
to ``.bench_out/steady-<workload>-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spec import SPEC

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    results = []
    seconds = SPEC["run_seconds"]
    for seed in range(args.first_seed, args.first_seed + RUNS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}", file=sys.stderr)

    earlier = None
    if args.against:
        earlier = json.loads(args.against.read_text(encoding="utf-8"))["summary"]
    summary = {}
    print(f"{args.workload}: {RUNS} runs of {seconds} s, seeds "
          f"{args.first_seed}..{args.first_seed + RUNS - 1}")
    header = f"{'metric':<16}{'median':>14}{'Q1':>14}{'Q3':>14}{'spread':>9}{'bound':>8}"
    print(header + ("   vs earlier" if earlier else ""))
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "values": values}
        line = (f"{name:<16}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                f"{spread:>9.3f}{metric['bound']:>8g}")
        if spread > metric["bound"] / 3 and name != "setup_s":
            line += "  !"
        if earlier:
            change = median / earlier[name]["median"] - 1
            worse = -change if metric["better"] == "higher" else change
            line += f"   {change:+.3f}" + (" WORSE THAN BOUND" if worse > metric["bound"] else "")
        print(line)
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}; all correct: {all(r['correct'] for r in results)}")
    out = ROOT / ".bench_out" / f"steady-{args.workload}-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                               "first_seed": args.first_seed, "summary": summary,
                               "results": results}, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
