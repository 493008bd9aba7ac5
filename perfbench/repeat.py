"""Run each workload repeatedly and print each metric's run-to-run spread.

    python3 perfbench/repeat.py --runs 10
    python3 perfbench/repeat.py --runs 5 --workloads belief_reads --first-seed 11

Each run is ``run.py`` with its own ``--seed`` (``first-seed``,
``first-seed + 1``, ...).  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound from BENCHMARK.json.  A
spread under a third of its bound is marked ``steady``.  ``--out`` keeps
every run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    result["seed"] = seed
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    everything = {}
    all_steady = True
    for workload in args.workloads:
        results = [one_run(workload, args.first_seed + i, args.seconds)
                   for i in range(args.runs)]
        everything[workload] = results
        failed = {(r["failed"], r["attempted"]) for r in results}
        wrong = [r["seed"] for r in results if not r["correct"]]
        print(f"{workload}: {args.runs} runs, wall "
              f"{statistics.median(r['wall_s'] for r in results):.1f} s "
              f"median, failed/attempted {sorted(failed)}, "
              f"incorrect seeds {wrong}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            median, q1, q3, share = spread(values)
            bound = bounds[name]
            steady = share < bound / 3
            all_steady &= steady
            print(f"  {name:14s} median {median:12.4f} {unit:4s} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {share:.4f}  "
                  f"bound {bound:.3f}  {'steady' if steady else 'NOT steady'}")
    if args.out:
        Path(args.out).write_text(json.dumps(everything, indent=1))
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
