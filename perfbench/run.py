"""One run of the MultiLog serving benchmark.

    python3 perfbench/run.py --workload light_reads --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it launches
``multilog serve`` on the workload's program several times, times each
set-up, replays the workload's closed-loop trace (throughput), checks
every answer, and prints the end-to-end metrics.  With ``--trace 1`` it
makes the separate traced run of ``layers.py`` and prints the per-layer
metrics instead.  The last line of standard output is one JSON object;
the per-run report goes to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import statistics
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("light_reads", "belief_reads", "write_mix")
#: end-to-end metrics and their units (BENCHMARK.json lists the bounds).
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "server_rss_mb": "MiB"}
#: timed server launches per run; setup_s is their median.
SETUPS = 10


def report(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


async def measure(workload, verifier, run_dir: Path, program: Path) -> dict:
    from load import BLOCKS, CONNECTIONS, Connection, closed_loop, timed_setup

    setups, phases, rss, final = [], [], [], None

    async def launch():
        journal = run_dir / f"serve{len(setups)}.journal"
        elapsed, server = await timed_setup(
            ROOT, program, journal, workload.probe, verifier.check_probe)
        setups.append(elapsed)
        return server, journal

    async def setup_only() -> None:
        server, _journal = await launch()
        await server.stop()

    # The read workloads replay their trace once and time one more set-up
    # every few blocks; write_mix replays it on one fresh server per
    # set-up.  Either way the set-ups are spread over the run, and
    # ops_per_s is the median block rate.
    blocks = BLOCKS // workload.replays

    async def between(index: int) -> None:
        if workload.replays < SETUPS and index % (BLOCKS // SETUPS) == 0:
            await setup_only()

    for replay in range(workload.replays):
        server, journal = await launch()
        try:
            conns = [await Connection.open(server.port)
                     for _ in range(workload.connections or CONNECTIONS)]
            phases.append(await closed_loop(conns, workload.closed, blocks,
                                            between))
            rss.append(server.peak_rss_mb())
            if workload.name == "write_mix" and replay == workload.replays - 1:
                final = await conns[0].call(workload.probe.payload())
            for conn in conns:
                await conn.close()
        finally:
            # SIGKILL: the durability check recovers from what the last
            # server's journal holds at an unannounced stop.
            await server.stop(signal.SIGKILL)

    outcomes = [o for phase in phases for o in phase.outcomes]
    failures = []
    for outcome in outcomes:
        failures += verifier.served(outcome.request, outcome.response)
    attempted = Counter(f"closed.{o.request.op}" for o in outcomes)
    failed = Counter(f"closed.{o.request.op}" for o in outcomes
                     if not o.response.get("ok"))
    attempted["setup.ask"] += len(setups)
    if final is not None:
        attempted["final.ask"] += 1
        if not final.get("ok"):
            failed["final.ask"] += 1
        failures += verifier.served(workload.probe, final)
        acked = sorted((o.response["version"], o.request.text)
                       for o in phases[-1].outcomes
                       if o.request.op == "assert" and o.response.get("ok"))
        clauses = [text for _version, text in acked]
        failures += verifier.recovery(journal, clauses)
        failures += verifier.engines_agree(clauses)

    rates = [done / seconds for phase in phases
             for done, seconds in phase.blocks]
    report(f"[{workload.name}] attempted {dict(sorted(attempted.items()))} "
           f"failed {dict(sorted(failed.items()))}")
    report(f"[{workload.name}] closed loop on {len(conns)} connections: "
           + ", ".join(f"{len(p.outcomes)} requests in {p.elapsed_s:.3f} s"
                       for p in phases)
           + "; requests/s per block: "
           + ", ".join(f"{rate:.2f}" for rate in rates))
    report(f"[{workload.name}] set-up launches (s): "
           + ", ".join(f"{s:.4f}" for s in setups))
    for failure in failures[:20]:
        report(f"[{workload.name}] CHECK FAILED: {failure}")
    return {
        "correct": not failures,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": {
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(rates),
            "server_rss_mb": statistics.median(rss),
        },
        "units": END_TO_END,
    }


def traced(workload, verifier, run_dir: Path, program: Path) -> dict:
    from layers import PER_LAYER, TRACED_UNITS, traced_metrics

    metrics, figures, failures = traced_metrics(
        ROOT, run_dir, program, workload, verifier.cross_engine)
    for failure in failures[:20]:
        report(f"[{workload.name}] CHECK FAILED: {failure}")
    report(f"[{workload.name}] traced: " + ", ".join(
        f"{name} {value:.4f}" for name, value in figures.items()))
    requests = sum(len(unit) for unit in workload.closed[:TRACED_UNITS])
    return {"correct": not failures, "attempted": requests, "failed": 0,
            "metrics": metrics, "units": PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        report(f"error: no MultiLog sources under {ROOT / 'src'}; run from "
               "the root of a checkout")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from verify import Verifier
    from workloads import build

    run_dir = ROOT / ".perfbench_runs" / (
        f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        workload = build(args.workload, args.seed, args.seconds)
        verifier = Verifier(workload)
        program = run_dir / "program.mlog"
        program.write_text(workload.source)
        if args.trace:
            result = traced(workload, verifier, run_dir, program)
        else:
            result = asyncio.run(measure(workload, verifier, run_dir,
                                         program))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()  # only once no other run is using it
        except OSError:
            pass
    units = result.pop("units")
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
