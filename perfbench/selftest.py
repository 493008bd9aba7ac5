"""Self-test of the output checks: each must pass on true answers and fail
on a deliberately altered one.

    python3 perfbench/selftest.py

The alterations: a dropped row, a cell raised to a class above the
asking level (on every workload, and against the no-read-up check on its
own), a dropped own write, an acknowledged clause missing from the
journal, and a closure count off by one.  True answers come from in-process sessions,
so no server is started.  Exits non-zero if any check misses its
alteration or rejects a true answer.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.multilog import MultiLogSession  # noqa: E402

import checks  # noqa: E402
from verify import Verifier  # noqa: E402
from workloads import build  # noqa: E402

RAISE = {"u": "c", "c": "s", "s": "t"}


def served(verifier: Verifier, request, answers: list[dict]) -> list[str]:
    return verifier.served(request, {"ok": True, "answers": answers})


def expect(name: str, true_failures: list[str], altered: list[str]) -> bool:
    ok = not true_failures and bool(altered)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: true answer "
          f"{'passes' if not true_failures else 'REJECTED'}, altered answer "
          f"{'rejected' if altered else 'ACCEPTED'}")
    for line in (true_failures + altered)[:2]:
        print(f"       {line[:160]}")
    return ok


def nonempty_ask(workload):
    """The first traced ask below the top level with at least one answer,
    and its answers from an in-process session."""
    sessions: dict[str, MultiLogSession] = {}
    for unit in workload.closed:
        for request in unit:
            if request.op != "ask" or request.level not in RAISE:
                continue
            if request.level not in sessions:
                sessions[request.level] = MultiLogSession(workload.source,
                                                          request.level)
            answers = sessions[request.level].ask(
                request.text, engine=request.engine or "operational")
            if answers:
                return request, answers
    raise LookupError("no answered ask below the top level")


def raised(answers: list[dict], level: str, keep=None) -> list[dict]:
    """``answers`` with the first row other than ``keep`` (a ``(C, V)``
    cell) raised one class above ``level``."""
    index = next(i for i, a in enumerate(answers) if (a["C"], a["V"]) != keep)
    return [dict(a, C=RAISE[level]) if i == index else a
            for i, a in enumerate(answers)]


def read_checks(name: str) -> list[bool]:
    """Dropped row and raised cell, against the workload's reference, and
    the raised cell against the no-read-up check alone."""
    workload = build(name, 1, 1)
    verifier = Verifier(workload)
    request, answers = nonempty_ask(workload)
    true = served(verifier, request, answers)
    label, level = request.text, request.level

    def rows(answers):
        return checks.canonical(request.shape, answers)
    return [
        expect(f"{name} dropped row", true,
               served(verifier, request, answers[1:])),
        expect(f"{name} cell raised above {level}", true,
               served(verifier, request, raised(answers, level))),
        expect(f"{name} cell raised above {level}, no-read-up check alone",
               checks.no_read_up(label, level, rows(answers)),
               checks.no_read_up(label, level,
                                 rows(raised(answers, level)))),
    ]


def write_checks() -> list[bool]:
    """Own write, closure count and journal recovery on ``write_mix``."""
    workload = build("write_mix", 1, 1)
    verifier = Verifier(workload)
    run_dir = ROOT / ".perfbench_runs" / "selftest"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        journal = run_dir / "selftest.journal"
        root = MultiLogSession(workload.source, journal=journal)
        acked, results = [], []
        *applied, (never, _ask) = workload.closed
        for assertion, request in applied:
            root.with_clearance(assertion.level).assert_clause(assertion.text)
            acked.append(assertion.text)
            results.append((request, root.with_clearance(request.level).ask(
                request.text, engine="reduction")))
        request, answers = results[0]
        others = [a for a in answers if (a["C"], a["V"]) != request.own_write]
        # An ask below the top level that returns a cell besides its own
        # write: raising that cell leaves the own write in place, so only
        # the no-read-up check stands between it and a pass.
        low, low_answers = next(
            (r, a) for r, a in results if r.level in RAISE
            and any((x["C"], x["V"]) != r.own_write for x in a))
        probe = workload.probe
        paths = root.ask(probe.text, engine="reduction")
        return [
            expect("write_mix own write dropped",
                   served(verifier, request, answers),
                   served(verifier, request, others)),
            expect(f"write_mix cell raised above {low.level}",
                   served(verifier, low, low_answers),
                   served(verifier, low, raised(low_answers, low.level,
                                                 keep=low.own_write))),
            expect("write_mix closure count off by one",
                   served(verifier, probe, paths),
                   served(verifier, probe, paths[1:])),
            expect("write_mix acknowledged clause missing from the journal",
                   verifier.recovery(journal, acked),
                   verifier.recovery(journal, acked + [never.text])),
        ]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    results = (read_checks("light_reads") + read_checks("belief_reads")
               + write_checks())
    print(f"{sum(results)}/{len(results)} checks caught their alteration")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
