"""Per-workload output checks over what the server returned.

``light_reads`` answers are compared with beta over Figure 1's relation.
``belief_reads`` answers are compared with the reduction engine on a
fresh in-process session (Theorem 6.1); asks at the bottom level, where
no belief-rule head can sit, are also compared with beta over the
generating relation.  ``write_mix`` asks must show the connection's own
write; after the run, the Pi closure count, journal recovery and the
agreement of both engines on the final state are checked.  On every
workload no returned cell may be classified above the asking level.
"""

from __future__ import annotations

from repro.multilog import MultiLogSession
from repro.multilog.parser import parse_clause
from repro.resilience.journal import SessionJournal

import checks


class Verifier:
    def __init__(self, workload):
        self.workload = workload
        self.extra = workload.extra
        self._reference: dict[tuple, frozenset] = {}
        self._sessions: dict[str, MultiLogSession] = {}

    # -- references -----------------------------------------------------
    def _session(self, level: str) -> MultiLogSession:
        if level not in self._sessions:
            self._sessions[level] = MultiLogSession(self.workload.source,
                                                    level)
        return self._sessions[level]

    def reference(self, request) -> tuple[frozenset | None, list[str]]:
        """Rows an ask must return (``None`` when the answer depends on
        writes made during the run), and failures found computing them."""
        name = self.workload.name
        key = (request.text, request.level)
        failures: list[str] = []
        if request.shape[0] == "path":
            return None, failures
        if key in self._reference:
            return self._reference[key], failures
        relation = self.extra["relation"]
        if name == "light_reads":
            rows = checks.beta_rows(relation, request.shape, request.level)
        elif name == "belief_reads":
            rows = checks.canonical(request.shape, self._session(
                request.level).ask(request.text, engine="reduction"))
            if request.level == "u":
                failures += checks.compare(
                    f"beta vs reduction {request.text}",
                    checks.beta_rows(relation, request.shape, "u"), rows)
        else:
            return None, failures
        self._reference[key] = rows
        return rows, failures

    # -- served answers -------------------------------------------------
    def served(self, request, response: dict) -> list[str]:
        if request.op != "ask" or not response.get("ok"):
            return []
        rows = checks.canonical(request.shape, response["answers"])
        label = f"{request.text} at {request.level}"
        if request.shape[0] == "path":
            return checks.closure(label, checks.closure_count(
                self.extra["edges"]), len(rows))
        expected, failures = self.reference(request)
        if expected is not None:
            failures += checks.compare(label, expected, rows)
        failures += checks.no_read_up(label, request.level, rows)
        if request.own_write is not None:
            failures += checks.own_write(label, request.own_write, rows)
        return failures

    def check_probe(self, response: dict) -> None:
        if not response.get("ok"):
            raise RuntimeError(f"probe failed: {response}")
        failures = self.served(self.workload.probe, response)
        if failures:
            raise RuntimeError(f"probe answered wrongly: {failures}")

    # -- write_mix: after the run ---------------------------------------
    def _asks(self):
        return [r for r in self.workload.distinct_asks()
                if r.shape[0] != "path"]

    def _each_level(self, *sessions):
        """``(request, sibling sessions at its level)`` per distinct ask."""
        siblings: dict[str, list] = {}
        for request in self._asks():
            if request.level not in siblings:
                siblings[request.level] = [s.with_clearance(request.level)
                                           for s in sessions]
            yield request, siblings[request.level]

    def engines_agree(self, clauses: list[str]) -> list[str]:
        """Both engines over the final belief state: the generated
        database plus ``clauses``.  The Pi program is left out: it shares
        no predicate with ``p``, and proof search over its 10^4 path
        facts takes minutes."""
        session = MultiLogSession(
            self.extra["base_source"] + "\n" + "\n".join(clauses))
        failures = []
        for request, (at,) in self._each_level(session):
            failures += checks.compare(
                f"operational vs reduction {request.text}",
                checks.canonical(request.shape,
                                 at.ask(request.text, engine="reduction")),
                checks.canonical(request.shape,
                                 at.ask(request.text, engine="operational")))
        return failures

    def recovery(self, journal, acked: list[str]) -> list[str]:
        """The journal's recovered state holds every acknowledged clause
        and answers as a from-scratch session over source + acked does.

        This is ``MultiLogSession.recover`` without its Definition 5.4
        consistency report: that report runs proof search over the Pi
        closure, which takes minutes here (see README.md)."""
        database, _report = SessionJournal(journal).replay_with_report()
        recovered = MultiLogSession(database)
        normal = [str(parse_clause(text)) for text in acked]
        failures = checks.durable(
            normal, {str(c) for c in recovered.database.clauses()})
        scratch = MultiLogSession(self.workload.source + "\n"
                                  + "\n".join(acked))
        for request, pair in self._each_level(scratch, recovered):
            scratch_rows, recovered_rows = (
                checks.canonical(request.shape,
                                 at.ask(request.text, engine="reduction"))
                for at in pair)
            failures += checks.compare(
                f"recovered vs from-scratch {request.text}",
                scratch_rows, recovered_rows)
        paths = recovered.ask("path(X, Y)", engine="reduction")
        failures += checks.closure("recovered closure", checks.closure_count(
            self.extra["edges"]), len(paths))
        return failures

    def cross_engine(self, replica) -> list[str]:
        """The other-engine pass of the traced run."""
        if self.workload.name == "belief_reads":
            failures = []
            for request in self._asks():
                failures += self.reference(request)[1]
            return failures
        if self.workload.name == "write_mix":
            applied = [r.text for unit in self.workload.closed for r in unit
                       if r.op == "assert"]
            return self.engines_agree(applied)
        return []
