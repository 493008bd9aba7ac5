"""Output checks, made apart from the served path.

Every check compares sets of canonical rows and returns a list of
human-readable failures (empty = pass).  The references are computed in
this process from something other than the serving path: the
tuple-level belief function beta over the generating MLS relation, the
other MultiLog engine on a fresh session (Theorem 6.1), an independent
reachability count, and journal recovery.  ``selftest.py`` feeds each
check a deliberately altered answer and requires it to fail.
"""

from __future__ import annotations

from collections import deque

from repro.belief.beta import cautious, firm, optimistic

BETA = {"fir": firm, "opt": optimistic, "cau": cautious}
#: the four-level chain every workload runs on.
RANK = {"u": 0, "c": 1, "s": 2, "t": 3}


def canonical(shape: tuple, answers: list[dict]) -> frozenset:
    """Answers of an ask as ``(key, attr, class, value)`` rows, or
    ``(x, y)`` rows for the closure probe."""
    pred, key, attr, _mode = shape
    if pred == "path":
        return frozenset((str(a["X"]), str(a["Y"])) for a in answers)
    return frozenset(
        (key if key is not None else str(a["K"]), attr, str(a["C"]),
         str(a["V"]))
        for a in answers)


def beta_rows(relation, shape: tuple, level: str) -> frozenset:
    """What beta says an ask of ``shape`` at ``level`` returns."""
    _pred, key, attr, mode = shape
    rows = set()
    for t in BETA[mode](relation, level):
        k = str(t.key_values()[0])
        if key is None or k == key:
            cell = t.cell(attr)
            rows.add((k, attr, str(cell.cls), str(cell.value)))
    return frozenset(rows)


def compare(label: str, expected: frozenset, served: frozenset) -> list[str]:
    if expected == served:
        return []
    missing = sorted(expected - served)[:3]
    extra = sorted(served - expected)[:3]
    return [f"{label}: {len(expected - served)} rows missing {missing}, "
            f"{len(served - expected)} unexpected {extra}"]


def no_read_up(label: str, level: str, rows: frozenset) -> list[str]:
    """No returned cell may be classified above the asking level."""
    above = sorted(row for row in rows
                   if len(row) == 4 and RANK[row[2]] > RANK[level])
    if above:
        return [f"{label}: {len(above)} cells above {level}: {above[:3]}"]
    return []


def own_write(label: str, cell: tuple, rows: frozenset) -> list[str]:
    """A connection reads its own acknowledged write."""
    if any((row[2], row[3]) == cell for row in rows):
        return []
    return [f"{label}: own write {cell} not visible"]


def closure_count(edges) -> int:
    """Reachable (x, y) pairs, by breadth-first search from each node."""
    succ: dict[str, list[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    total = 0
    for start in list(succ):
        seen: set[str] = set()
        frontier = deque(succ[start])
        while frontier:
            node = frontier.popleft()
            if node not in seen:
                seen.add(node)
                frontier.extend(succ.get(node, ()))
        total += len(seen)
    return total


def closure(label: str, expected: int, served: int) -> list[str]:
    if expected == served:
        return []
    return [f"{label}: closure has {served} path facts, expected {expected}"]


def durable(acked: list[str], recovered: set[str]) -> list[str]:
    """Every acknowledged clause is in the recovered database."""
    lost = [clause for clause in acked if clause not in recovered]
    if lost:
        return [f"durability: {len(lost)} acknowledged clauses lost, "
                f"e.g. {lost[:2]}"]
    return []
