"""Seeded inputs of the three serving workloads.

Each workload is a MultiLog program (the text ``multilog serve`` loads)
plus a request trace.  A trace is a list of *units*; a unit is one ask,
or, on ``write_mix``, an assert followed by an ask of the written key on
the same connection.  The trace depends only on ``--seed``; the databases
use a fixed data seed so that two seeds measure the same database under
different request mixes (see README.md, "Seeds").
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from repro.resilience.journal import database_source
from repro.workloads.d1 import mission_multilog_source
from repro.workloads.generator import (
    random_datalog_program,
    random_mls_relation,
    random_multilog_database,
)
from repro.workloads.mission import (
    MISSION_ATTRIBUTES,
    MISSION_ROWS,
    mission_relation,
)

LEVELS = ("u", "c", "s", "t")
MODES = ("fir", "opt", "cau")

#: generated database of ``belief_reads`` and ``write_mix``.
BELIEF_TUPLES = 200
BELIEF_RULES = 8
DATA_SEED = 0
#: the recursive Pi program of ``write_mix``: a chain of this many nodes,
#: so the reachability closure holds n(n-1)/2 = 11175 path facts.
PI_NODES = 150


@dataclass
class Request:
    """One framed-protocol request and what it needs for checking."""

    op: str                      # "ask" or "assert"
    text: str                    # query or clause text
    level: str                   # clearance it runs at
    engine: str | None = None    # None = the server's default engine
    # ask shape, for canonicalizing answers: (pred, key or None, attr, mode)
    shape: tuple | None = None
    # write_mix: the cell the preceding assert wrote (cls, value)
    own_write: tuple | None = None

    def payload(self) -> dict:
        if self.op == "assert":
            return {"op": "assert", "clause": self.text,
                    "clearance": self.level}
        payload = {"op": "ask", "query": self.text, "clearance": self.level}
        if self.engine is not None:
            payload["engine"] = self.engine
        return payload


@dataclass
class Workload:
    name: str
    source: str
    #: units replayed closed-loop (ops_per_s).
    closed: list[list[Request]]
    #: a fixed ask whose first correct answer ends set-up.
    probe: Request
    #: fresh servers that each replay ``closed`` from the program's state;
    #: 1 means the trace is replayed once, cut into blocks.
    replays: int = 1
    #: load connections; ``None`` means one per core, at most two.
    connections: int | None = None
    extra: dict = field(default_factory=dict)

    def distinct_asks(self) -> list[Request]:
        seen: dict[tuple, Request] = {}
        for unit in [*self.closed, [self.probe]]:
            for request in unit:
                if request.op == "ask":
                    seen.setdefault((request.text, request.level,
                                     request.engine), request)
        return list(seen.values())


def ask(level: str, pred: str, key: str | None, attr: str, mode: str,
        engine: str | None, own_write: tuple | None = None) -> Request:
    subject = key if key is not None else "K"
    text = f"{level}[{pred}({subject} : {attr} -C-> V)] << {mode}"
    return Request("ask", text, level, engine, (pred, key, attr, mode),
                   own_write)


# -- trace sizes -----------------------------------------------------------
#: Every trace is made of whole *rounds*.  A round has a fixed make-up
#: (below, per workload); the seed picks keys, attributes and forms and
#: shuffles each round, so every seed replays the same mix of ask kinds.
#: ``UNITS_PER_S`` is units per second of ``--seconds``, summed over every
#: replay.  The trace is a fixed number of units, so its length does not
#: depend on how fast the machine is; on the reference machine it takes
#: about 80% of ``--seconds``.
UNITS_PER_S = {"light_reads": 2100, "belief_reads": 38, "write_mix": 16}
#: ``write_mix`` replays a short trace on this many fresh servers, one per
#: timed set-up (``run.SETUPS``): its database grows with every assert, so
#: one long trace would measure each later unit on a bigger database, and
#: its throughput would be that of whichever stretch of the run the host
#: was slow in.
WRITE_REPLAYS = 10


def _rounds(name: str, seconds: float, round_size: int,
            replays: int = 1) -> int:
    """Whole rounds in one replay of the trace."""
    units = UNITS_PER_S[name] * seconds / replays
    return max(1, round(units / round_size))


def _shuffled_rounds(rng: random.Random, count: int, make_round) -> list:
    units = []
    for _ in range(count):
        batch = make_round()
        rng.shuffle(batch)
        units.extend(batch)
    return units


def light_reads(seed: int, seconds: float) -> Workload:
    """Figure 1's Mission relation.  A round is every (level, mode,
    engine, form) once: 4 x 3 x 2 x 2 = 48 asks, so half run on each
    engine; the seed picks the attribute and the point ask's key."""
    rng = random.Random(seed)
    keys = sorted({cells[0][0] for cells, _tc in MISSION_ROWS.values()})

    def make_round() -> list[list[Request]]:
        return [[ask(level, "mission", rng.choice(keys) if point else None,
                     rng.choice(MISSION_ATTRIBUTES), mode, engine)]
                for level in LEVELS for mode in MODES
                for engine in ("operational", "reduction")
                for point in (True, False)]

    rounds = _rounds("light_reads", seconds, 48)
    probe = ask("t", "mission", None, "objective", "cau", "operational")
    return Workload("light_reads", mission_multilog_source(),
                    _shuffled_rounds(rng, rounds, make_round), probe,
                    extra={"relation": mission_relation()[0]})


def belief_database():
    """``random_multilog_database`` and the relation it was built from."""
    db = random_multilog_database(BELIEF_TUPLES, belief_rules=BELIEF_RULES,
                                  seed=DATA_SEED)
    relation = random_mls_relation(BELIEF_TUPLES, seed=DATA_SEED, name="p")
    return db, relation


#: ``belief_reads`` round: (level, mode) of each ask.  Cautious asks at
#: the top level are 11 of 18, so the median ask is one of them.
BELIEF_ROUND = ([("t", "cau")] * 11
                + [("s", "cau"), ("t", "opt"), ("t", "fir"), ("c", "cau"),
                   ("u", "cau"), ("u", "opt"), ("u", "fir")])


def belief_reads(seed: int, seconds: float) -> Workload:
    """Generated polyinstantiated database; default-engine asks, mostly
    cautious at high levels (``BELIEF_ROUND``).  The seed picks each
    ask's attribute and whether it is a point ask (and its key) or a
    scan."""
    rng = random.Random(seed)
    db, relation = belief_database()
    keys = sorted({str(t.key_values()[0]) for t in relation})
    attributes = list(relation.schema.attributes)

    def make_round() -> list[list[Request]]:
        return [[ask(level, "p",
                     rng.choice(keys) if rng.random() < 0.5 else None,
                     rng.choice(attributes), mode, None)]
                for level, mode in BELIEF_ROUND]

    rounds = _rounds("belief_reads", seconds, len(BELIEF_ROUND))
    probe = ask("t", "p", None, "a1", "cau", None)
    return Workload("belief_reads", database_source(db),
                    _shuffled_rounds(rng, rounds, make_round), probe,
                    extra={"relation": relation})


def write_mix(seed: int, seconds: float) -> Workload:
    """``belief_reads``' database plus a recursive Pi program.  A unit is
    a whole-tuple assert at some level followed by a reduction ask of the
    written key at that level; a round is one unit per (level, mode),
    12 units, half of them on fresh keys.  Every replay of the trace
    starts from the program's state on a fresh server.  It runs on one
    connection: with two, whether their asks share a least model depends
    on how their asserts interleave, and the work done per run, so its
    throughput, moved by a fifth between runs.
    The seed picks which units write fresh keys, the key's class and the
    attribute asked."""
    rng = random.Random(seed)
    db, relation = belief_database()
    pi = random_datalog_program(PI_NODES, "chain")
    source = database_source(db) + "\n" + pi + "\n"
    keys = sorted({str(t.key_values()[0]) for t in relation})
    counter = iter(range(10 ** 9))

    def unit(level: str, mode: str, fresh: bool) -> list[Request]:
        index = next(counter)
        # Polyinstantiating units walk the keys in turn: drawn at random,
        # a seed that piled writes onto one key paid for its quadratic
        # override joins on every later rebuild.
        key = f"w{index}" if fresh else keys[index % len(keys)]
        key_class = rng.choice(LEVELS[:LEVELS.index(level) + 1])
        values = {"a1": f"x{index}", "a2": f"y{index}"}
        clause = (f"{level}[p({key} : k -{key_class}-> {key}; "
                  f"a1 -{level}-> {values['a1']}; "
                  f"a2 -{level}-> {values['a2']})].")
        attr = rng.choice(("a1", "a2"))
        return [Request("assert", clause, level),
                ask(level, "p", key, attr, mode, "reduction",
                    own_write=(level, values[attr]))]

    def make_round() -> list[list[Request]]:
        fresh = [True, False] * (len(LEVELS) * len(MODES) // 2)
        rng.shuffle(fresh)
        slots = [(level, mode) for level in LEVELS for mode in MODES]
        return [unit(level, mode, new)
                for (level, mode), new in zip(slots, fresh)]

    rounds = _rounds("write_mix", seconds, len(LEVELS) * len(MODES),
                     WRITE_REPLAYS)
    probe = Request("ask", "path(X, Y)", "t", "reduction",
                    ("path", None, None, None))
    edges = re.findall(r"^edge\((\w+), (\w+)\)\.$", pi, re.MULTILINE)
    return Workload("write_mix", source,
                    _shuffled_rounds(rng, rounds, make_round), probe,
                    replays=WRITE_REPLAYS, connections=1,
                    extra={"relation": relation, "edges": edges,
                           "base_source": database_source(db)})


BUILDERS = {"light_reads": light_reads, "belief_reads": belief_reads,
            "write_mix": write_mix}


def build(name: str, seed: int, seconds: float) -> Workload:
    return BUILDERS[name](seed, seconds)
