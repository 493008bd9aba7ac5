"""Driving ``multilog serve``: launch, set-up timing, the closed loop.

The server runs in its own process, started the way users start it
(``python -m repro.cli serve PROGRAM --journal FILE``).  The load comes
from this process over at most ``CONNECTIONS`` framed-protocol
connections; each connection carries one request at a time.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: connections the load generator opens: at most the machine's cores.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: seconds a server may take to print its address.
START_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """One request as served: what was sent and what came back."""

    request: object          # workloads.Request
    response: dict


class Connection:
    """One framed-protocol connection: a JSON line out, a JSON line in."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.next_id = 0

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 24)
        conn = cls(reader, writer)
        hello = await conn.call({"op": "hello"})
        if not hello.get("ok"):
            raise RuntimeError(f"hello refused: {hello}")
        return conn

    async def call(self, payload: dict) -> dict:
        self.next_id += 1
        line = json.dumps({"id": self.next_id, **payload},
                          separators=(",", ":")) + "\n"
        self.writer.write(line.encode())
        await self.writer.drain()
        reply = await self.reader.readline()
        if not reply:
            raise RuntimeError("server closed the connection")
        return json.loads(reply)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


class Server:
    """A ``multilog serve`` child process."""

    def __init__(self, proc, port: int):
        self.proc, self.port = proc, port

    @classmethod
    async def launch(cls, root: Path, program: Path, journal: Path,
                     access_log: Path | None = None) -> "Server":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        args = [sys.executable, "-m", "repro.cli", "serve", str(program),
                "--port", "0", "--journal", str(journal)]
        if access_log is not None:
            args += ["--access-log", str(access_log)]
        log_path = journal.with_suffix(".stderr")
        with open(log_path, "wb") as errors:
            proc = await asyncio.create_subprocess_exec(
                *args, cwd=str(root), env=env,
                stdout=asyncio.subprocess.PIPE, stderr=errors)
        try:
            line = await asyncio.wait_for(proc.stdout.readline(),
                                          START_TIMEOUT_S)
        except asyncio.TimeoutError:
            line = b""
        text = line.decode(errors="replace").strip()
        if not text.startswith("multilog serving on "):
            await _stop(proc, signal.SIGKILL)
            raise RuntimeError(
                f"server did not start ({text!r}); stderr: "
                f"{log_path.read_text(errors='replace')[-2000:]}")
        port = int(text.split()[3].rsplit(":", 1)[1])
        return cls(proc, port)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    async def stop(self, sig=signal.SIGTERM) -> None:
        await _stop(self.proc, sig)


async def _stop(proc, sig) -> None:
    if proc.returncode is None:
        try:
            proc.send_signal(sig)
        except ProcessLookupError:
            pass
        try:
            await asyncio.wait_for(proc.wait(), 30)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()
    # Drain what the server printed so the pipe closes cleanly.
    if proc.stdout is not None:
        await proc.stdout.read()


async def timed_setup(root: Path, program: Path, journal: Path, probe,
                      check) -> tuple[float, Server]:
    """Seconds from launching the server to the probe's first correct
    answer; ``check(response)`` raises if the answer is wrong."""
    started = time.perf_counter()
    server = await Server.launch(root, program, journal)
    try:
        conn = await Connection.open(server.port)
        response = await conn.call(probe.payload())
        elapsed = time.perf_counter() - started
        await conn.close()
        check(response)
    except BaseException:
        await server.stop(signal.SIGKILL)
        raise
    return elapsed, server


#: a run's closed loop is cut into this many blocks of consecutive units
#: (over all its replays); throughput is the median of the per-block
#: rates, so a burst of outside load that hits a few blocks does not
#: move it.
BLOCKS = 40


@dataclass
class Phase:
    outcomes: list[Outcome] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: per block: (requests completed, seconds).
    blocks: list[tuple[int, float]] = field(default_factory=list)


async def _run_unit(conn: Connection, unit, phase: Phase) -> None:
    for request in unit:
        response = await conn.call(request.payload())
        phase.outcomes.append(Outcome(request, response))


def split_blocks(items: list, parts: int = BLOCKS) -> list[list]:
    """``items`` cut into ``parts`` runs of consecutive items."""
    size = -(-len(items) // parts)
    return [items[i:i + size] for i in range(0, len(items), size)]


async def closed_loop(conns: list[Connection], units, blocks: int = BLOCKS,
                      between=None) -> Phase:
    """Every connection sends its next unit as soon as the last is done.
    Blocks run one after another; each ends when its last unit is done.
    ``await between(index)``, if given, runs untimed before every block
    but the first."""
    phase = Phase()
    loop = asyncio.get_running_loop()

    async def worker(conn: Connection, pending) -> None:
        for unit in pending:
            await _run_unit(conn, unit, phase)

    for index, block in enumerate(split_blocks(units, blocks)):
        if index and between is not None:
            await between(index)
        started, done = loop.time(), len(phase.outcomes)
        pending = iter(block)
        await asyncio.gather(*(worker(c, pending) for c in conns))
        phase.blocks.append((len(phase.outcomes) - done,
                             loop.time() - started))
    phase.elapsed_s = sum(seconds for _done, seconds in phase.blocks)
    return phase
