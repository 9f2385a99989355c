"""The serve part: a durable ``repro-crowd serve`` under a seeded load.

One process, one asyncio thread, two TCP connections (ingest and query)
drive a server subprocess started as ``repro-crowd serve --durable DIR
--snapshot-every 64`` (fsync on, CLI defaults otherwise) with one BLAS
thread: the server's event loop is one thread, and OpenBLAS's default of
one thread per core left a second thread spin-waiting, so the server held
1.7-1.8 of the 2 cores against the load generator and now and then fell
behind (``worker`` p50 four times its usual value).

* Phase A — closed loop: the first half of the stream is written as fast
  as TCP backpressure allows, then a ``flush`` query waits for it to be
  applied.  No queries run.  It is run ``INGEST_REPEATS`` times, each on
  a fresh server and an empty directory, and the median rate counts; the
  last of these servers goes on to phases B and C.
* Phase B — open loop for ``seconds``: the next ``EVENT_RATE x seconds``
  events are sent at ``EVENT_RATE`` events/s in ``CHUNK``-event writes
  while ``QUERY_RATE`` queries/s are pipelined on the query connection
  (every ``EVALUATE_ALL_EVERY``-th is ``evaluate_all``, the others
  ``worker`` queries cycling through the worker ids).  Latency is timed
  from when a query was due to be sent, so a stall also counts against
  the queries queued behind it.
* Phase C — the next events in flushed ``CHUNK``-event batches until the
  server writes a snapshot, then ``REPLAY_BATCHES`` more, so the crash
  always leaves the same amount of log to replay.  Then SIGKILL and a new
  server on the same directory, timed from the kill until its
  ``evaluate_all`` reply is correct; ``RESUME_REPEATS`` crash-and-resume
  cycles, the last one ending with a clean shutdown.  The rest of the
  stream is not sent.

The server subprocess is pinned to one CPU and the load generator to
another (where there are two), as the server is one thread.

The ``evaluate_all`` replies after Phase B and after every resume must be
bit-identical to the in-process reference; nothing is compared inside a
timed region.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

SNAPSHOT_EVERY = 64
EVENT_RATE = 1000
CHUNK = 64
QUERY_RATE = 10
EVALUATE_ALL_EVERY = 10
#: Events per write in the closed-loop phase.
PHASE_A_WRITE = 256
#: Phase A runs per serve part (fresh server each); the median counts.
INGEST_REPEATS = 5
#: Batches in the WAL after the newest snapshot at each crash.
REPLAY_BATCHES = 32
#: Crash-and-resume cycles per run; the median counts.
RESUME_REPEATS = 3
#: No single wait for the server may take longer than this.
TIMEOUT_S = 60.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: The server runs on the last allowed CPU and the load generator on the
#: first, so neither migrates onto the other's core mid-phase.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU, LOADGEN_CPU = _CPUS[-1], _CPUS[0]


class Server:
    """One ``repro-crowd serve`` subprocess and its ``/proc`` counters."""

    def __init__(self, root: Path, directory: Path, trace_files: tuple | None) -> None:
        self.root = root
        self.directory = directory
        self.trace_files = trace_files
        self.process: asyncio.subprocess.Process | None = None
        self.port = 0
        self.started = 0.0
        self._stdout_task: asyncio.Task | None = None

    async def start(self) -> float:
        """Spawn and wait for the ``listening`` line; returns the seconds."""
        if self.trace_files is None:
            command = [sys.executable, "-m", "repro.cli"]
        else:
            command = [
                sys.executable,
                str(self.root / "perfbench" / "traced_server.py"),
                *map(str, self.trace_files),
            ]
        command += [
            "serve",
            "--durable",
            str(self.directory),
            "--snapshot-every",
            str(SNAPSHOT_EVERY),
        ]
        environment = dict(
            os.environ, PYTHONPATH=str(self.root / "src"), OPENBLAS_NUM_THREADS="1"
        )
        self.started = time.perf_counter()
        with open(self.directory.parent / "server.stderr", "ab") as log:
            self.process = await asyncio.create_subprocess_exec(
                *command,
                cwd=self.root,
                env=environment,
                stdin=subprocess.DEVNULL,
                stdout=asyncio.subprocess.PIPE,
                stderr=log,
            )
        os.sched_setaffinity(self.process.pid, {SERVER_CPU})
        line = await asyncio.wait_for(self.process.stdout.readline(), TIMEOUT_S)
        elapsed = time.perf_counter() - self.started
        text = line.decode().strip()
        if not text.startswith("listening on "):
            raise RuntimeError(f"server did not start: {text!r}")
        self.port = int(text.rsplit(":", 1)[1])
        self._stdout_task = asyncio.create_task(self._drain_stdout())
        return elapsed

    async def _drain_stdout(self) -> None:
        while await self.process.stdout.readline():
            pass

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    async def dump_trace(self) -> None:
        """Ask a traced server to write its totals, and wait until it has."""
        summary = Path(self.trace_files[0])
        summary.unlink(missing_ok=True)
        os.kill(self.process.pid, signal.SIGUSR1)
        deadline = time.perf_counter() + TIMEOUT_S
        while not summary.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError("traced server did not dump its totals")
            await asyncio.sleep(0.01)

    async def kill(self) -> None:
        """SIGKILL the server, if it was started and still runs, and reap it."""
        if self.process is None:
            return
        if self.process.returncode is None:
            self.process.kill()
        await self.wait()

    async def wait(self) -> int:
        code = await asyncio.wait_for(self.process.wait(), TIMEOUT_S)
        if self._stdout_task is not None:
            await self._stdout_task
        return code


class Connection:
    """One NDJSON client connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=2**24
        )
        return cls(reader, writer)

    async def reply(self) -> dict:
        line = await asyncio.wait_for(self.reader.readline(), TIMEOUT_S)
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def ask(self, query: dict) -> dict:
        self.writer.write(json.dumps(query).encode() + b"\n")
        await self.writer.drain()
        return await self.reply()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def reply_fingerprint(reply: dict) -> dict | None:
    """``worker -> exact fields`` of an ``evaluate_all`` reply."""
    estimates = reply.get("estimates")
    if not isinstance(estimates, dict):
        return None
    return {
        int(worker): (
            entry["n_tasks"],
            entry["status"],
            float(entry["lower"]).hex(),
            float(entry["mean"]).hex(),
            float(entry["upper"]).hex(),
        )
        for worker, entry in estimates.items()
    }


def reference_fingerprint(estimates) -> dict:
    """The same fields from in-process ``WorkerErrorEstimate`` objects."""
    return {
        e.worker: (
            e.n_tasks,
            e.status.value,
            e.interval.lower.hex(),
            e.interval.mean.hex(),
            e.interval.upper.hex(),
        )
        for e in estimates
    }


def _encode(events) -> list[bytes]:
    return [b"[%d,%d,%d]\n" % (w, t, label) for w, t, label in events.tolist()]


def _chunks(lines: list[bytes], size: int) -> list[bytes]:
    return [b"".join(lines[start : start + size]) for start in range(0, len(lines), size)]


async def spawn_probe(root: Path, directory: Path) -> float:
    """Seconds from spawning a server on an empty directory to ``listening``."""
    server = Server(root, directory, None)
    elapsed = await server.start()
    await server.kill()
    return elapsed


def _newest_snapshot(directory: Path) -> str | None:
    names = sorted(path.name for path in directory.glob("snapshot-*.snap"))
    return names[-1] if names else None


async def run_serve(
    root: Path,
    workdir: Path,
    events,
    n_workers: int,
    reference: Callable[[int], dict],
    seconds: float,
    trace: bool,
) -> dict:
    """Phases A, B and C against one durable directory; see the module doc.

    ``reference(n)`` is the expected ``evaluate_all`` fingerprint after the
    first ``n`` events of ``events``.  This process runs on
    :data:`LOADGEN_CPU` meanwhile.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {LOADGEN_CPU})
    try:
        return await _run_serve(root, workdir, events, n_workers, reference, seconds, trace)
    finally:
        os.sched_setaffinity(0, allowed)


async def _run_serve(
    root: Path,
    workdir: Path,
    events,
    n_workers: int,
    reference: Callable[[int], dict],
    seconds: float,
    trace: bool,
) -> dict:
    directory = workdir / "durable"
    trace_files = (
        (workdir / "server-summary.json", workdir / "server-trace.json") if trace else None
    )
    resume_files = (
        (workdir / "resume-summary.json", workdir / "resume-trace.json") if trace else None
    )
    lines = _encode(events)
    n_tail = (SNAPSHOT_EVERY + REPLAY_BATCHES) * CHUNK
    n_phase_b = int(EVENT_RATE * seconds)
    n_phase_a = len(lines) // 2
    if n_phase_a + n_phase_b + n_tail > len(lines):
        raise ValueError(f"{seconds} s of Phase B needs a longer stream")
    phase_a = _chunks(lines[:n_phase_a], PHASE_A_WRITE)
    phase_b = _chunks(lines[n_phase_a : n_phase_a + n_phase_b], CHUNK)
    tail = _chunks(lines[n_phase_a + n_phase_b :], CHUNK)
    n_queries = int(QUERY_RATE * seconds)
    schedule = [
        (
            index / QUERY_RATE,
            {"query": "evaluate_all"}
            if index % EVALUATE_ALL_EVERY == EVALUATE_ALL_EVERY - 1
            else {"query": "worker", "worker": index % n_workers},
        )
        for index in range(n_queries)
    ]
    counts = {
        "attempted": 0, "replies": 0, "errors": 0, "missing": 0, "dropped": 0, "mismatches": 0
    }
    result: dict = {"counts": counts}

    async def ingest_phase(server: Server, ingest: Connection) -> None:
        """Phase A on ``server``: closed-loop writes, then a flush."""
        cpu = server.cpu_seconds()
        start = time.perf_counter()
        for chunk in phase_a:
            ingest.writer.write(chunk)
            await ingest.writer.drain()
        flushed = await ingest.ask({"query": "flush"})
        elapsed = time.perf_counter() - start
        result["ingest_events_per_s"].append(n_phase_a / elapsed)
        result["busy_a"].append((server.cpu_seconds() - cpu) / elapsed)
        counts["attempted"] += n_phase_a + 1
        counts["mismatches"] += flushed.get("applied") != n_phase_a

    result.update(spawn_s=[], ingest_events_per_s=[], busy_a=[])
    # Untraced Phase A repeats on throwaway servers (the traced run has
    # one server, so its totals cover exactly one Phase A).
    for repeat in range(INGEST_REPEATS - 1 if not trace else 0):
        server = Server(root, workdir / f"ingest-{repeat}", None)
        try:
            result["spawn_s"].append(await server.start())
            ingest = await Connection.open(server.port)
            try:
                await ingest_phase(server, ingest)
            finally:
                await ingest.close()
        finally:
            await server.kill()

    server = Server(root, directory, trace_files)
    connections: list[Connection] = []
    try:
        result["spawn_s"].append(await server.start())
        ingest = await Connection.open(server.port)
        connections.append(ingest)
        query = await Connection.open(server.port)
        connections.append(query)
        # Phase A: closed loop.
        await ingest_phase(server, ingest)

        # Phase B: open loop.
        cpu = server.cpu_seconds()
        start = time.perf_counter()
        event_late: list[float] = []
        query_late: list[float] = []
        latencies: dict[str, list[float]] = {"worker": [], "evaluate_all": []}

        async def send_events() -> None:
            for index, chunk in enumerate(phase_b):
                due = start + index * CHUNK / EVENT_RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                event_late.append(time.perf_counter() - due)
                ingest.writer.write(chunk)

        async def send_queries() -> None:
            for offset, message in schedule:
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                query_late.append(time.perf_counter() - due)
                query.writer.write(json.dumps(message).encode() + b"\n")

        async def read_replies() -> None:
            for offset, message in schedule:
                try:
                    reply = await query.reply()
                except (ConnectionError, asyncio.TimeoutError):
                    counts["dropped"] += 1
                    return
                arrived = time.perf_counter()
                counts["replies"] += 1
                if "error" in reply:
                    counts["errors"] += 1
                    continue
                if message["query"] == "worker":
                    valid = reply.get("worker") == message["worker"] and "upper" in reply
                else:
                    valid = len(reply.get("estimates", ())) == n_workers
                counts["mismatches"] += not valid
                latencies[message["query"]].append(arrived - (start + offset))

        tasks = [
            asyncio.create_task(send_events()),
            asyncio.create_task(send_queries()),
            asyncio.create_task(read_replies()),
        ]
        await asyncio.gather(*tasks[:2])
        sent_b = time.perf_counter()
        flushed = await ingest.ask({"query": "flush"})
        result["phase_b_drain_s"] = time.perf_counter() - sent_b
        await tasks[2]
        result["busy_b"] = (server.cpu_seconds() - cpu) / (time.perf_counter() - start)
        counts["missing"] += len(schedule) - counts["replies"]
        counts["attempted"] += n_phase_b + len(schedule) + 1
        sent = n_phase_a + n_phase_b
        counts["mismatches"] += flushed.get("applied") != sent
        result["latencies"] = latencies
        result["event_late"] = event_late
        result["query_late"] = query_late

        # Correctness after Phase B (untimed).
        counts["attempted"] += 1
        counts["mismatches"] += reply_fingerprint(
            await query.ask({"query": "evaluate_all"})
        ) != reference(sent)
        result["server_peak_rss_mb"] = server.peak_rss_mb()

        # Crash point: flushed batches until the next snapshot is written,
        # then exactly REPLAY_BATCHES more, so every resume replays the
        # same amount of log whatever the batching in phases A and B was.
        newest = _newest_snapshot(directory)
        replay = None
        chunks = iter(tail)
        while replay != REPLAY_BATCHES:
            chunk = next(chunks, None)
            if chunk is None:
                raise RuntimeError("the stream tail ran out before the crash point")
            ingest.writer.write(chunk + b'{"query": "flush"}\n')
            flushed = await ingest.reply()
            sent += chunk.count(b"\n")
            counts["attempted"] += chunk.count(b"\n") + 1
            counts["mismatches"] += flushed.get("applied") != sent
            if replay is not None:
                replay += 1
            elif _newest_snapshot(directory) != newest:
                replay = 0
        expected = reference(sent)
        if trace:
            await server.dump_trace()
    finally:
        for connection in connections:
            await connection.close()
        # Phase C: crash (the first kill), then resume on the same directory.
        killed = time.perf_counter()
        await server.kill()

    resumes = []
    for cycle in range(RESUME_REPEATS):
        server = Server(root, directory, resume_files)
        try:
            await server.start()
            connection = await Connection.open(server.port)
            try:
                reply = await connection.ask({"query": "evaluate_all"})
                resumes.append(time.perf_counter() - killed)
                result["busy_c"] = server.cpu_seconds() / (
                    time.perf_counter() - server.started
                )
                counts["attempted"] += 1
                counts["mismatches"] += reply_fingerprint(reply) != expected
                if cycle == RESUME_REPEATS - 1:
                    await connection.ask({"query": "shutdown"})
            finally:
                await connection.close()
            if cycle == RESUME_REPEATS - 1:
                counts["errors"] += await server.wait() != 0
            else:
                killed = time.perf_counter()
        finally:
            await server.kill()
    result["resume_s"] = resumes
    for name, files in (("server", trace_files), ("resume", resume_files)):
        if files is not None:
            result[f"{name}_totals"] = json.loads(files[0].read_text())["totals"]
    return result
