"""Crash-smoke drill: SIGKILL a real durable ingest, resume, byte-diff.

The in-process kill/resume fuzz (``tests/property`` ``resumed`` column)
exercises every backend at arbitrary cut points, but it simulates the crash
by cancelling the applier task.  This script is the outside-the-process
complement the CI crash-smoke job runs:

1. generate the 5k-event NDJSON/CSV fixture pair
   (:mod:`benchmarks.gen_stream_fixture`);
2. start a **real** ``repro-crowd ingest --follow --durable`` subprocess
   tailing a growing feed file, and feed it the fixture in small chunks;
3. ``SIGKILL`` the child at a random point while the WAL is growing —
   a genuine crash: no atexit hooks, no flushes, possibly a half-written
   record and a half-applied batch;
4. resume by re-running ``ingest`` over the **full** fixture against the
   same ``--durable`` directory (the CLI's create-or-resume front door) —
   replay restores the acknowledged state, re-fed events are idempotent
   last-write-wins upserts;
5. byte-diff the resumed estimate table against a from-scratch
   ``evaluate --backend dense`` over the paired CSV;
6. check that the durable directory did not grow: at most
   ``DEFAULT_KEEP_SNAPSHOTS`` ``.snap`` files, at most one recycled spare
   and no ``.tmp`` residue of the killed snapshot write.

Any divergence — a lost acknowledged batch, a double-applied record, crash
residue parsed as data or left on disk — shows up as a table diff or a
failed directory check and a non-zero exit.

Usage::

    PYTHONPATH=src python benchmarks/crash_smoke.py [--seed N] [--events N]
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.serve.durable import (  # noqa: E402 - needs the path above
    DEFAULT_KEEP_SNAPSHOTS,
    SNAPSHOT_SUFFIX,
    SPARE_NAME,
)


def _durable_files(directory: str) -> tuple[list[str], list[str], list[str]]:
    """``(snapshots, spares, .tmp leftovers)`` in a durable directory."""
    names = sorted(os.listdir(directory))
    return (
        [name for name in names if name.endswith(SNAPSHOT_SUFFIX)],
        [name for name in names if name == SPARE_NAME],
        [name for name in names if name.endswith(SNAPSHOT_SUFFIX + ".tmp")],
    )


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def _run_cli(args: list[str], output_path: str) -> None:
    with open(output_path, "w", encoding="utf-8") as handle:
        subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            stdout=handle,
            stderr=subprocess.PIPE,
            env=_cli_env(),
            check=True,
            text=True,
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1157,
                        help="controls the feed chunking and the kill point")
    parser.add_argument("--events", type=int, default=5000)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--snapshot-every", type=int, default=5,
                        help="snapshot cadence of the killed session (batches)")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)

    with tempfile.TemporaryDirectory(prefix="crash-smoke-") as root:
        ndjson = os.path.join(root, "stream_events.ndjson")
        csv = os.path.join(root, "stream_responses.csv")
        subprocess.run(
            [
                sys.executable,
                os.path.join(REPO_ROOT, "benchmarks", "gen_stream_fixture.py"),
                "--events", str(args.events),
                "--ndjson", ndjson,
                "--csv", csv,
            ],
            env=_cli_env(),
            check=True,
        )
        with open(ndjson, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        print(f"fixture: {len(lines)} events")

        durable_dir = os.path.join(root, "durable")
        feed = os.path.join(root, "feed.ndjson")
        with open(feed, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:50])

        child = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "ingest", feed,
                "--follow", "--idle-timeout", "120",
                "--batch-size", str(args.batch_size),
                "--durable", durable_dir,
                "--snapshot-every", str(args.snapshot_every),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=_cli_env(),
            text=True,
        )
        try:
            # Feed the rest in random chunks, then poll the WAL and kill
            # once it passes a random fraction of the expected full size —
            # mid-stream, mid-batch, possibly mid-snapshot, wherever the
            # scheduler lands.  ~12 WAL bytes per applied event (the
            # compact [w,t,l] encoding plus amortized record overhead).
            kill_fraction = rng.uniform(0.2, 0.8)
            threshold = int(12 * kill_fraction * len(lines))
            offset = 50
            killed = False

            def wal_size() -> int:
                wal = os.path.join(durable_dir, "wal.ndjson")
                return os.path.getsize(wal) if os.path.exists(wal) else 0

            def kill_child(fed: int) -> None:
                os.kill(child.pid, signal.SIGKILL)
                child.wait()
                print(
                    f"SIGKILL after feeding {fed} events (WAL at "
                    f"{wal_size()} bytes, threshold {threshold}, "
                    f"kill fraction {kill_fraction:.2f})"
                )

            while offset < len(lines):
                step = rng.randint(20, 200)
                with open(feed, "a", encoding="utf-8") as handle:
                    handle.writelines(lines[offset : offset + step])
                offset += step
                time.sleep(0.005)
                if child.poll() is not None:
                    print(child.stderr.read(), file=sys.stderr)
                    print("FAIL: ingest child exited before the kill",
                          file=sys.stderr)
                    return 1
                if wal_size() > threshold:
                    kill_child(offset)
                    killed = True
                    break
            if not killed:
                # Fed everything before the WAL caught up — poll the
                # applier's backlog draining into the log and kill
                # mid-drain (or after it, on a machine fast enough to
                # finish; resume-after-complete must hold too).
                deadline = time.monotonic() + 30
                while (
                    wal_size() <= threshold
                    and child.poll() is None
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.005)
                if child.poll() is not None:
                    print(child.stderr.read(), file=sys.stderr)
                    print("FAIL: ingest child exited before the kill",
                          file=sys.stderr)
                    return 1
                kill_child(offset)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup on error
                child.kill()
                child.wait()

        snapshots, spares, leftovers = _durable_files(durable_dir)
        print(
            f"durable dir after crash: {wal_size()} WAL bytes, "
            f"{len(snapshots)} snapshot(s), {len(spares)} spare, "
            f"{len(leftovers)} .tmp"
        )

        # Resume over the full fixture: the CLI resumes the directory,
        # replays the WAL delta, then re-feeds the file (idempotent).
        resumed_out = os.path.join(root, "resumed.txt")
        batch_out = os.path.join(root, "batch.txt")
        _run_cli(["ingest", ndjson, "--durable", durable_dir], resumed_out)
        _run_cli(["evaluate", csv, "--backend", "dense"], batch_out)

        with open(resumed_out, "r", encoding="utf-8") as handle:
            resumed_table = handle.read()
        with open(batch_out, "r", encoding="utf-8") as handle:
            batch_table = handle.read()
        if resumed_table != batch_table:
            print("FAIL: resumed estimate table differs from batch evaluate",
                  file=sys.stderr)
            sys.stdout.write(resumed_table)
            sys.stdout.write(batch_table)
            return 1
        print("crash smoke: resumed estimates byte-identical to batch evaluate")

        snapshots, spares, leftovers = _durable_files(durable_dir)
        if len(snapshots) > DEFAULT_KEEP_SNAPSHOTS or len(spares) > 1 or leftovers:
            print(
                f"FAIL: durable dir grew: snapshots {snapshots}, spares "
                f"{spares}, leftovers {leftovers} (allowed: "
                f"{DEFAULT_KEEP_SNAPSHOTS} snapshots, 1 spare, no .tmp)",
                file=sys.stderr,
            )
            return 1
        print(
            f"crash smoke: durable dir bounded ({len(snapshots)} snapshot(s), "
            f"{len(spares)} spare, no .tmp)"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
