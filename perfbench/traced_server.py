"""Run ``repro-crowd`` with the benchmark's layer tracing installed.

Usage::

    python3 perfbench/traced_server.py SUMMARY.json TRACE.json serve --durable DIR ...

Installs :func:`tracing.install_serve_tracing`, then calls
``repro.cli.main`` with the remaining arguments.  The totals go to
``SUMMARY.json`` and the spans to ``TRACE.json`` (Chrome trace-event
format) when the server exits, and also on ``SIGUSR1`` so the load
generator can collect them before it kills the server.
"""

from __future__ import annotations

import signal
import sys

from tracing import Recorder, install_serve_tracing


def main(argv: list[str]) -> int:
    summary_path, trace_path, *cli_args = argv
    recorder = Recorder()
    install_serve_tracing(recorder)
    signal.signal(
        signal.SIGUSR1, lambda signum, frame: recorder.dump(summary_path, trace_path)
    )
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(summary_path, trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
