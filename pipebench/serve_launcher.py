"""Run the unchanged `repro serve` CLI, optionally with layer spans installed.

Usage: ``python3 pipebench/serve_launcher.py [--trace-out FILE] [--cpu N] -- <serve args>``

With ``--cpu`` the process (and so every thread it starts) runs on CPU N
only.

With ``--trace-out`` the benchmark's probes are installed in this process
before the CLI starts, plus a span around the JSON encoding of responses,
and the per-thread ledger is written to FILE when the server exits (it
exits on SIGINT exactly as on Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import types
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1]),
                str(Path(__file__).resolve().parents[1] / "src")]

from pipebench.tracer import Tracer, install, ledger  # noqa: E402


def _trace_encoding(tracer: Tracer) -> None:
    """Span `json.dumps` as called by the HTTP front end (serve.encode)."""
    import repro.serve.app as app

    real = app.json

    def dumps(*args, **kwargs):
        with tracer.span("serve.encode"):
            return real.dumps(*args, **kwargs)

    shim = types.ModuleType("json")
    shim.__dict__.update(real.__dict__)
    shim.dumps = dumps
    app.json = shim


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    import repro.cli
    from pipebench.probes import PROBES

    tracer = None
    if args.trace_out is not None:
        tracer = Tracer()
        install(tracer, PROBES)
        _trace_encoding(tracer)
    code = repro.cli.main(["serve", *serve_args])
    if tracer is not None:
        # The refresh thread is a daemon still polling; take what has ended.
        book = ledger(tracer.finished())
        args.trace_out.write_text(json.dumps({
            "self_s": book.self_s, "total_s": book.total_s,
            "threads": list(book.threads.values()), "counts": tracer.counts,
        }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
