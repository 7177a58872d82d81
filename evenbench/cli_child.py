#!/usr/bin/env python3
"""Run `python -m evenzeta ARGS...` in this process with the span recorder installed.

Usage: python3 evenbench/cli_child.py verify --suite all --format json

Prints one JSON object: the CLI's exit code and standard output, the time
`import evenzeta` and its CLI module took, and the aggregated spans.  The
traced benchmark run starts this in place of `python -m evenzeta`.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import runpy
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def run_cli(args: list[str]) -> tuple[int, str]:
    """Run `python -m evenzeta ARGS` in this process; return (exit code, standard output)."""
    captured = io.StringIO()
    saved = sys.argv
    sys.argv = ["evenzeta", *args]
    code = 0
    try:
        with contextlib.redirect_stdout(captured):
            runpy.run_module("evenzeta", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.argv = saved
    return code, captured.getvalue()


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import evenzeta

    importlib.import_module("evenzeta.cli")
    import_s = time.perf_counter() - start
    sys.path.insert(0, str(BENCH))
    import tracer

    recorder = tracer.Recorder()
    tracer.install(recorder, evenzeta)
    code, stdout = run_cli(sys.argv[1:])
    print(json.dumps({
        "exit_code": code,
        "stdout": stdout,
        "import_s": import_s,
        "trace": recorder.aggregate(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
