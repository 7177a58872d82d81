#!/usr/bin/env python3
"""Measure the host's speed phases with a fixed pure-Python loop.

Usage: python3 evenbench/phases.py [--seconds 30] [--chunk-ms 20]

Runs the same integer loop in back-to-back chunks for the given time and
reports each chunk's time relative to the fastest chunk.  A host whose
virtual CPUs switch between speeds shows two clusters of ratios and runs
of consecutive slow chunks; the report gives the cluster medians and the
lengths of the slow phases.  Per window of --window seconds it also gives
the fastest chunk and the share of slow chunks, which shows whether every
window of a benchmark run's length still finds the host's fast state.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time


def _loop(n: int) -> int:
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


def _calibrate(chunk_s: float) -> int:
    n = 1000
    while True:
        start = time.perf_counter()
        _loop(n)
        if time.perf_counter() - start >= chunk_s:
            return n
        n *= 2


def measure(seconds: float, chunk_s: float, window_s: float) -> dict:
    n = _calibrate(chunk_s)
    stamps: list[tuple[float, float]] = []
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        _loop(n)
        stamps.append((start - begin, time.perf_counter() - start))
    fastest = min(d for _, d in stamps)
    ratios = [d / fastest for _, d in stamps]
    slow = [r >= 1.3 for r in ratios]
    phases: list[float] = []
    run_start = None
    for (at, _), is_slow in zip(stamps, slow):
        if is_slow and run_start is None:
            run_start = at
        elif not is_slow and run_start is not None:
            phases.append(at - run_start)
            run_start = None
    if run_start is not None:
        phases.append(seconds - run_start)
    windows: dict[int, list[float]] = {}
    for (at, _), r in zip(stamps, ratios):
        windows.setdefault(int(at // window_s), []).append(r)
    fast_ratios = [r for r in ratios if r < 1.3] or [1.0]
    slow_ratios = [r for r in ratios if r >= 1.3] or [1.0]
    return {
        "chunks": len(ratios),
        "chunk_s": round(fastest, 6),
        "slow_share": round(sum(slow) / len(slow), 3),
        "fast_ratio_median": round(statistics.median(fast_ratios), 3),
        "slow_ratio_median": round(statistics.median(slow_ratios), 3),
        "slow_phases": len(phases),
        "slow_phase_s": (
            [round(min(phases), 2), round(statistics.median(phases), 2), round(max(phases), 2)]
            if phases
            else []
        ),
        "windows": [
            {"best": round(min(w), 3), "slow_share": round(sum(r >= 1.3 for r in w) / len(w), 2)}
            for _, w in sorted(windows.items())
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--chunk-ms", type=float, default=20.0)
    parser.add_argument("--window", type=float, default=25.0, help="window length in seconds")
    args = parser.parse_args()
    print(json.dumps(measure(args.seconds, args.chunk_ms / 1000.0, args.window)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
