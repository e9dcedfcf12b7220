"""Measurements recorded once in NOTES.md (not part of any run).

    python3 perfbench/notes.py curve      # time, closures, vars against k
    python3 perfbench/notes.py sharding   # analyze_program jobs=2 vs serial

Each point starts from empty closure memo tables so the curve shows the
cost of one program alone.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import scalefam  # noqa: E402

from repro.analyses.simple_symbolic import analyze_program  # noqa: E402
from repro.cgraph.constraint_graph import clear_closure_caches  # noqa: E402
from repro.cgraph.stats import global_stats  # noqa: E402
from repro.core.driver import analyze_with_fallback  # noqa: E402
from repro.lang import parse  # noqa: E402

CURVE = {"fanout": (1, 2, 3, 4, 5, 6, 7, 8), "pipeline": (2, 4, 6, 8, 10, 12)}


def curve() -> None:
    print("| stages | k | time (s) | full closures | avg vars | closure share | rung |")
    print("|---|---|---|---|---|---|---|")
    for kind, ks in CURVE.items():
        for k in ks:
            program = scalefam.pure(kind, k)
            clear_closure_caches()
            stats = global_stats()
            stats.reset()
            start = time.perf_counter()
            report = analyze_with_fallback(parse(program.source))
            elapsed = time.perf_counter() - start
            print(f"| {kind} | {k} | {elapsed:.2f} | {stats.full_calls} | "
                  f"{stats.avg_full_vars():.1f} | {stats.closure_time / elapsed:.0%} | "
                  f"{report.rung_name} ({report.result.confidence}) |", flush=True)


def sharding(seed: int = 1) -> None:
    print("| program | serial (s) | jobs=2 (s) | speedup | same answer |")
    print("|---|---|---|---|---|")
    for program in scalefam.make_round(seed, 0) + scalefam.make_round(seed, 1):
        tree = parse(program.source)
        runs = []
        for jobs in (1, 2):
            clear_closure_caches()
            start = time.perf_counter()
            result, _cfg, _client = analyze_program(tree, jobs=jobs)
            runs.append((time.perf_counter() - start, result))
        (serial, a), (sharded, b) = runs
        same = (a.matches == b.matches and a.confidence == b.confidence
                and sorted(d.code for d in a.diagnostics) == sorted(d.code for d in b.diagnostics))
        print(f"| {program.name} ({'-'.join(program.kinds)}) | {serial:.2f} | {sharded:.2f} | "
              f"{serial / sharded:.2f}x | {'yes' if same else 'NO'} |", flush=True)


if __name__ == "__main__":
    {"curve": curve, "sharding": sharding}[sys.argv[1]]()
