"""The repository benchmark: one workload per run, every answer checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --compare old.json new.json

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs the same workload with the layer wrappers on (the service hosted in
process) and reports the per-layer metrics, writing the spans to
``.perfbench/trace-<workload>.jsonl``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Any unsound verdict (a
dynamic match the static answer misses) or a cache hit that differs from
its miss makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scale", "corpus", "serve")


def host_block(seed: int) -> dict:
    """Where and on what code the numbers were taken."""
    import numpy

    import workloads

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "hit_rate_per_s": workloads.HIT_RATE,
        "fresh_rate_per_s": workloads.FRESH_RATE,
        "hit_tail_limit_ms": workloads.HIT_TAIL_LIMIT_MS,
    }


def same_host(a: dict, b: dict) -> bool:
    keys = ("cpu_model", "nproc", "python", "numpy")
    return all(a.get(k) == b.get(k) for k in keys)


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def setup_only(workload: str, seed: int) -> None:
    """Everything a run does before its window opens, for setup timing."""
    import shutil

    import workloads

    import repro.core.driver  # noqa: F401 - the analysis stack a run imports
    import repro.corpus.sweep  # noqa: F401

    workloads.make_round(workload, seed, 0)
    workloads.make_round(workload, seed, 1)
    if workload == "corpus":
        state_dir = ROOT / ".perfbench" / f"setup-{os.getpid()}"
        workloads.SubmitPath(state_dir).close()
        shutil.rmtree(state_dir)


def time_setups(workload: str, seed: int) -> list:
    import workloads

    samples = []
    for _ in range(workloads.SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-only", "--workload",
                        workload, "--seed", str(seed)], cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return samples


# -- the result row ----------------------------------------------------------------

#: how each workload's row names its metrics (the JSON keys stay generic)
ROW_NAMES = {
    "closed": [
        ("programs_per_s", "throughput_per_s", "1/s"),
        ("verdict_p50_ms", "p50_ms", "ms"),
        ("verdict_tail_ms", "tail_ms", "ms"),
        ("exact_share", "exact_share", "ratio"),
        ("failed_share", None, "ratio"),
        ("peak_rss_mb", "peak_rss_mb", "MB"),
        ("setup_s", "setup_s", "s"),
    ],
    "serve": [
        ("hit_p50_ms", "p50_ms", "ms"),
        ("hit_tail_ms", "tail_ms", "ms"),
        ("miss_p50_ms", "miss_p50_ms", "ms"),
        ("miss_tail_ms", "miss_tail_ms", "ms"),
        ("max_rps", "throughput_per_s", "1/s"),
        ("exact_share", "exact_share", "ratio"),
        ("failed_share", None, "ratio"),
        ("peak_rss_mb", "peak_rss_mb", "MB"),
        ("state_bytes_per_req", None, "B"),
        ("setup_s", "setup_s", "s"),
    ],
}


def print_row(workload: str, outcome) -> None:
    kind = "serve" if workload == "serve" else "closed"
    cells = []
    for label, key, unit in ROW_NAMES[kind]:
        if label == "failed_share":
            value = outcome.failed / outcome.attempted
        elif label == "state_bytes_per_req":
            value = outcome.notes["state_bytes_per_req"]
        else:
            value = outcome.metrics[key]
        cell = f"{label}={value:.4g} {unit}"
        if key in ("tail_ms", "miss_tail_ms"):
            prefix = "miss_" if key.startswith("miss_") else ""
            cell += (f" (p{outcome.metrics[f'_{prefix}tail_pct']} of "
                     f"{outcome.metrics[f'_{prefix}n']})")
        cells.append(cell)
    print(f"row {workload}: " + " | ".join(cells))


def run_one(args) -> int:
    import workloads
    from layers import PER_LAYER, Tracer

    spec = benchmark_spec()
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    if args.workload == "serve":
        outcome = workloads.run_serve(workdir, args.seed, args.seconds, tracer)
    else:
        setups = time_setups(args.workload, args.seed)
        outcome = workloads.run_closed(args.workload, args.seed, args.seconds, workdir, tracer)
        outcome.metrics["setup_s"] = statistics.median(setups)
    host = host_block(args.seed)
    print("host " + json.dumps(host, sort_keys=True))
    print("notes " + json.dumps(outcome.notes, sort_keys=True))
    print_row(args.workload, outcome)
    if args.trace:
        trace_path = workdir / f"trace-{args.workload}.jsonl"
        tracer.write(trace_path)
        print(f"trace {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = outcome.layers
        units = dict(PER_LAYER)
        for name, unit in wanted:
            print(f"layer {name} = {values[name]:.6g} {units[name]}")
    else:
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = outcome.metrics
    correct = outcome.unsound == 0 and not outcome.notes.get("mismatched_hits")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in wanted},
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"workload": args.workload, "host": host, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one row each."""
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        for line in done.stdout.splitlines():
            if line.startswith(("row ", "host ")) and not (
                    line.startswith("host ") and workload != WORKLOADS[0]):
                print(line)
        status = status or done.returncode
    return status


def compare(old_path: str, new_path: str) -> int:
    """Per-metric change from one saved result to another (``--out``)."""
    with open(old_path) as handle:
        old = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    if not same_host(old["host"], new["host"]):
        print("different hosts: these results are not comparable, no regression is reported")
        for key in ("cpu_model", "nproc", "python", "numpy"):
            print(f"  {key}: {old['host'].get(key)} -> {new['host'].get(key)}")
        return 0
    for name, entry in new["metrics"].items():
        before = old["metrics"].get(name, {}).get("value")
        if before:
            change = entry["value"] / before - 1.0
            print(f"{name}: {before:.6g} -> {entry['value']:.6g} ({change:+.1%})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result with its host block here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass", dest="pass_index", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an exception, so that subprocess.run kills and
    # reaps the pass or set-up process it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    if args.pass_index is not None:
        import workloads

        record = workloads.run_pass(args.workload, args.seed, args.pass_index,
                                    ROOT / ".perfbench")
        print(json.dumps(record))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
