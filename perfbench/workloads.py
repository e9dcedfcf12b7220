"""The three workloads: ``scale`` and ``corpus`` (closed loops, in passes
of one fresh process each) and ``serve`` (two open-loop Poisson streams
against the analysis service over HTTP).

Every workload returns a :class:`Outcome`: the end-to-end metrics, the
attempted/failed counts and, for a traced run, the per-layer metrics.
The oracle (``repro.runtime`` via ``differential_check``) and the program
generators only run outside the timed window.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import measure
import scalefam

RUN_PY = Path(__file__).resolve().parent / "run.py"

# -- workload constants ------------------------------------------------------

#: one corpus round: topology -> programs, in the generator's own weights.
#: Wrapping the communication phase in a repeat loop (the generator does so
#: for about a third of its programs) doubles a program's cost, so a round
#: also holds a fixed number of repeated programs: one per topology of
#: weight 2 or 3, and two of the four weight-1 topologies, alternating.
CORPUS_QUOTAS = {
    "broadcast": 3, "gather": 3, "scatter": 2, "exchange_root": 3, "shift": 3,
    "neighbor_exchange": 2, "pipeline": 2, "pairwise": 2, "master_worker": 1,
    "ring_modular": 1, "leaky": 1, "sequential": 1,
}
#: the service streams use one-stage scale-family programs: every fresh
#: program costs about the same and little CPU, so the miss latency and
#: the hit stream beside it reflect the service path, not the program mix
SERVE_KS = (1, 1, 1, 1)
#: one pass of a closed loop analyzes the first PASS_ROUNDS rounds back
#: to back in a fresh process; a run makes a fixed number of passes, so
#: every run times every program the same number of times
PASS_ROUNDS = 2
#: nominal seconds per pass, which set how many passes fill the window
PASS_SECONDS = 8.0
MIN_PASSES = 3
PASS_TIMEOUT_S = 170.0
#: a closed loop's verdict median is the mean of the middle half of its
#: times (ranks 25-75%).  About a quarter of them carry a full garbage
#: collection, which lands on whichever program crosses the threshold, so
#: the times near the median mix programs with and without one; a band of
#: ranks 40-60% moved 1.3x as much as the host's speed did (corpus)
CLOSED_P50_BAND = 25
#: The window runs three phases one after the other: repeats at HIT_RATE,
#: then fresh programs at FRESH_RATE, then a ramp of repeats.  Run side by
#: side, the two streams' latencies mostly measured how often a repeat
#: happened to land on a forked miss attempt (run-to-run spreads of 20-50%);
#: in sequence each path is timed on its own, and a change that trades one
#: for the other still shows in the same run.
HIT_RATE = 10.0
HIT_SHARE = 0.35
FRESH_RATE = 4.0
FRESH_SHARE = 0.4
#: the ramp starts at RAMP_START and multiplies the rate by RAMP_FACTOR
#: every RAMP_STEP_S until the window ends (~500/s)
RAMP_START = 30.0
RAMP_FACTOR = 1.6
RAMP_STEP_S = 1.0
#: max_rps is the highest hit rate whose tail latency stays under this
HIT_TAIL_LIMIT_MS = 100.0
#: a ramp step this far behind schedule has failed; the ramp stops there
RAMP_GIVE_UP_LAG_S = 0.5
#: set-ups timed per run; setup_s is their median
SETUP_SAMPLES = 5
WAIT_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    unsound: int = 0
    notes: Dict[str, object] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CorpusProgram:
    name: str
    topology: str
    source: str
    np_values: tuple


def _corpus_cells(index: int) -> Dict[tuple, int]:
    """(topology, repeated) -> programs in round ``index``."""
    cells: Dict[tuple, int] = {}
    singles = [t for t, w in CORPUS_QUOTAS.items() if w == 1]
    for topology, weight in CORPUS_QUOTAS.items():
        if weight > 1:
            cells[(topology, True)] = 1
            cells[(topology, False)] = weight - 1
        else:
            repeated = (singles.index(topology) + index) % 2 == 0
            cells[(topology, repeated)] = 1
    return cells


def corpus_round(seed: int, index: int, pass_index: int = 0) -> List[CorpusProgram]:
    """Round ``index``: generator programs filling every (topology,
    repeated) cell of :func:`_corpus_cells`.

    Which programs fill round ``index`` is one fixed draw from the
    generator's seed stream; the run seed and the pass number order them.
    Program costs are heavy-tailed (a few take 20x the median), so letting
    the run seed pick the programs would make a run's numbers depend
    mostly on which heavy programs it drew.  A program's cost also depends
    on which programs ran before it (memo tables), so every pass of a run
    takes another order and the per-program medians average over orders.
    """
    from repro.corpus.generator import generate

    design = random.Random(f"perfbench-corpus-design:{index}")
    need = _corpus_cells(index)
    chosen: List[CorpusProgram] = []
    while any(need.values()):
        generated = generate(design.randrange(2**32))
        cell = (str(generated.axes["topology"]), bool(generated.axes["repeats"]))
        if need.get(cell, 0) > 0:
            need[cell] -= 1
            chosen.append(CorpusProgram(generated.corpus_id, cell[0], generated.source,
                                        tuple(generated.np_values)))
    random.Random(f"perfbench-corpus:{seed}:{pass_index}:{index}").shuffle(chosen)
    return chosen


def make_round(workload: str, seed: int, index: int, pass_index: int = 0) -> list:
    if workload == "scale":
        return scalefam.make_round(seed, index)
    return corpus_round(seed, index, pass_index)


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _latency_metrics(prefix: str, seconds: List[float],
                     p50_band: float = 10) -> Dict[str, float]:
    ms = [s * 1000.0 for s in seconds]
    value, pct, n = measure.tail(ms)
    return {f"{prefix}p50_ms": measure.band(ms, 50, p50_band), f"{prefix}tail_ms": value,
            f"_{prefix}tail_pct": pct, f"_{prefix}n": n}


# -- closed loops: scale and corpus ----------------------------------------------


@dataclass
class _Verdict:
    item: object
    claimed: set = field(default_factory=set)
    confidence: str = ""
    seconds: float = 0.0
    start: float = 0.0
    error: str = ""


class DirectPath:
    """``scale``: parse and climb the fallback ladder in this thread."""

    def verdict(self, verdict: _Verdict) -> None:
        import repro.lang as lang
        from repro.core import driver

        report = driver.analyze_with_fallback(lang.parse(verdict.item.source))
        verdict.claimed = set(report.result.matches)
        verdict.confidence = report.result.confidence

    def close(self) -> None:
        pass


class SubmitPath:
    """``corpus``: each program goes through the analysis service's public
    ``submit`` (admission, cache, journal, queue, worker, cache store),
    hosted in this process with inline isolation and no HTTP, then is
    submitted again, which must be a cache hit with the same answer.

    One client submits one program at a time, so the service gets one
    worker thread: with two, which thread picks a job up is a race, the
    memo tables are built in two malloc arenas, and peak RSS moved by
    +-10% from run to run."""

    def __init__(self, state_dir: Path):
        from repro.serve.daemon import AnalysisService, ServiceConfig

        if state_dir.exists():
            shutil.rmtree(state_dir)
        self.state_dir = state_dir
        self.service = AnalysisService(
            ServiceConfig(state_dir=state_dir, workers=1, isolation="inline"))
        self.service.start()
        self.mismatched = 0

    def _submit(self, source: str):
        from repro.serve.daemon import AnalyzeRequest

        status, payload = self.service.submit(AnalyzeRequest(program=source))
        if status == "accepted":
            if not payload.wait(WAIT_TIMEOUT_S):
                raise RuntimeError("job did not finish in time")
            return "miss", payload.result
        if status != "hit":
            raise RuntimeError(f"service answered {status}: {payload}")
        return status, payload

    def verdict(self, verdict: _Verdict) -> None:
        _status, document = self._submit(verdict.item.source)
        verdict.claimed = {tuple(pair) for pair in document["matches"]}
        verdict.confidence = document["confidence"]
        self.repeat = (verdict, document)

    def check_repeat(self, log) -> None:
        verdict, document = self.repeat
        status, again = self._submit(verdict.item.source)
        if status != "hit" or again != document:
            self.mismatched += 1
            verdict.error = "repeat submission was not a cache hit with the same answer"
            log(f"MISMATCH {verdict.item.name}: {verdict.error}")

    def close(self) -> None:
        self.service.drain(timeout=30.0)


def work_set(workload: str, seed: int, pass_index: int) -> list:
    """The programs pass ``pass_index`` analyzes, in order."""
    return [item for index in range(PASS_ROUNDS)
            for item in make_round(workload, seed, index, pass_index)]


def one_pass(workload: str, seed: int, pass_index: int, workdir: Path, tracer=None,
             log=print):
    """Analyze the work set back to back in this process, one client, the
    memo tables carried from each program to the next.  Returns the
    verdicts and the path; a ``corpus`` path's state dir is the caller's
    to remove."""
    from repro.cgraph.stats import global_stats

    stats = global_stats()
    path = (DirectPath() if workload == "scale"
            else SubmitPath(workdir / f"corpus-service-{os.getpid()}"))
    verdicts: List[_Verdict] = []
    if tracer is not None:
        tracer.install()
    try:
        for item in work_set(workload, seed, pass_index):
            verdict = _Verdict(item)
            if tracer is not None:
                tracer.group = f"p{len(verdicts)}"
            full0, vars0 = stats.full_calls, len(stats.full_vars)
            closure0 = stats.closure_time
            verdict.start = time.perf_counter()
            try:
                path.verdict(verdict)
            except Exception as exc:  # counted as a failed operation
                verdict.error = f"{type(exc).__name__}: {exc}"
            verdict.seconds = time.perf_counter() - verdict.start
            verdicts.append(verdict)
            if workload == "scale":
                new_vars = stats.full_vars[vars0:]
                log(f"program {item.name} k={item.k} stages={'-'.join(item.kinds)} "
                    f"full_closures={stats.full_calls - full0} "
                    f"avg_vars={sum(new_vars) / max(1, len(new_vars)):.1f} "
                    f"closure_share={(stats.closure_time - closure0) / verdict.seconds:.2f} "
                    f"time_s={verdict.seconds:.3f} confidence={verdict.confidence}")
            elif not verdict.error:
                path.check_repeat(log)
    finally:
        if tracer is not None:
            tracer.uninstall()
        path.close()
    return verdicts, path


def pass_record(verdicts: List[_Verdict], path) -> dict:
    """One pass as plain data: what a pass process prints."""
    return {
        "seconds": [v.seconds for v in verdicts],
        "answers": [{"claimed": sorted(v.claimed), "confidence": v.confidence,
                     "error": v.error} for v in verdicts],
        "rss_mb": peak_rss_mb(),
        "mismatched": getattr(path, "mismatched", 0),
    }


def run_pass(workload: str, seed: int, pass_index: int, workdir: Path) -> dict:
    """The body of a pass process: one pass, its ``program`` lines kept."""
    lines: List[str] = []
    verdicts, path = one_pass(workload, seed, pass_index, workdir, log=lines.append)
    if isinstance(path, SubmitPath):
        shutil.rmtree(path.state_dir, ignore_errors=True)
    return dict(pass_record(verdicts, path), log=lines)


def spawn_pass(workload: str, seed: int, index: int) -> dict:
    """Pass ``index`` in a fresh interpreter.  Its hash seed is drawn from
    the run seed and the pass number: set and dict orders steer how much
    work the analysis does (the same program took 0.3 s under one hash
    seed and 1.0 s under another), so the per-program medians also average
    over orders, and the same seed repeats the same run."""
    hash_seed = random.Random(f"perfbench-hash:{seed}:{index}").randrange(2**32)
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--pass", str(index), "--workload", workload,
         "--seed", str(seed)],
        cwd=RUN_PY.parent.parent, env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
        capture_output=True, text=True, timeout=PASS_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} pass {index} exited {done.returncode}: "
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def pass_count(seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS))


def run_closed(workload: str, seed: int, seconds: float, workdir: Path, tracer=None,
               log=print) -> Outcome:
    """The same programs analyzed in :func:`pass_count` passes, each in a
    fresh process (a program's cost depends on the memo tables the
    programs before it left, so every pass starts from the same state).

    The host runs slow for stretches of a few seconds (±20%), and a
    program's cost is heavy-tailed, so one pass over many programs measures
    mostly when the slow stretches fell.  About a quarter of a pass is
    garbage collection, in full collections that land on whichever program
    crosses the threshold, which changes with the order and the hash seed.
    Throughput is taken over the median pass, and the verdict median and
    tail over all passes' times, so all three keep that cost.  With a
    tracer, one pass runs in this process, traced.
    """
    if tracer is None:
        records = [spawn_pass(workload, seed, index)
                   for index in range(pass_count(seconds))]
        for line in records[0]["log"]:
            log(line)
        return closed_outcome(workload, seed, records, log)
    verdicts, path = one_pass(workload, seed, 0, workdir, tracer, log)
    try:
        outcome = closed_outcome(workload, seed, [pass_record(verdicts, path)], log)
        outcome.layers = closed_layers(tracer, verdicts, sum(v.seconds for v in verdicts), path)
    finally:
        if isinstance(path, SubmitPath):
            shutil.rmtree(path.state_dir, ignore_errors=True)
    return outcome


def closed_outcome(workload: str, seed: int, records: List[dict], log) -> Outcome:
    """Check every answer of every pass and compute the end-to-end metrics."""
    import repro.lang as lang

    failed = exact = unsound = 0
    checked: Dict[tuple, bool] = {}
    answers: Dict[str, set] = {}
    for pass_index, record in enumerate(records):
        items = work_set(workload, seed, pass_index)
        for item, answer in zip(items, record["answers"]):
            answers.setdefault(item.source, set()).add(
                (str(answer["claimed"]), answer["confidence"]))
            if answer["error"]:
                failed += 1
                log(f"error {item.name}: {answer['error']}")
                continue
            if answer["confidence"] == "exact":
                exact += 1
            claimed = frozenset(tuple(pair) for pair in answer["claimed"])
            key = (item.source, claimed)
            if key not in checked:
                checked[key] = _unsound(lang.parse(item.source), set(claimed), item.np_values)
                if checked[key]:
                    log(f"UNSOUND {item.name}: static matches miss a dynamic match")
            if checked[key]:
                unsound += 1
                failed += 1
    n = len(items) * len(records)
    pooled = [t for record in records for t in record["seconds"]]
    metrics = {
        "throughput_per_s": len(items) / statistics.median(sum(r["seconds"]) for r in records),
        "exact_share": exact / n,
        "answered_share": (n - failed) / n,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
    }
    metrics.update(_latency_metrics("", pooled, CLOSED_P50_BAND))
    metrics.update(_latency_metrics("miss_", pooled, CLOSED_P50_BAND))
    notes = {
        "passes": len(records),
        "programs_per_pass": len(items),
        "mismatched_hits": sum(r["mismatched"] for r in records),
        "answers_differing_across_passes": sum(len(a) > 1 for a in answers.values()),
    }
    if workload == "corpus":
        notes["isolation"] = "inline, 1 worker (service hosted in the pass process, no HTTP)"
    return Outcome(metrics, attempted=n, failed=failed, unsound=unsound, notes=notes)


def _unsound(program, claimed: set, np_values) -> bool:
    from repro.corpus.sweep import differential_check

    _dynamic, _statuses, divergences = differential_check(program, claimed, np_values)
    return bool(divergences)


# -- the service: open-loop streams against a child daemon --------------------------


def analyze(address, source: str, trace_id: Optional[str] = None):
    """POST one program on its own connection; ``(status, document)``.

    One connection per request, as the repository's load generators do:
    on a kept-alive connection every answer can stall ~40 ms on a delayed
    ACK, in a timing-dependent share of requests, which makes every
    latency bimodal (see NOTES.md)."""
    body = json.dumps({"program": source, "wait": True})
    headers = {"Content-Type": "application/json", "Connection": "close"}
    if trace_id:
        headers["X-Repro-Trace"] = trace_id
    conn = http.client.HTTPConnection(*address, timeout=WAIT_TIMEOUT_S)
    try:
        conn.request("POST", "/v1/analyze", body, headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    except (OSError, http.client.HTTPException, ValueError) as exc:
        return 0, {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        conn.close()


def warm(address, sources: List[str]) -> Dict[str, dict]:
    """Submit every source once over two connections; return the answers."""
    answers: Dict[str, dict] = {}
    errors: List[str] = []

    def worker(part):
        for source in part:
            status, doc = analyze(address, source)
            if status != 200 or "result" not in doc:
                errors.append(f"{status} {doc.get('error', '')}")
            else:
                answers[source] = doc["result"]

    threads = [threading.Thread(target=worker, args=(sources[i::2],)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"cache warm-up failed: {errors[:3]}")
    return answers


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _stream(address, due, sources, results, tag, tracer=None, give_up=None):
    def send(i):
        return analyze(address, sources[i], f"{tag}{i:06d}" if tracer is not None else None)

    results.extend(measure.run_open_loop(due, send, give_up=give_up))


def plan_streams(seed: int, seconds: float):
    """Due times (relative to the window start) of both streams, plus the
    ramp steps as ``(rate, first index, end index)`` into the hit stream;
    the steady phase is the first step."""
    rng = random.Random(f"perfbench-serve-due:{seed}")
    hit_end = seconds * HIT_SHARE
    fresh_end = seconds * (HIT_SHARE + FRESH_SHARE)
    hit_due = measure.poisson_schedule(HIT_RATE, 0.0, hit_end, rng)
    fresh_due = measure.poisson_schedule(FRESH_RATE, hit_end, fresh_end, rng)
    steps = [(HIT_RATE, 0, len(hit_due))]
    rate, start = RAMP_START, fresh_end
    while start + RAMP_STEP_S <= seconds + 1e-9:
        step = measure.poisson_schedule(rate, start, start + RAMP_STEP_S, rng)
        steps.append((rate, len(hit_due), len(hit_due) + len(step)))
        hit_due.extend(step)
        rate *= RAMP_FACTOR
        start += RAMP_STEP_S
    return hit_due, steps, fresh_due


def max_rps(records, steps) -> float:
    """Highest hit rate that keeps the tail under the limit.

    A step passes when its tail is under :data:`HIT_TAIL_LIMIT_MS`, none
    of its requests failed, and its backlog did not grow past the limit
    (the last tenth of its requests went out less than the limit late).
    The ramp ends at the first failing step whose next step fails too (a
    single failing step between passing ones is a hiccup, not the limit).
    The answer is interpolated, in log latency, to where the tail crosses
    the limit between the last passing step and that failing one; when the
    steady rate already fails, it is scaled down by the tail's excess.
    """
    limit = HIT_TAIL_LIMIT_MS
    verdicts = []  # (rate, tail or None when the step is incomplete, passed)
    for rate, lo, hi in steps:
        chunk = records[lo:hi]
        if not chunk or len(chunk) < hi - lo:
            verdicts.append((rate, None, False))
            continue
        step_tail = measure.tail([(done - due) * 1000.0 for due, _s, done, _r in chunk])[0]
        rear = chunk[-max(1, len(chunk) // 10):]
        backlog = 1000.0 * statistics.median(sent - due for due, sent, _d, _r in rear)
        failed = any(reply[0] != 200 for *_t, reply in chunk)
        verdicts.append((rate, step_tail, step_tail <= limit and backlog < limit and not failed))
    passed = None
    for index, (rate, step_tail, ok) in enumerate(verdicts):
        if ok:
            passed = (rate, step_tail)
            continue
        if index + 1 < len(verdicts) and verdicts[index + 1][2]:
            continue
        if passed is None:
            return rate * min(1.0, limit / step_tail) if step_tail else 0.0
        passed_rate, passed_tail = passed
        if step_tail is None or step_tail <= limit:
            return passed_rate
        share = math.log(limit / passed_tail) / math.log(step_tail / passed_tail)
        return passed_rate + (rate - passed_rate) * share
    return passed[0] if passed else 0.0


def run_serve(workdir: Path, seed: int, seconds: float, tracer=None, log=print) -> Outcome:
    """Warm the cache, then drive the repeat and fresh streams."""
    warm_items = [p for i in range(6)
                  for p in scalefam.make_round(seed, i, SERVE_KS, "serve-warm")]
    warm_sources = [item.source for item in warm_items]
    setups, daemon = [], None
    try:
        for sample in range(SETUP_SAMPLES):
            start = time.perf_counter()
            state_dir = workdir / f"serve-{sample}"
            daemon = InProcessService(state_dir)
            answers = warm(daemon.wait_ready(), warm_sources)
            setups.append(time.perf_counter() - start)
            if sample < SETUP_SAMPLES - 1:
                daemon.stop()
                daemon = None
        return _drive(daemon, answers, warm_items, seed, seconds, setups, tracer, log)
    finally:
        if daemon is not None:
            daemon.stop()


def _fresh_items(seed: int, count: int) -> list:
    items, index = [], 0
    while len(items) < count:
        items.extend(scalefam.make_round(seed, index, SERVE_KS, "serve-fresh"))
        index += 1
    return items[:count]


def _drive(daemon, answers, warm_items, seed, seconds, setups, tracer, log) -> Outcome:
    from repro.lang import parse

    address = daemon.address
    hit_due, steps, fresh_due = plan_streams(seed, seconds)
    order = random.Random(f"perfbench-serve-order:{seed}")
    hit_items = [warm_items[i % len(warm_items)] for i in range(len(hit_due))]
    order.shuffle(hit_items)
    fresh_items = _fresh_items(seed, len(fresh_due))
    sizes_before = state_sizes(daemon.state_dir)

    t0 = time.perf_counter() + 0.05
    hits, fresh = [], []
    if tracer is not None:
        tracer.install()
    threads = [
        threading.Thread(target=_stream, args=(
            address, [t0 + d for d in hit_due], [i.source for i in hit_items], hits, "h",
            tracer, lambda i, lag: i >= steps[0][2] and lag > RAMP_GIVE_UP_LAG_S)),
        threading.Thread(target=_stream, args=(
            address, [t0 + d for d in fresh_due], [i.source for i in fresh_items], fresh,
            "f", tracer)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if tracer is not None:
        tracer.uninstall()
    rss = peak_rss_mb()
    requests = len(hits) + len(fresh)
    growth = state_growth(daemon.state_dir, sizes_before, requests)

    failed = unsound = exact = mismatched = 0
    checked: Dict[str, bool] = {}
    all_items = [(hit_items[i], rec, True) for i, rec in enumerate(hits)]
    all_items += [(fresh_items[i], rec, False) for i, rec in enumerate(fresh)]
    for item, (_due, _sent, _done, (status, doc)), is_hit in all_items:
        result = doc.get("result") if isinstance(doc, dict) else None
        if status != 200 or result is None:
            failed += 1
            continue
        if is_hit and result != answers.get(item.source):
            mismatched += 1
            failed += 1
            log(f"MISMATCH {item.name}: a repeat answer differs from its first answer")
            continue
        if result.get("confidence") == "exact":
            exact += 1
        if item.source not in checked:
            claimed = {tuple(pair) for pair in result.get("matches", [])}
            checked[item.source] = _unsound(parse(item.source), claimed, item.np_values)
        if checked[item.source]:
            unsound += 1
            failed += 1
            log(f"UNSOUND {item.name}: served matches miss a dynamic match")
    for item in warm_items:
        if item.source not in checked:
            claimed = {tuple(p) for p in answers[item.source].get("matches", [])}
            if _unsound(parse(item.source), claimed, item.np_values):
                unsound += 1
                failed += 1
                log(f"UNSOUND {item.name}: warm-up answer misses a dynamic match")

    steady = hits[: steps[0][2]]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": max_rps(hits, steps),
        "exact_share": exact / max(1, requests - failed),
        "answered_share": (requests - failed) / requests,
        "peak_rss_mb": rss,
    }
    metrics.update(_latency_metrics("", [done - due for due, _s, done, _r in steady]))
    metrics.update(_latency_metrics("miss_", [done - due for due, _s, done, _r in fresh]))
    lag_ms = measure.median([(sent - due) * 1000.0 for due, sent, _d, _r in hits + fresh])
    notes = {
        "isolation": daemon.isolation,
        "hit_rate_per_s": HIT_RATE,
        "fresh_rate_per_s": FRESH_RATE,
        "ramp_rates_per_s": [round(rate, 1) for rate, _lo, _hi in steps[1:]],
        "hit_tail_limit_ms": HIT_TAIL_LIMIT_MS,
        "requests": requests,
        "state_bytes_per_req": growth["serve.state_bytes_per_req"],
        "generator_lag_p50_ms": lag_ms,
        "mismatched_hits": mismatched,
    }
    outcome = Outcome(metrics, attempted=requests, failed=failed, unsound=unsound, notes=notes)
    if tracer is not None:
        outcome.layers = serve_layers(tracer, hits, fresh,
                                      {**growth, "bench.generator_lag_ms": lag_ms})
    return outcome


# -- the service, hosted in this process ----------------------------------------


class InProcessService:
    """``AnalysisService`` + ``AnalysisHTTPServer`` hosted in this process
    with inline isolation (attempts run in the service's worker threads).

    A ``repro serve`` child with process isolation forks an attempt per
    miss; driven the same way, its latencies moved by 20-50% from run to
    run on a 2-CPU host, so the benchmark hosts the service itself.  In
    process the traced run's wrappers also see every service call."""

    isolation = "inline (service hosted in the benchmark process)"

    def __init__(self, state_dir: Path):
        from repro.serve.daemon import AnalysisService, ServiceConfig
        from repro.serve.http import AnalysisHTTPServer

        if state_dir.exists():
            shutil.rmtree(state_dir)
        self.state_dir = state_dir
        self.service = AnalysisService(ServiceConfig(state_dir=state_dir, isolation="inline"))
        self.service.start()
        self.server = AnalysisHTTPServer(("127.0.0.1", 0), self.service)
        self.address = ("127.0.0.1", self.server.server_address[1])
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.05}, daemon=True)
        self.thread.start()

    def wait_ready(self):
        return self.address

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.drain(timeout=30.0)
        self.thread.join(timeout=30.0)


# -- per-layer metrics of traced runs ---------------------------------------------


def closed_layers(tracer, verdicts, busy, path) -> Dict[str, float]:
    from layers import covered, layer_metrics

    top = tracer.top_level()
    uncovered = sum(
        v.seconds - covered(top.get(f"p{i}", ()), v.start, v.start + v.seconds)
        for i, v in enumerate(verdicts))
    cost = tracer.overhead_seconds()
    extra = {
        "bench.trace_overhead": cost / (busy - cost) if busy > cost else 0.0,
        "bench.unattributed_share": uncovered / busy if busy else 0.0,
    }
    if isinstance(path, SubmitPath):
        extra.update(state_growth(path.state_dir, None, 2 * len(verdicts)))
    return layer_metrics(tracer, len(verdicts), extra)


def state_growth(state_dir: Path, before, requests: int) -> Dict[str, float]:
    """Per-request growth of a service state dir (journal, trace shards,
    everything) since ``before`` (a :func:`state_sizes` result, or None for
    an empty start)."""
    now = state_sizes(state_dir)
    before = before or {key: 0 for key in now}
    grow = {key: (now[key] - before[key]) / requests for key in now}
    return {
        "serve.journal_bytes_per_req": grow["journal"],
        "serve.trace_files_per_req": grow["trace_files"],
        "serve.trace_bytes_per_req": grow["trace_bytes"],
        "serve.state_bytes_per_req": grow["state"],
    }


def state_sizes(state_dir: Path) -> Dict[str, int]:
    journal = state_dir / "journal.jsonl"
    traces = state_dir / "traces"
    return {
        "journal": journal.stat().st_size if journal.exists() else 0,
        "trace_files": len(list(traces.glob("*"))) if traces.exists() else 0,
        "trace_bytes": dir_bytes(traces) if traces.exists() else 0,
        "state": dir_bytes(state_dir),
    }


def serve_layers(tracer, hits, fresh, extra: Dict[str, float]) -> Dict[str, float]:
    from layers import covered, layer_metrics

    top = tracer.top_level()
    spent = uncovered = 0.0
    ops = 0
    for tag, records in (("h", hits), ("f", fresh)):
        for index, (_due, sent, done, _reply) in enumerate(records):
            ops += 1
            spent += done - sent
            uncovered += (done - sent) - covered(top.get(f"{tag}{index:06d}", ()), sent, done)
    cost = tracer.overhead_seconds()
    extra = dict(extra)
    extra["bench.trace_overhead"] = cost / (spent - cost) if spent > cost else 0.0
    extra["bench.unattributed_share"] = uncovered / spent if spent else 0.0
    return layer_metrics(tracer, ops, extra)
