"""The benchmark: one command, three workloads, output checks, traced runs.

    python3 perfbench/run.py --workload serve-mix --seed 0 --seconds 30 --trace 0

Run from the root of a checkout (the program is imported from
``src/``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A run repeats whole rounds of the workload's seeded request list until
``--seconds`` of measured time have passed.  Every round starts from a
cold state (a fresh daemon with a fresh cache directory, or a fresh
library cache), so every round does the same work.  ``--smoke`` runs one
small round with every check; ``--repeat N`` runs the command N times
and prints each metric's median and quartiles, plus whether the count
metrics repeated exactly.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from checks import Checker  # noqa: E402

WORKLOADS = ("serve-mix", "serve-hard", "lib-typed-m")

#: The tail percentile of each workload: the highest one with at least
#: ten samples beyond it at the default run length, with as few rounds as
#: a run has (serve-hard: 22 samples a round, four or five rounds).
TAIL = {"serve-mix": 99, "serve-hard": 85, "lib-typed-m": 90}

#: Health probes (open loop), one every HEALTH_PERIOD_S seconds.  On the
#: daemon a probe takes up to ~20 ms to answer while a solver thread
#: holds the GIL, so probes come no faster than that: lateness then
#: builds up only while the event loop itself is blocked.
HEALTH_PERIOD_S = {"serve-mix": 0.050, "serve-hard": 0.050, "lib-typed-m": 0.010}

#: The percentile of probe lateness reported as ``health_late_ms``.  On
#: serve-mix the symmetric Σ's keying stalls fill over a third of the
#: probe time and the p90 lies well inside them.  On serve-hard and
#: lib-typed-m a solve holds the GIL most of the time and a probe waits
#: one switch interval (about 6 ms): the middle of the lateness lies on
#: that plateau, while the p90 sat at its upper edge and jumped between
#: 6 and 9 ms from run to run.
HEALTH_PCT = {"serve-mix": 90, "serve-hard": 50, "lib-typed-m": 50}

#: set-up is measured at least this many times per run (median reported).
MIN_SETUPS = 5

END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("health_late_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("server.protocol.ms_per_req", "ms"),
    ("server.daemon.overhead_ms", "ms"),
    ("server.daemon.loop_keying_ms", "ms"),
    ("server.daemon.queue_wait_ms", "ms"),
    ("server.singleflight.coalesced_share", "ratio"),
    ("reasoning.dispatcher.classify_calls_per_req", "count"),
    ("reasoning.dispatcher.classify_ms", "ms"),
    ("reasoning.canonical.calls_per_req", "count"),
    ("reasoning.canonical.ms_p50", "ms"),
    ("reasoning.canonical.ms_max", "ms"),
    ("reasoning.canonical.fallbacks", "count"),
    ("reasoning.cache.lookup_ms", "ms"),
    ("reasoning.cache.store_ms", "ms"),
    ("reasoning.cache.stores", "count"),
    ("reasoning.cache.hit_share", "ratio"),
    ("reasoning.word.ms", "ms"),
    ("reasoning.local_extent.ms", "ms"),
    ("checking.engine.ms", "ms"),
    ("query.containment.ms", "ms"),
    ("query.optimizer.ms", "ms"),
    ("query.optimizer.solves_per_call", "count"),
    ("reasoning.typed_m.ms", "ms"),
    ("rewriting.prefix.ms", "ms"),
    ("rewriting.prefix.saturations_per_solve", "count"),
    ("reasoning.portfolio.ms", "ms"),
    ("reasoning.chase.ms", "ms"),
    ("reasoning.models.scan_ms", "ms"),
    ("reasoning.portfolio.definite_share", "ratio"),
    ("reasoning.portfolio.mode.inline", "count"),
    ("reasoning.portfolio.mode.sharded", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Round:
    """What one round measured."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.health: list[float] = []
        self.overheads: list[float] = []
        self.elapsed = 0.0
        self.attempted = 0
        self.failed = 0
        self.counts: dict = {}
        self.spans = None
        self.op_windows: dict = {}
        self.slowest: list = []
        #: What the output checks need, checked after the round's clock
        #: stops so that checking does not count as load-generator time.
        self.records: list = []

    def count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1


class HealthProbe(threading.Thread):
    """Open-loop probes on a fixed schedule, each timed from when it
    was due, so a stall also counts against the probes queued behind it."""

    def __init__(self, period: float, probe) -> None:
        super().__init__(daemon=True)
        self.period = period
        self.probe = probe
        self.samples: list[float] = []
        self.stop = threading.Event()
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            due = time.perf_counter()
            while not self.stop.is_set():
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                self.probe()
                self.samples.append((time.perf_counter() - due) * 1e3)
                due += self.period
        except BaseException as exc:  # reported by the caller
            self.error = exc


def daemon_probe(port: int):
    from wire import Conn

    conn = Conn(port)

    def probe():
        answer = conn.call({"op": "health", "id": "h"})
        if answer.get("status") != "ok":
            raise RuntimeError(f"health probe answered {answer}")

    probe.close = conn.close
    return probe


def record_response(rnd: Round, checker: Checker, request: dict, response: dict,
                    latency_ms: float) -> None:
    rnd.attempted += 1
    rnd.latencies.append(latency_ms)
    rnd.slowest = sorted(rnd.slowest + [(round(latency_ms, 1), request["group"])])[-6:]
    if "elapsed_ms" in response:
        rnd.overheads.append(latency_ms - response["elapsed_ms"])
    if not checker.response(request, response):
        rnd.failed += 1
        rnd.count("failed")
    verdict = response.get("answer", response.get("verdict", response.get("failed")))
    rnd.count(f"{request['kind']}:{verdict}")
    cache = response.get("cache")
    if cache and request.get("workload") != "serve-hard":
        rnd.count(f"cache:{cache.get('status')}")


# ---------------------------------------------------------------------------
# serve-mix and serve-hard: the daemon as a separate process.
# ---------------------------------------------------------------------------


def serve_round(root, tmp, workload, plan, checker, traced,
                hash_seed: int) -> tuple[Round, float, float]:
    from wire import Conn, Daemon

    workdir = tempfile.mkdtemp(dir=tmp)
    spans_file = os.path.join(workdir, "spans.json") if traced else None
    daemon = Daemon(root, workdir, hash_seed, spans_file)
    rnd = Round()
    try:
        probe = daemon_probe(daemon.port)
        health = HealthProbe(HEALTH_PERIOD_S[workload], probe)
        conns = [Conn(daemon.port) for _ in range(1 if workload == "serve-mix" else 2)]
        for payload in gen.WARMUP:
            if conns[0].call(payload).get("status") != "ok":
                raise RuntimeError(f"warm-up request failed: {payload}")
        health.start()
        try:
            start = time.perf_counter()
            if workload == "serve-mix":
                for index, request in enumerate(plan):
                    sent = time.perf_counter()
                    response = conns[0].call(dict(request["payload"], id=f"q{index}"))
                    done = time.perf_counter()
                    rnd.op_windows[f"q{index}"] = (sent, done)
                    rnd.records.append((request, response, (done - sent) * 1e3))
            else:
                hard_pairs(conns, plan, rnd)
            rnd.elapsed = time.perf_counter() - start
        finally:
            health.stop.set()
            health.join()
            probe.close()
            for conn in conns:
                conn.close()
        if health.error is not None:
            raise health.error
        rnd.health = health.samples
        for request, response, latency_ms in rnd.records:
            record_response(rnd, checker, request, response, latency_ms)
        rss = daemon.stop()
    finally:
        daemon.kill()
    if traced:
        with open(spans_file) as handle:
            rnd.spans = json.load(handle)
    shutil.rmtree(workdir, ignore_errors=True)
    return rnd, daemon.setup_s, rss


def hard_pairs(conns, pairs, rnd: Round) -> None:
    """Two client threads in lock step: both copies of a pair are sent
    together, and the next pair waits for both answers."""
    barrier = threading.Barrier(2)
    results: list = [None, None]
    errors: list = []

    def side(which: int) -> None:
        try:
            for index, pair in enumerate(pairs):
                barrier.wait()
                rid = f"q{index}.{which}"
                sent = time.perf_counter()
                response = conns[which].call(dict(pair[which]["payload"], id=rid))
                done = time.perf_counter()
                results[which] = (rid, sent, done, response)
                barrier.wait()
                if which == 0:
                    for k in (0, 1):
                        rid_k, sent_k, done_k, response_k = results[k]
                        rnd.op_windows[rid_k] = (sent_k, done_k)
                        rnd.records.append((pairs[index][k], response_k, (done_k - sent_k) * 1e3))
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()

    other = threading.Thread(target=side, args=(1,), daemon=True)
    other.start()
    side(0)
    other.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# lib-typed-m: the library in process, through solve(cache=...).
# ---------------------------------------------------------------------------


def build_schema(schema: dict):
    from repro.types.typesys import AtomicType, ClassRef, RecordType, Schema

    classes = {
        name: RecordType([(f, ClassRef(t)) for f, t in body] + [("tag", AtomicType("string"))])
        for name, body in schema["classes"].items()
    }
    label, target = schema["root"]
    return Schema(classes, RecordType([(label, ClassRef(target))]))


def lib_round(tmp, tasks, checker: Checker, tracer) -> Round:
    from repro.constraints import parse_constraint, parse_constraints
    from repro.query import QueryContainmentChecker
    from repro.reasoning import ImplicationProblem, solve
    from repro.reasoning.cache import ImplicationCache

    import spans

    workdir = tempfile.mkdtemp(dir=tmp)
    rnd = Round()
    cache = ImplicationCache(os.path.join(workdir, "cache"))
    health = HealthProbe(HEALTH_PERIOD_S["lib-typed-m"], lambda: None)
    prepared = []
    for task in tasks:
        schema = build_schema(task["schema"])
        sigma = parse_constraints("\n".join(gen.constraint_text(c) for c in task["sigma"]))
        queries = [(q, parse_constraint(gen.constraint_text(q))) for q in task["queries"]]
        prepared.append((task, schema, sigma, queries))
    if tracer is not None:
        tracer.spans.clear()
    health.start()
    try:
        start = time.perf_counter()
        op = 0
        for task, schema, sigma, queries in prepared:
            checker_m = QueryContainmentChecker(sigma, context="M", schema=schema, cache=cache)
            for raw, phi in queries:
                left, right = gen.path_text(raw[1]), gen.path_text(raw[2])
                calls = (
                    ("imply", lambda: solve(ImplicationProblem(sigma, phi, "M", schema=schema),
                                            cache=cache).answer.value),
                    ("contains", lambda: checker_m.contains(left, right).verdict.value),
                    ("contains-swapped", lambda: checker_m.contains(right, left).verdict.value),
                )
                answers = {}
                for kind, call in calls:
                    rid = f"q{op}"
                    op += 1
                    token = spans._request.set(rid)
                    sent = time.perf_counter()
                    answers[kind] = call()
                    done = time.perf_counter()
                    spans._request.reset(token)
                    rnd.op_windows[rid] = (sent, done)
                    rnd.latencies.append((done - sent) * 1e3)
                    rnd.attempted += 1
                    rnd.count(f"{kind}:{answers[kind]}")
                rnd.records.append((task, raw, answers))
        rnd.elapsed = time.perf_counter() - start
    finally:
        health.stop.set()
        health.join()
    rnd.health = health.samples
    for task, raw, answers in rnd.records:
        typed_checks(checker, task, raw, answers)
    if tracer is not None:
        rnd.spans = {"main_thread": threading.main_thread().ident, "spans": list(tracer.spans)}
        tracer.spans.clear()
    shutil.rmtree(workdir, ignore_errors=True)
    return rnd


def typed_checks(checker: Checker, task, query, answers) -> None:
    """Over M a word constraint between two valid paths asserts node
    equality: α=β and β=α agree, and imply agrees with contains."""
    from checks import derivable

    what = f"typed-M {task['classes']} classes, query {gen.constraint_text(query)}"
    values = set(answers.values())
    if len(values) != 1:
        checker.fail(f"{what}: answers disagree {answers}")
        return
    answer = values.pop()
    if answer not in ("true", "false"):
        checker.fail(f"{what}: {answer} on the decidable typed-M cell")
    rules = [(c[1], c[2]) for c in task["sigma"]] + [(c[2], c[1]) for c in task["sigma"]]
    if answer == "false" and derivable(rules, query[1], query[2], max_words=2000):
        checker.fail(f"{what}: FALSE but a derivation exists")


def library_setup_s(root: str, tmp: str) -> float:
    """Import to a ready cache, in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter()\n"
        "from repro.reasoning import solve\n"
        "from repro.reasoning.cache import ImplicationCache\n"
        "from repro.query import QueryContainmentChecker\n"
        "import sys; ImplicationCache(sys.argv[1])\n"
        "print(time.perf_counter() - t)\n"
    )
    workdir = tempfile.mkdtemp(dir=tmp)
    try:
        out = subprocess.run(
            [sys.executable, "-c", code, os.path.join(workdir, "cache")],
            cwd=root, env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
            capture_output=True, text=True, timeout=120, check=True,
        )
        return float(out.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans.
# ---------------------------------------------------------------------------


def _union(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(rounds: list[Round], workload: str, overhead_ratio: float) -> dict:
    spans = []
    main_threads = set()
    for rnd in rounds:
        spans += rnd.spans["spans"]
        main_threads.add(rnd.spans["main_thread"])
    requests = sum(r.attempted for r in rounds)
    n_rounds = len(rounds)
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)

    def durations(name):
        return [(s[5] - s[4]) * 1e3 for s in by_name.get(name, [])]

    def mean(name):
        values = durations(name)
        return statistics.fmean(values) if values else 0.0

    def notes(name, value):
        return sum(1 for s in by_name.get(name, []) if s[7] and value in s[7])

    parent = {s[0]: s for s in spans}

    def under(span, name) -> bool:
        seen = 0
        while span[1] and seen < 64:
            span = parent.get(span[1])
            if span is None:
                return False
            if span[3] == name:
                return True
            seen += 1
        return False

    frames = len(by_name.get("server.protocol.parse", []))
    canonical = durations("reasoning.canonical")
    # Keying on the daemon's event-loop thread (the library has none).
    on_loop = sum((s[5] - s[4]) * 1e3 for s in by_name.get("reasoning.canonical", [])
                  if s[6] in main_threads) if frames else 0.0
    imply_requests = sum(v for r in rounds for k, v in r.counts.items() if k.startswith("imply:"))
    joins = by_name.get("server.singleflight.join", [])
    lookups = by_name.get("reasoning.cache.lookup", [])
    optimizer_calls = len(by_name.get("query.optimizer", []))
    solves = by_name.get("reasoning.dispatcher.solve", [])
    portfolio = by_name.get("reasoning.portfolio", [])
    scan_total = sum(durations("reasoning.models.scan"))
    # Coverage by time: solver-thread spans run in the worker task's
    # context, not the request's, so a request is covered by every
    # non-probe span that starts inside its window (clipped to it).
    work = sorted((s[4], s[5]) for s in spans if s[2] != "h")
    starts = [a for a, _ in work]
    covered = total = 0.0
    for rnd in rounds:
        for a, b in rnd.op_windows.values():
            lo, hi = bisect.bisect_left(starts, a), bisect.bisect_right(starts, b)
            covered += _union((x, min(y, b)) for x, y in work[lo:hi])
            total += b - a
    overheads = [o for r in rounds for o in r.overheads]
    return {
        "server.protocol.ms_per_req": (
            sum(durations("server.protocol.parse")) + sum(durations("server.protocol.encode"))
        ) / frames if frames else 0.0,
        "server.daemon.overhead_ms": statistics.median(overheads) if overheads else 0.0,
        "server.daemon.loop_keying_ms": on_loop / imply_requests if imply_requests else 0.0,
        "server.daemon.queue_wait_ms": statistics.median(durations("server.daemon.queue_wait"))
        if by_name.get("server.daemon.queue_wait") else 0.0,
        "server.singleflight.coalesced_share": (
            sum(1 for s in joins if s[7] == "follower") / len(joins) if joins else 0.0
        ),
        "reasoning.dispatcher.classify_calls_per_req": (
            len(by_name.get("reasoning.dispatcher.classify", [])) / requests if requests else 0.0
        ),
        "reasoning.dispatcher.classify_ms": mean("reasoning.dispatcher.classify"),
        "reasoning.canonical.calls_per_req": len(canonical) / requests if requests else 0.0,
        "reasoning.canonical.ms_p50": statistics.median(canonical) if canonical else 0.0,
        "reasoning.canonical.ms_max": max(canonical) if canonical else 0.0,
        "reasoning.canonical.fallbacks": notes("reasoning.canonical", "fallback") / n_rounds,
        "reasoning.cache.lookup_ms": mean("reasoning.cache.lookup"),
        "reasoning.cache.store_ms": mean("reasoning.cache.store"),
        "reasoning.cache.stores": len(by_name.get("reasoning.cache.store", [])) / n_rounds,
        "reasoning.cache.hit_share": (
            sum(1 for s in lookups if s[7] == "hit") / len(lookups) if lookups else 0.0
        ),
        "reasoning.word.ms": mean("reasoning.word"),
        "reasoning.local_extent.ms": mean("reasoning.local_extent"),
        "checking.engine.ms": mean("checking.engine"),
        "query.containment.ms": mean("query.containment"),
        "query.optimizer.ms": mean("query.optimizer"),
        "query.optimizer.solves_per_call": (
            sum(1 for s in solves if under(s, "query.optimizer")) / optimizer_calls
            if optimizer_calls else 0.0
        ),
        "reasoning.typed_m.ms": mean("reasoning.typed_m"),
        "rewriting.prefix.ms": mean("rewriting.prefix"),
        "rewriting.prefix.saturations_per_solve": (
            len(by_name.get("rewriting.prefix", [])) / len(solves) if solves else 0.0
        ),
        "reasoning.portfolio.ms": mean("reasoning.portfolio"),
        "reasoning.chase.ms": mean("reasoning.chase"),
        "reasoning.models.scan_ms": scan_total / len(portfolio) if portfolio else 0.0,
        "reasoning.portfolio.definite_share": (
            notes("reasoning.portfolio", "definite") / len(portfolio) if portfolio else 0.0
        ),
        "reasoning.portfolio.mode.inline": notes("reasoning.portfolio", ":inline") / n_rounds,
        "reasoning.portfolio.mode.sharded": notes("reasoning.portfolio", ":sharded") / n_rounds,
        "trace.coverage": covered / total if total else 0.0,
        "trace.overhead": overhead_ratio,
    }


# ---------------------------------------------------------------------------
# One run.
# ---------------------------------------------------------------------------


def plan_for(workload: str, seed: int, scale: float):
    if workload == "serve-mix":
        plan = gen.serve_mix(seed, scale)
    elif workload == "serve-hard":
        plan = gen.serve_hard(seed, scale)
    else:
        return gen.lib_typed_m(seed, scale)
    for item in plan:
        for request in item if isinstance(item, tuple) else (item,):
            request["workload"] = workload
    return plan


def run(root: str, workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    tmp_root = os.path.join(root, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        return _run(root, tmp, workload, seed, seconds, trace, smoke)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(tmp_root)  # only when no other run is using it


def _run(root, tmp, workload, seed, seconds, trace, smoke) -> dict:
    scale = 0.05 if smoke else 1.0
    plan = plan_for(workload, seed, scale)
    checker = Checker(workload, seed)
    setups: list[float] = []
    rss: list[float] = []
    timed: list[Round] = []
    traced: list[Round] = []
    tracer = None
    if workload == "lib-typed-m":
        if trace:
            from spans import Tracer

            tracer = Tracer()
        for _ in range(1 if smoke else MIN_SETUPS):
            setups.append(library_setup_s(root, tmp))
    measured = 0.0
    while True:
        # In a traced run, untraced and traced rounds alternate: the
        # per-layer numbers come from the traced ones, and the ratio of
        # the two throughputs is the tracing overhead.
        with_spans = trace and len(timed) > len(traced)
        if workload == "lib-typed-m":
            if with_spans:
                tracer.install()
            try:
                rnd = lib_round(tmp, plan, checker, tracer if with_spans else None)
            finally:
                if with_spans:
                    tracer.uninstall()
        else:
            # The daemon of round k hashes with PYTHONHASHSEED=k, so set
            # iteration orders do not vary at random between runs.
            rnd, setup, peak = serve_round(root, tmp, workload, plan, checker, with_spans,
                                           hash_seed=len(timed) + len(traced))
            setups.append(setup)
            rss.append(peak)
        (traced if with_spans else timed).append(rnd)
        measured += rnd.elapsed
        if measured >= seconds and (not trace or traced):
            break
    if workload == "lib-typed-m":
        import resource

        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        from wire import Daemon

        while len(setups) < (1 if smoke else MIN_SETUPS):
            workdir = tempfile.mkdtemp(dir=tmp)
            daemon = Daemon(root, workdir, hash_seed=len(setups))
            setups.append(daemon.setup_s)
            daemon.stop()
    rounds = timed + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if trace:
        tput_plain = sum(r.attempted for r in timed) / sum(r.elapsed for r in timed)
        tput_traced = sum(r.attempted for r in traced) / sum(r.elapsed for r in traced)
        values = layer_metrics(traced, workload, tput_plain / tput_traced)
        units = dict(PER_LAYER)
    else:
        latencies = [x for r in timed for x in r.latencies]
        health = [x for r in timed for x in r.health]
        # Throughput is the median of the per-round figures, so one
        # round slowed by a noisy neighbour does not move it.  The
        # percentiles pool every sample: so at least ten lie beyond the
        # tails, and the p50 of all samples read closer from run to run
        # than the median of the rounds' p50s (spread 0.17 against 0.22
        # over six serve-hard seeds).
        values = {
            "throughput_rps": statistics.median(r.attempted / r.elapsed for r in timed),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_tail_ms": percentile(latencies, TAIL[workload]),
            "health_late_ms": percentile(health, HEALTH_PCT[workload]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }
        units = dict(END_TO_END)
    signature = [sorted(r.counts.items()) for r in rounds]
    if checker.unreferenced:
        print(f"note: {checker.unreferenced} answers had no certificate and no reference entry",
              file=sys.stderr)
    info = {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "samples": sum(len(r.latencies) for r in timed),
        "health_samples": sum(len(r.health) for r in timed),
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "round_counts": signature[0] if signature else [],
        "slowest_ms_group": [r.slowest for r in rounds],
        "round_rps": [round(r.attempted / r.elapsed, 2) for r in timed],
        "round_p50": [round(statistics.median(r.latencies), 3) for r in timed],
        "round_health_late": [round(percentile(r.health, HEALTH_PCT[workload]), 2) for r in timed],
        "counts_repeat_within_run": all(s == signature[0] for s in signature),
        "errors": checker.errors,
    }
    print(json.dumps(info), file=sys.stderr)
    correct = not checker.errors and info["counts_repeat_within_run"]
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name, _ in
            (PER_LAYER if trace else END_TO_END)
        },
        "_info": info,
    }


def repeat(args, root: str) -> int:
    """``--repeat N``: median and quartiles of every metric over N runs."""
    results = []
    for _ in range(args.repeat):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)] + (["--smoke"] if args.smoke else []),
            cwd=root, capture_output=True, text=True, check=True,
        )
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
        info = json.loads(out.stderr.strip().splitlines()[-1])
        results[-1]["_counts"] = info["round_counts"]
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        summary[name] = {"median": q2, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / q2 if q2 else 0.0}
    report = {
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
        "counts_repeat": all(r["_counts"] == results[0]["_counts"] for r in results),
        "metrics": summary,
    }
    print(json.dumps(report, indent=1))
    return 0 if report["correct"] and report["counts_repeat"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small round per workload, every check run")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N times; print medians and quartiles")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a checkout of the program (no src/repro here)",
              file=sys.stderr)
        return 2
    # One CPU for the load generator and everything it starts: a request
    # hops between client and daemon threads several times, and a hop to
    # the other virtual CPU waits for the host to wake it, which under
    # host contention doubled p50 for minutes at a time.  The daemon is
    # GIL-bound (serve-hard sends jobs 1), so one CPU is what it uses.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.repeat:
        return repeat(args, root)
    sys.path.insert(0, os.path.join(root, "src"))
    result = run(root, args.workload, args.seed, 0 if args.smoke else args.seconds,
                 bool(args.trace), args.smoke)
    result.pop("_info")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
