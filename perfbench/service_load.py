"""The service workloads: warm store hits, and open-loop traffic on a rate ladder.

Both drive one cluster — a router in front of two shards with one pool worker
each — through ``ServiceClient`` from at most ``nproc`` client threads, one
connection each.  Every answer is checked against the same job run
in-process; a mismatch, a refused request or a timed-out one is a failure.
"""

from __future__ import annotations

import pickle
import threading
import time

import inputs
from measure import (
    ENGINE_PHASES, engine_totals, histogram_quantile, median, pct, result_digest, store_probes,
)
from procs import Cluster, peak_rss_mb
from repro.api import run_batch
from repro.service import ResultStore, ServiceClient, ShardRouter, parse_job_document
from spans import Tracer

#: Cluster starts per run; ``setup_s`` is their median.
SETUPS = 5
# The traffic below is assumed: the repository holds no record of real job
# traffic to fit it to.  Revisit these values once such a record exists.
#: Open-loop ladder: (jobs per second, share of the run).  Each rung is 1.5x
#: the one below, so a build that loses the top rung reads a third lower in
#: ``throughput_jobs_s``, beyond its bound.  The top rung stays below the
#: cluster's capacity on a 2-CPU host, so losing it means the build got
#: slower; a run that loses it in a slow period is an outlier the median of
#: ten runs absorbs.  The end-to-end latencies come from the first rung, the
#: longest, because their spread between runs shrinks with its request count.
OPEN_LADDER = ((10.0, 0.7), (15.0, 0.15), (22.5, 0.15))
#: Share of each rung's requests that ask for a key never seen before.  At
#: 10% the p90 sat on the step between store hits and executions and swung
#: from run to run; at 25% it falls inside the executions.
NEW_SHARE = 0.25
#: Warm catalogue size: few enough to store during set-up in about a second,
#: enough that both shards own several keys and each program occurs twice.
WARM_CATALOGUE = 20
JOB_TIMEOUT = 60.0
WARM_UP_LATENCY = max(inputs.LATENCIES) + 1
PROBE_REPEATS = 3
ROUTER_PROBES = 10
_UNTRACED = Tracer(enabled=False)


def _client(url: str) -> ServiceClient:
    # no client-side retries: a refused or dropped request is a failed one
    return ServiceClient(url, timeout=JOB_TIMEOUT, retries=0)


def _setup(run) -> tuple[Cluster, float]:
    """Start the cluster ``SETUPS`` times; keep the last, report the median.

    A set-up ends when every process has served a job: one straight to each
    shard (which forks its pool worker) and one through the router.  The
    warm-up jobs use a memory latency no catalogue entry has.
    """
    times = []
    for attempt in range(SETUPS):
        started = time.perf_counter()
        cluster = Cluster(run.owned, run.workdir / f"cluster-{attempt}",
                          env=run.env, cwd=run.root).start()
        for index, url in enumerate([*cluster.shard_urls, cluster.url]):
            doc = inputs.job_document(inputs.PROGRAMS[index], "reference", WARM_UP_LATENCY)
            _one_job(_UNTRACED, _client(url), doc, "warm-up")
        times.append(time.perf_counter() - started)
        if attempt < SETUPS - 1:
            cluster.stop()
    return cluster, median(times)


def _expected(docs, strip: bool) -> list[str]:
    """Digests of every document's result run in-process (the reference)."""
    requests = [parse_job_document(doc)[0] for doc in docs]
    return [
        result_digest(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL), strip)
        for result in run_batch(requests)
    ]


def _one_job(tracer: Tracer, client: ServiceClient, doc: dict, trace_id: str):
    """``submit`` + ``wait``: returns ``(served_from, payload)``."""
    with tracer.span("client.request", trace_id):
        with tracer.span("http.submit"):
            handle = client.submit(doc["machine"], doc["workloads"], **doc["options"])
        with tracer.span("http.fetch"):
            payload = handle.result_bytes(timeout=JOB_TIMEOUT)
        with tracer.span("client.decode"):
            pickle.loads(payload)
    return handle.served_from, payload


class Ledger:
    """Per-request outcomes, appended from every client thread."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._lock = threading.Lock()

    def job(self, run, client, doc: dict, digest: str, due: float, trace_id: str,
            rank: int) -> None:
        """Run one job, timed from ``due``, and record how it went."""
        row = {"due": due, "start": time.perf_counter(), "rank": rank, "ok": False,
               "served_from": None, "payload": None}
        try:
            row["served_from"], payload = _one_job(run.tracer, client, doc, trace_id)
            row["ok"] = result_digest(payload, run.traced) == digest
            if not row["ok"]:
                row["error"] = f"result of {doc} differs from the in-process run"
            elif row["served_from"] == "executed":
                row["payload"] = payload
        except Exception as error:  # noqa: BLE001 - any error is a failed request
            row["error"] = f"{type(error).__name__}: {error}"
        row["end"] = time.perf_counter()
        with self._lock:
            self.rows.append(row)


def _latencies(rows) -> list[float]:
    """Milliseconds from due time to result, of the requests that succeeded."""
    return [1000.0 * (row["end"] - row["due"]) for row in rows if row["ok"]]


def _failures(rows) -> list[str]:
    return [row.get("error", "failed") for row in rows if not row["ok"]]


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, args=(i,), daemon=True) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# -- per-layer metrics ------------------------------------------------------- #
def _service_layers(before: dict, after: dict) -> dict:
    """Service counters and histograms gained between two ``/stats`` documents."""
    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    store_hits = after["store"]["hits"] - before["store"]["hits"]
    store_misses = after["store"]["misses"] - before["store"]["misses"]
    families_before, families_after = before.get("metrics", {}), after.get("metrics", {})

    def quantile_ms(family: str, q: float) -> float:
        return 1000.0 * histogram_quantile(
            families_before.get(family), families_after.get(family), q)

    return {
        "service.executed": delta("executed"),
        "service.coalesced": delta("coalesced"),
        "service.store_hits": delta("store_hits"),
        "service.rejected": delta("rejected"),
        "service.coalesce_ratio": delta("coalesced") / max(1, delta("submitted")),
        "service.queue_wait_p90_ms": quantile_ms("repro_queue_wait_seconds", 0.9),
        "service.execute_p50_ms": quantile_ms("repro_execute_seconds", 0.5),
        "store.hit_ratio": store_hits / max(1, store_hits + store_misses),
    }


def _client_layers(tracer: Tracer) -> dict:
    def median_ms(name):
        return 1000.0 * median(span.duration for span in tracer.named(name))

    return {
        "http.submit_ms": median_ms("http.submit"),
        "http.fetch_ms": median_ms("http.fetch"),
        "client.decode_ms": median_ms("client.decode"),
    }


def _engine_layers(rows) -> dict:
    """Engine phase totals of the jobs this workload made the pool execute."""
    totals = engine_totals(pickle.loads(row["payload"]) for row in rows if row["payload"])
    layers = {f"core.{phase}_s": totals[phase] for phase in ENGINE_PHASES}
    layers["core.instructions"] = totals["instructions"]
    layers["core.runs"] = totals["runs"]
    return layers


def _elapsed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _layer_probes(run, cluster: Cluster, stored: list[tuple[dict, bytes]]) -> dict:
    """Per-layer costs, timed by calling each layer's public functions on the
    documents and payloads the workload used; ``stored`` pairs a document
    with the result payload its execution produced."""
    parse_s, key_s = [], []
    for _ in range(PROBE_REPEATS):
        for doc, _payload in stored:
            started = time.perf_counter()
            request = parse_job_document(doc)[0]
            parsed = time.perf_counter()
            request.cache_key()
            parse_s.append(parsed - started)
            key_s.append(time.perf_counter() - parsed)

    keys = [parse_job_document(doc)[0].cache_key() for doc, _payload in stored]
    store = store_probes(ResultStore(run.workdir / "probe-store"),
                         [(key, payload) for key, (_doc, payload) in zip(keys, stored)])

    shard = _client(cluster.shard_urls[0])
    healthz_s = [_elapsed(shard.healthz) for _ in range(50)]

    # the same warm hit, routed and sent straight to the shard owning its key
    ring = ShardRouter(cluster.shard_urls)
    routed = _client(cluster.url)
    routed_s, direct_s = [], []
    for key, (doc, _payload) in list(zip(keys, stored))[:ROUTER_PROBES]:
        direct = _client(ring.shard_for(key))
        for _ in range(PROBE_REPEATS):
            routed_s.append(_elapsed(lambda: _one_job(_UNTRACED, routed, doc, "probe")))
            direct_s.append(_elapsed(lambda: _one_job(_UNTRACED, direct, doc, "probe")))
    return {
        "service.parse_ms": 1000.0 * median(parse_s),
        "service.key_ms": 1000.0 * median(key_s),
        **store,
        "http.healthz_ms": 1000.0 * median(healthz_s),
        "shard.router_overhead_ms": 1000.0 * (median(routed_s) - median(direct_s)),
    }


def _finish(run, cluster: Cluster) -> tuple[float, int]:
    """Peak memory of this process and the cluster, then teardown; ``(MiB, survivors)``."""
    rss = peak_rss_mb([run.pid, *cluster.pids()])
    cluster.stop()
    survivors = run.owned.survivors()
    if survivors:
        print(f"[perfbench] processes survived teardown: {survivors}", flush=True)
    return rss, len(survivors)


# -- workloads --------------------------------------------------------------- #
def service_warm(run) -> dict:
    """Closed loop of ``nproc`` clients over a catalogue stored during set-up."""
    cluster, setup_s = _setup(run)
    docs = inputs.catalogue(run.seed, WARM_CATALOGUE, "warm")
    digests = _expected(docs, run.traced)

    fill = Ledger()
    client = _client(cluster.url)
    for rank, doc in enumerate(docs):
        fill.job(run, client, doc, digests[rank], time.perf_counter(), "fill", rank)

    before = client.stats()
    ledger = Ledger()
    deadline = time.perf_counter() + run.seconds

    def client_loop(thread: int) -> None:
        own = _client(cluster.url)
        for count, rank in enumerate(inputs.uniform_stream(run.seed, thread, len(docs))):
            if time.perf_counter() >= deadline:
                return
            ledger.job(run, own, docs[rank], digests[rank], time.perf_counter(),
                       f"warm-{thread}-{count}", rank)

    started = time.perf_counter()
    _run_threads(client_loop, run.threads)
    elapsed = time.perf_counter() - started
    after = client.stats()
    rows = ledger.rows

    layers = {}
    if run.traced:
        stored = [(docs[row["rank"]], row["payload"]) for row in fill.rows if row["payload"]]
        layers = {**_service_layers(before, after), **_client_layers(run.tracer),
                  **_engine_layers(rows), **_layer_probes(run, cluster, stored)}
    rss, survivors = _finish(run, cluster)
    failures = _failures(fill.rows) + _failures(rows)
    latencies = _latencies(rows)
    return {
        "attempted": len(fill.rows) + len(rows),
        "failed": len(failures) + survivors,
        "errors": failures[:5],
        "e2e": {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "throughput_jobs_s": len(latencies) / elapsed,
        },
        "layers": layers,
        "detail": {
            "requests": len(rows),
            "latency_p50_ms": pct(latencies, 50),
            "latency_p90_ms": pct(latencies, 90),
            "latency_p99_ms": pct(latencies, 99),
            "store_served": sum(1 for row in rows if row["served_from"] == "store"),
        },
    }


def _rung_passes(rows, limit_ms: float) -> bool:
    """p90 within the limit, nothing failed, and no growing backlog: the last
    quarter of arrivals started no later past their due time than half the
    limit beyond the first quarter."""
    if not rows or any(not row["ok"] for row in rows):
        return False
    ordered = sorted(rows, key=lambda row: row["due"])
    quarter = max(1, len(ordered) // 4)
    late_first = median(1000.0 * (r["start"] - r["due"]) for r in ordered[:quarter])
    late_last = median(1000.0 * (r["start"] - r["due"]) for r in ordered[-quarter:])
    return pct(_latencies(rows), 90) <= limit_ms and late_last - late_first <= limit_ms / 2


def _run_rung(run, url: str, rung: inputs.Rung, digests: list[str],
              position: int) -> tuple[list, float]:
    """Send one rung's arrivals on schedule; returns its rows and achieved rate."""
    ledger = Ledger()
    cursor = iter(range(len(rung.arrivals)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def sender(thread: int) -> None:
        client = _client(url)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            offset, rank = rung.arrivals[index]
            due = start + offset
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            ledger.job(run, client, rung.docs[rank], digests[rank], due,
                       f"open-{position}-{index}", rank)

    _run_threads(sender, run.threads)
    finished = max(row["end"] for row in ledger.rows)
    return ledger.rows, len(ledger.rows) / (finished - start)


def service_open(run) -> dict:
    """Open-loop arrivals on a fixed rate ladder, starting from empty stores."""
    cluster, setup_s = _setup(run)
    ladder = inputs.open_ladder(
        run.seed, [(rate, share * run.seconds) for rate, share in OPEN_LADDER], NEW_SHARE)
    expected = [_expected(rung.docs, run.traced) for rung in ladder]

    client = _client(cluster.url)
    before = client.stats()
    by_rung, rates = [], []
    for position, rung in enumerate(ladder):
        rows, rate = _run_rung(run, cluster.url, rung, expected[position], position)
        by_rung.append(rows)
        rates.append(rate)
    after = client.stats()
    rows = [row for rung_rows in by_rung for row in rung_rows]

    passing = [rate for rate, rung_rows in zip(rates, by_rung)
               if _rung_passes(rung_rows, run.latency_limit_ms)]
    layers = {}
    if run.traced:
        stored = [(rung.docs[row["rank"]], row["payload"])
                  for rung, rung_rows in zip(ladder, by_rung)
                  for row in rung_rows if row["payload"]]
        late = [1000.0 * (row["start"] - row["due"]) for row in rows]
        layers = {**_service_layers(before, after), **_client_layers(run.tracer),
                  **_engine_layers(rows), **_layer_probes(run, cluster, stored),
                  "loadgen.late_p99_ms": pct(late, 99)}
    rss, survivors = _finish(run, cluster)
    failures = _failures(rows)
    low, high = by_rung[0], by_rung[-1]
    return {
        "attempted": len(rows),
        "failed": len(failures) + survivors,
        "errors": failures[:5],
        "e2e": {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            # the highest rung meeting the limit; 0 when none does
            "throughput_jobs_s": passing[-1] if passing else 0.0,
        },
        "layers": layers,
        "detail": {
            "rates": [rate for rate, _share in OPEN_LADDER],
            "achieved_rates": rates,
            "rungs_passing": len(passing),
            "max_rate_jobs_s": passing[-1] if passing else 0.0,
            "latency_p50_ms": pct(_latencies(low), 50),
            "latency_p90_ms": pct(_latencies(low), 90),
            "latency_p50_ms.low": pct(_latencies(low), 50),
            "latency_p90_ms.low": pct(_latencies(low), 90),
            "latency_p50_ms.high": pct(_latencies(high), 50),
            "latency_p90_ms.high": pct(_latencies(high), 90),
            "served_from": {kind: sum(1 for row in rows if row["served_from"] == kind)
                            for kind in ("executed", "coalesced", "store")},
        },
    }
