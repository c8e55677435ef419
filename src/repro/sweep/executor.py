"""Execute a compiled sweep: locally or through a running simulation service.

Two fan-out paths, one result shape:

* **local** — points run on :func:`repro.api.batch._run_chunks`, the pool
  path ``run_batch`` uses (one point per chunk), over the
  process-wide shared :class:`~repro.api.pool.WorkerPool` (``jobs=N``,
  capped by the host's usable CPUs), so a worker crash is ridden out the
  same way: one pool respawn, then in-process execution.  An optional
  :class:`~repro.api.cache.RunCache` or
  :class:`~repro.service.store.ResultStore` serves and records the points'
  canonical payload bytes unchanged, so a warm run's ledger equals the cold
  run's;
* **service** — points are submitted to a running :mod:`repro.service`
  endpoint via :class:`~repro.service.client.ServiceClient`, which brings the
  durable store, request coalescing and the persistent worker pool along for
  free.  A client built with several base URLs shards the sweep across a
  cluster by content key (see :mod:`repro.service.shard`) with no executor
  changes — submission, waiting and failover are all client-side.

Either way the executor streams completions through a progress callback and
isolates failures per point: a point whose machine cannot be resolved or
whose simulation raises is marked ``failed`` and the sweep carries on.
Points whose requests hash to the same content key are executed once and the
replicas marked ``deduplicated``.
"""

from __future__ import annotations

import pickle
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.api.batch import _run_chunks
from repro.api.pool import get_shared_pool, usable_cpus
from repro.core.results import SimulationResult
from repro.errors import SweepError
from repro.obs.metrics import MetricsRegistry
from repro.sweep.compile import CompiledSweep, SweepPoint

__all__ = ["PointOutcome", "SWEEP_METRICS", "SweepRun", "execute_sweep"]

#: Process-wide sweep telemetry, scrapeable alongside the service families.
SWEEP_METRICS = MetricsRegistry()
_POINTS_TOTAL = SWEEP_METRICS.counter(
    "repro_sweep_points_total",
    "Sweep points settled, by how each was served",
    labelnames=("served_from",),
)
_POINT_SECONDS = SWEEP_METRICS.histogram(
    "repro_sweep_point_seconds",
    "Wall-clock seconds from dispatch to settle per sweep point",
)

#: ``progress(outcome, completed, total)`` fired as each point settles.
ProgressCallback = Callable[["PointOutcome", int, int], None]


@dataclass
class PointOutcome:
    """Terminal state of one sweep point."""

    point: SweepPoint
    status: str  # "done" | "failed"
    served_from: str  # "executed" | "store" | "deduplicated" | "coalesced"
    payload: bytes | None = None
    error: str | None = None
    elapsed: float = 0.0
    #: Service-path span timeline (``GET /jobs/<id>/trace``); ``None`` for
    #: local points.  Feeds the SUMMARY.md stage breakdown — never the ledger.
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    def result(self) -> SimulationResult | None:
        """A fresh copy of the point's simulation result (``None`` if failed)."""
        if self.payload is None:
            return None
        return pickle.loads(self.payload)

    def result_sha256(self) -> str | None:
        """SHA-256 of the result payload (the manifest-ledger entry)."""
        if self.payload is None:
            return None
        import hashlib

        return hashlib.sha256(self.payload).hexdigest()


@dataclass
class SweepRun:
    """Every outcome of one executed sweep, in point order."""

    compiled: CompiledSweep
    outcomes: list[PointOutcome] = field(default_factory=list)
    via: str = "local"
    elapsed: float = 0.0

    @property
    def spec(self):
        return self.compiled.spec

    def failures(self) -> list[PointOutcome]:
        """The points that failed, in point order."""
        return [outcome for outcome in self.outcomes if outcome.failed]

    def counts(self) -> dict[str, int]:
        """How each point was served (`executed`/`store`/`deduplicated`/...)."""
        counts: dict[str, int] = {"points": len(self.outcomes), "failed": 0}
        for outcome in self.outcomes:
            if outcome.failed:
                counts["failed"] += 1
            else:
                counts[outcome.served_from] = counts.get(outcome.served_from, 0) + 1
        return counts


def _outcome_from_error(point: SweepPoint, error: BaseException, elapsed: float) -> PointOutcome:
    return PointOutcome(
        point=point,
        status="failed",
        served_from="executed",
        error=f"{type(error).__name__}: {error}",
        elapsed=elapsed,
    )


# --------------------------------------------------------------------------- #
# local execution
# --------------------------------------------------------------------------- #
def _execute_local(
    compiled: CompiledSweep,
    *,
    jobs: int,
    cache,
    emit: Callable[[PointOutcome], None],
) -> None:
    # group points by content key so identical requests (repetitions whose
    # seed feeds nothing, overlapping perturbations) execute exactly once
    primaries: list[SweepPoint] = []
    primary_for_key: dict[tuple, SweepPoint] = {}
    followers: dict[str, list[SweepPoint]] = {}
    keys: dict[str, tuple | None] = {}
    for point in compiled.points:
        try:
            # resolves the machine (registry name + options), so a point with
            # an unknown model or a bad option fails alone, right here
            key = point.request.cache_key()
        except Exception as error:
            emit(_outcome_from_error(point, error, 0.0))
            continue
        keys[point.point_id] = key
        if key in primary_for_key:
            followers.setdefault(primary_for_key[key].point_id, []).append(point)
        else:
            primary_for_key[key] = point
            primaries.append(point)

    def settle(point: SweepPoint, outcome: PointOutcome) -> None:
        emit(outcome)
        for follower in followers.get(point.point_id, ()):  # share the payload bytes
            emit(
                PointOutcome(
                    point=follower,
                    status=outcome.status,
                    served_from="deduplicated",
                    payload=outcome.payload,
                    error=outcome.error,
                    elapsed=0.0,
                )
            )

    # serve store/cache hits first (and record which points still need work)
    pending: list[SweepPoint] = []
    for point in primaries:
        started = time.perf_counter()
        payload = None if cache is None else cache.get_bytes(keys[point.point_id])
        if payload is None:
            pending.append(point)
            continue
        settle(
            point,
            PointOutcome(
                point=point,
                status="done",
                served_from="store",
                payload=payload,
                elapsed=time.perf_counter() - started,
            ),
        )

    # one point per chunk keeps per-point scheduling, progress and failure
    # isolation; workers return canonical payload bytes, so ledger hashes do
    # not depend on the --jobs setting
    workers = min(jobs, usable_cpus())
    pool = get_shared_pool(workers) if workers > 1 and len(pending) > 1 else None
    requests = [point.request for point in pending]
    chunks = [[index] for index in range(len(pending))]
    for (index,), outcome, elapsed in _run_chunks(requests, chunks, pool):
        point = pending[index]
        if isinstance(outcome, BaseException):
            settle(point, _outcome_from_error(point, outcome, elapsed))
            continue
        if cache is not None:
            cache.put_bytes(keys[point.point_id], outcome[0])
        settle(
            point,
            PointOutcome(
                point=point,
                status="done",
                served_from="executed",
                payload=outcome[0],
                elapsed=elapsed,
            ),
        )


# --------------------------------------------------------------------------- #
# service execution
# --------------------------------------------------------------------------- #
def _execute_via_service(
    compiled: CompiledSweep,
    *,
    client,
    priority: int,
    timeout: float | None,
    retries: int,
    emit: Callable[[PointOutcome], None],
) -> None:
    from repro.errors import SimulationError
    from repro.service.client import ServiceError

    def run_round(points: list[SweepPoint]) -> list[SweepPoint]:
        # submit everything up front (the service coalesces identical
        # in-flight requests itself), then stream results back in submission
        # order — the long-poll wait keeps this from busy-polling the
        # endpoint.  Returns the points that failed this round.
        handles: list[tuple[SweepPoint, object | None, str | None]] = []
        for point in points:
            try:
                handle = client.submit_request(point.request, priority=priority)
            except ServiceError as error:
                handles.append((point, None, str(error)))
            else:
                handles.append((point, handle, None))

        failed: list[SweepPoint] = []
        for point, handle, submit_error in handles:
            if handle is None:
                emit(
                    PointOutcome(
                        point=point,
                        status="failed",
                        served_from="executed",
                        error=submit_error,
                    )
                )
                failed.append(point)
                continue
            started = time.perf_counter()
            try:
                payload = handle.result_bytes(timeout=timeout)
            except (SimulationError, ServiceError) as error:
                emit(
                    _outcome_from_error(point, error, time.perf_counter() - started)
                )
                failed.append(point)
            else:
                try:
                    # best-effort: a pre-tracing server 404s the endpoint
                    trace = client.trace(handle.job_id)
                except Exception:
                    trace = None
                emit(
                    PointOutcome(
                        point=point,
                        status="done",
                        served_from=handle.served_from,
                        payload=payload,
                        elapsed=time.perf_counter() - started,
                        trace=trace,
                    )
                )
        return failed

    # a failed point is re-submitted up to `retries` more times: shed
    # submissions, timed-out waits and crash-exhausted jobs often succeed
    # on a later, less-loaded pass, and a retried success simply overwrites
    # the point's failed outcome.  Persistent failures stay failed.
    pending = list(compiled.points)
    for _round in range(retries + 1):
        pending = run_round(pending)
        if not pending:
            return


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def execute_sweep(
    compiled: CompiledSweep,
    *,
    jobs: int = 1,
    cache=None,
    client=None,
    priority: int = 0,
    timeout: float | None = 300.0,
    service_retries: int = 1,
    progress: ProgressCallback | None = None,
) -> SweepRun:
    """Run every point of a compiled sweep and return the outcomes.

    Parameters
    ----------
    jobs:
        Upper bound on local worker processes; the effective bound is
        ``min(jobs, usable_cpus())``, served by the process-wide shared
        worker pool (ignored when ``client`` is given).
    cache:
        A :class:`~repro.api.cache.RunCache` or
        :class:`~repro.service.store.ResultStore` consulted/filled per point
        (local path only; the service brings its own store).
    client:
        A :class:`~repro.service.client.ServiceClient`; when given, points
        are fanned out through the running service instead of in-process.
    priority / timeout:
        Service-path submission priority and per-point wait deadline.
    service_retries:
        Extra submission rounds granted to service-path points that failed
        (shed, timed out, or errored); persistent failures stay failed.
    progress:
        ``callback(outcome, completed, total)`` fired as each point settles
        (a retried point fires again when its retry settles).
    """
    if jobs < 1:
        raise SweepError("jobs must be at least 1")
    if service_retries < 0:
        raise SweepError("service_retries cannot be negative")
    total = len(compiled.points)
    by_id: dict[str, PointOutcome] = {}

    def emit(outcome: PointOutcome) -> None:
        by_id[outcome.point.point_id] = outcome
        served = "failed" if outcome.failed else outcome.served_from
        _POINTS_TOTAL.inc(labels={"served_from": served})
        _POINT_SECONDS.observe(outcome.elapsed)
        if progress is not None:
            progress(outcome, len(by_id), total)

    started = time.perf_counter()
    if client is not None:
        _execute_via_service(
            compiled,
            client=client,
            priority=priority,
            timeout=timeout,
            retries=service_retries,
            emit=emit,
        )
        # a sharded client reports every base URL, so the manifest records
        # the cluster the sweep actually ran against
        urls = getattr(client, "base_urls", None)
        via = ",".join(urls) if urls else getattr(client, "base_url", "service")
    else:
        _execute_local(compiled, jobs=jobs, cache=cache, emit=emit)
        via = "local"

    outcomes = [by_id[point.point_id] for point in compiled.points]
    return SweepRun(
        compiled=compiled,
        outcomes=outcomes,
        via=via,
        elapsed=time.perf_counter() - started,
    )
