"""Small reductions shared by the workloads."""

from __future__ import annotations

import hashlib
import pickle
import statistics
import time

#: The engine's profiled phases (``memory`` time is nested in ``dispatch``).
ENGINE_PHASES = ("decode", "hazard_check", "dispatch", "memory", "finalize")


def pct(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation; NaN when empty."""
    values = sorted(values)
    if not values:
        return float("nan")
    position = (len(values) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def result_digest(payload: bytes, strip_profile: bool) -> str:
    """SHA-256 of a result payload; with ``strip_profile`` the engine's
    wall-clock phase profile is dropped first (it differs on every run), by
    re-pickling the result without it."""
    if strip_profile:
        result = pickle.loads(payload)
        result.phase_profile = None
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(payload).hexdigest()


def store_probes(store, items) -> dict:
    """Median ms of ``put_bytes`` then ``get_bytes`` over ``(key, payload)``
    pairs, on a scratch ``ResultStore``."""
    put_s, get_s = [], []
    for key, payload in items:
        started = time.perf_counter()
        store.put_bytes(key, payload)
        put_s.append(time.perf_counter() - started)
    for key, _payload in items:
        started = time.perf_counter()
        store.get_bytes(key)
        get_s.append(time.perf_counter() - started)
    return {"store.get_ms": 1000.0 * median(get_s), "store.put_ms": 1000.0 * median(put_s)}


def histogram_quantile(before: dict | None, after: dict | None, q: float) -> float:
    """``q`` quantile (0-1) of the observations a histogram family gained
    between two ``/stats`` metric snapshots, as the upper bucket bound (s)."""
    if after is None:
        return 0.0
    counts = [0] * (len(after["le"]) + 1)
    for series in after["series"]:
        counts = [a + b for a, b in zip(counts, series["buckets"])]
    for series in (before or {}).get("series", []):
        counts = [a - b for a, b in zip(counts, series["buckets"])]
    total = sum(counts)
    if total <= 0:
        return 0.0
    seen = 0
    for bound, count in zip([*after["le"], float("inf")], counts):
        seen += count
        if seen >= q * total:
            return bound if bound != float("inf") else after["le"][-1]
    return after["le"][-1]


def engine_totals(results) -> dict:
    """Summed phase profile, instructions, cycles and run count of results."""
    totals = {**dict.fromkeys(ENGINE_PHASES, 0.0), "instructions": 0, "cycles": 0, "runs": 0}
    for result in results:
        totals["instructions"] += result.instructions
        totals["cycles"] += result.cycles
        totals["runs"] += 1
        profile = result.phase_profile
        if profile:
            for phase, entry in profile["phases"].items():
                totals[phase] += entry["seconds"]
    return totals
