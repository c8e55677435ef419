"""Columnar event-log statistics: flat-array recording, one-shot reduction.

The measurement path of the simulator used to mutate Python objects per
dynamic instruction: half a dozen counter increments on
:class:`~repro.core.statistics.SimulationStats` and
:class:`~repro.core.statistics.ThreadStats`, a ``JobRecord`` field update, a
tuple append per functional-unit reservation, and a frozen ``DispatchOutcome``
dataclass allocated per dispatch just to carry the numbers.  On vector-heavy
runs that accounting rivaled the cost of the timing model itself.

This module replaces it with a *columnar event log*:

* while the simulation runs, the engine appends plain integers to flat
  ``array('q')`` buffers — one :data:`DISPATCH_FIELDS` row per dynamic
  instruction (:class:`DispatchLog`) and one ``(start, end)`` pair per
  functional-unit reservation (:class:`FlatIntervalRecorder`);
* every derived statistic (per-run counters, per-thread counters, per-job
  instruction counts, busy intervals, the figure-4 state breakdown) is
  computed in a single reduction at ``SimulationEngine._finalize``.

The reductions are vectorized with numpy when it is importable and fall back
to tight pure-Python loops otherwise (the fallback keeps the PyPy path open
and is exercised by CI).  Both paths produce bit-identical integers; the
equivalence suite asserts them against the frozen seed oracle.
"""

from __future__ import annotations

import os
from array import array

from repro.errors import SimulationError

__all__ = [
    "DISPATCH_FIELDS",
    "DispatchLog",
    "FlatIntervalRecorder",
    "active_numpy",
    "merge_interval_pairs",
    "numpy_enabled",
    "reduce_dispatch_log",
    "set_numpy_enabled",
]

# --------------------------------------------------------------------------- #
# numpy gating
# --------------------------------------------------------------------------- #
try:  # pragma: no cover - exercised through both CI matrix legs
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None

#: The numpy module used by the vectorized reductions, or ``None`` when the
#: pure-Python fallback is active.  ``REPRO_PURE_PYTHON_STATS=1`` forces the
#: fallback even when numpy is importable (the CI matrix runs one leg with
#: it); tests flip it at runtime through :func:`set_numpy_enabled`.
_active_numpy = None if os.environ.get("REPRO_PURE_PYTHON_STATS") else _numpy


def numpy_enabled() -> bool:
    """Whether the vectorized (numpy) reduction path is active."""
    return _active_numpy is not None


def active_numpy():
    """The numpy module when the vectorized path is active, else ``None``."""
    return _active_numpy


def set_numpy_enabled(enabled: bool) -> bool:
    """Switch the reduction path at runtime; returns the previous setting.

    Enabling is a no-op when numpy is not importable.  Used by the test suite
    to exercise the pure-Python fallback; production code never calls it.
    """
    global _active_numpy
    previous = _active_numpy is not None
    _active_numpy = (_numpy if enabled else None)
    return previous


# --------------------------------------------------------------------------- #
# the per-dispatch counter matrix
# --------------------------------------------------------------------------- #
#: Column names of one dispatch row, in storage order.
DISPATCH_FIELDS: tuple[str, ...] = (
    "thread_id",
    "job_ordinal",
    "is_vector",
    "vector_elements",
    "vector_arithmetic_ops",
    "memory_transactions",
)

ROW_WIDTH = len(DISPATCH_FIELDS)


class DispatchLog:
    """One flat integer row per dynamic instruction.

    The hot path never calls a method on this class: the dispatch layer
    hoists ``log.values.extend`` once and appends :data:`ROW_WIDTH` integers
    per dispatched instruction.  Everything else (row iteration, the numpy
    matrix view, reduction) happens once per run.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: array = array("q")

    def __len__(self) -> int:
        return len(self.values) // ROW_WIDTH

    def clear(self) -> None:
        """Drop every recorded row."""
        del self.values[:]

    def rows(self) -> list[tuple[int, ...]]:
        """All rows as tuples (test/debug helper, not a hot path)."""
        values = self.values
        return [
            tuple(values[index : index + ROW_WIDTH])
            for index in range(0, len(values), ROW_WIDTH)
        ]

    def matrix(self):
        """The log as an ``(n, ROW_WIDTH)`` numpy int64 matrix, or ``None``.

        Returns ``None`` when the numpy path is disabled.  The matrix is a
        zero-copy view of the underlying buffer — do not append while holding
        it.
        """
        if _active_numpy is None:
            return None
        if not self.values:
            return _active_numpy.empty((0, ROW_WIDTH), dtype=_active_numpy.int64)
        return _active_numpy.frombuffer(self.values, dtype=_active_numpy.int64).reshape(
            -1, ROW_WIDTH
        )

    # -- pickling: ship the raw buffer, not 6n Python ints ---------------- #
    def __getstate__(self) -> bytes:
        return self.values.tobytes()

    def __setstate__(self, state: bytes) -> None:
        self.values = array("q")
        self.values.frombytes(state)


def reduce_dispatch_log(log: DispatchLog, stats) -> None:
    """One-shot reduction of the dispatch log into a ``SimulationStats``.

    Fills every per-run, per-thread and per-job counter that used to be
    incremented per dispatched instruction.  The few counters the engine must
    keep observable *between* cycles (global/per-thread ``instructions`` for
    stop conditions, schedulers and instruction limits) stay live during the
    run; this reduction overwrites them with the identical reduced values.
    """
    matrix = log.matrix()
    if matrix is not None:
        _reduce_numpy(matrix, stats)
    else:
        _reduce_python(log.values, stats)


def _reduce_numpy(matrix, stats) -> None:
    np = _active_numpy
    total_rows = int(matrix.shape[0])
    stats.instructions = total_rows
    stats.decode_busy_cycles = total_rows
    if total_rows:
        sums = matrix[:, 2:].sum(axis=0, dtype=np.int64)
        vector_instructions = int(sums[0])
        stats.vector_instructions = vector_instructions
        stats.scalar_instructions = total_rows - vector_instructions
        stats.vector_operations = int(sums[1])
        stats.vector_arithmetic_operations = int(sums[2])
        stats.memory_transactions = int(sums[3])
    else:
        stats.vector_instructions = 0
        stats.scalar_instructions = 0
        stats.vector_operations = 0
        stats.vector_arithmetic_operations = 0
        stats.memory_transactions = 0
    for thread in stats.threads:
        if total_rows:
            mask = matrix[:, 0] == thread.thread_id
            rows = matrix[mask]
        else:
            rows = matrix
        thread_rows = int(rows.shape[0])
        thread.instructions = thread_rows
        if thread_rows:
            sums = rows[:, 2:].sum(axis=0, dtype=np.int64)
            thread.vector_instructions = int(sums[0])
            thread.scalar_instructions = thread_rows - thread.vector_instructions
            thread.vector_operations = int(sums[1])
            thread.memory_transactions = int(sums[3])
            if thread.jobs:
                # drop rows recorded before any job was fetched (ordinal -1),
                # matching the fallback path
                ordinals = rows[:, 1]
                counts = np.bincount(
                    ordinals[ordinals >= 0], minlength=len(thread.jobs)
                )
                for ordinal, record in enumerate(thread.jobs):
                    record.instructions = int(counts[ordinal])
        else:
            thread.vector_instructions = 0
            thread.scalar_instructions = 0
            thread.vector_operations = 0
            thread.memory_transactions = 0
            for record in thread.jobs:
                record.instructions = 0


def _reduce_python(values: array, stats) -> None:
    total_rows = len(values) // ROW_WIDTH
    stats.instructions = total_rows
    stats.decode_busy_cycles = total_rows
    threads = {thread.thread_id: thread for thread in stats.threads}
    per_thread = {
        # rows, vector rows, vector elements, memory transactions, job counts
        thread_id: [0, 0, 0, 0, {}]
        for thread_id in threads
    }
    vector_instructions = 0
    vector_operations = 0
    vector_arithmetic = 0
    memory_transactions = 0
    index = 0
    end = len(values)
    while index < end:
        thread_id = values[index]
        job_ordinal = values[index + 1]
        is_vector = values[index + 2]
        elements = values[index + 3]
        memtx = values[index + 5]
        vector_instructions += is_vector
        vector_operations += elements
        vector_arithmetic += values[index + 4]
        memory_transactions += memtx
        index += ROW_WIDTH
        # rows for threads absent from stats.threads only count globally,
        # matching the numpy path's per-thread masking
        bucket = per_thread.get(thread_id)
        if bucket is None:
            continue
        bucket[0] += 1
        bucket[1] += is_vector
        bucket[2] += elements
        bucket[3] += memtx
        jobs = bucket[4]
        jobs[job_ordinal] = jobs.get(job_ordinal, 0) + 1
    stats.vector_instructions = vector_instructions
    stats.scalar_instructions = total_rows - vector_instructions
    stats.vector_operations = vector_operations
    stats.vector_arithmetic_operations = vector_arithmetic
    stats.memory_transactions = memory_transactions
    for thread_id, thread in threads.items():
        rows, vector_rows, elements, memtx, job_counts = per_thread[thread_id]
        thread.instructions = rows
        thread.vector_instructions = vector_rows
        thread.scalar_instructions = rows - vector_rows
        thread.vector_operations = elements
        thread.memory_transactions = memtx
        for ordinal, record in enumerate(thread.jobs):
            record.instructions = job_counts.get(ordinal, 0)


# --------------------------------------------------------------------------- #
# flat busy-interval recording
# --------------------------------------------------------------------------- #
def merge_interval_pairs(
    pairs: array, horizon: int | None
) -> list[tuple[int, int]]:
    """Merge interleaved ``(start, end)`` pairs into sorted disjoint intervals.

    Equivalent to :meth:`repro.core.statistics.IntervalRecorder.merged` but
    operating on a flat buffer; vectorized when numpy is active.
    """
    if not pairs:
        return []
    np = _active_numpy
    if np is not None:
        flat = np.frombuffer(pairs, dtype=np.int64)
        starts = flat[0::2]
        ends = flat[1::2]
        if horizon is not None:
            ends = np.minimum(ends, horizon)
        keep = ends > starts
        if not keep.all():
            starts = starts[keep]
            ends = ends[keep]
        if starts.size == 0:
            return []
        order = np.argsort(starts, kind="stable")
        starts = starts[order]
        ends = np.maximum.accumulate(ends[order])
        boundaries = np.flatnonzero(starts[1:] > ends[:-1]) + 1
        first = np.concatenate(([0], boundaries))
        last = np.concatenate((boundaries - 1, [starts.size - 1]))
        return [
            (int(start), int(end))
            for start, end in zip(starts[first], ends[last])
        ]
    clipped: list[tuple[int, int]] = []
    for index in range(0, len(pairs), 2):
        start = pairs[index]
        end = pairs[index + 1]
        if horizon is not None and end > horizon:
            end = horizon
        if end > start:
            clipped.append((start, end))
    if not clipped:
        return []
    clipped.sort()
    merged = [clipped[0]]
    for start, end in clipped[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


class FlatIntervalRecorder:
    """Busy intervals of one functional unit as a flat ``(start, end)`` buffer.

    Drop-in replacement for the object-per-interval
    :class:`~repro.core.statistics.IntervalRecorder` (which remains as the
    pure-Python fallback recorder and the seed oracle's data structure): same
    ``record`` / ``intervals`` / ``merged`` / ``busy_cycles`` / ``reset``
    surface, same validation, same merge semantics.  ``merged`` results are
    memoized per horizon and invalidated by ``record``/``reset``.
    """

    __slots__ = ("name", "_pairs", "_merged_cache")

    def __init__(self, name: str) -> None:
        self.name = name
        self._pairs: array = array("q")
        self._merged_cache: dict[int | None, list[tuple[int, int]]] = {}

    def record(self, start: int, end: int) -> None:
        """Record one busy interval; zero-length intervals are ignored."""
        if end > start:
            self._pairs.extend((start, end))
            if self._merged_cache:
                self._merged_cache = {}
        elif end < start:
            raise SimulationError(
                f"unit {self.name}: busy interval ends ({end}) before it starts ({start})"
            )

    def extend_pairs(self, other: "FlatIntervalRecorder") -> None:
        """Append every interval of ``other`` (used to combine LD units)."""
        if len(other._pairs):
            self._pairs.extend(other._pairs)
            if self._merged_cache:
                self._merged_cache = {}

    @property
    def intervals(self) -> list[tuple[int, int]]:
        """All recorded busy intervals (unsorted, possibly overlapping)."""
        pairs = self._pairs
        return [
            (pairs[index], pairs[index + 1]) for index in range(0, len(pairs), 2)
        ]

    def __len__(self) -> int:
        return len(self._pairs) // 2

    def merged(self, horizon: int | None = None) -> list[tuple[int, int]]:
        """Intervals merged into a sorted, disjoint list, clipped to ``horizon``."""
        cached = self._merged_cache.get(horizon)
        if cached is None:
            cached = merge_interval_pairs(self._pairs, horizon)
            self._merged_cache[horizon] = cached
        return list(cached)

    def busy_cycles(self, horizon: int | None = None) -> int:
        """Number of distinct cycles the unit was busy (union of intervals)."""
        if not self._pairs:
            return 0
        return sum(end - start for start, end in self.merged(horizon))

    def reset(self) -> None:
        """Drop all recorded intervals."""
        self._pairs = array("q")
        self._merged_cache = {}

    def drop_merge_memo(self) -> None:
        """Discard memoized ``merged`` results, keeping the intervals.

        Measurement hook: benchmarks that time repeated reductions call this
        between repeats so every pass pays the full merge, not a cache hit.
        """
        self._merged_cache = {}

    # -- pickling: ship the raw buffer ------------------------------------ #
    def __getstate__(self) -> tuple[str, bytes]:
        return (self.name, self._pairs.tobytes())

    def __setstate__(self, state: tuple[str, bytes]) -> None:
        self.name = state[0]
        self._pairs = array("q")
        self._pairs.frombytes(state[1])
        self._merged_cache = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlatIntervalRecorder({self.name!r}, intervals={len(self)})"
