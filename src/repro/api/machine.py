"""The unified :class:`Machine` facade over every simulated machine model.

The paper evaluates four machines — the single-context reference
architecture, the multithreaded proposal, the Fujitsu-style dual-scalar
machine and the dependence-free IDEAL bound — which the core package exposes
through differently-shaped classes.  This module unifies them behind one
surface:

* :meth:`Machine.named` resolves a machine by registry name
  (``"reference"``, ``"multithreaded-2"``, ``"dual-scalar"``,
  ``"cray-style"``, ``"ideal"``, or anything registered with
  :func:`repro.api.registry.register_model`);
* :meth:`Machine.from_config` builds the right machine for any
  :class:`~repro.core.config.MachineConfig`;
* every machine answers the same three calls, each accepting
  ``Job | Program | TraceSet`` workloads:

  - :meth:`Machine.run` — one workload alone on the machine,
  - :meth:`Machine.run_group` — the groupings methodology of section 4.1
    (one workload per context, companions restarted, stop when context 0's
    program completes),
  - :meth:`Machine.run_queue` — the fixed-workload methodology of section 7
    (all contexts drain a shared job queue).

A machine constructed with a :class:`~repro.api.cache.RunCache` transparently
memoizes its runs by content, so repeated simulations of identical
(configuration, workload) pairs are free.
"""

from __future__ import annotations

import pickle
from collections.abc import Sequence
from dataclasses import replace

from repro.api.cache import RunCache, _result_to_bytes, request_key
from repro.api.registry import register_model, resolve_model
from repro.core.config import MachineConfig
from repro.core.dual_scalar import DualScalarSimulator
from repro.core.engine import SimulationEngine
from repro.core.ideal import IdealMachineModel
from repro.core.multithreaded import MultithreadedSimulator
from repro.core.eventlog import FlatIntervalRecorder
from repro.core.reference import ReferenceSimulator, as_job
from repro.core.results import SimulationResult
from repro.core.statistics import SimulationStats
from repro.core.suppliers import (
    Job,
    JobQueueSupplier,
    JobSupplier,
    SingleJobSupplier,
)
from repro.errors import ConfigurationError, SimulationError
from repro.trace.records import TraceSet
from repro.workloads.program import Program
from repro.workloads.stats import measure_stream

__all__ = ["BUILTIN_MODEL_NAMES", "Machine", "MachineBackend"]

#: Model names registered by this module on import — resolvable in any
#: process, including freshly spawned workers.
BUILTIN_MODEL_NAMES: frozenset[str] = frozenset(
    {
        "reference",
        "multithreaded",
        "multithreaded-2",
        "multithreaded-3",
        "multithreaded-4",
        "dual-scalar",
        "cray-style",
        "ideal",
    }
)

Workload = Job | Program | TraceSet


class MachineBackend:
    """Interface every machine model implements behind the facade."""

    #: The machine configuration (a synthetic one for analytic models).
    config: MachineConfig

    def run(
        self, workload: Workload, *, instruction_limit: int | None = None
    ) -> SimulationResult:
        """Run one workload alone on the machine."""
        raise NotImplementedError

    def run_group(
        self, workloads: Sequence[Workload], *, restart_companions: bool = True
    ) -> SimulationResult:
        """Run one workload per context until context 0's program completes."""
        raise NotImplementedError

    def run_queue(self, workloads: Sequence[Workload]) -> SimulationResult:
        """Run the workloads through a shared job queue until all complete."""
        raise NotImplementedError


class _ReferenceBackend(MachineBackend):
    """The single-context reference architecture (section 3)."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self._simulator = ReferenceSimulator(config)
        self.config = self._simulator.config

    def run(
        self, workload: Workload, *, instruction_limit: int | None = None
    ) -> SimulationResult:
        return self._simulator.run(workload, instruction_limit=instruction_limit)

    def _run_sequential(self, workloads: Sequence[Workload]) -> SimulationResult:
        jobs = [as_job(workload) for workload in workloads]
        if not jobs:
            raise SimulationError("a sequential run needs at least one workload")
        engine = SimulationEngine(self.config, [JobQueueSupplier(jobs)])
        result = engine.run()
        result.workload_description = ", ".join(job.name for job in jobs)
        return result

    def run_group(
        self, workloads: Sequence[Workload], *, restart_companions: bool = True
    ) -> SimulationResult:
        # A single-context machine has no companion contexts: the group
        # degenerates to running the workloads back to back.
        return self._run_sequential(workloads)

    def run_queue(self, workloads: Sequence[Workload]) -> SimulationResult:
        return self._run_sequential(workloads)


class _MultithreadedBackend(MachineBackend):
    """The multithreaded vector architecture (and its Cray-style extension)."""

    def __init__(self, config: MachineConfig) -> None:
        self._simulator = MultithreadedSimulator(config)
        self.config = self._simulator.config

    def run(
        self, workload: Workload, *, instruction_limit: int | None = None
    ) -> SimulationResult:
        if instruction_limit is None:
            return self._simulator.run_single(workload)
        job = as_job(workload)
        suppliers: list[JobSupplier] = [SingleJobSupplier(job)]
        limits: list[int | None] = [instruction_limit]
        for _ in range(self.config.num_contexts - 1):
            suppliers.append(JobQueueSupplier([]))
            limits.append(None)
        engine = SimulationEngine(self.config, suppliers, instruction_limits=limits)
        result = engine.run()
        result.workload_description = job.name
        return result

    def run_group(
        self, workloads: Sequence[Workload], *, restart_companions: bool = True
    ) -> SimulationResult:
        return self._simulator.run_group(
            workloads, restart_companions=restart_companions
        )

    def run_queue(self, workloads: Sequence[Workload]) -> SimulationResult:
        return self._simulator.run_job_queue(workloads)


class _DualScalarBackend(MachineBackend):
    """The Fujitsu VP2000-style dual-scalar machine (section 9)."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self._simulator = DualScalarSimulator(config)
        self.config = self._simulator.config

    def run(
        self, workload: Workload, *, instruction_limit: int | None = None
    ) -> SimulationResult:
        if instruction_limit is not None:
            raise ConfigurationError(
                "the dual-scalar machine does not support instruction limits"
            )
        return self._simulator.run_job_queue([workload])

    def run_group(
        self, workloads: Sequence[Workload], *, restart_companions: bool = True
    ) -> SimulationResult:
        if not restart_companions:
            raise ConfigurationError(
                "the dual-scalar groupings methodology always restarts the companion"
            )
        return self._simulator.run_group(workloads)

    def run_queue(self, workloads: Sequence[Workload]) -> SimulationResult:
        return self._simulator.run_job_queue(workloads)


class _IdealBackend(MachineBackend):
    """The dependence-free IDEAL lower bound of figure 10 (section 7).

    Not a cycle-level simulator: execution time is the analytic bound of
    :class:`~repro.core.ideal.IdealMachineModel`, packaged as a
    :class:`~repro.core.results.SimulationResult` so the IDEAL line flows
    through the same batch and reporting machinery as the real machines.
    """

    def __init__(self, *, decode_width: int = 1, num_arithmetic_units: int = 2) -> None:
        self._model = IdealMachineModel(
            decode_width=decode_width, num_arithmetic_units=num_arithmetic_units
        )
        # The model parameters must be part of the (synthetic) config so that
        # differently-parameterized ideal machines get distinct cache keys.
        name = "ideal"
        if decode_width != 1 or num_arithmetic_units != 2:
            name = f"ideal-w{decode_width}x{num_arithmetic_units}"
        self.config = replace(MachineConfig.reference(), name=name, memory_latency=0)

    def _bound_result(self, workloads: Sequence[Workload]) -> SimulationResult:
        jobs = [as_job(workload) for workload in workloads]
        if not jobs:
            raise SimulationError("the IDEAL bound needs at least one workload")
        stats_list = [measure_stream(job.open_stream(), name=job.name) for job in jobs]
        cycles = self._model.bound_for_stats(stats_list)
        # flat-array recorders (empty: the analytic bound has no unit
        # timeline) so every result, simulated or analytic, marshals the
        # same compact columnar containers through batch IPC and the cache
        stats = SimulationStats(
            fu2_intervals=FlatIntervalRecorder("FU2"),
            fu1_intervals=FlatIntervalRecorder("FU1"),
            ld_intervals=FlatIntervalRecorder("LD"),
            cycles=cycles,
            instructions=sum(s.total_instructions for s in stats_list),
            scalar_instructions=sum(s.scalar_instructions for s in stats_list),
            vector_instructions=sum(s.vector_instructions for s in stats_list),
            vector_operations=sum(s.vector_operations for s in stats_list),
            vector_arithmetic_operations=sum(
                s.vector_arithmetic_operations for s in stats_list
            ),
            memory_transactions=sum(s.memory_transactions for s in stats_list),
            memory_port_busy_cycles=sum(s.memory_transactions for s in stats_list),
        )
        result = SimulationResult(
            config=self.config,
            stats=stats,
            stop_reason=f"ideal-bound ({self._model.bottleneck(stats_list)})",
        )
        result.workload_description = ", ".join(job.name for job in jobs)
        return result

    def run(
        self, workload: Workload, *, instruction_limit: int | None = None
    ) -> SimulationResult:
        if instruction_limit is not None:
            raise ConfigurationError(
                "the IDEAL model has no notion of an instruction limit"
            )
        return self._bound_result([workload])

    def run_group(
        self, workloads: Sequence[Workload], *, restart_companions: bool = True
    ) -> SimulationResult:
        return self._bound_result(workloads)

    def run_queue(self, workloads: Sequence[Workload]) -> SimulationResult:
        return self._bound_result(workloads)


class Machine:
    """The single entry point for simulating any machine model.

    Build one with :meth:`named` or :meth:`from_config`, then call
    :meth:`run`, :meth:`run_group` or :meth:`run_queue` — the same three
    methods for every model, each accepting ``Job | Program | TraceSet``
    workloads and returning a :class:`~repro.core.results.SimulationResult`.
    """

    def __init__(self, backend: MachineBackend, *, cache: RunCache | None = None) -> None:
        self._backend = backend
        self.cache = cache

    # -- construction ---------------------------------------------------- #
    @classmethod
    def from_config(
        cls, config: MachineConfig, *, cache: RunCache | None = None
    ) -> "Machine":
        """The machine model matching an arbitrary configuration."""
        backend: MachineBackend
        if config.dual_scalar:
            backend = _DualScalarBackend(config)
        elif config.num_contexts == 1:
            backend = _ReferenceBackend(config)
        else:
            backend = _MultithreadedBackend(config)
        return cls(backend, cache=cache)

    @classmethod
    def named(cls, name: str, *, cache: RunCache | None = None, **options) -> "Machine":
        """Resolve a registered machine model by name (``Machine.named("multithreaded-2")``)."""
        produced = resolve_model(name).factory(**options)
        if isinstance(produced, Machine):
            if cache is not None:
                produced.cache = cache
            return produced
        if not isinstance(produced, MachineBackend):
            raise ConfigurationError(
                f"the factory for model {name!r} returned {type(produced).__name__}; "
                "expected a Machine or MachineBackend"
            )
        return cls(produced, cache=cache)

    # -- identity -------------------------------------------------------- #
    @property
    def config(self) -> MachineConfig:
        """The configuration of the underlying machine model."""
        return self._backend.config

    @property
    def name(self) -> str:
        """The configuration name of the machine (``"reference"``, ...)."""
        return self._backend.config.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cached = ", cached" if self.cache is not None else ""
        return f"Machine({self.name!r}{cached})"

    # -- the uniform execution surface ----------------------------------- #
    def _cached(self, key: tuple, compute) -> SimulationResult:
        if self.cache is None:
            return compute()
        payload = self.cache.get_bytes(key)
        if payload is not None:
            return pickle.loads(payload)
        result = compute()
        self.cache.put_bytes(key, _result_to_bytes(result))
        return result

    def run(
        self,
        workload: Workload,
        *,
        instruction_limit: int | None = None,
        profile: bool = False,
    ) -> SimulationResult:
        """Run one workload alone on this machine.

        ``profile=True`` forces engine phase profiling for this call (see
        :mod:`repro.obs.profiling`): the result carries ``phase_profile``
        and the run bypasses the cache both ways — cached results have no
        profile, and a profiled result must not poison the cache for
        unprofiled callers.
        """
        if profile:
            from repro.obs.profiling import force_profiling

            with force_profiling(True):
                return self._backend.run(workload, instruction_limit=instruction_limit)
        if self.cache is None:
            return self._backend.run(workload, instruction_limit=instruction_limit)
        key = request_key(
            self.config, "single", [workload], instruction_limit=instruction_limit
        )
        return self._cached(
            key, lambda: self._backend.run(workload, instruction_limit=instruction_limit)
        )

    def run_group(
        self, workloads: Sequence[Workload], *, restart_companions: bool = True
    ) -> SimulationResult:
        """Groupings methodology: one workload per context, stop when context 0 finishes."""
        if self.cache is None:
            return self._backend.run_group(
                workloads, restart_companions=restart_companions
            )
        key = request_key(
            self.config, "group", workloads, restart_companions=restart_companions
        )
        return self._cached(
            key,
            lambda: self._backend.run_group(
                workloads, restart_companions=restart_companions
            ),
        )

    def run_queue(self, workloads: Sequence[Workload]) -> SimulationResult:
        """Fixed-workload methodology: every context drains a shared job queue."""
        if self.cache is None:
            return self._backend.run_queue(workloads)
        key = request_key(self.config, "queue", workloads)
        return self._cached(key, lambda: self._backend.run_queue(workloads))

    def run_sequence(
        self, workloads: Sequence[Workload], *, jobs: int = 1
    ) -> list[SimulationResult]:
        """Run each workload alone (fresh machine each time), in workload order.

        With ``jobs > 1`` the runs fan out through :func:`~repro.api.batch.
        run_batch` — the shared worker pool, chunking and CPU capping
        included — sharing this machine's cache.  Fan-out requires the
        backend to be reconstructible from its configuration (true for every
        built-in simulated model); otherwise the sequence quietly runs
        serially in-process.
        """
        if jobs > 1 and len(workloads) > 1:
            # local import: batch imports this module
            from repro.api.batch import SimulationRequest, run_batch

            rebuilt = Machine.from_config(self.config)
            if type(rebuilt._backend) is type(self._backend):
                requests = [
                    SimulationRequest(machine=self.config, workloads=(workload,))
                    for workload in workloads
                ]
                return run_batch(requests, jobs=jobs, cache=self.cache)
        return [self.run(workload) for workload in workloads]


# --------------------------------------------------------------------------- #
# built-in model registrations
# --------------------------------------------------------------------------- #
def _register_builtins() -> None:
    register_model(
        "reference",
        lambda **options: _ReferenceBackend(MachineConfig.reference(**options)),
        description="single-context Convex C3400-style reference architecture",
    )
    register_model(
        "multithreaded",
        lambda num_contexts=2, **options: _MultithreadedBackend(
            MachineConfig.multithreaded(num_contexts, **options)
        ),
        description="the paper's multithreaded vector architecture (num_contexts=2..4)",
    )
    for contexts in (2, 3, 4):
        register_model(
            f"multithreaded-{contexts}",
            lambda contexts=contexts, **options: _MultithreadedBackend(
                MachineConfig.multithreaded(contexts, **options)
            ),
            description=f"multithreaded vector architecture with {contexts} contexts",
        )
    register_model(
        "dual-scalar",
        lambda **options: _DualScalarBackend(
            MachineConfig.dual_scalar_fujitsu(**options)
        ),
        description="Fujitsu VP2000-style dual-scalar machine (section 9)",
    )
    register_model(
        "cray-style",
        lambda num_contexts=4, **options: _MultithreadedBackend(
            MachineConfig.cray_style(num_contexts, **options)
        ),
        description="Cray-like multi-port, multi-issue extension (section 10)",
    )
    register_model(
        "ideal",
        lambda **options: _IdealBackend(**options),
        description="dependence-free IDEAL lower bound of figure 10",
    )


_register_builtins()
