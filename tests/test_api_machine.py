"""Tests for the unified Machine facade and the machine-model registry."""

from __future__ import annotations

import pytest

from repro.api import (
    Machine,
    RunCache,
    model_descriptions,
    model_names,
    register_model,
    resolve_model,
    unregister_model,
)
from repro.core import (
    DualScalarSimulator,
    Job,
    MachineConfig,
    MultithreadedSimulator,
    ReferenceSimulator,
    SimulationResult,
)
from repro.core.ideal import ideal_execution_time
from repro.errors import ConfigurationError
from repro.trace.dixie import trace_program

BUILTIN_MODELS = (
    "cray-style",
    "dual-scalar",
    "ideal",
    "multithreaded",
    "multithreaded-2",
    "multithreaded-3",
    "multithreaded-4",
    "reference",
)


def assert_same_result(left: SimulationResult, right: SimulationResult) -> None:
    """Two simulation runs are cycle-identical and agree on every metric."""
    assert left.cycles == right.cycles
    assert left.instructions == right.instructions
    assert left.summary() == right.summary()
    assert left.fu_state_breakdown() == right.fu_state_breakdown()


class TestRegistry:
    def test_builtin_models_are_registered(self):
        names = model_names()
        for name in BUILTIN_MODELS:
            assert name in names

    def test_descriptions_cover_builtins(self):
        descriptions = model_descriptions()
        for name in BUILTIN_MODELS:
            assert descriptions[name]

    def test_register_named_run_roundtrip(self, triad_program):
        register_model(
            "test-fast-memory",
            lambda **options: Machine.from_config(MachineConfig.reference(1, **options)),
            description="reference machine with 1-cycle memory",
        )
        try:
            machine = Machine.named("test-fast-memory")
            result = machine.run(triad_program)
            expected = ReferenceSimulator(MachineConfig.reference(1)).run(triad_program)
            assert_same_result(result, expected)
        finally:
            unregister_model("test-fast-memory")
        with pytest.raises(ConfigurationError):
            resolve_model("test-fast-memory")

    def test_duplicate_registration_rejected_unless_overwrite(self):
        register_model("test-dup", lambda **options: Machine.named("reference"))
        try:
            with pytest.raises(ConfigurationError):
                register_model("test-dup", lambda **options: Machine.named("reference"))
            register_model(
                "test-dup",
                lambda **options: Machine.named("multithreaded-2"),
                overwrite=True,
            )
            assert Machine.named("test-dup").config.num_contexts == 2
        finally:
            unregister_model("test-dup")

    def test_unknown_model_raises_with_available_names(self):
        with pytest.raises(ConfigurationError, match="reference"):
            Machine.named("no-such-machine")

    def test_factory_returning_garbage_is_rejected(self):
        register_model("test-bad-factory", lambda **options: 42)
        try:
            with pytest.raises(ConfigurationError, match="expected a Machine"):
                Machine.named("test-bad-factory")
        finally:
            unregister_model("test-bad-factory")


class TestReferenceEquivalence:
    def test_run_matches_legacy_simulator(self, triad_program):
        legacy = ReferenceSimulator(MachineConfig.reference(50)).run(triad_program)
        facade = Machine.named("reference", memory_latency=50).run(triad_program)
        assert_same_result(facade, legacy)

    def test_instruction_limit_matches_legacy(self, triad_program):
        legacy = ReferenceSimulator(MachineConfig.reference(50)).run(
            triad_program, instruction_limit=40
        )
        facade = Machine.named("reference", memory_latency=50).run(
            triad_program, instruction_limit=40
        )
        assert_same_result(facade, legacy)

    def test_from_config_selects_reference_backend(self, triad_program):
        config = MachineConfig.reference(20)
        legacy = ReferenceSimulator(config).run(triad_program)
        facade = Machine.from_config(config).run(triad_program)
        assert_same_result(facade, legacy)

    def test_workload_types_are_interchangeable(self, triad_program):
        machine = Machine.named("reference", memory_latency=50)
        from_program = machine.run(triad_program)
        from_job = machine.run(Job.from_program(triad_program))
        from_trace = machine.run(trace_program(triad_program))
        assert_same_result(from_program, from_job)
        assert_same_result(from_program, from_trace)


class TestMultithreadedEquivalence:
    def test_run_group_matches_legacy(self, triad_program, scalar_program):
        config = MachineConfig.multithreaded(2, 50)
        legacy = MultithreadedSimulator(config).run_group([triad_program, scalar_program])
        facade = Machine.named("multithreaded-2", memory_latency=50).run_group(
            [triad_program, scalar_program]
        )
        assert_same_result(facade, legacy)

    def test_run_queue_matches_legacy(self, triad_program, scalar_program):
        config = MachineConfig.multithreaded(2, 50)
        legacy = MultithreadedSimulator(config).run_job_queue(
            [triad_program, scalar_program, triad_program]
        )
        facade = Machine.from_config(config).run_queue(
            [triad_program, scalar_program, triad_program]
        )
        assert_same_result(facade, legacy)

    def test_run_single_matches_legacy(self, triad_program):
        config = MachineConfig.multithreaded(3, 50)
        legacy = MultithreadedSimulator(config).run_single(triad_program)
        facade = Machine.from_config(config).run(triad_program)
        assert_same_result(facade, legacy)

    def test_parametric_model_name(self, triad_program):
        facade = Machine.named("multithreaded", num_contexts=3)
        assert facade.config.num_contexts == 3
        assert facade.name == "multithreaded-3"


class TestDualScalarEquivalence:
    def test_run_group_matches_legacy(self, triad_program, scalar_program):
        legacy = DualScalarSimulator(MachineConfig.dual_scalar_fujitsu(50)).run_group(
            [triad_program, scalar_program]
        )
        facade = Machine.named("dual-scalar", memory_latency=50).run_group(
            [triad_program, scalar_program]
        )
        assert_same_result(facade, legacy)

    def test_run_queue_matches_legacy(self, triad_program, scalar_program):
        legacy = DualScalarSimulator(MachineConfig.dual_scalar_fujitsu(50)).run_job_queue(
            [triad_program, scalar_program]
        )
        facade = Machine.named("dual-scalar", memory_latency=50).run_queue(
            [triad_program, scalar_program]
        )
        assert_same_result(facade, legacy)

    def test_from_config_selects_dual_scalar_backend(self, triad_program):
        config = MachineConfig.dual_scalar_fujitsu(50)
        machine = Machine.from_config(config)
        assert machine.config.dual_scalar
        assert machine.run(triad_program).cycles > 0


class TestIdealEquivalence:
    def test_bound_matches_ideal_model(self, triad_program, scalar_program):
        programs = [triad_program, scalar_program]
        facade = Machine.named("ideal").run_group(programs)
        assert facade.cycles == ideal_execution_time(programs)
        assert facade.stop_reason.startswith("ideal-bound")

    def test_group_and_queue_agree(self, triad_program, scalar_program):
        machine = Machine.named("ideal")
        programs = [triad_program, scalar_program]
        assert machine.run_group(programs).cycles == machine.run_queue(programs).cycles

    def test_dual_scalar_decode_width(self, scalar_program):
        one_wide = Machine.named("ideal").run(scalar_program)
        two_wide = Machine.named("ideal", decode_width=2).run(scalar_program)
        assert two_wide.cycles <= one_wide.cycles


class TestUniformSurface:
    """Every registered builtin answers the same run/run_group/run_queue calls."""

    @pytest.mark.parametrize("name", BUILTIN_MODELS)
    def test_run_single_workload(self, name, triad_program):
        result = Machine.named(name).run(triad_program)
        assert isinstance(result, SimulationResult)
        assert result.cycles > 0

    @pytest.mark.parametrize("name", BUILTIN_MODELS)
    def test_run_group_one_workload_per_context(self, name, triad_program, scalar_program):
        machine = Machine.named(name)
        pool = [triad_program, scalar_program]
        workloads = [pool[i % 2] for i in range(machine.config.num_contexts)]
        result = machine.run_group(workloads)
        assert isinstance(result, SimulationResult)
        assert result.cycles > 0

    @pytest.mark.parametrize("name", BUILTIN_MODELS)
    def test_run_queue_shared_job_list(self, name, triad_program, scalar_program):
        result = Machine.named(name).run_queue([triad_program, scalar_program])
        assert isinstance(result, SimulationResult)
        assert result.cycles > 0


class TestMachineCache:
    def test_cached_runs_are_equal_and_hit(self, triad_program):
        cache = RunCache()
        machine = Machine.named("reference", memory_latency=50, cache=cache)
        first = machine.run(triad_program)
        second = machine.run(triad_program)
        assert_same_result(first, second)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_cache_copies_are_independent(self, triad_program):
        cache = RunCache()
        machine = Machine.named("reference", memory_latency=50, cache=cache)
        first = machine.run(triad_program)
        first.workload_description = "mutated"
        second = machine.run(triad_program)
        assert second.workload_description != "mutated"

    def test_different_configs_do_not_collide(self, triad_program):
        cache = RunCache()
        fast = Machine.named("reference", memory_latency=1, cache=cache).run(triad_program)
        slow = Machine.named("reference", memory_latency=100, cache=cache).run(triad_program)
        assert fast.cycles < slow.cycles
        assert cache.hits == 0

    def test_ideal_model_options_do_not_collide(self, scalar_program):
        cache = RunCache()
        narrow = Machine.named("ideal", cache=cache).run(scalar_program)
        wide = Machine.named("ideal", decode_width=4, cache=cache).run(scalar_program)
        assert cache.hits == 0
        assert wide.cycles < narrow.cycles


class TestRunCacheThreadSafety:
    """A RunCache may be shared by library callers on several threads (the
    service uses a ResultStore instead), so concurrent get/put/len must never
    corrupt the cache."""

    def test_concurrent_get_put_with_eviction(self, triad_program):
        import threading

        machine = Machine.named("reference", memory_latency=50)
        result = machine.run(triad_program)
        cache = RunCache(max_entries=8)
        keys = [("key", index) for index in range(16)]
        errors = []

        def hammer(seed: int) -> None:
            try:
                for turn in range(200):
                    key = keys[(seed * 7 + turn) % len(keys)]
                    if turn % 3 == 0:
                        cache.put(key, result)
                    else:
                        hit = cache.get(key)
                        if hit is not None:
                            assert hit.cycles == result.cycles
                    len(cache)
                    key in cache
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 8
        assert cache.hits + cache.misses > 0

    def test_cache_pickles_without_its_lock(self, triad_program):
        import pickle

        cache = RunCache()
        machine = Machine.named("reference", memory_latency=50, cache=cache)
        machine.run(triad_program)
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == 1
        clone.put(("fresh",), machine.run(triad_program))  # lock was re-armed
        assert len(clone) == 2
