"""The ``paper_repro`` workload: regenerate the paper, then run the example sweeps.

One pass calls ``run_experiment`` for every table and figure on the default
preset, sharing one ``ExperimentContext`` (two pool workers, a cold
``RunCache``), then runs every ``examples/sweeps/*.toml`` through
compile → execute → aggregate → manifest against a fresh ``ResultStore``,
first cold and then warm.  Every report and sweep ledger is checked against
the digests committed in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

from measure import ENGINE_PHASES, engine_totals, median, pct, result_digest, store_probes
from procs import child_pids, peak_rss_mb
from repro.api.pool import get_shared_pool, shutdown_shared_pool
from repro.experiments import (
    ALL_EXPERIMENTS,
    ExperimentContext,
    ExperimentSettings,
    report_to_json,
    run_experiment,
)
from repro.service import ResultStore
from repro.sweep import aggregate_run, compile_sweep, execute_sweep, load_sweep_spec, write_manifest
from repro.workloads.program import clear_expansion_intern

JOBS = 2
SETUPS = 5
EXPECTED = Path(__file__).with_name("expected.json")
SWEEP_PHASES = ("compile", "execute", "aggregate", "manifest")
#: The layers this workload drives, imported in a fresh interpreter at set-up.
_IMPORT = "import repro.cli, repro.experiments, repro.sweep, repro.service"


def _setup(run) -> float:
    """One set-up: import the layers in a fresh interpreter, then start the
    two-worker pool from scratch and round-trip a call through each worker."""
    shutdown_shared_pool()
    clear_expansion_intern()
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", _IMPORT], cwd=run.root, env=run.env, check=True)
    pool = get_shared_pool(JOBS)
    for future in [pool.submit(os.getpid) for _ in range(JOBS)]:
        future.result()
    return time.perf_counter() - started


class BatchProbe:
    """Wraps one context's ``BatchRunner.run`` to see every batch it answers.

    Records, per batch, its wall time and size (each request waits for the
    whole batch), and keeps the results of first-seen content keys: those
    are the simulations the engine actually executed.
    """

    def __init__(self, run, context: ExperimentContext) -> None:
        self.tracer = run.tracer
        self.batches: list[tuple[float, int]] = []
        self.keys: set = set()
        self.executed: list = []
        self._run = context.batch.run
        context.batch.run = self

    def __call__(self, requests):
        requests = list(requests)
        with self.tracer.span("api.batch"):
            started = time.perf_counter()
            results = self._run(requests)
            elapsed = time.perf_counter() - started
        self.batches.append((elapsed, len(requests)))
        for request, result in zip(requests, results):
            key = request.cache_key()
            if key not in self.keys:
                self.keys.add(key)
                self.executed.append(result)
        return results


def _regenerate(run, reports: dict) -> tuple[BatchProbe, dict, int]:
    """Every table and figure on the default preset, each report's digest
    into ``reports``; returns the batch probe, per-experiment seconds and
    the run-cache hits."""
    context = ExperimentContext(ExperimentSettings().with_jobs(JOBS))
    probe = BatchProbe(run, context)
    tracer = run.tracer
    seconds = {}
    with tracer.span("paper.regenerate", "regenerate"):
        with tracer.span("workloads.build"):
            context.programs
        for experiment_id in ALL_EXPERIMENTS:
            started = time.perf_counter()
            with tracer.span(f"experiments.{experiment_id}"):
                report = run_experiment(experiment_id, context)
            seconds[experiment_id] = time.perf_counter() - started
            reports[experiment_id] = hashlib.sha256(report_to_json(report).encode()).hexdigest()
    return probe, seconds, context.cache.hits


def _sweep(run, path: Path, store: ResultStore, out_dir: Path, phase: str) -> dict:
    """compile → execute → aggregate → manifest."""
    tracer = run.tracer
    with tracer.span(f"sweep.{phase}", f"sweep-{phase}-{path.stem}"):
        with tracer.span(f"sweep.{phase}.compile"):
            compiled = compile_sweep(load_sweep_spec(path))
        with tracer.span(f"sweep.{phase}.execute"):
            sweep_run = execute_sweep(compiled, jobs=JOBS, cache=store)
        with tracer.span(f"sweep.{phase}.aggregate"):
            rows = aggregate_run(sweep_run)
        with tracer.span(f"sweep.{phase}.manifest"):
            artifacts = write_manifest(sweep_run, rows, out_dir)
    outcomes = sweep_run.outcomes
    payloads = [outcome.payload for outcome in outcomes]
    return {
        "served": [outcome.served_from for outcome in outcomes],
        "failed": sum(1 for outcome in outcomes if outcome.failed),
        "ledger": Path(artifacts["ledger"]).read_bytes(),
        "results": hashlib.sha256("".join(
            result_digest(payload, strip_profile=True) if payload else "-"
            for payload in payloads).encode()).hexdigest(),
        "executed": [pickle.loads(outcome.payload) for outcome in outcomes
                     if outcome.served_from == "executed" and outcome.payload],
        "stored": [(outcome.point.request.cache_key(), outcome.payload)
                   for outcome in outcomes if outcome.payload],
    }


def paper_repro(run) -> dict:
    """One cold reproduction, on a pool and caches started from scratch.

    A run is exactly one reproduction (about 30 s on a 2-CPU host), whatever
    ``--seconds`` says: the work cannot be cut short, and a second pass would
    reuse the first one's memory.  The inputs are the paper's evaluation and
    the example sweeps, the same on every seed.  Even their order is fixed:
    sweeps share built programs and interned expansions, so reordering them
    changes the work measured.
    """
    expected = json.loads(EXPECTED.read_text())
    setups = [_setup(run) for _ in range(SETUPS)]
    one = _reproduce(run)
    rss = peak_rss_mb([run.pid, *child_pids(run.pid)])
    shutdown_shared_pool()
    survivors = child_pids(run.pid)
    if survivors:
        print(f"[perfbench] pool workers survived shutdown: {survivors}", flush=True)

    failures = _check(one, expected, run.traced)
    return {
        "attempted": one["operations"],
        "failed": min(one["operations"], len(failures)) + len(survivors),
        "errors": failures[:5],
        "e2e": {
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "throughput_jobs_s": one["jobs"] / one["total_s"],
        },
        "layers": one["layers"],
        "detail": {
            # per call into the batch layer: its requests all wait for the
            # whole batch, so per-request percentiles are a few batch times
            "latency_p50_ms": 1000.0 * pct(one["calls"], 50),
            "latency_p90_ms": 1000.0 * pct(one["calls"], 90),
            "jobs": one["jobs"],
            "batch_calls": len(one["calls"]),
            "repro_s": one["repro_s"],
            "sweep_warm_s": one["sweep_warm_s"],
            "sim_instr_per_s": one["instructions"] / one["repro_s"],
            "simulated_cycles": one["cycles"],
        },
    }


def _reproduce(run) -> dict:
    """Regenerate every artifact, then every sweep cold and warm."""
    reports: dict = {}
    sweeps = sorted((run.root / "examples" / "sweeps").glob("*.toml"))
    workdir = run.workdir
    started = time.perf_counter()
    probe, experiment_s, cache_hits = _regenerate(run, reports)

    store_dir = workdir / "sweep-store"
    cold = {path.stem: _sweep(run, path, ResultStore(store_dir), workdir / "cold" / path.stem,
                              "cold") for path in sweeps}
    cold_done = time.perf_counter()
    store = ResultStore(store_dir)  # a fresh handle: every point must come from disk
    warm = {path.stem: _sweep(run, path, store, workdir / "warm" / path.stem, "warm")
            for path in sweeps}
    finished = time.perf_counter()

    executed = probe.executed + [result for one in cold.values() for result in one["executed"]]
    engine = engine_totals(executed)
    sweeps_run = [*cold.values(), *warm.values()]
    points = sum(len(sweep["served"]) for sweep in sweeps_run)
    return {
        "reports": reports,
        "cold": cold,
        "warm": warm,
        "jobs": sum(size for _elapsed, size in probe.batches) + points,
        "calls": [elapsed for elapsed, _size in probe.batches],
        "repro_s": cold_done - started,
        "sweep_warm_s": finished - cold_done,
        "total_s": finished - started,
        "instructions": engine["instructions"],
        "cycles": engine["cycles"],
        "operations": len(ALL_EXPERIMENTS) + points,
        "layers": _layers(run, probe, experiment_s, cache_hits, engine, cold, warm)
        if run.traced else {},
    }


def _layers(run, probe, experiment_s, cache_hits, engine, cold, warm) -> dict:
    tracer = run.tracer
    layers = {f"core.{phase}_s": engine[phase] for phase in ENGINE_PHASES}
    layers["core.instructions"] = engine["instructions"]
    layers["core.runs"] = engine["runs"]
    batch_s = sum(elapsed for elapsed, _size in probe.batches)
    regen_engine = engine_totals(probe.executed)
    engine_s = regen_engine["decode"] + regen_engine["hazard_check"] + \
        regen_engine["dispatch"] + regen_engine["finalize"]
    layers.update({
        "workloads.build_s": tracer.total("workloads.build"),
        "api.batch_s": batch_s,
        "api.requests": sum(size for _elapsed, size in probe.batches),
        "api.unique_requests": len(probe.keys),
        "api.cache_hits": cache_hits,
        # engine seconds are spread over the pool's workers
        "api.pool_hop_s": batch_s - engine_s / JOBS,
    })
    layers.update({f"experiments.{name}_s": seconds for name, seconds in experiment_s.items()})
    # experiment time outside the batches it submitted: report building
    layers["experiments.self_s"] = sum(
        value for name, value in tracer.self_times().items() if name.startswith("experiments."))
    for phase in ("cold", "warm"):
        for step in SWEEP_PHASES:
            layers[f"sweep.{phase}.{step}_s"] = tracer.total(f"sweep.{phase}.{step}")
    # store lookups are the points not deduplicated within their sweep
    served = [kind for sweep in (*cold.values(), *warm.values()) for kind in sweep["served"]]
    layers["store.hit_ratio"] = served.count("store") / max(1, len(served) - served.count(
        "deduplicated"))
    layers.update(store_probes(ResultStore(run.workdir / "probe-store"),
                               [item for sweep in cold.values() for item in sweep["stored"]]))
    return layers


def _check(one: dict, expected: dict, traced: bool) -> list[str]:
    """Report digests, sweep ledgers and total cycles against expected.json."""
    problems = []
    for name in sorted(set(expected["reports"]) | set(one["reports"])):
        if expected["reports"].get(name) != one["reports"].get(name):
            problems.append(f"report {name}: digest differs from expected.json or is missing")
    for name in sorted(set(expected["sweeps"]) - set(one["cold"])):
        problems.append(f"sweep {name}: in expected.json but not run")
    for name, cold in one["cold"].items():
        warm = one["warm"][name]
        want = expected["sweeps"].get(name, {})
        if cold["failed"] or warm["failed"]:
            problems.append(f"sweep {name}: {cold['failed'] + warm['failed']} point(s) failed")
        if cold["ledger"] != warm["ledger"]:
            problems.append(f"sweep {name}: cold and warm ledgers differ")
        if cold["results"] != want.get("results"):
            problems.append(f"sweep {name}: results differ from expected.json")
        # profiled runs carry wall-clock phase timings inside every payload
        if not traced and hashlib.sha256(cold["ledger"]).hexdigest() != want.get("ledger"):
            problems.append(f"sweep {name}: ledger.sha256 differs from expected.json")
    if one["cycles"] != expected["simulated_cycles"]:
        problems.append(f"simulated cycles {one['cycles']} != {expected['simulated_cycles']}")
    return problems


def record_expected(run) -> dict:
    """The digests an untraced pass produced, in ``expected.json`` form."""
    _setup(run)
    one = _reproduce(run)
    shutdown_shared_pool()
    return {
        "reports": one["reports"],
        "sweeps": {name: {"ledger": hashlib.sha256(cold["ledger"]).hexdigest(),
                          "results": cold["results"]}
                   for name, cold in one["cold"].items()},
        "simulated_cycles": one["cycles"],
    }
