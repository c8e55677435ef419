"""Tests of the benchmark itself: inputs, metric names, reporting, teardown.

    python3 -m pytest perfbench/tests -q

The reporting and teardown tests start real service clusters and take a
few minutes on a 2-CPU host.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import paper  # noqa: E402
import service_load  # noqa: E402
from procs import processes_in_sessions  # noqa: E402
from spans import Tracer  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Per-layer metrics each workload must measure (the rest of the declared
#: per-layer metrics read 0 on it: it never calls that layer).
ENGINE = ["core.decode_s", "core.hazard_check_s", "core.dispatch_s", "core.memory_s",
          "core.finalize_s", "core.instructions", "core.runs"]
SERVICE = ["service.parse_ms", "service.key_ms", "store.get_ms", "store.put_ms",
           "store.hit_ratio", "service.executed", "service.coalesced", "service.store_hits",
           "service.rejected", "service.coalesce_ratio", "service.queue_wait_p90_ms",
           "service.execute_p50_ms", "http.healthz_ms", "http.submit_ms", "http.fetch_ms",
           "shard.router_overhead_ms", "client.decode_ms"]
CLAIMS = {
    "paper_repro": ["workloads.build_s", *ENGINE, "api.batch_s", "api.requests",
                    "api.unique_requests", "api.cache_hits", "api.pool_hop_s",
                    "experiments.self_s", "store.get_ms", "store.put_ms", "store.hit_ratio",
                    *(f"experiments.{name}_s" for name in (
                        "table1", "table2", "table3", "figure4", "figure5", "figure6",
                        "figure7", "figure8", "figure9", "figure10", "figure11", "figure12")),
                    *(f"sweep.{phase}.{step}_s" for phase in ("cold", "warm")
                      for step in ("compile", "execute", "aggregate", "manifest")),
                    "trace.overhead_frac"],
    "service_warm": [*ENGINE, *SERVICE, "trace.overhead_frac"],
    "service_open": [*ENGINE, *SERVICE, "loadgen.late_p99_ms", "trace.overhead_frac"],
}


def _drive(workload: str, trace: int, seconds: float, seed: int = 3, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


# -- inputs ----------------------------------------------------------------- #
def test_generator_is_deterministic_per_seed():
    assert inputs.catalogue(7, 20, "warm") == inputs.catalogue(7, 20, "warm")
    assert inputs.catalogue(7, 20, "warm") != inputs.catalogue(8, 20, "warm")
    rungs = [(4, 5.0), (8, 5.0)]
    assert inputs.open_ladder(7, rungs, 0.25) == inputs.open_ladder(7, rungs, 0.25)
    assert inputs.open_ladder(7, rungs, 0.25) != inputs.open_ladder(8, rungs, 0.25)
    first, second = inputs.uniform_stream(7, 0, 20), inputs.uniform_stream(7, 0, 20)
    assert [next(first) for _ in range(50)] == [next(second) for _ in range(50)]


def test_ladder_rungs_use_disjoint_catalogues_with_every_key_requested():
    ladder = inputs.open_ladder(5, [(4, 5.0), (8, 2.5), (16, 5.0)], 0.25)
    seen = set()
    for rung in ladder:
        keys = {json.dumps(doc, sort_keys=True) for doc in rung.docs}
        assert len(keys) == len(rung.docs) and not keys & seen
        seen |= keys
        ranks = [rank for _due, rank in rung.arrivals]
        assert set(ranks) == set(range(len(rung.docs)))
        assert len(ranks) == round(rung.rate * rung.seconds)
        assert len(rung.docs) == round(0.25 * len(ranks))
        programs = [doc["workloads"][0]["benchmark"] for doc in rung.docs]
        assert programs == [inputs.PROGRAMS[i % 10] for i in range(len(programs))]
        dues = [due for due, _rank in rung.arrivals]
        assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] <= rung.seconds
        slots = [due * len(dues) / rung.seconds for due in dues]
        assert all(slot <= at < slot + 1 for slot, at in enumerate(slots))


def test_zipf_counts_are_stratified():
    counts = inputs.zipf_counts(10, 100)
    assert sum(counts) == 100 and min(counts) >= 1
    assert counts == sorted(counts, reverse=True)
    with pytest.raises(ValueError):
        inputs.zipf_counts(10, 9)


# -- correctness bookkeeping ------------------------------------------------ #
def test_any_client_error_is_a_failed_row():
    class Broken:
        def submit(self, *args, **kwargs):
            raise ValueError("truncated response")

    class Run:
        tracer = Tracer(enabled=False)
        traced = False

    ledger = service_load.Ledger()
    doc = inputs.job_document("swm256", "reference", 1)
    ledger.job(Run(), Broken(), doc, "digest", 0.0, "t", 0)
    assert len(ledger.rows) == 1 and not ledger.rows[0]["ok"]
    assert "ValueError" in ledger.rows[0]["error"]


def test_missing_report_or_sweep_fails_the_check():
    expected = json.loads(paper.EXPECTED.read_text())
    one = {"reports": dict(expected["reports"]), "cold": {}, "warm": {},
           "cycles": expected["simulated_cycles"]}
    dropped = sorted(one["reports"])[0]
    del one["reports"][dropped]
    problems = paper._check(one, expected, traced=False)
    assert any(dropped in problem for problem in problems)
    assert sum("not run" in problem for problem in problems) == len(expected["sweeps"])


# -- BENCHMARK.json --------------------------------------------------------- #
def test_benchmark_json_follows_the_contract():
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                           "per_layer"}
    assert CONFIG["paths"] == ["perfbench"]
    assert 1 <= CONFIG["run_seconds"] <= 60
    names = [entry["name"] for entry in
             CONFIG["workloads"] + CONFIG["end_to_end"] + CONFIG["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [w["name"] for w in CONFIG["workloads"]] == list(CLAIMS)
    for workload in CONFIG["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in CONFIG["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and 0 < metric["bound"] <= 0.25
    for metric in CONFIG["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    setup = next(m for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CONFIG["end_to_end"])
    declared = {metric["name"] for metric in CONFIG["per_layer"]}
    for claimed in CLAIMS.values():
        assert set(claimed) <= declared


# -- reporting -------------------------------------------------------------- #
def _result(done) -> tuple[dict, list[dict]]:
    assert done.returncode == 0, done.stderr[-2000:]
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    return lines[-1], lines[:-1]


@pytest.mark.parametrize("workload", list(CLAIMS))
def test_every_metric_is_reported(workload):
    seconds = 1 if workload == "paper_repro" else 4
    result, _ = _result(_drive(workload, 0, seconds))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in CONFIG["end_to_end"]}
    for metric in CONFIG["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0

    result, details = _result(_drive(workload, 1, 2 * seconds))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in CONFIG["per_layer"]}
    measured = next(d["layers_measured"] for d in details if "layers_measured" in d)
    assert set(CLAIMS[workload]) <= set(measured)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _drive("service_warm", 0, 2, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- teardown --------------------------------------------------------------- #
def test_sigterm_mid_service_open_leaves_no_process():
    bench = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "service_open",
         "--seed", "4", "--seconds", "40", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    sessions = {bench.pid}
    clusters = 1 + 3 * service_load.SETUPS
    try:
        started = re.compile(r"started server pid=\d+ session=(\d+)")
        deadline = time.monotonic() + 120
        for line in bench.stderr:
            match = started.search(line)
            if match:
                sessions.add(int(match.group(1)))
            # a cluster of three per set-up: the last one is the one under load
            if len(sessions) == clusters or time.monotonic() > deadline:
                break
        assert len(sessions) == clusters
        time.sleep(3.0)  # into the ladder
        bench.send_signal(signal.SIGTERM)
        bench.communicate(timeout=60)
        assert bench.returncode == 128 + signal.SIGTERM
        deadline = time.monotonic() + 5
        while processes_in_sessions(sessions) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert processes_in_sessions(sessions) == []
    finally:
        for session in sessions:
            try:
                os.killpg(session, signal.SIGKILL)
            except ProcessLookupError:
                pass
        bench.wait(timeout=10)
