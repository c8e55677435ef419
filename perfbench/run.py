"""Benchmark runner: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload service_warm --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``, so
nothing is built.  ``--trace 0`` prints every end-to-end metric named in
``BENCHMARK.json``.  ``--trace 1`` runs the workload twice, each half as
long: once untraced and once traced (spans around every layer call, and
``REPRO_PROFILE=1`` for the engine).  It then prints every per-layer metric,
with the tracing overhead between the two halves, and writes the spans to
``.bench_out/``.  A per-layer metric of a layer the workload never calls
reads 0.

Every process the runner starts is stopped before it exits, also when it is
stopped by SIGTERM or SIGINT.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("paper_repro", "service_warm", "service_open")


class Terminated(BaseException):
    """Raised in the main thread when SIGTERM or SIGINT arrives."""


@dataclass
class Run:
    """What one workload execution needs; workloads read, never replace, it."""

    root: Path
    workdir: Path
    seed: int
    seconds: float
    traced: bool
    tracer: object
    owned: object
    env: dict
    latency_limit_ms: float
    threads: int = field(default_factory=lambda: min(2, len(os.sched_getaffinity(0))))
    pid: int = field(default_factory=os.getpid)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _hermetic_env() -> None:
    """Drop every ambient ``REPRO_*`` switch, here and in every child, and
    import the program from this checkout's ``src/``."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)


def _latency_limit(config: dict) -> float:
    """The open-loop p90 limit, stated in the ``service_open`` workload's why."""
    for workload in config["workloads"]:
        match = re.search(r"p90 limit (\d+) ms", workload["why"])
        if workload["name"] == "service_open" and match:
            return float(match.group(1))
    raise SystemExit("BENCHMARK.json states no 'p90 limit <N> ms' for service_open")


def _execute(args, config: dict, owned, workdir: Path, traced: bool, seconds: float):
    """Run the workload once; returns its outcome and the run's tracer."""
    from spans import Tracer

    import paper
    import service_load

    if traced:
        os.environ["REPRO_PROFILE"] = "1"
    else:
        os.environ.pop("REPRO_PROFILE", None)
    run = Run(root=ROOT, workdir=workdir / ("traced" if traced else "untraced"),
              seed=args.seed, seconds=seconds, traced=traced, tracer=Tracer(traced),
              owned=owned, env=dict(os.environ), latency_limit_ms=_latency_limit(config))
    workload = {"paper_repro": paper.paper_repro,
                "service_warm": service_load.service_warm,
                "service_open": service_load.service_open}[args.workload]
    return workload(run), run.tracer


def _metrics(values: dict, declared: list[dict]) -> dict:
    """``{name: {value, unit}}`` for every declared metric; unmeasured reads 0."""
    unknown = set(values) - {metric["name"] for metric in declared}
    if unknown:
        raise ValueError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for metric in declared:
        value = float(values.get(metric["name"], 0.0))
        out[metric["name"]] = {"value": value if math.isfinite(value) else 0.0,
                               "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a repro-mtv checkout",
              file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    _hermetic_env()
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    from procs import Owned, child_pids

    owned = Owned()
    state = {"tearing_down": False}

    def on_signal(signum, _frame):
        if not state["tearing_down"]:
            raise Terminated(signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    workdir = OUT / f"run-{os.getpid()}"
    try:
        if args.trace:
            base, _ = _execute(args, config, owned, workdir, False, args.seconds / 2)
            outcome, tracer = _execute(args, config, owned, workdir, True, args.seconds / 2)
        else:
            outcome, _ = _execute(args, config, owned, workdir, False, args.seconds)
    except Terminated as stop:
        print(f"perfbench: stopped by signal {stop.args[0]}", file=sys.stderr, flush=True)
        return 128 + stop.args[0]
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        state["tearing_down"] = True
        _teardown(owned, child_pids)
        shutil.rmtree(workdir, ignore_errors=True)

    failed = outcome["failed"]
    if args.trace:
        failed += base["failed"]
        headline = "latency_p50_ms"
        layers = dict(outcome["layers"])
        layers["trace.overhead_frac"] = (outcome["detail"][headline]
                                         / base["detail"][headline] - 1.0)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        print(json.dumps({"self_s": tracer.self_times()}, sort_keys=True))
        print(json.dumps({"layers_measured": sorted(layers)}))
        metrics = _metrics(layers, config["per_layer"])
        attempted = outcome["attempted"] + base["attempted"]
    else:
        metrics = _metrics(outcome["e2e"], config["end_to_end"])
        attempted = outcome["attempted"]
    print(json.dumps({"detail": outcome["detail"], "errors": outcome["errors"]},
                     sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _teardown(owned, child_pids) -> None:
    """Stop every server and pool worker this process started."""
    from repro.api.pool import shutdown_shared_pool

    owned.stop_all()
    shutdown_shared_pool(wait=False)
    deadline = time.monotonic() + 10.0
    while child_pids(os.getpid()) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in child_pids(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


if __name__ == "__main__":
    sys.exit(main())
