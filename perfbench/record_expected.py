"""Regenerate ``expected.json``: the digests ``paper_repro`` checks against.

    python3 perfbench/record_expected.py

Run it only when a change is meant to alter the simulated results; the
digests are the reproduction's output as of the commit that records them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as runner  # noqa: E402


def main() -> int:
    runner._hermetic_env()
    import paper
    from procs import Owned
    from spans import Tracer

    workdir = runner.OUT / f"record-{os.getpid()}"
    run = runner.Run(root=runner.ROOT, workdir=workdir, seed=0, seconds=0.0, traced=False,
                     tracer=Tracer(False), owned=Owned(), env=dict(os.environ),
                     latency_limit_ms=0.0)
    try:
        expected = paper.record_expected(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    paper.EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {paper.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
