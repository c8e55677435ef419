"""Seeded inputs: job catalogues, Zipf-ranked request streams, arrival schedules.

Everything here is a pure function of the workload seed, so the same seed
gives the same job documents in the same order at the same due times.  The
program under test only ever sees the generated JSON job documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The ten benchmark analogues of the paper's suite.
PROGRAMS = ("swm256", "hydro2d", "arc2d", "flo52", "nasa7",
            "su2cor", "tomcatv", "bdna", "trfd", "dyfesm")
MACHINES = ("reference", "multithreaded-2", "multithreaded-3", "multithreaded-4")
LATENCIES = tuple(range(1, 101))
#: Workload scale of every service job (assumed, like the rest of the
#: traffic: no record of real jobs exists): small enough that a fresh key
#: costs milliseconds of engine time, so per-request overheads stay visible.
SCALE = 0.1
#: Assumed popularity skew: the classic Zipf law, with no traffic record to fit.
ZIPF_EXPONENT = 1.0


def job_document(program: str, machine: str, latency: int) -> dict:
    """One declarative job document, as ``POST /jobs`` receives it."""
    return {
        "machine": machine,
        "workloads": [{"benchmark": program, "scale": SCALE}],
        "options": {"memory_latency": latency},
    }


def _rng(seed: int, *labels) -> random.Random:
    return random.Random("/".join(str(part) for part in (seed, *labels)))


def catalogue(seed: int, size: int, label: str, exclude=()) -> list[dict]:
    """``size`` distinct job documents, none in ``exclude``.

    Entry ``i`` always runs ``PROGRAMS[i % 10]``; the machine and memory
    latency of each entry are drawn from the seed.  Parsing and hashing a
    job costs from 3 to 20 ms depending on its program alone, so fixing the
    program of each position (and so of each Zipf rank) keeps the cost of a
    request stream from swinging with the seed.
    """
    rng = _rng(seed, "catalogue", label)
    taken = {(doc["machine"], doc["workloads"][0]["benchmark"],
              doc["options"]["memory_latency"]) for doc in exclude}
    docs = []
    for index in range(size):
        program = PROGRAMS[index % len(PROGRAMS)]
        while True:
            machine, latency = rng.choice(MACHINES), rng.choice(LATENCIES)
            if (machine, program, latency) not in taken:
                break
        taken.add((machine, program, latency))
        docs.append(job_document(program, machine, latency))
    return docs


def uniform_stream(seed: int, thread: int, size: int):
    """Endless catalogue indices for one closed-loop client thread."""
    rng = _rng(seed, "uniform", thread)
    while True:
        yield rng.randrange(size)


def zipf_counts(size: int, total: int, exponent: float = ZIPF_EXPONENT) -> list[int]:
    """Requests per rank: Zipf shares of ``total``, every rank at least once.

    Stratified rather than sampled, so the number of distinct keys (the
    requests that must execute) is exactly ``size`` on every seed.
    """
    if total < size:
        raise ValueError("a rung needs at least one request per catalogue entry")
    weights = [1.0 / (rank + 1) ** exponent for rank in range(size)]
    spare = total - size
    shares = [spare * weight / sum(weights) for weight in weights]
    counts = [1 + int(share) for share in shares]
    leftover = total - sum(counts)
    by_remainder = sorted(range(size), key=lambda rank: shares[rank] - int(shares[rank]),
                          reverse=True)
    for rank in by_remainder[:leftover]:
        counts[rank] += 1
    return counts


@dataclass(frozen=True)
class Rung:
    """One fixed arrival rate of the open-loop ladder."""

    rate: float
    seconds: float
    docs: tuple  # catalogue for this rung, ordered by Zipf rank
    arrivals: tuple  # (due offset in seconds, index into docs), by due time


def open_ladder(seed: int, rungs, new_share: float) -> list[Rung]:
    """The open-loop schedule from ``(rate, seconds)`` pairs: one rung per
    pair, each with its own catalogue.

    A rung of ``n`` arrivals draws from ``new_share * n`` catalogue entries
    that no other rung uses, so every rung sends the same share of new keys
    (executed) whatever ran before it.  The rest of its Zipf-ranked stream
    repeats keys still in flight (coalesced) or finished (store hits).  Due
    times are jittered-periodic: one uniform draw in each ``1 / rate`` slot.
    Poisson arrivals (assumed too) bunched differently on every seed, and
    the bunches moved the rung's p50 and p90 by up to a third between seeds.
    """
    ladder = []
    used: list[dict] = []
    for position, (rate, seconds) in enumerate(rungs):
        total = round(rate * seconds)
        docs = catalogue(seed, max(1, round(new_share * total)), f"open-{position}", used)
        used.extend(docs)
        stream = [rank for rank, count in enumerate(zipf_counts(len(docs), total))
                  for _ in range(count)]
        rng = _rng(seed, "arrivals", position)
        rng.shuffle(stream)
        dues = [(slot + rng.random()) * seconds / total for slot in range(total)]
        ladder.append(Rung(rate, seconds, tuple(docs), tuple(zip(dues, stream))))
    return ladder
