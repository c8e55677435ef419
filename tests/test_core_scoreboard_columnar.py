"""Property tests: columnar scoreboard vs. the seed oracle, call by call.

The columnar hazard tables replace the seed scoreboard's per-register dict
and per-bank read-end lists with flat int columns and top-K port slots.  The
compression is only valid under the engine's contract — ``now`` never
decreases across successive calls on one scoreboard — so this suite drives
:class:`~repro.core.scoreboard.ColumnarScoreboard` and the frozen oracle's
``SeedScoreboard`` (``tests/seed_engine.py``) through identical random
*monotonic* sequences of ``record_read`` / ``record_write`` / ``reset``
operations interleaved with ``earliest_dispatch`` / ``chain_start`` probes,
and asserts that every probe result and every per-register state column
agree, across both ``model_bank_ports`` and ``allow_chaining`` settings.
The oracle has no ``reset``: a reset replaces it with a fresh
``SeedScoreboard`` built with the same settings.

The sequences deliberately oversample the corners where the two data layouts
could diverge: many readers piling onto one bank (port-slot eviction), reads
and writes aliasing the same dense register key, and probes landing exactly
on busy-interval boundaries.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoreboard import ColumnarScoreboard
from repro.isa.builder import (
    scalar_load,
    scalar_op,
    vadd,
    vload,
    vmul,
    vreduce,
    vstore,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import A, S, V, all_registers

from tests.seed_engine import SeedScoreboard

ALL_REGISTERS = all_registers()

# Small register pools bias the sequences towards aliasing and same-bank
# traffic; the full pool keeps every dense key reachable.
register_index = st.integers(min_value=0, max_value=7)
crowded_vector = st.integers(min_value=0, max_value=1)  # one bank, two regs
vector_length = st.sampled_from([1, 2, 16, 64, 128])


@st.composite
def probe_instruction(draw):
    """A random instruction exercising one of the hazard-check shapes."""
    shape = draw(
        st.sampled_from(
            ["vadd", "vmul", "vload", "vstore", "vreduce", "scalar", "scalar_load"]
        )
    )
    vl = draw(vector_length)
    crowded = draw(st.booleans())
    index = crowded_vector if crowded else register_index
    a, b, c = draw(index), draw(index), draw(index)
    if shape == "vadd":
        return vadd(V(a), V(b), V(c), vl=vl)
    if shape == "vmul":
        return vmul(V(a), V(b), V(c), vl=vl)
    if shape == "vload":
        return vload(V(a), vl=vl, address=0, stride=draw(st.sampled_from([1, 8])))
    if shape == "vstore":
        return vstore(V(a), A(b), vl=vl, address=0)
    if shape == "vreduce":
        return vreduce(S(a), V(b), vl=vl)
    if shape == "scalar_load":
        return scalar_load(S(a), address=0)
    return scalar_op(Opcode.ADD_S, S(a), S(b), A(c))


@st.composite
def operation(draw):
    """One scoreboard call: mutation or probe, with relative time deltas."""
    kind = draw(
        st.sampled_from(
            ["read", "read", "write", "write", "probe", "probe", "chain", "reset"]
        )
    )
    advance = draw(st.integers(min_value=0, max_value=25))
    if kind == "read":
        register = draw(st.sampled_from(ALL_REGISTERS))
        duration = draw(st.integers(min_value=0, max_value=200))
        return ("read", advance, register, duration)
    if kind == "write":
        register = draw(st.sampled_from(ALL_REGISTERS))
        first_delta = draw(st.integers(min_value=0, max_value=60))
        ready_delta = draw(st.integers(min_value=0, max_value=300))
        chainable = draw(st.booleans())
        return ("write", advance, register, first_delta, ready_delta, chainable)
    if kind == "probe":
        return ("probe", advance, draw(probe_instruction()))
    if kind == "chain":
        candidate_delta = draw(st.integers(min_value=0, max_value=120))
        return ("chain", advance, draw(probe_instruction()), candidate_delta)
    return ("reset", advance)


def check_sequence(ops, *, model_bank_ports: bool, allow_chaining: bool) -> None:
    """Drive a columnar board and a seed reference through ``ops``.

    Both share one monotonic clock.  Every probe is compared as it happens,
    so a divergence is reported at the first call that differs, not only in
    the final state; ``version`` must rise by exactly one per mutation.
    """
    options = {"model_bank_ports": model_bank_ports, "allow_chaining": allow_chaining}
    columnar = ColumnarScoreboard(**options)
    reference = SeedScoreboard(**options)
    now = 0
    mutations = 0
    for op in ops:
        kind = op[0]
        now += op[1]
        if kind == "read":
            _, _, register, duration = op
            for board in (columnar, reference):
                board.record_read(register, now, now + duration)
            mutations += 1
        elif kind == "write":
            _, _, register, first_delta, ready_delta, chainable = op
            for board in (columnar, reference):
                board.record_write(
                    register,
                    first_element_at=now + first_delta,
                    ready_at=now + ready_delta,
                    chainable=chainable,
                )
            mutations += 1
        elif kind == "probe":
            instruction = op[2]
            assert columnar.earliest_dispatch(instruction, now) == (
                reference.earliest_dispatch(instruction, now)
            ), op
        elif kind == "chain":
            _, _, instruction, candidate_delta = op
            candidate = now + candidate_delta
            assert columnar.chain_start(instruction, candidate) == (
                reference.chain_start(instruction, candidate)
            ), op
        else:
            columnar.reset()
            reference = SeedScoreboard(**options)
            mutations += 1
        assert columnar.version == mutations, op
    assert_same_state(columnar, reference)


def assert_same_state(columnar, reference):
    """Every register's hazard columns agree with the seed reference."""
    for register in ALL_REGISTERS:
        flat = columnar.state(register)
        seed = reference.state(register)
        assert flat.ready_at == seed.ready_at, register
        assert flat.first_element_at == seed.first_element_at, register
        assert flat.chainable == seed.chainable, register
        assert flat.write_busy_until == seed.write_busy_until, register
        assert flat.read_busy_until == seed.read_busy_until, register


class TestColumnarAgreesWithSeedScoreboard:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(operation(), min_size=1, max_size=60),
        model_bank_ports=st.booleans(),
        allow_chaining=st.booleans(),
    )
    def test_random_sequences_agree(self, ops, model_bank_ports, allow_chaining):
        check_sequence(
            ops, model_bank_ports=model_bank_ports, allow_chaining=allow_chaining
        )

    @settings(max_examples=60, deadline=None)
    @given(
        reads=st.lists(
            st.tuples(
                crowded_vector,  # register inside one bank
                st.integers(min_value=0, max_value=6),  # clock advance
                st.integers(min_value=0, max_value=40),  # read duration
            ),
            min_size=3,
            max_size=30,
        ),
        probe_gap=st.integers(min_value=0, max_value=50),
    )
    def test_port_slot_eviction_matches_prune_and_sort(self, reads, probe_gap):
        """Many readers on one bank: top-K slots vs. the seed's full list."""
        columnar = ColumnarScoreboard()
        reference = SeedScoreboard()
        now = 0
        reader = vstore(V(0), A(0), vl=16, address=0)
        for index, advance, duration in reads:
            now += advance
            for board in (columnar, reference):
                board.record_read(V(index), now, now + duration)
            probe_at = now + probe_gap
            assert columnar.earliest_dispatch(reader, probe_at) == (
                reference.earliest_dispatch(reader, probe_at)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        ready_delta=st.integers(min_value=0, max_value=64),
        probe_delta=st.integers(min_value=0, max_value=64),
        chainable=st.booleans(),
        allow_chaining=st.booleans(),
    )
    def test_chain_window_boundaries_agree(
        self, ready_delta, probe_delta, chainable, allow_chaining
    ):
        """Probes landing exactly on ``ready_at`` boundaries stay identical."""
        columnar = ColumnarScoreboard(allow_chaining=allow_chaining)
        reference = SeedScoreboard(allow_chaining=allow_chaining)
        for board in (columnar, reference):
            board.record_write(
                V(0), first_element_at=10, ready_at=10 + ready_delta, chainable=chainable
            )
        consumer = vadd(V(2), V(0), V(4), vl=32)
        now = 10 + probe_delta
        assert columnar.earliest_dispatch(consumer, now) == reference.earliest_dispatch(
            consumer, now
        )
        candidate = 10 + probe_delta
        assert columnar.chain_start(consumer, candidate) == reference.chain_start(
            consumer, candidate
        )
