"""Tests for the scan chain: enumeration, bit access, injection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScanChainError
from repro.faults.models import FaultTarget
from repro.thor.cpu import CPU
from repro.thor.scanchain import CACHE_PARTITION, REGISTER_PARTITION, ScanChain


@pytest.fixture()
def chain():
    return ScanChain(CPU())


class TestEnumeration:
    def test_paper_location_budget(self, chain):
        space = chain.location_space()
        assert len(space) == 2250
        assert space.partition_size(CACHE_PARTITION) == 1824
        assert space.partition_size(REGISTER_PARTITION) == 426

    def test_partitions(self, chain):
        assert chain.location_space().partitions == (
            CACHE_PARTITION,
            REGISTER_PARTITION,
        )

    def test_element_widths(self, chain):
        assert chain.element_width(REGISTER_PARTITION, "r0") == 32
        assert chain.element_width(REGISTER_PARTITION, "psw") == 10
        assert chain.element_width(CACHE_PARTITION, "line0.tag") == 23
        assert chain.element_width(CACHE_PARTITION, "line31.dirty") == 1

    def test_unknown_element_rejected(self, chain):
        with pytest.raises(ScanChainError):
            chain.element_width(CACHE_PARTITION, "line99.data")


class TestBitAccess:
    def test_register_flip_visible_in_cpu(self, chain):
        target = FaultTarget(REGISTER_PARTITION, "r3", 5)
        assert chain.read_bit(target) == 0
        chain.flip(target)
        assert chain.cpu.regs[3] == 1 << 5
        assert chain.read_bit(target) == 1

    def test_double_flip_is_identity(self, chain):
        chain.cpu.regs[2] = 0xCAFEBABE
        target = FaultTarget(REGISTER_PARTITION, "r2", 13)
        chain.flip(target)
        chain.flip(target)
        assert chain.cpu.regs[2] == 0xCAFEBABE

    def test_cache_flip_visible_in_arrays(self, chain):
        target = FaultTarget(CACHE_PARTITION, "line7.data", 31)
        chain.flip(target)
        assert chain.cpu.cache.data[7] == 1 << 31

    def test_valid_and_dirty_flips(self, chain):
        chain.flip(FaultTarget(CACHE_PARTITION, "line0.valid", 0))
        assert chain.cpu.cache.valid[0] == 1
        chain.flip(FaultTarget(CACHE_PARTITION, "line0.dirty", 0))
        assert chain.cpu.cache.dirty[0] == 1

    def test_psw_mask_respected(self, chain):
        chain.write_element(REGISTER_PARTITION, "psw", 0xFFFF)
        assert chain.read_element(REGISTER_PARTITION, "psw") == 0x3FF

    def test_pc_flip(self, chain):
        before = chain.cpu.pc
        chain.flip(FaultTarget(REGISTER_PARTITION, "pc", 2))
        assert chain.cpu.pc == before ^ 4

    def test_out_of_range_bit_rejected(self, chain):
        with pytest.raises(ScanChainError):
            chain.flip(FaultTarget(REGISTER_PARTITION, "psw", 10))
        with pytest.raises(ScanChainError):
            chain.flip(FaultTarget(CACHE_PARTITION, "line0.tag", 23))

    @given(st.integers(0, 2249))
    @settings(max_examples=100, deadline=None)
    def test_every_location_flippable_and_restorable(self, index):
        chain = ScanChain(CPU())
        target = chain.location_space()[index]
        before = chain.read_bit(target)
        assert chain.flip(target) == 1 - before
        assert chain.flip(target) == before


class TestFullStateCoverage:
    def test_flipping_any_bit_changes_state_bytes(self, chain):
        """Every injectable bit must be part of the hashed run state —
        otherwise early-exit comparisons could miss latent corruption."""
        space = chain.location_space()
        baseline = chain.cpu.state_bytes()
        # Spot-check a spread of locations across both partitions.
        for index in range(0, len(space), 97):
            target = space[index]
            chain.flip(target)
            assert chain.cpu.state_bytes() != baseline, target.label()
            chain.flip(target)
            assert chain.cpu.state_bytes() == baseline


class TestPredecodeUnderIRFaults:
    """The predecode cache must never serve a stale entry: a flipped IR
    decodes as the *corrupted* word, bit-identically to the legacy
    decode/execute chain."""

    SOURCE = (
        "ldi r1, 5\nldi r2, 7\nadd r3, r1, r2\nsub r4, r3, r1\n"
        "cmp r3, r4\nbeq skip\nmul r5, r1, r2\nskip:\nsvc 0\n"
    )

    def _pair_at(self, steps):
        """Fast and legacy CPUs advanced to the same instruction."""
        from repro.thor.assembler import assemble
        from repro.thor.cpu import StepResult

        program = assemble(self.SOURCE)
        cpus = []
        for fast in (True, False):
            cpu = CPU()
            if not fast:
                # Any trace hook selects the legacy chain.
                cpu.trace_hook = lambda _entry: None
            cpu.load(program)
            for _ in range(steps):
                assert cpu.step() is StepResult.OK
            cpus.append(cpu)
        return cpus

    @pytest.mark.parametrize("bit", range(32))
    @pytest.mark.parametrize("steps", [0, 2, 3])
    def test_flipped_ir_matches_legacy_chain(self, steps, bit):
        fast, legacy = self._pair_at(steps)
        target = FaultTarget(REGISTER_PARTITION, "ir", bit)
        ScanChain(fast).flip(target)
        ScanChain(legacy).flip(target)
        assert fast.ir == legacy.ir
        fast_result = fast.step()
        legacy_result = legacy.step()
        assert fast_result is legacy_result, f"bit {bit} after {steps} steps"
        assert fast.register_state_bytes() == legacy.register_state_bytes()
        if fast.detection is None:
            assert legacy.detection is None
        else:
            assert legacy.detection is not None
            assert fast.detection.mechanism is legacy.detection.mechanism
            assert fast.detection.detail == legacy.detection.detail
            assert fast.detection.pc == legacy.detection.pc
            assert (
                fast.detection.instruction_index
                == legacy.detection.instruction_index
            )

    def test_corrupted_ir_never_reuses_original_handler(self):
        """Executing ``add`` first primes the predecode cache for the
        healthy word; the flipped word must decode independently."""
        fast, _legacy = self._pair_at(2)  # IR now holds add r3, r1, r2
        healthy_word = fast.ir
        # Flip an opcode bit: ADD (0x30) ^ bit24 -> SUB (0x31).
        ScanChain(fast).flip(FaultTarget(REGISTER_PARTITION, "ir", 24))
        assert fast.ir != healthy_word
        fast.step()
        assert fast.regs[3] == (5 - 7) & 0xFFFFFFFF  # subtracted, not added

    def test_register_field_flip_beyond_gprs_detected_like_legacy(self):
        """Flipping an IR register-field bit can name r9..r15, which no
        dispatch-table fast path covers; the generic fallback must keep
        the legacy detection."""
        fast, legacy = self._pair_at(2)
        # rd field bits are 20..23; add r3 -> rd=3, flip bit 23 -> rd=11.
        for cpu in (fast, legacy):
            ScanChain(cpu).flip(FaultTarget(REGISTER_PARTITION, "ir", 23))
            cpu.step()
        assert (fast.detection is None) == (legacy.detection is None)
        assert fast.register_state_bytes() == legacy.register_state_bytes()

    def test_corrupted_code_word_not_served_from_fetch_cache(self):
        """A code word already fetched (and therefore memoised) must be
        re-verified after ``corrupt_word_bit``: the next parity-checked
        fetch raises DATA ERROR instead of returning the cached value."""
        from repro.thor.assembler import assemble
        from repro.thor.cpu import StepResult
        from repro.thor.edm import Mechanism

        program = assemble("loop:\nldi r1, 1\nsvc 0\nbr loop\n")
        cpu = CPU()
        cpu.load(program)
        assert cpu.run(100) is StepResult.YIELD  # ldi executed and cached
        cpu.memory.corrupt_word_bit(program.entry, 3)
        result = cpu.run(100)  # loops back into the corrupted word
        assert result is StepResult.DETECTED
        assert cpu.detection.mechanism is Mechanism.DATA_ERROR

    def test_poked_code_word_refetches_new_value(self):
        """``poke`` (parity kept valid) must also invalidate the fetch
        memo so the loop re-executes the *new* instruction."""
        from repro.thor.assembler import assemble
        from repro.thor.cpu import StepResult

        program = assemble("loop:\nldi r1, 1\nsvc 0\nbr loop\n")
        cpu = CPU()
        cpu.load(program)
        assert cpu.run(100) is StepResult.YIELD
        assert cpu.regs[1] == 1
        replacement = assemble("ldi r1, 9\nsvc 0\n").code[0]
        cpu.memory.poke(program.entry, replacement)
        assert cpu.run(100) is StepResult.YIELD
        assert cpu.regs[1] == 9
