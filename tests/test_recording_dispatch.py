"""Differential tests: the predecoded recording loop against the traced chain.

With an :class:`AccessRecorder` attached and no trace hook,
:meth:`CPU.run` executes through per-word recording handlers built from
``_ACCESSES``; with a (no-op) trace hook attached it executes through
the traced decode-and-branch chain, which reports every access through
the recorder's hook methods.  Each test here runs one instruction from the
same machine state through both paths and requires the same result, the
same final machine state and the same per-element access traces.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.faults.liveness import AccessRecorder
from repro.thor.cpu import (
    CPU,
    FLAG_C,
    FLAG_M,
    FLAG_N,
    FLAG_V,
    FLAG_Z,
    StepResult,
    _HANDLER_FACTORIES,
    _TRACED,
)
from repro.thor.isa import Instruction, Opcode, encode
from repro.thor.memory import WORD, MemoryLayout
from repro.thor.program import Program

LAYOUT = MemoryLayout()
CODE = LAYOUT.code_base
DATA = LAYOUT.data_base
STACK_TOP = LAYOUT.stack_base + LAYOUT.stack_size
#: Dynamic index of the instruction under test (non-zero, so a wrong
#: ``now`` shows up in the traces).
NOW = 5


def f2b(value: float) -> int:
    return struct.unpack("<I", struct.pack("<f", value))[0]


def enc(op: Opcode, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0) -> int:
    return encode(Instruction(op, rd=rd, rs1=rs1, rs2=rs2, imm=imm & 0xFFFF))


#: One case: (id, instruction word, machine set-up).
Case = Tuple[str, int, Callable[[CPU], None]]


def _setup(
    regs: Optional[Dict[int, int]] = None,
    psw: int = 0,
    sp: int = STACK_TOP,
    memory: Optional[Dict[int, int]] = None,
    cache: Optional[Tuple[int, str]] = None,
):
    """Registers, PSW and ``sp``, plus optional memory words and one
    cache line primed into a state (see :func:`_prime`)."""

    def apply(cpu: CPU) -> None:
        for address, word in (memory or {}).items():
            cpu.memory.poke(address, word)
        for index, value in (regs or {}).items():
            cpu.regs[index] = value
        cpu.regs[8] = sp
        cpu.psw = psw
        if cache is not None:
            _prime(cpu, *cache)

    return apply


def _prime(cpu: CPU, address: int, state: str) -> None:
    """Put ``address``'s cache line into ``state`` before the access.

    ``address ^ 0x80`` flips the lowest tag bit: the same line, another
    tag, and still inside the same RAM region for the addresses used.
    """
    memory, cache = cpu.memory, cpu.cache
    if state == "hit":
        cache.read(address, memory)
    elif state == "clean-miss":
        cache.read(address ^ 0x80, memory)
    elif state == "dirty-miss":
        cache.write(address ^ 0x80, 0x1234, memory)
    else:
        assert state == "cold-miss"
    cache.reset_stats()


CACHE_STATES = ("hit", "cold-miss", "clean-miss", "dirty-miss")


def _memory_cases() -> List[Case]:
    cases: List[Case] = []
    ret_slot = STACK_TOP - WORD
    for state in CACHE_STATES:
        cases += [
            (
                f"LD-{state}",
                enc(Opcode.LD, rd=1, rs1=2, imm=4),
                _setup({2: DATA}, memory={DATA + 4: 77}, cache=(DATA + 4, state)),
            ),
            (
                f"ST-{state}",
                enc(Opcode.ST, rd=1, rs1=2, imm=4),
                _setup({1: 99, 2: DATA}, cache=(DATA + 4, state)),
            ),
            (
                f"PUSH-{state}",
                enc(Opcode.PUSH, rd=3),
                _setup({3: 42}, cache=(ret_slot, state)),
            ),
            (
                f"POP-{state}",
                enc(Opcode.POP, rd=4),
                _setup(sp=ret_slot, memory={ret_slot: 55}, cache=(ret_slot, state)),
            ),
            (
                f"CALL-{state}",
                enc(Opcode.CALL, imm=2),
                _setup(cache=(ret_slot, state)),
            ),
            (
                f"RET-{state}",
                enc(Opcode.RET),
                _setup(
                    sp=ret_slot,
                    memory={ret_slot: CODE + 8},
                    cache=(ret_slot, state),
                ),
            ),
        ]
    cases += [
        (
            "LD-mmio",
            enc(Opcode.LD, rd=1, rs1=2),
            _setup({2: LAYOUT.mmio_base}),
        ),
        (
            "ST-mmio",
            enc(Opcode.ST, rd=1, rs1=2),
            _setup({1: 3, 2: LAYOUT.mmio_base}),
        ),
        ("PUSH-sp", enc(Opcode.PUSH, rd=8), _setup()),
        ("POP-into-sp", enc(Opcode.POP, rd=8), _setup(sp=ret_slot)),
    ]
    return cases


#: (opcode, PSW that takes the branch, PSW that does not; None for BR).
_BRANCH_FLAGS = [
    (Opcode.BR, 0, None),
    (Opcode.BEQ, FLAG_Z, 0),
    (Opcode.BNE, 0, FLAG_Z),
    (Opcode.BLT, FLAG_N, 0),
    (Opcode.BGE, FLAG_C, FLAG_N),
    (Opcode.BGT, 0, FLAG_Z),
    (Opcode.BLE, FLAG_Z | FLAG_N, FLAG_C),
    (Opcode.BVS, FLAG_V, 0),
]


def _branch_cases() -> List[Case]:
    cases: List[Case] = []
    for op, taken, not_taken in _BRANCH_FLAGS:
        word = enc(op, imm=3)
        # FLAG_M rides along: the recorded read carries the whole PSW.
        cases.append((f"{op.name}-taken", word, _setup(psw=taken | FLAG_M)))
        if not_taken is not None:
            cases.append((f"{op.name}-not-taken", word, _setup(psw=not_taken)))
    return cases


def _register_cases() -> List[Case]:
    ints = {1: 7, 2: 3}
    floats = {1: f2b(1.5), 2: f2b(2.0)}
    cases: List[Case] = [
        ("NOP", enc(Opcode.NOP), _setup()),
        ("HALT-supervisor", enc(Opcode.HALT), _setup(psw=FLAG_M)),
        ("WFI-supervisor", enc(Opcode.WFI), _setup(psw=FLAG_M)),
        ("SVC", enc(Opcode.SVC), _setup()),
        ("SIG", enc(Opcode.SIG, imm=3), _setup()),
        ("SETMODE-stay", enc(Opcode.SETMODE, rs1=1), _setup({1: 1}, psw=FLAG_M)),
        ("SETMODE-leave", enc(Opcode.SETMODE, rs1=1), _setup({1: 0}, psw=FLAG_M)),
        ("LDI", enc(Opcode.LDI, rd=1, imm=-2), _setup()),
        ("LUI", enc(Opcode.LUI, rd=2, imm=0x1234), _setup()),
        ("ORI", enc(Opcode.ORI, rd=2, imm=0x5678), _setup({2: 0x12340000})),
        ("MOV", enc(Opcode.MOV, rd=3, rs1=1), _setup(ints)),
        ("ADDI", enc(Opcode.ADDI, rd=5, rs1=1, imm=-2), _setup(ints)),
        ("ADD-same-register", enc(Opcode.ADD, rd=1, rs1=1, rs2=1), _setup(ints)),
        ("CMP", enc(Opcode.CMP, rs1=1, rs2=2), _setup(ints, psw=FLAG_M | FLAG_V)),
        ("FCMP", enc(Opcode.FCMP, rs1=1, rs2=2), _setup(floats, psw=FLAG_C)),
        (
            "FCMP-unordered",
            enc(Opcode.FCMP, rs1=1, rs2=2),
            _setup({1: 0x7FC00000, 2: f2b(1.0)}),
        ),
        ("ITOF", enc(Opcode.ITOF, rd=4, rs1=1), _setup(ints)),
        ("FTOI", enc(Opcode.FTOI, rd=4, rs1=1), _setup({1: f2b(3.7)})),
        ("FNEG", enc(Opcode.FNEG, rd=4, rs1=1), _setup(floats)),
        ("JR", enc(Opcode.JR, rs1=1), _setup({1: CODE + 8})),
        (
            "CHK",
            enc(Opcode.CHK, rd=1, rs1=2, rs2=3),
            _setup({1: f2b(0.0), 2: f2b(0.5), 3: f2b(1.0)}),
        ),
    ]
    for op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.AND,
               Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR):
        cases.append((op.name, enc(op, rd=5, rs1=1, rs2=2), _setup(ints)))
    for op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV):
        cases.append((op.name, enc(op, rd=5, rs1=1, rs2=2), _setup(floats)))
    return cases


COMPLETING = _register_cases() + _memory_cases() + _branch_cases()

#: Words the recording handlers cannot express: out-of-range register
#: fields (only reachable under fault) and an undefined opcode.
TRACED_FALLBACK: List[Case] = [
    ("ADD-rd-out-of-range", enc(Opcode.ADD, rd=9, rs1=1, rs2=2), _setup()),
    ("MOV-rs1-out-of-range", enc(Opcode.MOV, rd=1, rs1=12), _setup()),
    ("PUSH-rd-out-of-range", enc(Opcode.PUSH, rd=15), _setup()),
    ("illegal-opcode", 0xFF000000, _setup()),
]


def _bad_victim_tag(cpu: CPU) -> None:
    """A dirty line in the way of ``DATA`` whose tag names unmapped
    space, so the write-back raises inside the cache."""
    _setup({2: DATA}, cache=(DATA, "dirty-miss"))(cpu)
    cpu.cache.tags[0] ^= 1 << 20


#: Instructions that detect.  The reference run aborts on any detection
#: and discards its trace, so the recording handler does not replay the
#: traced chain's check ordering: it appends an opcode's register reads
#: and latch writes before the checks run, and may record some that the
#: traced chain skips because an earlier check raised (a NaN ``rs1`` of
#: an FADD leaves ``rs2`` unread; a bad ``sp`` stops a PUSH before it
#: reads ``rd``).  Everything else stays exact.
DETECTING: List[Case] = [
    (
        "FADD-nan-rs1",
        enc(Opcode.FADD, rd=5, rs1=1, rs2=2),
        _setup({1: 0x7FC00000}),
    ),
    (
        "ADD-overflow",
        enc(Opcode.ADD, rd=5, rs1=1, rs2=2),
        _setup({1: 0x7FFFFFFF, 2: 1}),
    ),
    ("DIV-by-zero", enc(Opcode.DIV, rd=5, rs1=1, rs2=2), _setup({1: 1})),
    ("PUSH-bad-sp", enc(Opcode.PUSH, rd=3), _setup(sp=DATA)),
    ("POP-empty-stack", enc(Opcode.POP, rd=3), _setup()),
    ("RET-empty-stack", enc(Opcode.RET), _setup()),
    ("CALL-bad-target", enc(Opcode.CALL, imm=0x7000), _setup()),
    ("SETMODE-user", enc(Opcode.SETMODE, rs1=1), _setup({1: 1})),
    ("HALT-user", enc(Opcode.HALT), _setup()),
    ("LD-null", enc(Opcode.LD, rd=1, rs1=2), _setup({2: 0})),
    ("ST-dirty-evict-to-bad-tag", enc(Opcode.ST, rd=1, rs1=2), _bad_victim_tag),
    ("BEQ-outside-code", enc(Opcode.BEQ, imm=0x7000), _setup(psw=FLAG_Z)),
]


def _trace_nothing(_entry) -> None:
    """Attaching any trace hook selects the traced chain."""


def _record(word: int, setup: Callable[[CPU], None], fast: bool):
    cpu = CPU(LAYOUT)
    cpu.load(Program(code=(word,), entry=CODE))
    setup(cpu)
    cpu.instruction_index = NOW
    if not fast:
        cpu.trace_hook = _trace_nothing
    recorder = AccessRecorder()
    cpu.recorder = cpu.cache.recorder = cpu.memory.recorder = recorder
    result = cpu.run(1)
    return result, cpu, recorder


def _both(word: int, setup: Callable[[CPU], None]):
    fast = _record(word, setup, fast=True)
    traced = _record(word, setup, fast=False)
    assert fast[0] is traced[0]
    assert fast[1].state_bytes() == traced[1].state_bytes()
    assert fast[1].instruction_index == traced[1].instruction_index
    assert fast[1].detection == traced[1].detection
    assert fast[1].last_svc == traced[1].last_svc
    assert _cache_stats(fast[1]) == _cache_stats(traced[1])
    return fast, traced


def _cache_stats(cpu: CPU) -> Tuple[int, int, int]:
    return cpu.cache.hits, cpu.cache.misses, cpu.cache.writebacks


def test_cases_cover_every_opcode():
    covered = {Opcode(word >> 24) for _id, word, _setup in COMPLETING}
    assert covered == set(_HANDLER_FACTORIES)


@pytest.mark.parametrize(
    "word,setup", [c[1:] for c in COMPLETING], ids=[c[0] for c in COMPLETING]
)
def test_completing_instruction_records_identical_traces(word, setup):
    (result, cpu, recorder), (_r, _c, traced) = _both(word, setup)
    assert result is not StepResult.DETECTED, cpu.detection
    assert recorder.handlers[word] is not _TRACED
    assert recorder.traces == traced.traces
    assert all(
        now == NOW for trace in recorder.traces.values() for now, *_ in trace
    )


#: (hits, misses, writebacks) of the access under test, per state.
_CACHE_STATS = {
    "hit": (1, 0, 0),
    "cold-miss": (0, 1, 0),
    "clean-miss": (0, 1, 0),
    "dirty-miss": (0, 1, 1),
}


@pytest.mark.parametrize(
    "name,word,setup",
    [c for c in COMPLETING if c[0].split("-", 1)[-1] in _CACHE_STATS],
)
def test_cache_cases_reach_the_intended_cache_state(name, word, setup):
    _result, cpu, _recorder = _record(word, setup, fast=True)
    assert _cache_stats(cpu) == _CACHE_STATS[name.split("-", 1)[1]]


@pytest.mark.parametrize(
    "op,psw,taken",
    [(op, psw, True) for op, psw, _n in _BRANCH_FLAGS]
    + [(op, psw, False) for op, _t, psw in _BRANCH_FLAGS if psw is not None],
)
def test_branch_cases_take_the_expected_direction(op, psw, taken):
    _result, cpu, _recorder = _record(enc(op, imm=3), _setup(psw=psw), fast=True)
    assert cpu.pc == (CODE + 3 * WORD if taken else CODE + WORD)


@pytest.mark.parametrize(
    "word,setup",
    [c[1:] for c in TRACED_FALLBACK],
    ids=[c[0] for c in TRACED_FALLBACK],
)
def test_inexpressible_word_takes_the_traced_fallback(word, setup):
    (result, cpu, recorder), (_r, _c, traced) = _both(word, setup)
    assert recorder.handlers[word] is _TRACED
    assert result is StepResult.DETECTED
    assert recorder.traces == traced.traces


@pytest.mark.parametrize(
    "word,setup", [c[1:] for c in DETECTING], ids=[c[0] for c in DETECTING]
)
def test_detection_records_at_most_extra_entries_at_the_detecting_index(
    word, setup
):
    (result, cpu, recorder), (_r, _c, traced) = _both(word, setup)
    assert result is StepResult.DETECTED
    assert recorder.handlers[word] is not _TRACED
    for key in set(recorder.traces) | set(traced.traces):
        fast_trace = recorder.traces.get(key, [])
        traced_trace = traced.traces.get(key, [])
        assert fast_trace[: len(traced_trace)] == traced_trace, key
        assert all(entry[0] == NOW for entry in fast_trace[len(traced_trace):])
        if key[0] != "registers":
            # Cache and memory hooks fire inside the plain handler.
            assert fast_trace == traced_trace, key
