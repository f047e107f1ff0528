"""The CPU core: registers, execute loop, error-detection mechanisms.

Architectural and micro-architectural state (the "Registers" partition of
the paper's Tables 2/3, 426 injectable bits):

* ``r0..r7`` — general-purpose registers (8 x 32 bits),
* ``sp`` — stack pointer (32),
* ``pc`` — program counter (32),
* ``psw`` — 10-bit status word (``Z N C V`` flags in bits 0–3, reserved
  bits 4–6, supervisor mode ``M`` in bit 7, reserved 8–9),
* ``ir`` — instruction register (32); the next instruction is prefetched
  into IR at the end of the previous one, so a bit-flip injected at an
  instruction boundary corrupts the instruction about to execute,
* ``mar`` / ``mdr`` — memory address/data latches of the load-store path
  (32 + 32).

Detections freeze the CPU (the experiment's termination condition) and
are reported as :class:`~repro.thor.edm.DetectionEvent` values.

Dispatch
--------

:meth:`CPU.run` is the engine every experiment runs on.  With neither a
recorder nor a trace hook attached it is an inline dispatch loop:
instruction words are predecoded into flat ``(op, a, b, c)`` entries
cached in :data:`_ENTRIES`, the hot opcodes execute inline over the
machine state hoisted into loop locals, cache misses go to
:func:`_miss_read`/:func:`_miss_write`, and the cold words (privileged
ops, illegal words, out-of-range register fields) run their predecoded
handler.  Both tables are keyed by the raw 32-bit word, so a corrupted
IR always dispatches through the corrupted word's own entry — never a
stale predecoded one.

The per-word handler closures, cached in :data:`_PREDECODE`, carry
their operand fields baked in and return ``None`` (fall through to
``pc + 4``), an ``int`` (branch target), or one of the
:data:`_YIELD`/:data:`_HALT` sentinels.  They serve :meth:`CPU.step`
(lockstep, the comparator, detail replay, the debugger), the inline
loop's cold entries and the recording path.  Two more paths have the
same observable behaviour, and both record the same access traces:

* **recording dispatch**: with an access-trace recorder attached,
  :meth:`CPU.run` wraps each predecoded handler in a per-word recording
  handler built from the :data:`_ACCESSES` table.  It appends the
  register, latch and PSW accesses straight to the recorder's
  per-element trace lists, while the cache and memory hooks fire inside
  the plain handler, so the recorded traces equal the traced chain's.
* **traced dispatch**: the original decode + ``if``/``elif`` chain, which
  reports every access through the recorder's hook methods.  It runs
  every instruction when a trace hook is attached (the profiler; a
  no-op hook makes it the tests' oracle for the other paths), and
  the words the recording handlers cannot express (illegal words,
  out-of-range register fields) while recording.

Words whose register fields fall outside the register file (possible
only under fault) fall back to the traced chain's semantics through a
generic handler, preserving the exact detection ordering and messages.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import MachineError
from repro.thor.cache import DataCache
from repro.thor.edm import (
    DetectionEvent,
    HardwareDetection,
    Mechanism,
    notify_detection,
    raise_detection,
)
from repro.thor.isa import (
    Instruction,
    NUM_GPRS,
    Opcode,
    PRIVILEGED_OPCODES,
    SP_INDEX,
    decode,
)
from repro.thor.memory import MemoryLayout, MemoryMap, WORD, _parity
from repro.thor.program import Program

# PSW bit positions.
FLAG_Z = 1 << 0
FLAG_N = 1 << 1
FLAG_C = 1 << 2
FLAG_V = 1 << 3
FLAG_M = 1 << 7
PSW_BITS = 10
PSW_MASK = (1 << PSW_BITS) - 1

_INT_MIN = -(1 << 31)
_INT_MAX = (1 << 31) - 1
_U32 = 0xFFFFFFFF
_SIGN = 0x80000000
_TWO32 = 1 << 32

#: Smallest normal single-precision magnitude (results below it, other
#: than exact zero, raise UNDERFLOW CHECK).
_MIN_NORMAL = 2.0 ** -126

_INF = float("inf")

#: Scan-chain element names by register-file index (r0..r7, then sp),
#: used by the access-trace hooks.
_REG_NAMES = tuple(f"r{i}" for i in range(NUM_GPRS)) + ("sp",)

#: PSW bits the flag-setting path overwrites and the branch path reads.
_FLAG_WRITE_MASK = FLAG_Z | FLAG_N | FLAG_C | FLAG_V
_FLAG_READ_MASK = FLAG_Z | FLAG_N | FLAG_V

_STRUCT_I = struct.Struct("<I")
_STRUCT_F = struct.Struct("<f")

#: Register-file image: r0..r7 + sp, pc, psw, ir, mar, mdr, signature,
#: halted flag — one struct keeps :meth:`CPU.register_state_bytes`
#: byte-identical to the per-field serialisation it replaces.
_REG_STATE_STRUCT = struct.Struct("<9IIHIIIi?")

_decode_memo: Dict[int, Optional[Instruction]] = {}


def _decode_cached(word: int) -> Optional[Instruction]:
    try:
        return _decode_memo[word]
    except KeyError:
        instruction = decode(word)
        if len(_decode_memo) < 65536:
            _decode_memo[word] = instruction
        return instruction


class StepResult(enum.Enum):
    """Outcome of one :meth:`CPU.step` call."""

    OK = "ok"
    YIELD = "yield"
    HALTED = "halted"
    DETECTED = "detected"


@dataclass
class TraceEntry:
    """One detail-mode trace record (GOOFI's detail logging)."""

    index: int
    pc: int
    word: int
    mnemonic: str


def _to_signed(value: int) -> int:
    value &= _U32
    return value - (1 << 32) if value & 0x80000000 else value


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits & _U32))[0]


def _float_to_bits(value: float) -> int:
    try:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    except OverflowError:
        # Magnitude beyond float32: becomes infinity on the 32-bit datapath.
        inf = float("inf") if value > 0 else float("-inf")
        return struct.unpack("<I", struct.pack("<f", inf))[0]


class CPU:
    """The simulated processor (one core, data cache, Table 1 EDMs)."""

    def __init__(self, layout: MemoryLayout = MemoryLayout()):
        self.layout = layout
        self.memory = MemoryMap(layout)
        self.cache = DataCache()
        self.regs: List[int] = [0] * (NUM_GPRS + 1)  # r0..r7 + sp
        self.pc = layout.code_base
        self.psw = 0
        self.ir = 0
        self.mar = 0
        self.mdr = 0
        #: Control-flow checking state (part of the non-injectable
        #: state elements, like the ~750 Thor elements outside the
        #: 2250-element sample).
        self.last_signature: Optional[int] = None
        self.signature_successors: Dict[int, frozenset] = {}
        self.instruction_index = 0
        self.detection: Optional[DetectionEvent] = None
        self.halted = False
        self.last_svc: Optional[int] = None
        #: Optional detail-mode hook, called with a TraceEntry per step;
        #: while one is attached every instruction runs on the traced
        #: decode-and-branch interpreter.
        self.trace_hook = None
        #: Optional access-trace recorder (duck-typed
        #: :class:`repro.faults.liveness.AccessRecorder`); attached only
        #: during a recording reference run, ``None`` otherwise so the
        #: hooks cost a single identity check.
        self.recorder = None

    # -- program loading ------------------------------------------------------
    def load(self, program: Program) -> None:
        """Load a program image and reset execution state."""
        program.check_fits(self.layout)
        self.memory = MemoryMap(self.layout)
        self.cache = DataCache()
        for i, word in enumerate(program.code):
            self.memory.poke(self.layout.code_base + i * WORD, word)
        for address, word in program.data.items():
            self.memory.poke(address, word)
        self.signature_successors = {
            k: frozenset(v) for k, v in program.signature_successors.items()
        }
        self.regs = [0] * (NUM_GPRS + 1)
        self.regs[SP_INDEX] = self.layout.stack_top
        self.psw = 0  # user mode
        self.pc = program.entry
        self.mar = 0
        self.mdr = 0
        self.last_signature = None
        self.instruction_index = 0
        self.detection = None
        self.halted = False
        self.last_svc = None
        # Prefetch the first instruction.
        self.ir = self.memory.fetch_word(self.pc)

    # -- register file ----------------------------------------------------------
    def _read_reg(self, index: int) -> int:
        if index > SP_INDEX:
            raise_detection(Mechanism.INSTRUCTION_ERROR, f"register field {index}")
        if self.recorder is not None:
            self.recorder.reg_read(_REG_NAMES[index], value=self.regs[index])
        return self.regs[index]

    def _write_reg(self, index: int, value: int) -> None:
        if index > SP_INDEX:
            raise_detection(Mechanism.INSTRUCTION_ERROR, f"register field {index}")
        if self.recorder is not None:
            self.recorder.reg_write(_REG_NAMES[index])
        self.regs[index] = value & _U32

    # -- flags -----------------------------------------------------------------
    def _set_flags(self, z: bool, n: bool, c: bool, v: bool) -> None:
        # The flag bits are overwritten regardless of their old values
        # (the other PSW bits pass through untouched), so this records
        # as a masked write.
        if self.recorder is not None:
            self.recorder.reg_write("psw", _FLAG_WRITE_MASK)
        self.psw &= ~(FLAG_Z | FLAG_N | FLAG_C | FLAG_V)
        if z:
            self.psw |= FLAG_Z
        if n:
            self.psw |= FLAG_N
        if c:
            self.psw |= FLAG_C
        if v:
            self.psw |= FLAG_V

    @property
    def supervisor(self) -> bool:
        """True when the mode bit selects supervisor mode."""
        return bool(self.psw & FLAG_M)

    @supervisor.setter
    def supervisor(self, value: bool) -> None:
        if value:
            self.psw |= FLAG_M
        else:
            self.psw &= ~FLAG_M

    # -- float helpers -----------------------------------------------------------
    def _float_operand(self, bits: int) -> float:
        value = _bits_to_float(bits)
        if value != value:  # NaN operand
            raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
        return value

    def _float_result(self, value: float, operands_finite: bool) -> int:
        bits = _float_to_bits(value)
        rounded = _bits_to_float(bits)
        if rounded != rounded:
            raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN result")
        if rounded in (float("inf"), float("-inf")):
            if operands_finite:
                raise_detection(Mechanism.OVERFLOW_CHECK, "float overflow")
        elif value != 0.0 and abs(rounded) < _MIN_NORMAL:
            # The exact result is non-zero but rounds to a denormal or
            # flushes to zero in single precision.
            raise_detection(Mechanism.UNDERFLOW_CHECK, "underflow/denormal result")
        return bits

    def _float_binop(self, instruction: Instruction, op: str) -> None:
        a = self._float_operand(self._read_reg(instruction.rs1))
        b = self._float_operand(self._read_reg(instruction.rs2))
        finite = abs(a) != float("inf") and abs(b) != float("inf")
        if op == "add":
            result = a + b
        elif op == "sub":
            result = a - b
        elif op == "mul":
            result = a * b
        else:  # div
            if b == 0.0:
                raise_detection(Mechanism.DIVISION_CHECK, "float divide by zero")
            result = a / b
        self._write_reg(instruction.rd, self._float_result(result, finite))

    # -- integer helpers ---------------------------------------------------------
    def _int_binop(self, instruction: Instruction, op: str) -> None:
        a = _to_signed(self._read_reg(instruction.rs1))
        b = _to_signed(self._read_reg(instruction.rs2))
        if op == "add":
            result = a + b
        elif op == "sub":
            result = a - b
        elif op == "mul":
            result = a * b
        elif op == "div":
            if b == 0:
                raise_detection(Mechanism.DIVISION_CHECK, "integer divide by zero")
            result = int(a / b)  # truncating division
        elif op == "and":
            result = (a & b) & _U32
        elif op == "or":
            result = (a | b) & _U32
        elif op == "xor":
            result = (a ^ b) & _U32
        elif op == "shl":
            result = (a << (b & 31)) & _U32
        else:  # shr (logical)
            result = (a & _U32) >> (b & 31)
        if op in ("add", "sub", "mul", "div") and not _INT_MIN <= result <= _INT_MAX:
            raise_detection(Mechanism.OVERFLOW_CHECK, f"integer {op} overflow")
        self._write_reg(instruction.rd, result & _U32)

    # -- memory helpers --------------------------------------------------------------
    def _data_read(self, address: int) -> int:
        if self.recorder is not None:
            self.recorder.reg_write("mar")
            self.recorder.reg_write("mdr")
        self.mar = address & _U32
        if self.memory.is_cacheable(address):
            value = self.cache.read(address, self.memory)
        else:
            value = self.memory.read_data_word(address)
        self.mdr = value & _U32
        return value

    def _data_write(self, address: int, value: int) -> None:
        if self.recorder is not None:
            self.recorder.reg_write("mar")
            self.recorder.reg_write("mdr")
        self.mar = address & _U32
        self.mdr = value & _U32
        if self.memory.is_cacheable(address):
            self.cache.write(address, value, self.memory)
        else:
            self.memory.write_data_word(address, value)

    def _check_stack_pointer(self, sp: int) -> None:
        layout = self.layout
        if sp % WORD or not layout.stack_base <= sp <= layout.stack_top:
            raise_detection(Mechanism.STORAGE_ERROR, f"sp {sp:#x} outside stack")

    def _jump_target(self, target: int) -> int:
        layout = self.layout
        target &= _U32
        if not layout.code_base <= target < layout.code_base + layout.code_size:
            raise_detection(Mechanism.JUMP_ERROR, f"target {target:#x} outside code")
        return target

    # -- the execute loop ------------------------------------------------------------
    def step(self) -> StepResult:
        """Execute one instruction; freeze on detections.

        Returns :data:`StepResult.YIELD` when an ``SVC`` executed (the
        service number is left in :attr:`last_svc`); the environment
        exchange happens outside and execution resumes with the next
        :meth:`step` call.
        """
        if self.detection is not None:
            return StepResult.DETECTED
        if self.halted:
            return StepResult.HALTED
        self.last_svc = None
        try:
            return self._execute()
        except HardwareDetection as event:
            self.detection = DetectionEvent(
                mechanism=event.mechanism,
                pc=self.pc,
                instruction_index=self.instruction_index,
                detail=event.detail,
            )
            notify_detection(self.detection)
            return StepResult.DETECTED

    def _execute(self) -> StepResult:
        if self.recorder is None and self.trace_hook is None:
            word = self.ir & _U32
            handler = _PREDECODE.get(word)
            if handler is None:
                handler = _predecode(word)
            r = handler(self)
            self.instruction_index += 1
            if r is None:
                self.pc = (self.pc + WORD) & _U32
            elif r.__class__ is int:
                self.pc = r
            elif r is _HALT:
                # A halted CPU performs no further prefetch.
                return StepResult.HALTED
            else:  # _YIELD
                self.pc = (self.pc + WORD) & _U32
                self.ir = self.memory.fetch_word_cached(self.pc)
                return StepResult.YIELD
            self.ir = self.memory.fetch_word_cached(self.pc)
            return StepResult.OK
        return self._execute_traced()

    def _execute_traced(self) -> StepResult:
        """The original interpreter: decode, check, trace, execute."""
        recorder = self.recorder
        if recorder is not None:
            recorder.now = self.instruction_index
        word = self.ir & _U32
        instruction = _decode_cached(word)
        if instruction is None:
            raise_detection(
                Mechanism.INSTRUCTION_ERROR, f"illegal opcode {word >> 24:#x}"
            )
        assert instruction is not None
        if instruction.opcode in PRIVILEGED_OPCODES:
            if recorder is not None:
                recorder.reg_read("psw", FLAG_M, self.psw)
            if not self.supervisor:
                raise_detection(
                    Mechanism.INSTRUCTION_ERROR,
                    f"privileged {instruction.opcode.name} in user mode",
                )
        if self.trace_hook is not None:
            self.trace_hook(
                TraceEntry(
                    index=self.instruction_index,
                    pc=self.pc,
                    word=word,
                    mnemonic=instruction.opcode.name,
                )
            )
        result, next_pc = self._execute_chain(word, instruction)
        self.instruction_index += 1
        if result is StepResult.HALTED:
            # A halted CPU performs no further prefetch.
            return result
        self.pc = next_pc
        self.ir = self.memory.fetch_word(self.pc)
        return result

    def _execute_chain(
        self, word: int, instruction: Instruction
    ) -> Tuple[StepResult, int]:
        """Execute one decoded instruction; return ``(result, next pc)``."""
        recorder = self.recorder
        next_pc = (self.pc + WORD) & _U32
        result = StepResult.OK
        op = instruction.opcode

        if op is Opcode.NOP:
            pass
        elif op is Opcode.HALT or op is Opcode.WFI:
            self.halted = True
            result = StepResult.HALTED
        elif op is Opcode.SVC:
            self.last_svc = instruction.imm
            result = StepResult.YIELD
        elif op is Opcode.SIG:
            self._check_signature(instruction.imm)
        elif op is Opcode.SETMODE:
            mode = bool(self._read_reg(instruction.rs1) & 1)
            if recorder is not None:
                recorder.reg_write("psw", FLAG_M)
            self.supervisor = mode
        elif op is Opcode.LDI:
            self._write_reg(instruction.rd, instruction.simm() & _U32)
        elif op is Opcode.LUI:
            self._write_reg(instruction.rd, (instruction.imm << 16) & _U32)
        elif op is Opcode.ORI:
            self._write_reg(
                instruction.rd, self._read_reg(instruction.rd) | instruction.imm
            )
        elif op is Opcode.MOV:
            self._write_reg(instruction.rd, self._read_reg(instruction.rs1))
        elif op is Opcode.LD:
            address = (self._read_reg(instruction.rs1) + instruction.simm()) & _U32
            self._write_reg(instruction.rd, self._data_read(address))
        elif op is Opcode.ST:
            address = (self._read_reg(instruction.rs1) + instruction.simm()) & _U32
            self._data_write(address, self._read_reg(instruction.rd))
        elif op is Opcode.PUSH:
            # Stack ops read SP before rewriting it with a derived value;
            # the read alone determines liveness, so it is all we record.
            if recorder is not None:
                recorder.reg_read("sp", value=self.regs[SP_INDEX])
            sp = (self.regs[SP_INDEX] - WORD) & _U32
            self._check_stack_pointer(sp)
            self._data_write(sp, self._read_reg(instruction.rd))
            self.regs[SP_INDEX] = sp
        elif op is Opcode.POP:
            if recorder is not None:
                recorder.reg_read("sp", value=self.regs[SP_INDEX])
            sp = self.regs[SP_INDEX]
            self._check_stack_pointer(sp)
            if sp >= self.layout.stack_top:
                raise_detection(Mechanism.STORAGE_ERROR, "pop from empty stack")
            self._write_reg(instruction.rd, self._data_read(sp))
            self.regs[SP_INDEX] = (sp + WORD) & _U32
        elif op is Opcode.ADD:
            self._int_binop(instruction, "add")
        elif op is Opcode.SUB:
            self._int_binop(instruction, "sub")
        elif op is Opcode.MUL:
            self._int_binop(instruction, "mul")
        elif op is Opcode.DIV:
            self._int_binop(instruction, "div")
        elif op is Opcode.AND:
            self._int_binop(instruction, "and")
        elif op is Opcode.OR:
            self._int_binop(instruction, "or")
        elif op is Opcode.XOR:
            self._int_binop(instruction, "xor")
        elif op is Opcode.SHL:
            self._int_binop(instruction, "shl")
        elif op is Opcode.SHR:
            self._int_binop(instruction, "shr")
        elif op is Opcode.ADDI:
            result_value = _to_signed(self._read_reg(instruction.rs1)) + instruction.simm()
            if not _INT_MIN <= result_value <= _INT_MAX:
                raise_detection(Mechanism.OVERFLOW_CHECK, "integer add overflow")
            self._write_reg(instruction.rd, result_value & _U32)
        elif op is Opcode.CMP:
            a = _to_signed(self._read_reg(instruction.rs1))
            b = _to_signed(self._read_reg(instruction.rs2))
            self._set_flags(z=a == b, n=a < b, c=(a & _U32) < (b & _U32), v=False)
        elif op is Opcode.FADD:
            self._float_binop(instruction, "add")
        elif op is Opcode.FSUB:
            self._float_binop(instruction, "sub")
        elif op is Opcode.FMUL:
            self._float_binop(instruction, "mul")
        elif op is Opcode.FDIV:
            self._float_binop(instruction, "div")
        elif op is Opcode.FCMP:
            a = _bits_to_float(self._read_reg(instruction.rs1))
            b = _bits_to_float(self._read_reg(instruction.rs2))
            unordered = a != a or b != b
            self._set_flags(
                z=(not unordered and a == b),
                n=(not unordered and a < b),
                c=False,
                v=unordered,
            )
        elif op is Opcode.ITOF:
            value = float(_to_signed(self._read_reg(instruction.rs1)))
            self._write_reg(instruction.rd, self._float_result(value, True))
        elif op is Opcode.FTOI:
            value = self._float_operand(self._read_reg(instruction.rs1))
            if not _INT_MIN <= value <= _INT_MAX:
                raise_detection(Mechanism.OVERFLOW_CHECK, "float to int overflow")
            self._write_reg(instruction.rd, int(value) & _U32)
        elif op is Opcode.FNEG:
            bits = self._read_reg(instruction.rs1)
            self._write_reg(instruction.rd, bits ^ 0x80000000)
        elif op in _BRANCHES:
            if self._branch_taken(op):
                next_pc = self._jump_target(self.pc + WORD * instruction.simm())
        elif op is Opcode.CALL:
            if recorder is not None:
                recorder.reg_read("sp", value=self.regs[SP_INDEX])
            sp = (self.regs[SP_INDEX] - WORD) & _U32
            self._check_stack_pointer(sp)
            self._data_write(sp, (self.pc + WORD) & _U32)
            self.regs[SP_INDEX] = sp
            next_pc = self._jump_target(self.pc + WORD * instruction.simm())
        elif op is Opcode.RET:
            if recorder is not None:
                recorder.reg_read("sp", value=self.regs[SP_INDEX])
            sp = self.regs[SP_INDEX]
            self._check_stack_pointer(sp)
            if sp >= self.layout.stack_top:
                raise_detection(Mechanism.STORAGE_ERROR, "return with empty stack")
            target = self._data_read(sp)
            self.regs[SP_INDEX] = (sp + WORD) & _U32
            next_pc = self._jump_target(target)
        elif op is Opcode.JR:
            next_pc = self._jump_target(self._read_reg(instruction.rs1))
        elif op is Opcode.CHK:
            self._constraint_check(instruction)
        else:  # pragma: no cover - every opcode is handled above
            raise MachineError(f"unhandled opcode {op!r}")

        return result, next_pc

    def _branch_taken(self, op: Opcode) -> bool:
        if self.recorder is not None:
            self.recorder.reg_read("psw", _FLAG_READ_MASK, self.psw)
        z = bool(self.psw & FLAG_Z)
        n = bool(self.psw & FLAG_N)
        v = bool(self.psw & FLAG_V)
        if op is Opcode.BR:
            return True
        if op is Opcode.BEQ:
            return z
        if op is Opcode.BNE:
            return not z
        if op is Opcode.BLT:
            return n
        if op is Opcode.BGE:
            return not n and not v
        if op is Opcode.BGT:
            return not z and not n and not v
        if op is Opcode.BLE:
            return z or n
        return v  # BVS

    def _check_signature(self, signature: int) -> None:
        if not self.signature_successors:
            self.last_signature = signature
            return
        if self.last_signature is not None:
            allowed = self.signature_successors.get(self.last_signature, frozenset())
            if signature not in allowed:
                raise_detection(
                    Mechanism.CONTROL_FLOW_ERROR,
                    f"signature {self.last_signature} -> {signature}",
                )
        self.last_signature = signature

    def _constraint_check(self, instruction: Instruction) -> None:
        low = _bits_to_float(self._read_reg(instruction.rd))
        value = _bits_to_float(self._read_reg(instruction.rs1))
        high = _bits_to_float(self._read_reg(instruction.rs2))
        if not low <= value <= high:
            raise_detection(
                Mechanism.CONSTRAINT_ERROR,
                f"{value!r} outside [{low!r}, {high!r}]",
            )

    # -- convenience runners -----------------------------------------------------
    def run(self, max_instructions: int) -> StepResult:
        """Step until yield/halt/detection or the instruction budget ends.

        With a trace hook attached every instruction goes through the
        traced :meth:`step`; with an access recorder attached,
        :meth:`_run_recording` runs.  Otherwise the loop below executes
        the :data:`_ENTRIES` table's hot opcodes inline and hands cold
        words to their predecoded handlers.
        """
        if self.trace_hook is not None:
            for _ in range(max_instructions):
                result = self.step()
                if result is not StepResult.OK:
                    return result
            return StepResult.OK
        if self.recorder is not None:
            return self._run_recording(max_instructions)
        if self.detection is not None:
            return StepResult.DETECTED
        if self.halted:
            return StepResult.HALTED
        self.last_svc = None

        # Machine state, hoisted for the duration of the run.  ``regs``
        # and the cache line lists are mutated in place, so they need
        # no write-back; scalars are synced at every exit below.
        regs = self.regs
        pc = self.pc
        psw = self.psw
        ir = self.ir & _U32
        mar = self.mar
        mdr = self.mdr
        last_sig = self.last_signature
        index = self.instruction_index
        successors = self.signature_successors

        memory = self.memory
        cache = self.cache
        layout = self.layout
        cache_valid = cache.valid
        cache_tags = cache.tags
        cache_data = cache.data
        miss_read = _miss_read
        miss_write = _miss_write
        read_word = memory.read_data_word
        write_word = memory.write_data_word
        fetch = memory.fetch_word_cached
        fc_get = memory.fetch_cache.get
        hits = 0

        code_base = layout.code_base
        code_end = code_base + layout.code_size
        rodata_base = layout.rodata_base
        rodata_end = rodata_base + layout.rodata_size
        data_base = layout.data_base
        data_end = data_base + layout.data_size
        stack_base = layout.stack_base
        stack_top = layout.stack_top

        entries_get = _ENTRIES.get
        build = _build_entry
        unpack_f = _STRUCT_F.unpack
        pack_i = _STRUCT_I.pack

        try:
            for _ in range(max_instructions):
                word = ir
                entry = entries_get(word)
                if entry is None:
                    entry = build(word)
                op = entry[0]
                if op == _OP_LD:
                    address = (regs[entry[2]] + entry[3]) & _U32
                    mar = address
                    if (
                        data_base <= address < data_end
                        or stack_base <= address < stack_top
                        or rodata_base <= address < rodata_end
                    ):
                        line = (address >> 2) & 31
                        tag = (address >> 7) & 0x7FFFFF
                        if cache_valid[line] and cache_tags[line] == tag:
                            hits += 1
                            value = cache_data[line]
                        else:
                            value = miss_read(cache, memory, address, line, tag)
                    else:
                        value = read_word(address)
                    mdr = value
                    regs[entry[1]] = value
                elif op == _OP_ST:
                    address = (regs[entry[2]] + entry[3]) & _U32
                    value = regs[entry[1]]
                    mar = address
                    mdr = value
                    if (
                        data_base <= address < data_end
                        or stack_base <= address < stack_top
                        or rodata_base <= address < rodata_end
                    ):
                        line = (address >> 2) & 31
                        tag = (address >> 7) & 0x7FFFFF
                        if cache_valid[line] and cache_tags[line] == tag:
                            hits += 1
                            cache_data[line] = value
                            cache.dirty[line] = 1
                        else:
                            miss_write(cache, memory, address, value, line, tag)
                    else:
                        write_word(address, value)
                elif op == _OP_ADDI:
                    a = regs[entry[2]]
                    if a & _SIGN:
                        a -= _TWO32
                    result = a + entry[3]
                    if result > _INT_MAX or result < _INT_MIN:
                        raise_detection(
                            Mechanism.OVERFLOW_CHECK, "integer add overflow"
                        )
                    regs[entry[1]] = result & _U32
                elif op == _OP_CMP:
                    au = regs[entry[1]]
                    bu = regs[entry[2]]
                    a = au - _TWO32 if au & _SIGN else au
                    b = bu - _TWO32 if bu & _SIGN else bu
                    psw &= ~_FLAG_WRITE_MASK
                    if a == b:
                        psw |= FLAG_Z
                    if a < b:
                        psw |= FLAG_N
                    if au < bu:
                        psw |= FLAG_C
                elif op == _OP_BSET:
                    if psw & entry[1]:
                        target = (pc + entry[2]) & _U32
                        if not code_base <= target < code_end:
                            raise_detection(
                                Mechanism.JUMP_ERROR,
                                f"target {target:#x} outside code",
                            )
                        index += 1
                        pc = target
                        ir = fc_get(pc, -1)
                        if ir < 0:
                            ir = fetch(pc)
                        continue
                elif op == _OP_BCLR:
                    if not psw & entry[1]:
                        target = (pc + entry[2]) & _U32
                        if not code_base <= target < code_end:
                            raise_detection(
                                Mechanism.JUMP_ERROR,
                                f"target {target:#x} outside code",
                            )
                        index += 1
                        pc = target
                        ir = fc_get(pc, -1)
                        if ir < 0:
                            ir = fetch(pc)
                        continue
                elif op == _OP_FMUL or op == _OP_FADD or op == _OP_FSUB:
                    a = unpack_f(pack_i(regs[entry[2]]))[0]
                    if a != a:
                        raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
                    b = unpack_f(pack_i(regs[entry[3]]))[0]
                    if b != b:
                        raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
                    if op == _OP_FMUL:
                        value = a * b
                    elif op == _OP_FADD:
                        value = a + b
                    else:
                        value = a - b
                    regs[entry[1]] = _float_result_bits(
                        value, abs(a) != _INF and abs(b) != _INF
                    )
                elif op == _OP_MOV:
                    regs[entry[1]] = regs[entry[2]]
                elif op == _OP_BR:
                    target = (pc + entry[1]) & _U32
                    if not code_base <= target < code_end:
                        raise_detection(
                            Mechanism.JUMP_ERROR, f"target {target:#x} outside code"
                        )
                    index += 1
                    pc = target
                    ir = fc_get(pc, -1)
                    if ir < 0:
                        ir = fetch(pc)
                    continue
                elif op == _OP_SIG:
                    sig = entry[1]
                    if not successors:
                        last_sig = sig
                    else:
                        if last_sig is not None:
                            allowed = successors.get(last_sig)
                            if allowed is None or sig not in allowed:
                                raise_detection(
                                    Mechanism.CONTROL_FLOW_ERROR,
                                    f"signature {last_sig} -> {sig}",
                                )
                        last_sig = sig
                elif op == _OP_ADD or op == _OP_SUB:
                    a = regs[entry[2]]
                    if a & _SIGN:
                        a -= _TWO32
                    b = regs[entry[3]]
                    if b & _SIGN:
                        b -= _TWO32
                    result = a + b if op == _OP_ADD else a - b
                    if result > _INT_MAX or result < _INT_MIN:
                        raise_detection(
                            Mechanism.OVERFLOW_CHECK,
                            "integer add overflow"
                            if op == _OP_ADD
                            else "integer sub overflow",
                        )
                    regs[entry[1]] = result & _U32
                elif op == _OP_FDIV:
                    a = unpack_f(pack_i(regs[entry[2]]))[0]
                    if a != a:
                        raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
                    b = unpack_f(pack_i(regs[entry[3]]))[0]
                    if b != b:
                        raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
                    finite = abs(a) != _INF and abs(b) != _INF
                    if b == 0.0:
                        raise_detection(
                            Mechanism.DIVISION_CHECK, "float divide by zero"
                        )
                    regs[entry[1]] = _float_result_bits(a / b, finite)
                elif op == _OP_FCMP:
                    a = unpack_f(pack_i(regs[entry[1]]))[0]
                    b = unpack_f(pack_i(regs[entry[2]]))[0]
                    psw &= ~_FLAG_WRITE_MASK
                    if a != a or b != b:
                        psw |= FLAG_V
                    else:
                        if a == b:
                            psw |= FLAG_Z
                        if a < b:
                            psw |= FLAG_N
                elif op == _OP_PUSH:
                    sp = (regs[_SP] - WORD) & _U32
                    if sp % WORD or not stack_base <= sp <= stack_top:
                        raise_detection(
                            Mechanism.STORAGE_ERROR, f"sp {sp:#x} outside stack"
                        )
                    value = regs[entry[1]]
                    mar = sp
                    mdr = value
                    if (
                        data_base <= sp < data_end
                        or stack_base <= sp < stack_top
                        or rodata_base <= sp < rodata_end
                    ):
                        line = (sp >> 2) & 31
                        tag = (sp >> 7) & 0x7FFFFF
                        if cache_valid[line] and cache_tags[line] == tag:
                            hits += 1
                            cache_data[line] = value
                            cache.dirty[line] = 1
                        else:
                            miss_write(cache, memory, sp, value, line, tag)
                    else:
                        write_word(sp, value)
                    regs[_SP] = sp
                elif op == _OP_POP:
                    sp = regs[_SP]
                    if sp % WORD or not stack_base <= sp <= stack_top:
                        raise_detection(
                            Mechanism.STORAGE_ERROR, f"sp {sp:#x} outside stack"
                        )
                    if sp >= stack_top:
                        raise_detection(
                            Mechanism.STORAGE_ERROR, "pop from empty stack"
                        )
                    mar = sp
                    line = (sp >> 2) & 31
                    tag = (sp >> 7) & 0x7FFFFF
                    if cache_valid[line] and cache_tags[line] == tag:
                        hits += 1
                        value = cache_data[line]
                    else:
                        value = miss_read(cache, memory, sp, line, tag)
                    mdr = value
                    regs[entry[1]] = value
                    regs[_SP] = (sp + WORD) & _U32
                elif op == _OP_CALL:
                    sp = (regs[_SP] - WORD) & _U32
                    if sp % WORD or not stack_base <= sp <= stack_top:
                        raise_detection(
                            Mechanism.STORAGE_ERROR, f"sp {sp:#x} outside stack"
                        )
                    value = (pc + WORD) & _U32
                    mar = sp
                    mdr = value
                    if (
                        data_base <= sp < data_end
                        or stack_base <= sp < stack_top
                        or rodata_base <= sp < rodata_end
                    ):
                        line = (sp >> 2) & 31
                        tag = (sp >> 7) & 0x7FFFFF
                        if cache_valid[line] and cache_tags[line] == tag:
                            hits += 1
                            cache_data[line] = value
                            cache.dirty[line] = 1
                        else:
                            miss_write(cache, memory, sp, value, line, tag)
                    else:
                        write_word(sp, value)
                    regs[_SP] = sp
                    target = (pc + entry[1]) & _U32
                    if not code_base <= target < code_end:
                        raise_detection(
                            Mechanism.JUMP_ERROR, f"target {target:#x} outside code"
                        )
                    index += 1
                    pc = target
                    ir = fc_get(pc, -1)
                    if ir < 0:
                        ir = fetch(pc)
                    continue
                elif op == _OP_RET:
                    sp = regs[_SP]
                    if sp % WORD or not stack_base <= sp <= stack_top:
                        raise_detection(
                            Mechanism.STORAGE_ERROR, f"sp {sp:#x} outside stack"
                        )
                    if sp >= stack_top:
                        raise_detection(
                            Mechanism.STORAGE_ERROR, "return with empty stack"
                        )
                    mar = sp
                    line = (sp >> 2) & 31
                    tag = (sp >> 7) & 0x7FFFFF
                    if cache_valid[line] and cache_tags[line] == tag:
                        hits += 1
                        target = cache_data[line]
                    else:
                        target = miss_read(cache, memory, sp, line, tag)
                    mdr = target
                    regs[_SP] = (sp + WORD) & _U32
                    if not code_base <= target < code_end:
                        raise_detection(
                            Mechanism.JUMP_ERROR, f"target {target:#x} outside code"
                        )
                    index += 1
                    pc = target
                    ir = fc_get(pc, -1)
                    if ir < 0:
                        ir = fetch(pc)
                    continue
                elif op == _OP_LDI or op == _OP_LUI:
                    regs[entry[1]] = entry[2]
                elif op == _OP_ORI:
                    regs[entry[1]] |= entry[2]
                elif op == _OP_MUL:
                    a = regs[entry[2]]
                    if a & _SIGN:
                        a -= _TWO32
                    b = regs[entry[3]]
                    if b & _SIGN:
                        b -= _TWO32
                    result = a * b
                    if result > _INT_MAX or result < _INT_MIN:
                        raise_detection(
                            Mechanism.OVERFLOW_CHECK, "integer mul overflow"
                        )
                    regs[entry[1]] = result & _U32
                elif op == _OP_DIV:
                    a = regs[entry[2]]
                    if a & _SIGN:
                        a -= _TWO32
                    b = regs[entry[3]]
                    if b & _SIGN:
                        b -= _TWO32
                    if b == 0:
                        raise_detection(
                            Mechanism.DIVISION_CHECK, "integer divide by zero"
                        )
                    result = int(a / b)  # truncating division
                    if result > _INT_MAX or result < _INT_MIN:
                        raise_detection(
                            Mechanism.OVERFLOW_CHECK, "integer div overflow"
                        )
                    regs[entry[1]] = result & _U32
                elif op == _OP_AND:
                    regs[entry[1]] = regs[entry[2]] & regs[entry[3]]
                elif op == _OP_OR:
                    regs[entry[1]] = regs[entry[2]] | regs[entry[3]]
                elif op == _OP_XOR:
                    regs[entry[1]] = regs[entry[2]] ^ regs[entry[3]]
                elif op == _OP_SHL:
                    regs[entry[1]] = (
                        regs[entry[2]] << (regs[entry[3]] & 31)
                    ) & _U32
                elif op == _OP_SHR:
                    regs[entry[1]] = regs[entry[2]] >> (regs[entry[3]] & 31)
                elif op == _OP_ITOF:
                    a = regs[entry[2]]
                    if a & _SIGN:
                        a -= _TWO32
                    regs[entry[1]] = _float_result_bits(float(a), True)
                elif op == _OP_FTOI:
                    value = unpack_f(pack_i(regs[entry[2]]))[0]
                    if value != value:
                        raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
                    if not _INT_MIN <= value <= _INT_MAX:
                        raise_detection(
                            Mechanism.OVERFLOW_CHECK, "float to int overflow"
                        )
                    regs[entry[1]] = int(value) & _U32
                elif op == _OP_FNEG:
                    regs[entry[1]] = regs[entry[2]] ^ 0x80000000
                elif op == _OP_CHK:
                    low = unpack_f(pack_i(regs[entry[1]]))[0]
                    value = unpack_f(pack_i(regs[entry[2]]))[0]
                    high = unpack_f(pack_i(regs[entry[3]]))[0]
                    if not low <= value <= high:
                        raise_detection(
                            Mechanism.CONSTRAINT_ERROR,
                            f"{value!r} outside [{low!r}, {high!r}]",
                        )
                elif op == _OP_JR:
                    target = regs[entry[1]]
                    if not code_base <= target < code_end:
                        raise_detection(
                            Mechanism.JUMP_ERROR, f"target {target:#x} outside code"
                        )
                    index += 1
                    pc = target
                    ir = fc_get(pc, -1)
                    if ir < 0:
                        ir = fetch(pc)
                    continue
                elif op == _OP_SVC:
                    self.last_svc = entry[1]
                    index += 1
                    pc = (pc + WORD) & _U32
                    ir = fc_get(pc, -1)
                    if ir < 0:
                        ir = fetch(pc)
                    result = StepResult.YIELD
                    break
                elif op == _OP_NOP:
                    pass
                else:  # _OP_GENERIC: delegate to the handler path.
                    self.pc = pc
                    self.psw = psw
                    self.mar = mar
                    self.mdr = mdr
                    self.last_signature = last_sig
                    try:
                        r = entry[1](self)
                    finally:
                        psw = self.psw
                        mar = self.mar
                        mdr = self.mdr
                        last_sig = self.last_signature
                    index += 1
                    if r is None:
                        pc = (pc + WORD) & _U32
                    elif r.__class__ is int:
                        pc = r
                    elif r is _HALT:
                        # A halted CPU performs no further prefetch.
                        result = StepResult.HALTED
                        break
                    else:  # _YIELD
                        pc = (pc + WORD) & _U32
                        ir = fc_get(pc, -1)
                        if ir < 0:
                            ir = fetch(pc)
                        result = StepResult.YIELD
                        break
                    ir = fc_get(pc, -1)
                    if ir < 0:
                        ir = fetch(pc)
                    continue
                index += 1
                pc = (pc + WORD) & _U32
                ir = fc_get(pc, -1)
                if ir < 0:
                    ir = fetch(pc)
            else:
                result = StepResult.OK
        except HardwareDetection as event:
            # Keep the fields, not the exception: its traceback refers
            # back to this frame, a cycle only the collector would free.
            detected = (event.mechanism, event.detail)
            result = StepResult.DETECTED
        # Every exit (budget end, yield, halt, detection) syncs the
        # hoisted scalars back before anything can observe them.
        self.pc = pc
        self.psw = psw
        self.ir = ir
        self.mar = mar
        self.mdr = mdr
        self.last_signature = last_sig
        self.instruction_index = index
        cache.hits += hits
        if result is StepResult.DETECTED:
            self.detection = DetectionEvent(
                mechanism=detected[0],
                pc=pc,
                instruction_index=index,
                detail=detected[1],
            )
            notify_detection(self.detection)
        return result

    def _run_recording(self, max_instructions: int) -> StepResult:
        """:meth:`run`'s loop with an access recorder attached: the
        predecoded handlers wrapped by :func:`_recording_handler`, and
        the traced :meth:`step` for the words those cannot express."""
        if self.detection is not None:
            return StepResult.DETECTED
        if self.halted:
            return StepResult.HALTED
        self.last_svc = None
        recorder = self.recorder
        handlers_get = recorder.handlers.get
        fetch = self.memory.fetch_word_cached
        index = self.instruction_index
        try:
            for _ in range(max_instructions):
                word = self.ir & _U32
                handler = handlers_get(word)
                if handler is None:
                    handler = _recording_handler(recorder, word)
                if handler is _TRACED:
                    self.instruction_index = index
                    result = self.step()
                    index = self.instruction_index
                    if result is not StepResult.OK:
                        return result
                    continue
                recorder.now = index
                r = handler(self, index)
                index += 1
                if r is None:
                    self.pc = (self.pc + WORD) & _U32
                elif r.__class__ is int:
                    self.pc = r
                elif r is _HALT:
                    self.instruction_index = index
                    return StepResult.HALTED
                else:  # _YIELD
                    self.instruction_index = index
                    self.pc = (self.pc + WORD) & _U32
                    self.ir = fetch(self.pc)
                    return StepResult.YIELD
                self.ir = fetch(self.pc)
        except HardwareDetection as event:
            self.instruction_index = index
            self.detection = DetectionEvent(
                mechanism=event.mechanism,
                pc=self.pc,
                instruction_index=index,
                detail=event.detail,
            )
            notify_detection(self.detection)
            return StepResult.DETECTED
        self.instruction_index = index
        return StepResult.OK

    # -- state access -------------------------------------------------------------
    def register_state_bytes(self) -> bytes:
        """Registers + PSW + latches, for run-state hashing."""
        sig = -1 if self.last_signature is None else self.last_signature
        return _REG_STATE_STRUCT.pack(
            *self.regs,
            self.pc,
            self.psw & PSW_MASK,
            self.ir,
            self.mar,
            self.mdr,
            sig,
            self.halted,
        )

    def state_bytes(self) -> bytes:
        """Full target-system state (CPU + cache + memory)."""
        return (
            self.register_state_bytes()
            + self.cache.state_bytes()
            + self.memory.state_bytes()
        )

    def snapshot(self) -> Dict[str, object]:
        """A restorable copy of the full target-system state."""
        return {
            "regs": list(self.regs),
            "pc": self.pc,
            "psw": self.psw,
            "ir": self.ir,
            "mar": self.mar,
            "mdr": self.mdr,
            "last_signature": self.last_signature,
            "instruction_index": self.instruction_index,
            "halted": self.halted,
            "cache": self.cache.snapshot(),
            "memory": self.memory.snapshot(),
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        self.regs[:] = snapshot["regs"]  # type: ignore[arg-type]
        self.pc = snapshot["pc"]  # type: ignore[assignment]
        self.psw = snapshot["psw"]  # type: ignore[assignment]
        self.ir = snapshot["ir"]  # type: ignore[assignment]
        self.mar = snapshot["mar"]  # type: ignore[assignment]
        self.mdr = snapshot["mdr"]  # type: ignore[assignment]
        self.last_signature = snapshot["last_signature"]  # type: ignore[assignment]
        self.instruction_index = snapshot["instruction_index"]  # type: ignore[assignment]
        self.halted = snapshot["halted"]  # type: ignore[assignment]
        self.detection = None
        self.cache.restore(snapshot["cache"])  # type: ignore[arg-type]
        self.memory.restore(snapshot["memory"])  # type: ignore[arg-type]


_BRANCHES = frozenset(
    {
        Opcode.BR,
        Opcode.BEQ,
        Opcode.BNE,
        Opcode.BLT,
        Opcode.BGE,
        Opcode.BGT,
        Opcode.BLE,
        Opcode.BVS,
    }
)


# ---------------------------------------------------------------------------
# Predecoded dispatch.
#
# Handlers take the CPU and return:
#   None      -> fall through to pc + 4
#   int       -> control transfer to that pc
#   _YIELD    -> SVC executed (pc + 4, then yield to the environment)
#   _HALT     -> CPU halted (no prefetch)
# Detections propagate as HardwareDetection exceptions, exactly as in the
# traced chain.  Handlers are built per *word*, so every operand field is
# a closure constant.  They make no recorder calls of their own: while a
# recorder is attached, the recording loop wraps them (see
# _recording_handler) and the cache and memory hooks fire inside them.
# ---------------------------------------------------------------------------

_YIELD = object()
_HALT = object()

_Handler = Callable[[CPU], object]

_PREDECODE: Dict[int, _Handler] = {}
_PREDECODE_CAP = 65536

_SP = SP_INDEX


def _fop_operands(cpu: CPU, rs1: int, rs2: int) -> Tuple[float, float]:
    regs = cpu.regs
    a = _STRUCT_F.unpack(_STRUCT_I.pack(regs[rs1]))[0]
    if a != a:
        raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
    b = _STRUCT_F.unpack(_STRUCT_I.pack(regs[rs2]))[0]
    if b != b:
        raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
    return a, b


def _float_result_bits(value: float, operands_finite: bool) -> int:
    try:
        packed = _STRUCT_F.pack(value)
    except OverflowError:
        packed = _STRUCT_F.pack(_INF if value > 0 else -_INF)
    rounded = _STRUCT_F.unpack(packed)[0]
    if rounded != rounded:
        raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN result")
    if rounded == _INF or rounded == -_INF:
        if operands_finite:
            raise_detection(Mechanism.OVERFLOW_CHECK, "float overflow")
    elif value != 0.0 and abs(rounded) < _MIN_NORMAL:
        raise_detection(Mechanism.UNDERFLOW_CHECK, "underflow/denormal result")
    return _STRUCT_I.unpack(packed)[0]


def _branch_resolve(cpu: CPU, offset: int) -> int:
    target = (cpu.pc + offset) & _U32
    layout = cpu.layout
    if not layout.code_base <= target < layout.code_base + layout.code_size:
        raise_detection(Mechanism.JUMP_ERROR, f"target {target:#x} outside code")
    return target


def _f_nop(instruction: Instruction) -> _Handler:
    def nop(cpu: CPU):
        return None

    return nop


def _f_halt(instruction: Instruction) -> _Handler:
    name = instruction.opcode.name

    def halt(cpu: CPU):
        if not cpu.psw & FLAG_M:
            raise_detection(
                Mechanism.INSTRUCTION_ERROR, f"privileged {name} in user mode"
            )
        cpu.halted = True
        return _HALT

    return halt


def _f_svc(instruction: Instruction) -> _Handler:
    imm = instruction.imm

    def svc(cpu: CPU):
        cpu.last_svc = imm
        return _YIELD

    return svc


def _f_sig(instruction: Instruction) -> _Handler:
    imm = instruction.imm

    def sig(cpu: CPU):
        cpu._check_signature(imm)
        return None

    return sig


def _f_setmode(instruction: Instruction) -> _Handler:
    rs1 = instruction.rs1

    def setmode(cpu: CPU):
        if not cpu.psw & FLAG_M:
            raise_detection(
                Mechanism.INSTRUCTION_ERROR, "privileged SETMODE in user mode"
            )
        if cpu.regs[rs1] & 1:
            cpu.psw |= FLAG_M
        else:
            cpu.psw &= ~FLAG_M
        return None

    return setmode


def _f_ldi(instruction: Instruction) -> _Handler:
    rd = instruction.rd
    value = instruction.simm() & _U32

    def ldi(cpu: CPU):
        cpu.regs[rd] = value
        return None

    return ldi


def _f_lui(instruction: Instruction) -> _Handler:
    rd = instruction.rd
    value = (instruction.imm << 16) & _U32

    def lui(cpu: CPU):
        cpu.regs[rd] = value
        return None

    return lui


def _f_ori(instruction: Instruction) -> _Handler:
    rd = instruction.rd
    imm = instruction.imm

    def ori(cpu: CPU):
        cpu.regs[rd] |= imm
        return None

    return ori


def _f_mov(instruction: Instruction) -> _Handler:
    rd, rs1 = instruction.rd, instruction.rs1

    def mov(cpu: CPU):
        cpu.regs[rd] = cpu.regs[rs1]
        return None

    return mov


def _f_ld(instruction: Instruction) -> _Handler:
    rd, rs1, simm = instruction.rd, instruction.rs1, instruction.simm()

    def ld(cpu: CPU):
        address = (cpu.regs[rs1] + simm) & _U32
        cpu.mar = address
        memory = cpu.memory
        if memory.is_cacheable(address):
            value = cpu.cache.read(address, memory)
        else:
            value = memory.read_data_word(address)
        cpu.mdr = value
        cpu.regs[rd] = value
        return None

    return ld


def _f_st(instruction: Instruction) -> _Handler:
    rd, rs1, simm = instruction.rd, instruction.rs1, instruction.simm()

    def st(cpu: CPU):
        regs = cpu.regs
        address = (regs[rs1] + simm) & _U32
        value = regs[rd]
        cpu.mar = address
        cpu.mdr = value
        memory = cpu.memory
        if memory.is_cacheable(address):
            cpu.cache.write(address, value, memory)
        else:
            memory.write_data_word(address, value)
        return None

    return st


def _f_push(instruction: Instruction) -> _Handler:
    rd = instruction.rd

    def push(cpu: CPU):
        regs = cpu.regs
        sp = (regs[_SP] - WORD) & _U32
        cpu._check_stack_pointer(sp)
        value = regs[rd]
        cpu.mar = sp
        cpu.mdr = value
        memory = cpu.memory
        if memory.is_cacheable(sp):
            cpu.cache.write(sp, value, memory)
        else:
            memory.write_data_word(sp, value)
        regs[_SP] = sp
        return None

    return push


def _f_pop(instruction: Instruction) -> _Handler:
    rd = instruction.rd

    def pop(cpu: CPU):
        regs = cpu.regs
        sp = regs[_SP]
        cpu._check_stack_pointer(sp)
        if sp >= cpu.layout.stack_top:
            raise_detection(Mechanism.STORAGE_ERROR, "pop from empty stack")
        cpu.mar = sp
        memory = cpu.memory
        if memory.is_cacheable(sp):
            value = cpu.cache.read(sp, memory)
        else:
            value = memory.read_data_word(sp)
        cpu.mdr = value
        regs[rd] = value
        regs[_SP] = (sp + WORD) & _U32
        return None

    return pop


def _f_add(instruction: Instruction) -> _Handler:
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2

    def add(cpu: CPU):
        regs = cpu.regs
        a = regs[rs1]
        if a & _SIGN:
            a -= _TWO32
        b = regs[rs2]
        if b & _SIGN:
            b -= _TWO32
        result = a + b
        if result > _INT_MAX or result < _INT_MIN:
            raise_detection(Mechanism.OVERFLOW_CHECK, "integer add overflow")
        regs[rd] = result & _U32
        return None

    return add


def _f_sub(instruction: Instruction) -> _Handler:
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2

    def sub(cpu: CPU):
        regs = cpu.regs
        a = regs[rs1]
        if a & _SIGN:
            a -= _TWO32
        b = regs[rs2]
        if b & _SIGN:
            b -= _TWO32
        result = a - b
        if result > _INT_MAX or result < _INT_MIN:
            raise_detection(Mechanism.OVERFLOW_CHECK, "integer sub overflow")
        regs[rd] = result & _U32
        return None

    return sub


def _f_mul(instruction: Instruction) -> _Handler:
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2

    def mul(cpu: CPU):
        regs = cpu.regs
        a = regs[rs1]
        if a & _SIGN:
            a -= _TWO32
        b = regs[rs2]
        if b & _SIGN:
            b -= _TWO32
        result = a * b
        if result > _INT_MAX or result < _INT_MIN:
            raise_detection(Mechanism.OVERFLOW_CHECK, "integer mul overflow")
        regs[rd] = result & _U32
        return None

    return mul


def _f_div(instruction: Instruction) -> _Handler:
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2

    def div(cpu: CPU):
        regs = cpu.regs
        a = regs[rs1]
        if a & _SIGN:
            a -= _TWO32
        b = regs[rs2]
        if b & _SIGN:
            b -= _TWO32
        if b == 0:
            raise_detection(Mechanism.DIVISION_CHECK, "integer divide by zero")
        result = int(a / b)  # truncating division
        if result > _INT_MAX or result < _INT_MIN:
            raise_detection(Mechanism.OVERFLOW_CHECK, "integer div overflow")
        regs[rd] = result & _U32
        return None

    return div


def _f_and(instruction: Instruction) -> _Handler:
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2

    def and_(cpu: CPU):
        regs = cpu.regs
        regs[rd] = regs[rs1] & regs[rs2]
        return None

    return and_


def _f_or(instruction: Instruction) -> _Handler:
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2

    def or_(cpu: CPU):
        regs = cpu.regs
        regs[rd] = regs[rs1] | regs[rs2]
        return None

    return or_


def _f_xor(instruction: Instruction) -> _Handler:
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2

    def xor(cpu: CPU):
        regs = cpu.regs
        regs[rd] = regs[rs1] ^ regs[rs2]
        return None

    return xor


def _f_shl(instruction: Instruction) -> _Handler:
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2

    def shl(cpu: CPU):
        regs = cpu.regs
        regs[rd] = (regs[rs1] << (regs[rs2] & 31)) & _U32
        return None

    return shl


def _f_shr(instruction: Instruction) -> _Handler:
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2

    def shr(cpu: CPU):
        regs = cpu.regs
        regs[rd] = regs[rs1] >> (regs[rs2] & 31)
        return None

    return shr


def _f_addi(instruction: Instruction) -> _Handler:
    rd, rs1, simm = instruction.rd, instruction.rs1, instruction.simm()

    def addi(cpu: CPU):
        regs = cpu.regs
        a = regs[rs1]
        if a & _SIGN:
            a -= _TWO32
        result = a + simm
        if result > _INT_MAX or result < _INT_MIN:
            raise_detection(Mechanism.OVERFLOW_CHECK, "integer add overflow")
        regs[rd] = result & _U32
        return None

    return addi


def _f_cmp(instruction: Instruction) -> _Handler:
    rs1, rs2 = instruction.rs1, instruction.rs2

    def cmp_(cpu: CPU):
        regs = cpu.regs
        au = regs[rs1]
        bu = regs[rs2]
        a = au - _TWO32 if au & _SIGN else au
        b = bu - _TWO32 if bu & _SIGN else bu
        psw = cpu.psw & ~_FLAG_WRITE_MASK
        if a == b:
            psw |= FLAG_Z
        if a < b:
            psw |= FLAG_N
        if au < bu:
            psw |= FLAG_C
        cpu.psw = psw
        return None

    return cmp_


def _f_fadd(instruction: Instruction) -> _Handler:
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2

    def fadd(cpu: CPU):
        a, b = _fop_operands(cpu, rs1, rs2)
        cpu.regs[rd] = _float_result_bits(
            a + b, abs(a) != _INF and abs(b) != _INF
        )
        return None

    return fadd


def _f_fsub(instruction: Instruction) -> _Handler:
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2

    def fsub(cpu: CPU):
        a, b = _fop_operands(cpu, rs1, rs2)
        cpu.regs[rd] = _float_result_bits(
            a - b, abs(a) != _INF and abs(b) != _INF
        )
        return None

    return fsub


def _f_fmul(instruction: Instruction) -> _Handler:
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2

    def fmul(cpu: CPU):
        a, b = _fop_operands(cpu, rs1, rs2)
        cpu.regs[rd] = _float_result_bits(
            a * b, abs(a) != _INF and abs(b) != _INF
        )
        return None

    return fmul


def _f_fdiv(instruction: Instruction) -> _Handler:
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2

    def fdiv(cpu: CPU):
        a, b = _fop_operands(cpu, rs1, rs2)
        finite = abs(a) != _INF and abs(b) != _INF
        if b == 0.0:
            raise_detection(Mechanism.DIVISION_CHECK, "float divide by zero")
        cpu.regs[rd] = _float_result_bits(a / b, finite)
        return None

    return fdiv


def _f_fcmp(instruction: Instruction) -> _Handler:
    rs1, rs2 = instruction.rs1, instruction.rs2

    def fcmp(cpu: CPU):
        regs = cpu.regs
        a = _STRUCT_F.unpack(_STRUCT_I.pack(regs[rs1]))[0]
        b = _STRUCT_F.unpack(_STRUCT_I.pack(regs[rs2]))[0]
        psw = cpu.psw & ~_FLAG_WRITE_MASK
        if a != a or b != b:
            psw |= FLAG_V
        else:
            if a == b:
                psw |= FLAG_Z
            if a < b:
                psw |= FLAG_N
        cpu.psw = psw
        return None

    return fcmp


def _f_itof(instruction: Instruction) -> _Handler:
    rd, rs1 = instruction.rd, instruction.rs1

    def itof(cpu: CPU):
        a = cpu.regs[rs1]
        if a & _SIGN:
            a -= _TWO32
        cpu.regs[rd] = _float_result_bits(float(a), True)
        return None

    return itof


def _f_ftoi(instruction: Instruction) -> _Handler:
    rd, rs1 = instruction.rd, instruction.rs1

    def ftoi(cpu: CPU):
        value = _STRUCT_F.unpack(_STRUCT_I.pack(cpu.regs[rs1]))[0]
        if value != value:
            raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
        if not _INT_MIN <= value <= _INT_MAX:
            raise_detection(Mechanism.OVERFLOW_CHECK, "float to int overflow")
        cpu.regs[rd] = int(value) & _U32
        return None

    return ftoi


def _f_fneg(instruction: Instruction) -> _Handler:
    rd, rs1 = instruction.rd, instruction.rs1

    def fneg(cpu: CPU):
        cpu.regs[rd] = cpu.regs[rs1] ^ 0x80000000
        return None

    return fneg


def _f_br(instruction: Instruction) -> _Handler:
    offset = WORD * instruction.simm()

    def br(cpu: CPU):
        return _branch_resolve(cpu, offset)

    return br


def _branch_factory_set(mask: int):
    """Branch taken when ``psw & mask`` is non-zero."""

    def factory(instruction: Instruction) -> _Handler:
        offset = WORD * instruction.simm()

        def branch(cpu: CPU):
            if cpu.psw & mask:
                return _branch_resolve(cpu, offset)
            return None

        return branch

    return factory


def _branch_factory_clear(mask: int):
    """Branch taken when every bit of ``mask`` is clear in the PSW."""

    def factory(instruction: Instruction) -> _Handler:
        offset = WORD * instruction.simm()

        def branch(cpu: CPU):
            if not cpu.psw & mask:
                return _branch_resolve(cpu, offset)
            return None

        return branch

    return factory


def _f_call(instruction: Instruction) -> _Handler:
    offset = WORD * instruction.simm()

    def call(cpu: CPU):
        regs = cpu.regs
        sp = (regs[_SP] - WORD) & _U32
        cpu._check_stack_pointer(sp)
        value = (cpu.pc + WORD) & _U32
        cpu.mar = sp
        cpu.mdr = value
        memory = cpu.memory
        if memory.is_cacheable(sp):
            cpu.cache.write(sp, value, memory)
        else:
            memory.write_data_word(sp, value)
        regs[_SP] = sp
        return _branch_resolve(cpu, offset)

    return call


def _f_ret(instruction: Instruction) -> _Handler:
    def ret(cpu: CPU):
        regs = cpu.regs
        sp = regs[_SP]
        cpu._check_stack_pointer(sp)
        layout = cpu.layout
        if sp >= layout.stack_top:
            raise_detection(Mechanism.STORAGE_ERROR, "return with empty stack")
        cpu.mar = sp
        memory = cpu.memory
        if memory.is_cacheable(sp):
            target = cpu.cache.read(sp, memory)
        else:
            target = memory.read_data_word(sp)
        cpu.mdr = target
        regs[_SP] = (sp + WORD) & _U32
        if not layout.code_base <= target < layout.code_base + layout.code_size:
            raise_detection(Mechanism.JUMP_ERROR, f"target {target:#x} outside code")
        return target

    return ret


def _f_jr(instruction: Instruction) -> _Handler:
    rs1 = instruction.rs1

    def jr(cpu: CPU):
        target = cpu.regs[rs1]
        layout = cpu.layout
        if not layout.code_base <= target < layout.code_base + layout.code_size:
            raise_detection(Mechanism.JUMP_ERROR, f"target {target:#x} outside code")
        return target

    return jr


def _f_chk(instruction: Instruction) -> _Handler:
    rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2

    def chk(cpu: CPU):
        regs = cpu.regs
        low = _STRUCT_F.unpack(_STRUCT_I.pack(regs[rd]))[0]
        value = _STRUCT_F.unpack(_STRUCT_I.pack(regs[rs1]))[0]
        high = _STRUCT_F.unpack(_STRUCT_I.pack(regs[rs2]))[0]
        if not low <= value <= high:
            raise_detection(
                Mechanism.CONSTRAINT_ERROR,
                f"{value!r} outside [{low!r}, {high!r}]",
            )
        return None

    return chk


_HANDLER_FACTORIES: Dict[Opcode, Callable[[Instruction], _Handler]] = {
    Opcode.NOP: _f_nop,
    Opcode.HALT: _f_halt,
    Opcode.WFI: _f_halt,
    Opcode.SVC: _f_svc,
    Opcode.SIG: _f_sig,
    Opcode.SETMODE: _f_setmode,
    Opcode.LDI: _f_ldi,
    Opcode.LUI: _f_lui,
    Opcode.ORI: _f_ori,
    Opcode.MOV: _f_mov,
    Opcode.LD: _f_ld,
    Opcode.ST: _f_st,
    Opcode.PUSH: _f_push,
    Opcode.POP: _f_pop,
    Opcode.ADD: _f_add,
    Opcode.SUB: _f_sub,
    Opcode.MUL: _f_mul,
    Opcode.DIV: _f_div,
    Opcode.AND: _f_and,
    Opcode.OR: _f_or,
    Opcode.XOR: _f_xor,
    Opcode.SHL: _f_shl,
    Opcode.SHR: _f_shr,
    Opcode.ADDI: _f_addi,
    Opcode.CMP: _f_cmp,
    Opcode.FADD: _f_fadd,
    Opcode.FSUB: _f_fsub,
    Opcode.FMUL: _f_fmul,
    Opcode.FDIV: _f_fdiv,
    Opcode.FCMP: _f_fcmp,
    Opcode.ITOF: _f_itof,
    Opcode.FTOI: _f_ftoi,
    Opcode.FNEG: _f_fneg,
    Opcode.BR: _f_br,
    Opcode.BEQ: _branch_factory_set(FLAG_Z),
    Opcode.BNE: _branch_factory_clear(FLAG_Z),
    Opcode.BLT: _branch_factory_set(FLAG_N),
    Opcode.BGE: _branch_factory_clear(FLAG_N | FLAG_V),
    Opcode.BGT: _branch_factory_clear(FLAG_Z | FLAG_N | FLAG_V),
    Opcode.BLE: _branch_factory_set(FLAG_Z | FLAG_N),
    Opcode.BVS: _branch_factory_set(FLAG_V),
    Opcode.CALL: _f_call,
    Opcode.RET: _f_ret,
    Opcode.JR: _f_jr,
    Opcode.CHK: _f_chk,
}

_PSW_MODE = ("psw", FLAG_M)
_PSW_FLAGS_READ = ("psw", _FLAG_READ_MASK)
_PSW_FLAGS_WRITE = ("psw", _FLAG_WRITE_MASK)
_RRW = (("rs1", "rs2"), False, ("rd",))
_RW = (("rs1",), False, ("rd",))
_PSW_CMP = (("rs1", "rs2"), False, (_PSW_FLAGS_WRITE,))
_BRANCH = ((_PSW_FLAGS_READ,), False, ())

#: What the traced chain reports to an access recorder, per opcode:
#: ``(reads, latches, writes)``.  ``reads`` are the register reads in
#: traced order — a register field (``rd``/``rs1``/``rs2``), the stack
#: pointer, or a masked PSW read; the reads carry the pre-instruction
#: value, because every opcode reads all its registers before it writes
#: any.  ``latches`` is true when the opcode writes ``mar``/``mdr``
#: (before any cache or memory access).  ``writes`` are the register
#: field or masked PSW writes that follow the operation.
_ACCESSES: Dict[Opcode, Tuple[Tuple[object, ...], bool, Tuple[object, ...]]] = {
    Opcode.NOP: ((), False, ()),
    Opcode.HALT: ((_PSW_MODE,), False, ()),
    Opcode.WFI: ((_PSW_MODE,), False, ()),
    Opcode.SVC: ((), False, ()),
    Opcode.SIG: ((), False, ()),
    Opcode.SETMODE: ((_PSW_MODE, "rs1"), False, (_PSW_MODE,)),
    Opcode.LDI: ((), False, ("rd",)),
    Opcode.LUI: ((), False, ("rd",)),
    Opcode.ORI: (("rd",), False, ("rd",)),
    Opcode.MOV: _RW,
    Opcode.LD: (("rs1",), True, ("rd",)),
    Opcode.ST: (("rs1", "rd"), True, ()),
    Opcode.PUSH: (("sp", "rd"), True, ()),
    Opcode.POP: (("sp",), True, ("rd",)),
    Opcode.ADD: _RRW,
    Opcode.SUB: _RRW,
    Opcode.MUL: _RRW,
    Opcode.DIV: _RRW,
    Opcode.AND: _RRW,
    Opcode.OR: _RRW,
    Opcode.XOR: _RRW,
    Opcode.SHL: _RRW,
    Opcode.SHR: _RRW,
    Opcode.ADDI: _RW,
    Opcode.CMP: _PSW_CMP,
    Opcode.FADD: _RRW,
    Opcode.FSUB: _RRW,
    Opcode.FMUL: _RRW,
    Opcode.FDIV: _RRW,
    Opcode.FCMP: _PSW_CMP,
    Opcode.ITOF: _RW,
    Opcode.FTOI: _RW,
    Opcode.FNEG: _RW,
    Opcode.BR: _BRANCH,
    Opcode.BEQ: _BRANCH,
    Opcode.BNE: _BRANCH,
    Opcode.BLT: _BRANCH,
    Opcode.BGE: _BRANCH,
    Opcode.BGT: _BRANCH,
    Opcode.BLE: _BRANCH,
    Opcode.BVS: _BRANCH,
    Opcode.CALL: (("sp",), True, ()),
    Opcode.RET: (("sp",), True, ()),
    Opcode.JR: (("rs1",), False, ()),
    Opcode.CHK: (("rd", "rs1", "rs2"), False, ()),
}

#: Register fields each opcode actually consumes.  A word whose used
#: fields fall outside the register file (only reachable through faults)
#: keeps the traced chain's exact detection ordering via the generic
#: fallback handler.
_FIELDS_USED: Dict[Opcode, Tuple[str, ...]] = {
    op: tuple(f for f in ("rd", "rs1", "rs2") if f in reads or f in writes)
    for op, (reads, _latches, writes) in _ACCESSES.items()
}


def _general_handler(word: int, instruction: Instruction) -> _Handler:
    """Fallback for words the specialised handlers cannot express.

    Runs the traced chain body (without recorder/trace overhead — both
    are known to be detached on the fast path) so out-of-range register
    fields raise in exactly the order the original interpreter did,
    e.g. PUSH with a bad ``rd`` still checks the stack pointer first.
    """
    privileged = instruction.opcode in PRIVILEGED_OPCODES

    def general(cpu: CPU):
        if privileged and not cpu.psw & FLAG_M:
            raise_detection(
                Mechanism.INSTRUCTION_ERROR,
                f"privileged {instruction.opcode.name} in user mode",
            )
        result, next_pc = cpu._execute_chain(word, instruction)
        if result is StepResult.OK:
            return next_pc
        if result is StepResult.YIELD:
            return _YIELD
        return _HALT

    return general


def _build_handler(word: int) -> _Handler:
    instruction = _decode_cached(word)
    if instruction is None:
        detail = f"illegal opcode {word >> 24:#x}"

        def illegal(cpu: CPU):
            raise_detection(Mechanism.INSTRUCTION_ERROR, detail)

        return illegal
    for name in _FIELDS_USED[instruction.opcode]:
        if getattr(instruction, name) > SP_INDEX:
            return _general_handler(word, instruction)
    return _HANDLER_FACTORIES[instruction.opcode](instruction)


def _predecode(word: int) -> _Handler:
    handler = _build_handler(word)
    if len(_PREDECODE) < _PREDECODE_CAP:
        _PREDECODE[word] = handler
    return handler


#: Recording-handler marker: execute this word through the traced
#: :meth:`CPU.step` (illegal words, out-of-range register fields).
_TRACED = object()


def _recording_handler(recorder, word: int):
    """Build and cache ``word``'s recording handler on ``recorder``.

    The handler takes ``(cpu, now)``, appends the :data:`_ACCESSES`
    entries straight to the recorder's per-element trace lists around
    the plain predecoded handler — whose cache and memory hooks fire
    inside it, as on the traced path — and returns that handler's
    result.  The lists are the recorder's, so the handlers are cached on
    the recorder (``recorder.handlers``), not in :data:`_PREDECODE`.
    """
    instruction = _decode_cached(word)
    handler: object = _TRACED
    if instruction is not None and all(
        getattr(instruction, name) <= SP_INDEX
        for name in _FIELDS_USED[instruction.opcode]
    ):
        reads, latches, writes = _ACCESSES[instruction.opcode]
        field = {
            "rd": instruction.rd,
            "rs1": instruction.rs1,
            "rs2": instruction.rs2,
            "sp": SP_INDEX,
        }
        trace = recorder.register_trace
        reg_reads = tuple(
            (trace(_REG_NAMES[field[r]]).append, field[r])
            for r in reads
            if r.__class__ is str
        )
        psw_reads = tuple(
            (trace(r[0]).append, r[1]) for r in reads if r.__class__ is tuple
        )
        latch_writes = (
            (trace("mar").append, trace("mdr").append) if latches else ()
        )
        post_writes = tuple(
            (trace(_REG_NAMES[field[w]]).append, _U32)
            if w.__class__ is str
            else (trace(w[0]).append, w[1])
            for w in writes
        )
        plain = _PREDECODE.get(word) or _predecode(word)

        def record(cpu: CPU, now: int):
            regs = cpu.regs
            for append, i in reg_reads:
                append((now, False, _U32, regs[i]))
            for append, mask in psw_reads:
                append((now, False, mask, cpu.psw))
            for append in latch_writes:
                append((now, True, _U32, 0))
            r = plain(cpu)
            for append, mask in post_writes:
                append((now, True, mask, 0))
            return r

        handler = record
    recorder.handlers[word] = handler
    return handler


# ---------------------------------------------------------------------------
# Inline dispatch: the entry table of CPU.run.
#
# Instead of calling a per-word handler closure, :meth:`CPU.run`
# predecodes each word into a flat ``(op, a, b, c)`` tuple in a
# process-wide table and executes the hot opcodes inline with the
# machine state hoisted into loop locals: an LD hit is three range
# compares and two list reads, with none of the closure-call and
# attribute-lookup overhead of the handler path.  Cold operations (cache
# misses, un-cached accesses, HALT/WFI/SETMODE, illegal words, words
# with out-of-range register fields) delegate to the exact code the
# handler path runs, so observable behaviour — results, flags, detection
# mechanisms, messages, ordering, counters — is identical to
# :meth:`CPU.step` instruction for instruction.
# ---------------------------------------------------------------------------

#: Entry op ids, ordered by expected dynamic frequency (the dispatch
#: chain in :meth:`CPU.run` tests them in this order).
_OP_GENERIC = 0
_OP_LD = 1
_OP_ST = 2
_OP_ADDI = 3
_OP_CMP = 4
_OP_BSET = 5
_OP_BCLR = 6
_OP_FMUL = 7
_OP_FADD = 8
_OP_MOV = 9
_OP_BR = 10
_OP_SIG = 11
_OP_ADD = 12
_OP_SUB = 13
_OP_FSUB = 14
_OP_FDIV = 15
_OP_FCMP = 16
_OP_PUSH = 17
_OP_POP = 18
_OP_CALL = 19
_OP_RET = 20
_OP_LDI = 21
_OP_LUI = 22
_OP_ORI = 23
_OP_MUL = 24
_OP_DIV = 25
_OP_AND = 26
_OP_OR = 27
_OP_XOR = 28
_OP_SHL = 29
_OP_SHR = 30
_OP_ITOF = 31
_OP_FTOI = 32
_OP_FNEG = 33
_OP_CHK = 34
_OP_JR = 35
_OP_SVC = 36
_OP_NOP = 37

#: One predecoded entry: ``(op, a, b, c)`` with op-specific
#: operand meaning; generic entries carry the handler closure in ``a``.
_Entry = Tuple[int, object, int, int]

_ENTRIES: Dict[int, _Entry] = {}


def _b3(op: int):
    """Entry factory for three-register-field opcodes."""

    def build(i: Instruction) -> _Entry:
        return (op, i.rd, i.rs1, i.rs2)

    return build


def _b_bset(mask: int):
    def build(i: Instruction) -> _Entry:
        return (_OP_BSET, mask, WORD * i.simm(), 0)

    return build


def _b_bclr(mask: int):
    def build(i: Instruction) -> _Entry:
        return (_OP_BCLR, mask, WORD * i.simm(), 0)

    return build


_ENTRY_FACTORIES: Dict[Opcode, Callable[[Instruction], _Entry]] = {
    Opcode.NOP: lambda i: (_OP_NOP, 0, 0, 0),
    Opcode.SVC: lambda i: (_OP_SVC, i.imm, 0, 0),
    Opcode.SIG: lambda i: (_OP_SIG, i.imm, 0, 0),
    Opcode.LDI: lambda i: (_OP_LDI, i.rd, i.simm() & _U32, 0),
    Opcode.LUI: lambda i: (_OP_LUI, i.rd, (i.imm << 16) & _U32, 0),
    Opcode.ORI: lambda i: (_OP_ORI, i.rd, i.imm, 0),
    Opcode.MOV: lambda i: (_OP_MOV, i.rd, i.rs1, 0),
    Opcode.LD: lambda i: (_OP_LD, i.rd, i.rs1, i.simm()),
    Opcode.ST: lambda i: (_OP_ST, i.rd, i.rs1, i.simm()),
    Opcode.PUSH: lambda i: (_OP_PUSH, i.rd, 0, 0),
    Opcode.POP: lambda i: (_OP_POP, i.rd, 0, 0),
    Opcode.ADD: _b3(_OP_ADD),
    Opcode.SUB: _b3(_OP_SUB),
    Opcode.MUL: _b3(_OP_MUL),
    Opcode.DIV: _b3(_OP_DIV),
    Opcode.AND: _b3(_OP_AND),
    Opcode.OR: _b3(_OP_OR),
    Opcode.XOR: _b3(_OP_XOR),
    Opcode.SHL: _b3(_OP_SHL),
    Opcode.SHR: _b3(_OP_SHR),
    Opcode.ADDI: lambda i: (_OP_ADDI, i.rd, i.rs1, i.simm()),
    Opcode.CMP: lambda i: (_OP_CMP, i.rs1, i.rs2, 0),
    Opcode.FADD: _b3(_OP_FADD),
    Opcode.FSUB: _b3(_OP_FSUB),
    Opcode.FMUL: _b3(_OP_FMUL),
    Opcode.FDIV: _b3(_OP_FDIV),
    Opcode.FCMP: lambda i: (_OP_FCMP, i.rs1, i.rs2, 0),
    Opcode.ITOF: lambda i: (_OP_ITOF, i.rd, i.rs1, 0),
    Opcode.FTOI: lambda i: (_OP_FTOI, i.rd, i.rs1, 0),
    Opcode.FNEG: lambda i: (_OP_FNEG, i.rd, i.rs1, 0),
    Opcode.BR: lambda i: (_OP_BR, WORD * i.simm(), 0, 0),
    Opcode.BEQ: _b_bset(FLAG_Z),
    Opcode.BNE: _b_bclr(FLAG_Z),
    Opcode.BLT: _b_bset(FLAG_N),
    Opcode.BGE: _b_bclr(FLAG_N | FLAG_V),
    Opcode.BGT: _b_bclr(FLAG_Z | FLAG_N | FLAG_V),
    Opcode.BLE: _b_bset(FLAG_Z | FLAG_N),
    Opcode.BVS: _b_bset(FLAG_V),
    Opcode.CALL: lambda i: (_OP_CALL, WORD * i.simm(), 0, 0),
    Opcode.RET: lambda i: (_OP_RET, 0, 0, 0),
    Opcode.JR: lambda i: (_OP_JR, i.rs1, 0, 0),
    Opcode.CHK: _b3(_OP_CHK),
    # HALT / WFI / SETMODE run once per experiment at most; they stay on
    # the generic path.
}


def _build_entry(word: int) -> _Entry:
    """Predecode ``word`` into an inline-dispatch entry, sharing the
    process-wide table.  Words the inline arms cannot express exactly
    (privileged ops, illegal words, out-of-range register fields) get a
    generic entry around the handler path's own closure."""
    instruction = _decode_cached(word)
    entry: Optional[_Entry] = None
    if instruction is not None:
        factory = _ENTRY_FACTORIES.get(instruction.opcode)
        if factory is not None:
            for name in _FIELDS_USED[instruction.opcode]:
                if getattr(instruction, name) > SP_INDEX:
                    factory = None
                    break
        if factory is not None:
            entry = factory(instruction)
    if entry is None:
        handler = _PREDECODE.get(word)
        if handler is None:
            handler = _predecode(word)
        entry = (_OP_GENERIC, handler, 0, 0)
    if len(_ENTRIES) < _PREDECODE_CAP:
        _ENTRIES[word] = entry
    return entry


def _miss_read(cache, memory, address: int, line: int, tag: int) -> int:
    """:meth:`DataCache.read`'s miss path for a known-cacheable address
    with no recorder attached, with the delegated chain's region scans
    and per-call rechecks flattened out.  Mutation order matches the
    original exactly — including what is (and is not) updated when the
    victim write-back or the refill read raises a detection."""
    cache.misses += 1
    valid = cache.valid
    dirty = cache.dirty
    if valid[line] and dirty[line]:
        victim = (cache.tags[line] << 7) | (line << 2)
        cache.writebacks += 1
        layout = memory.layout
        if layout.data_base <= victim < layout.data_base + layout.data_size:
            ram = memory.data
        elif layout.stack_base <= victim < layout.stack_base + layout.stack_size:
            ram = memory.stack
        else:
            ram = None
        if ram is None:
            # Corrupted tags send write-backs anywhere: keep the fully
            # checked path (protected regions, MMIO, unmapped space).
            memory.write_data_word(victim, int(cache.data[line]))
        else:
            i = (victim - ram.base) >> 2
            value = cache.data[line] & _U32
            ram.words[i] = value
            ram.parity[i] = _parity(value)
            ram.version += 1
    valid[line] = 0
    dirty[line] = 0
    if address % WORD:
        raise_detection(Mechanism.ADDRESS_ERROR, f"unaligned {address:#x}")
    layout = memory.layout
    if layout.data_base <= address < layout.data_base + layout.data_size:
        ram = memory.data
    elif layout.stack_base <= address < layout.stack_base + layout.stack_size:
        ram = memory.stack
    else:
        ram = memory.rodata
    i = (address - ram.base) >> 2
    value = ram.words[i]
    if _parity(value) != ram.parity[i]:
        raise_detection(Mechanism.DATA_ERROR, f"parity at {address:#x}")
    cache.data[line] = value
    cache.tags[line] = tag
    valid[line] = 1
    return value


def _miss_write(
    cache, memory, address: int, value: int, line: int, tag: int
) -> None:
    """:meth:`DataCache.write`'s miss path (write-allocate, no refill)
    for a known-cacheable address with no recorder attached."""
    cache.misses += 1
    if cache.valid[line] and cache.dirty[line]:
        victim = (cache.tags[line] << 7) | (line << 2)
        cache.writebacks += 1
        layout = memory.layout
        if layout.data_base <= victim < layout.data_base + layout.data_size:
            ram = memory.data
        elif layout.stack_base <= victim < layout.stack_base + layout.stack_size:
            ram = memory.stack
        else:
            ram = None
        if ram is None:
            memory.write_data_word(victim, int(cache.data[line]))
        else:
            i = (victim - ram.base) >> 2
            old = cache.data[line] & _U32
            ram.words[i] = old
            ram.parity[i] = _parity(old)
            ram.version += 1
    cache.tags[line] = tag
    cache.valid[line] = 1
    cache.data[line] = value & _U32
    cache.dirty[line] = 1
