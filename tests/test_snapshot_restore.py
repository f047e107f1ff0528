"""Snapshot and restore: one full copy per boundary, unchanged regions skipped.

A restore may leave a RAM region alone only when the region provably
already holds the snapshot's contents.  These tests pin both halves of
that rule: every mutation path moves the region's version (so a touched
region is always rewritten), and an untouched region keeps its version
and the caches keyed on it.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.faults.models import sample_fault_plan
from repro.goofi.environment import EngineEnvironment
from repro.goofi.target import TargetSystem, _hash_state_fresh
from repro.thor import cache as cache_module
from repro.thor.cpu import _miss_read, _miss_write
from repro.thor.memory import MemoryMap

ITERATIONS = 40


def _target(workload) -> TargetSystem:
    target = TargetSystem(
        workload=workload, environment=EngineEnvironment(), iterations=ITERATIONS
    )
    target.run_reference()
    return target


def _assert_at_boundary(target: TargetSystem, boundary: int) -> None:
    expected = target.reference.hashes[boundary]
    assert target.boundary_hash() == expected
    # The cached digest reads the packed images a skipped region keeps,
    # so also hash the authoritative word lists.
    assert _hash_state_fresh(target.cpu, target.environment) == expected


class TestRestoreBoundary:
    def test_restore_boundary_matches_reference_hash(self, algorithm_i_compiled):
        """Property test: a random walk of boundaries with scan-chain
        flips, data/code corruption and pokes between seats always lands
        exactly on the reference state."""
        target = _target(algorithm_i_compiled)
        rng = random.Random(2001)
        targets = list(target.scan_chain.location_space())
        layout = target.cpu.layout
        memory = target.cpu.memory
        for _ in range(25):
            boundary = rng.randrange(ITERATIONS + 1)
            target.restore_boundary(boundary)
            _assert_at_boundary(target, boundary)
            for _ in range(rng.randrange(1, 4)):
                target.scan_chain.flip(targets[rng.randrange(len(targets))])
            data = layout.data_base + 4 * rng.randrange(layout.data_size // 4)
            memory.corrupt_word_bit(data, rng.randrange(32))
            code = layout.code_base + 4 * rng.randrange(layout.code_size // 4)
            memory.corrupt_word_bit(code, rng.randrange(32))
            stack = layout.stack_base + 4 * rng.randrange(layout.stack_size // 4)
            memory.poke(stack, rng.getrandbits(32))
            # Run a little so writes and evictions touch RAM too.
            target.cpu.run(rng.randrange(50, 400))

    def test_untouched_code_keeps_fetch_cache(self, algorithm_i_compiled):
        target = _target(algorithm_i_compiled)
        memory = target.cpu.memory
        target.restore_boundary(3)
        code_version = memory.code.version
        rodata_version = memory.rodata.version
        target.cpu.run(500)
        assert memory.fetch_cache
        target.restore_boundary(7)
        assert memory.fetch_cache
        assert memory.code.version == code_version
        assert memory.rodata.version == rodata_version
        _assert_at_boundary(target, 7)

    @pytest.mark.parametrize("mutation", ["corrupt", "poke"])
    def test_code_corruption_does_not_leak_into_next_experiment(
        self, algorithm_i_compiled, mutation
    ):
        """A code word changed out of band (and, for a poke, cached by
        the fetch path) must not survive into the next experiment."""
        target = _target(algorithm_i_compiled)
        fresh = _target(algorithm_i_compiled)
        memory = target.cpu.memory
        target.restore_boundary(5)
        pc = target.cpu.pc
        if mutation == "corrupt":
            memory.corrupt_word_bit(pc, 7)
        else:
            memory.poke(pc, memory.peek(pc + 4))
        target.cpu.run(300)
        plan = sample_fault_plan(
            space=target.scan_chain.location_space(),
            total_instructions=target.reference.total_instructions,
            count=6,
            rng=np.random.default_rng(3),
        )
        for fault in plan:
            assert target.run_experiment(fault) == fresh.run_experiment(fault)


class TestSkipUnchanged:
    def test_identical_restore_keeps_version(self):
        memory = MemoryMap()
        snapshot = memory.snapshot()
        versions = [ram.version for ram in memory._region_rams()]
        memory.restore(snapshot)
        assert [ram.version for ram in memory._region_rams()] == versions

    @staticmethod
    def _rewritten(memory: MemoryMap, snapshot, mutate) -> bool:
        """Mutate the data region, check its version moved, restore, and
        report whether the restore put the snapshot's words back."""
        memory.restore(snapshot)
        before = memory.data.version
        mutate()
        assert memory.data.version != before
        memory.restore(snapshot)
        return memory.data.words == [0] * len(memory.data.words)

    def test_write_and_corrupt_force_a_rewrite(self):
        memory = MemoryMap()
        snapshot = memory.snapshot()
        base = memory.layout.data_base
        assert self._rewritten(
            memory, snapshot, lambda: memory.write_data_word(base, 0xAB)
        )
        assert self._rewritten(
            memory, snapshot, lambda: memory.corrupt_word_bit(base, 5)
        )

    def test_poke_forces_a_rewrite(self):
        memory = MemoryMap()
        snapshot = memory.snapshot()
        base = memory.layout.data_base
        assert self._rewritten(memory, snapshot, lambda: memory.poke(base, 0xCD))

    def test_inline_miss_paths_force_a_rewrite(self):
        # The inline dispatch loop's flattened miss paths write dirty
        # victims back straight into the region's lists.
        memory = MemoryMap()
        snapshot = memory.snapshot()
        base = memory.layout.data_base
        cache = cache_module.DataCache()
        tag, index = cache_module.split_address(base)
        other = cache_module.line_address(tag + 1, index)

        def dirty_line() -> None:
            cache.valid[index] = cache.dirty[index] = 1
            cache.tags[index] = tag
            cache.data[index] = 0xEF

        def read_miss() -> None:
            dirty_line()
            _miss_read(cache, memory, other, index, tag + 1)

        def write_miss() -> None:
            dirty_line()
            _miss_write(cache, memory, other, 1, index, tag + 1)

        assert self._rewritten(memory, snapshot, read_miss)
        assert self._rewritten(memory, snapshot, write_miss)
