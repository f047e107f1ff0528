"""Golden access-trace fixture for the recording reference run.

``golden_access_trace.json`` holds SHA-256 digests of what a recording
reference run (``run_reference(record_access=True)``) produces for
Algorithm I and Algorithm II at a short, fixed iteration count: the
canonicalised per-element access traces behind the liveness map, the
boundary-hash sequence and the instruction count.  The digests were
taken from the traced decode-and-branch interpreter, which recorded
every access through the ``AccessRecorder`` hook methods, so the
fixture pins the def/use trace independently of any live baseline code.

Both recording paths must reproduce every digest: the predecoded
recording loop (the default) and the traced interpreter, which a no-op
trace hook selects.

Regenerate only from a commit whose recorded traces are known good::

    PYTHONPATH=src python tests/test_access_trace_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.goofi.target import TargetSystem
from repro.workloads import compile_algorithm_i, compile_algorithm_ii

FIXTURE = Path(__file__).with_name("golden_access_trace.json")
ITERATIONS = 60
_COMPILERS = {"I": compile_algorithm_i, "II": compile_algorithm_ii}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_traces(traces) -> bytes:
    """Key-sorted JSON of ``{(partition, element): [(now, write, mask,
    value), ...]}``; the dict's insertion order carries no meaning."""
    rows = sorted(
        [partition, element, [list(entry) for entry in trace]]
        for (partition, element), trace in traces.items()
    )
    return json.dumps(rows, separators=(",", ":")).encode()


def _trace_nothing(_entry) -> None:
    """Attaching any trace hook selects the traced interpreter."""


def recorded_digests(algorithm: str, traced: bool) -> dict:
    target = TargetSystem(_COMPILERS[algorithm](), iterations=ITERATIONS)
    if traced:
        target.cpu.trace_hook = _trace_nothing
    reference = target.run_reference(record_access=True)
    return {
        "traces": _sha256(canonical_traces(target.liveness._traces)),
        "hashes": _sha256(b"".join(reference.hashes)),
        "total_instructions": _sha256(str(reference.total_instructions).encode()),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("traced", [False, True], ids=["fast", "traced"])
@pytest.mark.parametrize("algorithm", ["I", "II"])
def test_recording_reproduces_golden_digests(golden, algorithm, traced):
    assert golden["iterations"] == ITERATIONS
    assert recorded_digests(algorithm, traced) == golden[algorithm]


def _regenerate() -> None:
    fixture = {"iterations": ITERATIONS}
    for algorithm in _COMPILERS:
        fixture[algorithm] = recorded_digests(algorithm, traced=True)
    FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
