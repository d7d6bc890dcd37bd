"""Consensus under another floating-point machine.

OpenBLAS builds with DYNAMIC_ARCH pick their kernels when the library loads,
and OPENBLAS_CORETYPE forces another one. A child process hashes the same
texts under the Prescott core (which loads the Katmai kernels): its
statevectors round differently, yet every proof hash must stay the same,
through qpow_hash and through the batched prove_many alike.
"""
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qpow.chain import prove, prove_many, qpow_hash

TESTS = Path(__file__).resolve().parent
TEXTS = {n: [f"cross kernel {n} {i}" for i in range(count)]
         for n, count in ((4, 100), (8, 100), (12, 60), (14, 20), (17, 8))}
FORCED_CORES = ("Prescott", "Katmai")

CHILD = "import json; from test_cross_kernel import TEXTS, hashes; print(json.dumps(hashes(TEXTS)))"


def hashes(texts: dict) -> dict:
    out = {}
    for n, items in texts.items():
        n, items = int(n), [text.encode() for text in items]
        out[str(n)] = {
            "qpow_hash": [qpow_hash(text, n).hex() for text in items],
            "prove_many": [h2.hex() for h2 in prove_many(items, n)],
            "states": [hashlib.sha256(prove(text, n).state.tobytes()).hexdigest()
                       for text in items],
        }
    return out


def test_proof_hashes_survive_another_blas_kernel():
    path = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", OPENBLAS_VERBOSE="2",
               PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    core = re.search(r"Core: (\w+)", proc.stdout + proc.stderr)
    if core is None or core.group(1) not in FORCED_CORES:
        pytest.skip(f"OpenBLAS did not load the forced core (reported "
                    f"{core.group(1) if core else 'no core'})")
    child = json.loads(proc.stdout.splitlines()[-1])
    parent = hashes(TEXTS)
    for n in parent:
        assert child[n]["qpow_hash"] == parent[n]["qpow_hash"], n
        assert child[n]["prove_many"] == parent[n]["prove_many"] == parent[n]["qpow_hash"], n
    # The switch took effect: some statevector rounds differently.
    assert any(a != b for n in parent for a, b in zip(child[n]["states"], parent[n]["states"]))

