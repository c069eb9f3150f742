"""The bits of a short default-size run, against a committed record.

``tools/record_golden.py`` trains, parses and checks gradients in a fixed
way and prints sha256 digests of what comes out; ``tests/data/golden.json``
holds the record it wrote.  Any change to rounding anywhere on those paths
moves a digest, so it shows in the change that makes it: re-record with
``python3 tools/record_golden.py`` and report the change with dev LAS and
conj Rel+Att F1 before and after.
"""

import json
import os
import subprocess
import sys

from conftest import REPO

RECORDER = REPO / "tools" / "record_golden.py"
GOLDEN = REPO / "tests" / "data" / "golden.json"


def test_a_fixed_run_keeps_its_recorded_bits():
    # Model bits depend on the BLAS thread count, so the child fixes it
    # before numpy loads.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, str(RECORDER), "--print"], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == json.loads(GOLDEN.read_text())
