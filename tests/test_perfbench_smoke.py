"""The benchmark's smoke run against this tree.

perfbench calls library names of its own (``transition_matrix``,
``TransitionMatrix.beta``, ``PointerConfig.uniform``, ``thread_cap``,
``reconstruct_mixed_bbasis``); a change that retires one breaks the
benchmark, and this test says so before a benchmark run does.  Each run
takes about 2 s and writes only under the git-ignored ``.perfbench_out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_perfbench_smoke_is_correct(trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke", "--trace", trace],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), proc.stdout
