"""Importing bandcross first leaves BLAS on one thread.

Each check runs in a fresh interpreter: OpenBLAS reads
OPENBLAS_NUM_THREADS once, when numpy or scipy loads it, and this test
process has loaded numpy long before.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# bandcross before numpy, then one batched eigh through each of numpy's and
# scipy's bundled OpenBLAS
SCRIPT = """
import json, os
import bandcross
import numpy as np
import scipy.linalg
a = np.random.default_rng(0).standard_normal((64, 31, 31))
np.linalg.eigh(a + a.transpose(0, 2, 1))
scipy.linalg.eigh(a[0] + a[0].T)
tasks = (len(os.listdir("/proc/self/task"))
         if os.path.isdir("/proc/self/task") else None)
print(json.dumps({"blas": os.environ["OPENBLAS_NUM_THREADS"],
                  "tasks": tasks}))
"""


def run_fresh(exported):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    if exported is not None:
        env["OPENBLAS_NUM_THREADS"] = exported
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("exported", [None, ""], ids=["unset", "empty"])
def test_blas_runs_one_thread(exported):
    seen = run_fresh(exported)
    assert seen["blas"] == "1"
    if seen["tasks"] is None:
        pytest.skip("no /proc/self/task to count native threads")
    assert seen["tasks"] == 1


def test_exported_value_is_kept():
    assert run_fresh("3")["blas"] == "3"
