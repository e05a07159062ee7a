"""The narrative scripts in demos/ run to completion; some assert library results."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The oracle demo prints statuses, Newton step counts and fixed-format weights only, so no
# BLAS rounding can show in its bytes: two face-reach rows (p1 = 0.8 and 1.0), a Feasible on
# a face (the last row) and full-rank rows.
STDOUT_DIGESTS = {"oracle_cross_check.py": "fc58971f8b768520da4438cc9a4bedce0cb6a9f41bf0c86984fcc9c9c9395eff"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    if demo.name in STDOUT_DIGESTS:
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_DIGESTS[demo.name]
