"""Smoke tests: each script in scripts/ runs end to end on small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_classify_sweep_script():
    result = _run_script("classify_sweep.py", "--count", "50")
    assert result.returncode == 0, result.stderr
    assert "elements                 50" in result.stdout
    assert "max word residual" in result.stdout
    gap = next(line for line in result.stdout.splitlines() if line.startswith("max pitch disagreement"))
    assert float(gap.split()[-1]) < 1e-9


def test_scripts_reject_sizes_below_one():
    for name, flag, value, message in (
        ("classify_sweep.py", "--count", "-3", "--count must be at least 1"),
        ("classify_sweep.py", "--seed", "-1", "--seed must be a nonnegative integer"),
    ):
        result = _run_script(name, flag, value)
        assert result.returncode == 2
        assert result.stdout == ""
        assert message in result.stderr


# each script runs to completion under runpy, then the process counts its
# threads: OpenBLAS starts its pool when numpy is imported
_COUNT_THREADS = """
import os, runpy, sys
sys.argv = sys.argv[1:]
try:
    runpy.run_path(sys.argv[0], run_name="__main__")
except SystemExit:
    pass
print("threads", len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task")
@pytest.mark.parametrize(
    "name, args",
    [
        ("classify_sweep.py", ["--count", "50"]),
    ],
)
def test_scripts_run_numpy_on_one_thread(tmp_path, name, args):
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _COUNT_THREADS, str(ROOT / "scripts" / name), *args],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "threads 1"
