"""Smoke tests: each script in scripts/ runs end to end on small sizes."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_hyperplane_scan_script():
    result = _run_script("hyperplane_scan.py", "--samples", "1000")
    assert result.returncode == 0, result.stderr
    assert "closed hyperplane    none" in result.stdout
    assert "residual floor" in result.stdout
    assert "covectors per s" in result.stdout


def test_classify_sweep_script():
    result = _run_script("classify_sweep.py", "--count", "50")
    assert result.returncode == 0, result.stderr
    assert "elements                 50" in result.stdout
    assert "max word residual" in result.stdout
    gap = next(line for line in result.stdout.splitlines() if line.startswith("max pitch disagreement"))
    assert float(gap.split()[-1]) < 1e-9


def test_run_claims_script_reports_the_expected_discrepancies(tmp_path):
    out = tmp_path / "report.json"
    result = _run_script("run_claims.py", "--samples", "1000", "--out", str(out))
    # exit 1 means "discrepancy found": the five known ones
    assert result.returncode == 1, result.stderr
    assert "5 discrepancies" in result.stdout
    assert out.exists()


def test_scripts_reject_sizes_below_one():
    for name, flag, value in (("classify_sweep.py", "--count", "-3"), ("hyperplane_scan.py", "--samples", "-1")):
        result = _run_script(name, flag, value)
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"{flag} must be at least 1" in result.stderr
