"""Golden stdout of the subcommands that print exact objects.

Pins, byte for byte, `table` in both formats, `adjoint` for every generator
with and without a parameter, and `prolong` for named and parsed fields.
The records behind them and the coefficient types of the polynomial core
must not change a single character of what users see.

Regenerate (only when an output is meant to change) with
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

from se3sym.cli import main
from test_claims import GOLDEN as CLAIMS_GOLDEN, _assert_matches_golden

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_stdout.json"
SRC = Path(__file__).resolve().parent.parent / "src"

FIELDS = ["X1", "X4", "X6", "dilation", "x^2-y^2-z^2;2*x*y;2*x*z;-x*u", "1/2*x;y;z;3/4*u"]

COMMANDS = (
    [["table", "--format", "csv"], ["table", "--format", "json"]]
    + [["adjoint", "--gen", str(i)] for i in range(1, 7)]
    + [["adjoint", "--gen", str(i), "--param", "0.7"] for i in range(1, 7)]
    + [["prolong", "--field", spec] for spec in FIELDS]
)


def _stdout(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(argv)
    assert status == 0
    return buffer.getvalue()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_stdout_matches_golden(argv):
    assert _stdout(argv) == json.loads(GOLDEN.read_text())[" ".join(argv)]


# numpy picks its SIMD kernels by CPU when it is imported, and this
# switches off the AVX-512 ones, as on a CPU without them
_WITHOUT_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

_RUN_ALL = """
import io, json, sys
from contextlib import redirect_stdout
from numpy._core._multiarray_umath import __cpu_features__
from se3sym.cli import main
assert not any(__cpu_features__[f] for f in ("AVX512_SKX", "AVX512_ICL", "AVX512_SPR"))
outputs = {}
for argv in json.loads(sys.argv[1]):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(argv)
    outputs[" ".join(argv)] = [status, buffer.getvalue()]
print(json.dumps(outputs))
"""


@pytest.mark.skipif(
    not __cpu_features__["AVX512F"], reason="numpy already runs without AVX-512 kernels here"
)
def test_goldens_hold_without_avx512_kernels():
    """The default check-claims report and every command above print the
    same goldens when numpy runs without its AVX-512 kernels."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=_WITHOUT_AVX512)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argvs = [["check-claims"]] + COMMANDS
    result = subprocess.run(
        [sys.executable, "-c", _RUN_ALL, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    outputs = json.loads(result.stdout)
    # exit status 1: the report lists the known discrepancies
    status, report = outputs.pop("check-claims")
    assert status == 1
    _assert_matches_golden(json.loads(report), json.loads(CLAIMS_GOLDEN.read_text()))
    assert outputs == {argv: [0, out] for argv, out in json.loads(GOLDEN.read_text()).items()}


if __name__ == "__main__":
    outputs = {" ".join(argv): _stdout(argv) for argv in COMMANDS}
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
