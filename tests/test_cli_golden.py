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
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from se3sym.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_stdout.json"

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


if __name__ == "__main__":
    outputs = {" ".join(argv): _stdout(argv) for argv in COMMANDS}
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
