"""Every exact-mode subcommand on the built-in algebras and r-matrices,
compared byte for byte (stdout and exit code) with a frozen file.

Regenerate the file (only for an intended output change) with
    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_exact.txt
"""

import contextlib
import io
import os

from postlie.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_exact.txt")
ALGEBRAS = ("sl(2)", "so(3)", "gl(2)", "gl(3)", "upper_lower_split(3)")
# each built-in r-matrix with a point of its algebra
RMATRICES = (
    ("sl2-borel", "1,-1/2,2"),
    ("split2", "1/3,1,-2,1/2"),
    ("sl2-id", "1,2,-1"),
)


def invocations():
    for name in ALGEBRAS:
        yield ["check-algebra", "--builtin", name]
        yield ["check-algebra", "--builtin", name, "--json"]
    for name, x in RMATRICES:
        yield ["check-rmatrix", "--builtin", name]
        yield ["check-rmatrix", "--builtin", name, "--json"]
        for sign in "+-":
            yield ["check-postlie", "--builtin", name, "--sign", sign]
            yield ["check-postlie", "--builtin", name, "--sign", sign, "--json"]
        for method in ("star", "ode"):
            yield ["magnus", "--builtin", name, "--x", x, "--method", method]
            yield ["magnus", "--builtin", name, "--x", x, "--method", method, "--json"]
        yield ["hopf-suite", "--builtin", name, "--cases", "5"]
    for n in range(1, 9):
        yield ["bell", "--n", str(n)]


def cli_outputs():
    out = []
    for argv in invocations():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        out.append("$ postlie %s\nexit %d\n%s" % (" ".join(argv), code, stdout.getvalue()))
    return "".join(out)


def test_exact_cli_output_matches_the_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        assert cli_outputs() == fh.read()


if __name__ == "__main__":
    print(cli_outputs(), end="")
