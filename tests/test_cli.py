"""In-process tests of the command-line front end: exit codes, golden
output, JSON reports, and error paths for every subcommand."""

import json
import os
import random
import re
import signal
import warnings

import pytest

from postlie import magnus, products, rmatrix
from postlie.cli import build_parser, main
from postlie.errors import NonConvergentSeries

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run(capsys, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergentSeries)
        code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_error(capsys, *argv):
    """Exit code and stderr of an invocation that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("argv,unread", [
    (["bell", "--n", "3"], ["--json"]),
    (["flow", "--toda", "2", "--offdiag", "0.1"], ["--json"]),
    (["check-algebra", "--builtin", "sl(2)"], ["--rmatrix", "f"]),
    (["magnus", "--builtin", "sl2-borel", "--x", "1,0,1"], ["--seed", "1"]),
    (["hopf-suite", "--builtin", "sl2-borel"], ["--t1", "2"]),
    (["magnus", "--builtin", "sl2-borel", "--x", "1,0,1"], ["--mode", "exact"]),
    (["check-algebra", "--builtin", "sl(2)"], ["--tolerance", "1e-9"]),
    (["check-rmatrix", "--builtin", "split2"], ["--tolerance", "1e-9"]),
    (["factorize", "--builtin", "split2", "--x", "0,0.3,0,0.3"], ["--tolerance", "1e-9"]),
], ids=lambda v: v[0])
def test_unread_flag_rejected(capsys, argv, unread):
    # a subcommand takes only the flags it reads; the zero tolerance of a
    # float-mode algebra is the library constant, so only flow reads
    # --tolerance (as its truncation tolerance)
    code, err = parse_error(capsys, *argv, *unread)
    assert code == 2
    assert "error: unrecognized arguments: %s\n" % " ".join(unread) in err


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
CONTEXT_FLAGS = {"--builtin", "--algebra", "--rmatrix"}
PRODUCT_FLAGS = CONTEXT_FLAGS | {"--product"}


def _readme_flag_table():
    """{subcommand: flags} from the README table; the words context and
    product stand for the flags the README defines them by."""
    with open(README, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = {}
    for line in lines:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 2 or not re.fullmatch(r"`[a-z-]+`", cells[0]):
            continue
        code = re.findall(r"`([^`]*)`", cells[1])
        flags = {c.split()[0] for c in code if c.startswith("--")}
        words = set(re.findall(r"\b(context|product)\b", re.sub(r"`[^`]*`", "", cells[1])))
        if "context" in words:
            flags |= CONTEXT_FLAGS
        if "product" in words:
            flags |= PRODUCT_FLAGS
        rows[cells[0].strip("`")] = flags
    return rows


def test_readme_flag_table_matches_parser():
    # the README lists each subcommand's flags; a flag added to or removed
    # from the parser must be added to or removed from the table too
    subparsers = build_parser()._subparsers._group_actions[0].choices
    parsed = {
        name: {s for a in sub._actions for s in a.option_strings if s.startswith("--")}
        - {"--help"}
        for name, sub in subparsers.items()
    }
    assert _readme_flag_table() == parsed
    assert sum(map(len, parsed.values())) == 55


# ---------------------------------------------------------------------------
# check-algebra


def test_check_algebra_builtin_ok(capsys):
    code, out, _ = run(capsys, "check-algebra", "--builtin", "sl(2)")
    assert code == 0
    assert out.startswith("ok:")
    assert "e, h, f" in out


def test_check_algebra_gl3(capsys):
    code, out, _ = run(capsys, "check-algebra", "--builtin", "gl(3)")
    assert code == 0
    assert "dim 9" in out


def test_check_algebra_corrupted_structure(capsys, tmp_path):
    # [[a,b],c] + [[b,c],a] + [[c,a],b] = 0 - c + b, a genuine Jacobi failure
    bad = {
        "dim": 3,
        "labels": ["a", "b", "c"],
        "structure": [[0, 1, 2, "1"], [0, 2, 2, "1"], [1, 2, 1, "1"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "check-algebra", "--algebra", str(path))
    assert code == 1
    assert "Jacobi" in out


@pytest.mark.parametrize("defect, code", [(5e-10, 1), (5e-11, 0)])
def test_float_check_uses_the_one_zero_tolerance(capsys, tmp_path, defect, code):
    # [a,b] = d c and [b,c] = b leave the Jacobi defect -d c on (a, b, c):
    # a float-mode algebra accepts it only within scalars.TOLERANCE = 1e-10
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"dim": 3, "structure": [[0, 1, 2, defect], [1, 2, 1, 1]]}))
    got, out, _ = run(capsys, "check-algebra", "--algebra", str(path), "--mode", "float")
    assert got == code
    assert out.startswith("FAIL: Jacobi identity fails" if code else "ok:")


def test_check_algebra_missing_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "check-algebra", "--algebra", str(tmp_path / "nope.json")
    )
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize(
    "realization", [{}, {"matrices": 5}], ids=["no-matrices", "matrices-int"]
)
def test_check_algebra_malformed_realization(capsys, tmp_path, realization):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 2, "structure": [], "realization": realization}))
    code, out, err = run(capsys, "check-algebra", "--algebra", str(path))
    assert code == 2 and out == ""
    assert err.startswith("input error: %s: malformed algebra JSON: " % path)


@pytest.mark.parametrize("basis", [5, "efh", None, {"e": 0}], ids=["int", "str", "null", "object"])
def test_check_algebra_basis_that_is_not_a_list_rejected(capsys, tmp_path, basis):
    # the labels were read one by one outside the malformed-JSON check: 5
    # ended in a TypeError traceback and "efh" passed as the labels e, f, h
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 3, "basis": basis, "structure": []}))
    code, out, err = run(capsys, "check-algebra", "--algebra", str(path))
    assert code == 2 and out == ""
    assert err == "input error: %s: malformed algebra JSON: basis: %r is not a list of labels\n" % (
        path, basis)


@pytest.mark.parametrize("basis,message", [
    ([1, None, {"a": [2]}], "malformed algebra JSON: basis: label 1 is not a string"),
    (["e", None, "f"], "malformed algebra JSON: basis: label None is not a string"),
    (["e", "f", "e"], "basis label 'e' is repeated"),
], ids=["int", "null", "repeated"])
def test_check_algebra_bad_label_rejected(capsys, tmp_path, basis, message):
    # a label that is not a string was printed as its repr, and a repeated
    # label rendered two letters alike, both with exit code 0
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 3, "basis": basis, "structure": []}))
    code, out, err = run(capsys, "check-algebra", "--algebra", str(path))
    assert code == 2 and out == ""
    assert err == "input error: %s: %s\n" % (path, message)


@pytest.mark.parametrize("argv,text,message", [
    (["check-algebra", "--algebra", "FILE"], '{"dim": 3, "basis": ["e", "f"], "structure": []}',
     "need exactly 3 basis labels"),
    (["check-postlie", "--builtin", "sl(2)", "--product", "FILE"], '{"dim": 2, "product": []}',
     "product file has dim 2, algebra has 3"),
])
def test_dimension_mismatch_in_a_file_names_it(capsys, tmp_path, argv, text, message):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == 2 and out == ""
    assert err == "input error: %s: %s\n" % (path, message)


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "check-algebra", "--builtin", "e8")
    assert code == 2
    assert "input error" in err


# ---------------------------------------------------------------------------
# check-rmatrix / check-postlie


@pytest.mark.parametrize("name", ["sl2-borel", "split2", "sl2-id"])
def test_check_rmatrix_builtins(capsys, name):
    code, out, _ = run(capsys, "check-rmatrix", "--builtin", name)
    assert code == 0
    assert "ok" in out


def test_check_rmatrix_json_report(capsys):
    code, out, _ = run(capsys, "check-rmatrix", "--builtin", "split2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["pm_identities_ok"] is True
    assert rep["subalgebra_analysis"]["subalgebras_ok"] is True


SL2_JSON = {
    "dim": 3,
    "basis": ["e", "h", "f"],
    "structure": [[0, 1, 0, "-2"], [0, 2, 1, "1"], [1, 2, 2, "-2"]],
}


def check_rmatrix_file(capsys, tmp_path, rmatrix_data, *extra):
    algebra = tmp_path / "sl2.json"
    algebra.write_text(json.dumps(SL2_JSON))
    rfile = tmp_path / "r.json"
    rfile.write_text(json.dumps(rmatrix_data))
    return run(
        capsys, "check-rmatrix", "--algebra", str(algebra), "--rmatrix", str(rfile),
        *extra,
    )


@pytest.mark.parametrize(
    "data",
    [
        {"plus": [0, 1], "minus": [2]},
        {"theta": "1", "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]},
    ],
    ids=["splitting", "matrix"],
)
def test_check_rmatrix_file_ok(capsys, tmp_path, data):
    code, out, _ = check_rmatrix_file(capsys, tmp_path, data)
    assert code == 0
    assert out.startswith("ok: (modified) Yang-Baxter equation holds")
    assert "subalgebras ok: True; ideals ok: True" in out


def test_check_rmatrix_file_yang_baxter_failure(capsys, tmp_path):
    data = {"theta": "1", "matrix": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}
    code, out, _ = check_rmatrix_file(capsys, tmp_path, data)
    assert code == 1
    assert out.startswith("FAIL: Yang-Baxter defect 2.0 at basis pair (1, 2)")
    code, out, _ = check_rmatrix_file(capsys, tmp_path, data, "--json")
    assert code == 1
    rep = json.loads(out)
    assert rep["ok"] is False and rep["worst_pair"] == [1, 2]


@pytest.mark.parametrize(
    "data",
    [{"theta": "1"}, [[1, 0, 0], [0, 1, 0], [0, 0, -1]]],
    ids=["no-matrix", "list"],
)
def test_check_rmatrix_file_malformed(capsys, tmp_path, data):
    code, _, err = check_rmatrix_file(capsys, tmp_path, data)
    assert code == 2
    assert "malformed r-matrix JSON" in err


SL2_INDEX_TYPOS = '{"dim": 3, "structure": [[0, 1.9, 0, -2], [0, 2, 1, 1], [true, 2, 2, -2]]}'
INDEX_FILES = {
    # subcommand, {file name: text} with SL2 for an exact sl(2) algebra file,
    # argv with file names for their paths, and the message with {name} for
    # the path of the file it names
    "algebra-entries": (
        "check-algebra", {"a": SL2_INDEX_TYPOS}, ["--algebra", "a"],
        "{a}: malformed algebra JSON: [0, 1.9, 0, -2]: 1.9 is not an integer",
    ),
    "algebra-bool": (
        "check-algebra", {"a": SL2_INDEX_TYPOS.replace("1.9", "1")}, ["--algebra", "a"],
        "{a}: malformed algebra JSON: [True, 2, 2, -2]: True is not an integer",
    ),
    "algebra-string": (
        "check-algebra", {"a": '{"dim": 2, "structure": [[0, "1", 1, 1]]}'}, ["--algebra", "a"],
        "{a}: malformed algebra JSON: [0, '1', 1, 1]: '1' is not an integer",
    ),
    "algebra-dim": (
        "check-rmatrix",
        {"a": json.dumps(dict(SL2_JSON, dim=3.7)), "r": '{"plus": [0, 1], "minus": [2]}'},
        ["--algebra", "a", "--rmatrix", "r"],
        "{a}: malformed algebra JSON: dim: 3.7 is not an integer",
    ),
    "rmatrix": (
        "check-rmatrix", {"a": "SL2", "r": '{"plus": [0, 1.5], "minus": [2.9]}'},
        ["--algebra", "a", "--rmatrix", "r"],
        "{r}: plus: 1.5 is not an integer",
    ),
    "rmatrix-bool": (
        "check-rmatrix", {"a": "SL2", "r": '{"plus": [0, 1], "minus": [true]}'},
        ["--algebra", "a", "--rmatrix", "r"],
        "{r}: minus: True is not an integer",
    ),
    "product-entries": (
        "check-postlie", {"a": "SL2", "p": '{"dim": 3, "product": [[0, 1, 2.0, 1]]}'},
        ["--algebra", "a", "--product", "p"],
        "{p}: malformed product JSON: [0, 1, 2.0, 1]: 2.0 is not an integer",
    ),
    "product-dim": (
        "check-postlie", {"a": "SL2", "p": '{"dim": 3.0, "product": []}'},
        ["--algebra", "a", "--product", "p"],
        "{p}: malformed product JSON: dim: 3.0 is not an integer",
    ),
}


@pytest.mark.parametrize("kind", sorted(INDEX_FILES))
def test_index_that_is_not_an_int_in_a_file_rejected(capsys, tmp_path, kind):
    # a dimension or an index is taken as written: int() used to read 1.9 as
    # 1, 3.7 as 3 and true as 1, so an sl(2) file with two such typos passed
    # check-algebra, and {"plus": [0, 1.5], "minus": [2.9]} passed as sl2-borel
    command, files, argv, message = INDEX_FILES[kind]
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / ("%s.json" % name)
        paths[name].write_text(json.dumps(SL2_JSON) if text == "SL2" else text)
    code, out, err = run(capsys, command, *[str(paths.get(a, a)) for a in argv])
    assert code == 2 and out == ""
    assert err == "input error: %s\n" % message.format(**paths)


NON_FINITE_FILES = {
    # subcommand, file text with LIT for the literal, argv with FILE for the
    # file and SL2 for an exact sl(2) algebra file
    "algebra": (
        "check-algebra", '{"dim": 3, "structure": [[0, 1, 2, LIT], [1, 2, 1, 1]]}',
        ["--algebra", "FILE", "--mode", "float"],
    ),
    "rmatrix": (
        "check-rmatrix", '{"theta": 1, "matrix": [[LIT, 0, 0], [0, 1, 0], [0, 0, -1]]}',
        ["--algebra", "SL2", "--rmatrix", "FILE", "--mode", "float"],
    ),
    "product": (
        "check-postlie", '{"dim": 3, "product": [[0, 1, 2, LIT]]}',
        ["--algebra", "SL2", "--product", "FILE"],
    ),
}


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("kind", sorted(NON_FINITE_FILES))
def test_non_finite_number_in_a_file_rejected(capsys, tmp_path, kind, literal):
    # json reads NaN and Infinity, and 1e400 as inf; a NaN r-matrix entry
    # used to give "FAIL: Yang-Baxter defect 0.0 at basis pair None"
    command, text, argv = NON_FINITE_FILES[kind]
    path = tmp_path / ("%s.json" % kind)
    path.write_text(text.replace("LIT", literal))
    algebra = tmp_path / "sl2.json"
    algebra.write_text(json.dumps(SL2_JSON))
    argv = [{"FILE": str(path), "SL2": str(algebra)}.get(a, a) for a in argv]
    code, out, err = run(capsys, command, *argv)
    assert code == 2 and out == ""
    assert err == "input error: %s: %s is not a finite number\n" % (path, literal)


@pytest.mark.parametrize("number", ["1" + "0" * 400, "1e400", "-1e400"],
                         ids=["int", "string", "negative-string"])
@pytest.mark.parametrize("kind", ["algebra", "rmatrix"])
def test_number_beyond_the_float_range_in_a_float_file_rejected(
    capsys, tmp_path, kind, number
):
    # a JSON integer, or a string, beyond the float range is read as a
    # number and fails only in its float conversion, which used to end in
    # an OverflowError traceback
    command, text, argv = NON_FINITE_FILES[kind]
    literal = number if number.isdigit() else '"%s"' % number
    path = tmp_path / ("%s.json" % kind)
    path.write_text(text.replace("LIT", literal))
    algebra = tmp_path / "sl2.json"
    algebra.write_text(json.dumps(SL2_JSON))
    argv = [{"FILE": str(path), "SL2": str(algebra)}.get(a, a) for a in argv]
    code, out, err = run(capsys, command, *argv)
    assert code == 2 and out == ""
    assert err == "input error: %s: %s is not a finite number\n" % (path, number)


@pytest.mark.parametrize("text", ["nan", "abc", "1/0"])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_text_that_is_no_number_in_a_file_rejected(capsys, tmp_path, mode, text):
    # a string entry is read as p/q, p or a decimal; other text used to be
    # reported without the file ("input error: Invalid literal for
    # Fraction: 'nan'"), and '1/0' ended in a ZeroDivisionError traceback
    path = tmp_path / "algebra.json"
    path.write_text(NON_FINITE_FILES["algebra"][1].replace("LIT", '"%s"' % text))
    code, out, err = run(capsys, "check-algebra", "--algebra", str(path), "--mode", mode)
    assert code == 2 and out == ""
    assert err == "input error: %s: %r is not a number (write p/q, p or a decimal)\n" % (
        path, text)


@pytest.mark.parametrize("literal, message", [
    ("null", {"exact": "exact mode rejects None (use int, Fraction or 'p/q')",
              "float": "float mode rejects None"}),
    ("true", {"exact": "booleans are not scalars", "float": "booleans are not scalars"}),
    ("1.5", {"exact": "exact mode rejects 1.5 (use int, Fraction or 'p/q')", "float": None}),
], ids=["null", "true", "1.5"])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_entry_the_mode_does_not_take_names_the_file(capsys, tmp_path, mode, literal, message):
    # a JSON entry that is no scalar of the mode is a ModeMismatch, which
    # names the file like the other number errors of the loaders
    path = tmp_path / "algebra.json"
    path.write_text(NON_FINITE_FILES["algebra"][1].replace("LIT", literal))
    code, out, err = run(capsys, "check-algebra", "--algebra", str(path), "--mode", mode)
    if message[mode] is None:  # 1.5 is a float-mode scalar: the file is read
        assert code == 1 and err == "" and out.startswith("FAIL: Jacobi identity")
    else:
        assert code == 2 and out == ""
        assert err == "input error: %s: %s\n" % (path, message[mode])


@pytest.mark.parametrize("argv", [
    ["check-rmatrix", "--builtin", "sl2-borel", "--rmatrix", "FILE"],
    ["magnus", "--builtin", "sl2-borel", "--algebra", "FILE", "--x", "1,0,1"],
    ["flow", "--builtin", "split2", "--algebra", "FILE", "--rmatrix", "FILE",
     "--x", "0.1,0.3,-0.1,0.3"],
])
def test_builtin_with_files_rejected(capsys, tmp_path, argv):
    # the file is a valid r-matrix that fails Yang-Baxter: it must not be
    # silently ignored in favour of the built-in
    rfile = tmp_path / "r.json"
    rfile.write_text(json.dumps({"theta": "1", "matrix": [[9] * 3] * 3}))
    code, out, err = run(capsys, *[str(rfile) if a == "FILE" else a for a in argv])
    assert code == 2 and out == ""
    assert "--builtin" in err and "--algebra with --rmatrix" in err


@pytest.mark.parametrize("argv,message", [
    (["check-postlie", "--algebra", "FILE", "--rmatrix", "FILE", "--product", "FILE"],
     "give either --product or --rmatrix, not both"),
    (["flow", "--toda", "2", "--offdiag", "0.3", "--builtin", "split2"],
     "--toda sets its own r-matrix and initial point"),
    (["flow", "--toda", "2", "--offdiag", "0.3", "--x", "1,1,1,1"],
     "--toda sets its own r-matrix and initial point"),
    (["flow", "--builtin", "split2", "--x", "0.1,0.3,-0.1,0.3", "--offdiag", "0.3"],
     "--diag and --offdiag need --toda"),
], ids=["product-rmatrix", "toda-builtin", "toda-x", "offdiag-without-toda"])
def test_ignored_input_rejected(capsys, tmp_path, argv, message):
    # an input the command would not use is an error, not silently dropped
    path = tmp_path / "any.json"
    path.write_text("{}")
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == 2 and out == ""
    assert message in err


def test_check_postlie_both_signs(capsys):
    code, out, _ = run(capsys, "check-postlie", "--builtin", "split2")
    assert code == 0
    assert "handedness: right" in out
    code, out, _ = run(capsys, "check-postlie", "--builtin", "split2", "--sign", "+")
    assert code == 0
    assert "handedness: left" in out


def _product_file(tmp_path, sign):
    """The product of sl2-borel for a sign, as a product file on sl(2)."""
    ctx = rmatrix.builtin_rmatrix("sl2-borel")
    path = tmp_path / ("product%s.json" % sign)
    path.write_text(json.dumps(products.product_to_json(products.from_rmatrix(ctx, sign))))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["magnus", "--x", "1,0,1", "--order", "3"],
    ["hopf-suite", "--cases", "3"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_sign_with_product_rejected(capsys, tmp_path, argv, sign):
    # magnus and hopf-suite take no --sign, with a product file or without
    base = [*argv, "--builtin", "sl(2)", "--product", _product_file(tmp_path, "-")]
    code, err = parse_error(capsys, *base, "--sign", sign)
    assert code == 2
    assert "error: unrecognized arguments: --sign %s\n" % sign in err
    code, out, _ = run(capsys, *base)
    assert code == 0 and out


def test_magnus_uses_the_right_handed_product(capsys):
    # the star lift and both recursions assume x |> y = [R_- x, y]; for
    # [R_+ x, y] the star and ode methods disagree at order 4, so magnus
    # has no --sign that could select it
    ctx = rmatrix.builtin_rmatrix("sl2-borel")
    chi = magnus.postlie_magnus(ctx.algebra, (1, 0, 1), products.from_rmatrix(ctx, "-"), 5)
    base = ("magnus", "--builtin", "sl2-borel", "--x", "1,0,1", "--order", "5", "--json")
    for method in ("star", "ode"):
        code, out, _ = run(capsys, *base, "--method", method)
        assert code == 0 and json.loads(out) == magnus.graded_to_json(chi)
    code, err = parse_error(capsys, *base, "--sign", "+")
    assert code == 2 and "unrecognized arguments: --sign +" in err


def test_check_postlie_reads_sign_with_product(capsys, tmp_path):
    # the + product is left post-Lie; --sign sets the default handedness
    base = ("check-postlie", "--builtin", "sl(2)", "--product", _product_file(tmp_path, "+"))
    code, out, _ = run(capsys, *base, "--sign", "+")
    assert code == 0 and "handedness: left" in out
    code, out, _ = run(capsys, *base)
    assert code == 1 and "handedness: right" in out


# ---------------------------------------------------------------------------
# magnus


def test_magnus_golden_output(capsys):
    code, out, _ = run(
        capsys, "magnus", "--builtin", "sl2-borel", "--x", "1,0,1", "--order", "5"
    )
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, "magnus_sl2_borel_order5.txt")) as fh:
        assert out == fh.read()


def test_magnus_is_deterministic(capsys):
    argv = ("magnus", "--builtin", "sl2-borel", "--x", "1,0,1", "--order", "4")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_magnus_ode_method_matches_default(capsys):
    base = ("magnus", "--builtin", "split2", "--x", "0,1,0,1", "--order", "5")
    _, star_out, _ = run(capsys, *base)
    code, ode_out, _ = run(capsys, *base, "--method", "ode")
    assert code == 0
    assert ode_out == star_out


def test_magnus_identity_r_returns_input(capsys):
    code, out, _ = run(
        capsys, "magnus", "--builtin", "sl2-id", "--x", "1,0,1", "--order", "3"
    )
    assert code == 0
    assert out.splitlines() == ["order 1: e + f", "order 2: 0", "order 3: 0"]


def test_magnus_json_output(capsys):
    code, out, _ = run(
        capsys, "magnus", "--builtin", "sl2-borel", "--x", "1,0,1",
        "--order", "3", "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["orders"][0] == ["1", "0", "1"]
    assert rep["orders"][1] == ["0", "-1/2", "0"]


def test_magnus_requires_exact_mode(capsys):
    code, err = parse_error(
        capsys, "magnus", "--builtin", "sl2-borel", "--x", "1,0,1",
        "--mode", "float",
    )
    assert code == 2
    assert "unrecognized arguments: --mode float" in err


def test_magnus_requires_x(capsys):
    code, _, err = run(capsys, "magnus", "--builtin", "sl2-borel")
    assert code == 2
    assert "input error" in err


def test_magnus_malformed_x(capsys):
    code, _, err = run(
        capsys, "magnus", "--builtin", "sl2-borel", "--x", "a,b,c"
    )
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("order", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["magnus", "--builtin", "sl2-borel", "--x", "1,0,1"],
    ["factorize", "--builtin", "sl2-borel", "--x", "0.3,0,0.3"],
    ["flow", "--toda", "2", "--offdiag", "0.1"],
    ["hopf-suite", "--builtin", "sl2-borel"],
], ids=lambda argv: argv[0])
def test_nonpositive_order_rejected(capsys, argv, order):
    code, out, err = run(capsys, *argv, "--order", order)
    assert code == 2
    assert out == ""
    assert "--order must be at least 1 (got %s)" % order in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "1/0"])
def test_nonfinite_x_rejected(capsys, value):
    code, _, err = run(
        capsys, "flow", "--builtin", "split2", "--x", "0,%s,0,1" % value
    )
    assert code == 2
    assert "--x entry 2 is not a finite number" in err


# ---------------------------------------------------------------------------
# factorize


def test_factorize_residual_drops_with_order(capsys):
    code, out, _ = run(
        capsys, "factorize", "--builtin", "sl2-borel", "--x", "0.3,0,0.3",
        "--order", "10",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("residual at order 10:")
    assert lines[1].startswith("residual at order 9:")
    vals = [float(line.split(":")[1]) for line in lines]
    assert vals[0] < 1e-6
    assert vals[0] < vals[1]


def test_factorize_identity_r_is_exact(capsys):
    code, out, _ = run(
        capsys, "factorize", "--builtin", "sl2-id", "--x", "0.4,0.1,-0.2",
        "--order", "6",
    )
    assert code == 0
    vals = [float(line.split(":")[1]) for line in out.strip().split("\n")]
    assert all(v < 1e-12 for v in vals)


def test_factorize_json_report(capsys):
    code, out, _ = run(
        capsys, "factorize", "--builtin", "split2", "--x", "0,0.3,0,0.3",
        "--order", "6", "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["order"] == 6
    assert rep["residual"] < rep["residual_previous_order"]


def theta_zero_files(tmp_path):
    """--algebra and --rmatrix flags of the theta = 0 context of sl(2) with
    R = [[-1,0,-1],[0,0,0],[-1,0,-1]], whose [R_- x, y] is not post-Lie."""
    algebra = tmp_path / "sl2.json"
    algebra.write_text(json.dumps(dict(SL2_JSON, realization={
        "size": 2, "matrices": [[[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]]],
    })))
    rfile = tmp_path / "r0.json"
    rfile.write_text(json.dumps({"theta": "0", "matrix": [[-1, 0, -1], [0, 0, 0], [-1, 0, -1]]}))
    return "--algebra", str(algebra), "--rmatrix", str(rfile)


@pytest.mark.parametrize("command", [["factorize"], ["flow", "--steps", "3"]])
def test_theta_zero_context_refused_by_flows(capsys, tmp_path, command):
    # both used to exit 0; factorize printed residuals 1.633e-04 at orders 8 and 7
    code, out, err = run(
        capsys, *command, *theta_zero_files(tmp_path), "--x", "0.1,0.2,0.3", "--order", "8",
    )
    assert code == 2 and out == ""
    assert err == "input error: flows need theta = 1 (got theta = 0.0)\n"


@pytest.mark.parametrize("method", ["star", "ode"])
def test_theta_zero_context_refused_by_magnus(capsys, tmp_path, method):
    # both used to exit 0, printing order 4 as 7/3*e - 7/6*h - 7/3*f by star
    # and 7/6*e - 7/12*h - 7/6*f by ode
    code, out, err = run(
        capsys, "magnus", *theta_zero_files(tmp_path), "--x", "1,2,3", "--order", "4",
        "--method", method,
    )
    assert code == 2 and out == ""
    assert err == "input error: magnus needs theta = 1 (got theta = 0)\n"


@pytest.mark.parametrize("command", [["check-postlie"], ["hopf-suite", "--cases", "5"]])
def test_theta_zero_context_fails_the_checks(capsys, tmp_path, command):
    # the checks still run on the theta = 0 product and report its failure
    code, out, _ = run(capsys, *command, *theta_zero_files(tmp_path))
    assert code == 1 and "FAIL" in out


@pytest.mark.parametrize("argv,message", [
    (["factorize", "--builtin", "sl2-borel", "--x", "1e200,1,1"],
     "the matrix exponential overflows"),
    (["flow", "--toda", "9", "--offdiag", "0.3,0.2,0.1,0.3,0.2,0.1,0.3,0.2",
      "--t1", "1e25", "--steps", "3"],
     "the matrix exponential of u(t) overflows at t=5e+24"),
], ids=["factorize", "flow"])
def test_matrix_exponential_overflow_rejected(capsys, argv, message):
    # rejected before NumPy warns: every warning is an error here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == "input error: %s\n" % message


def test_factorize_requires_float_mode(capsys):
    code, err = parse_error(
        capsys, "factorize", "--builtin", "sl2-borel", "--x", "1,0,1",
        "--mode", "exact",
    )
    assert code == 2
    assert "unrecognized arguments: --mode exact" in err


# ---------------------------------------------------------------------------
# flow


def test_flow_toda_csv_stdout(capsys):
    code, out, _ = run(
        capsys, "flow", "--toda", "2", "--diag", "0.1,-0.1", "--offdiag", "0.3",
        "--t1", "1", "--steps", "5", "--order", "8",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,x0,x1,x2,x3,eig1,eig2,F1,F2,eig_drift,trace_power_drift"
    assert len(lines) == 6
    assert all(float(row.split(",")[-2]) < 1e-9 for row in lines[1:])


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_flow_rejects_a_bad_tolerance(capsys, tolerance):
    # with --tolerance nan this flow used to exit 0 and warn of nothing,
    # though its truncation tail is about 6e3
    code, out, err = run(
        capsys, "flow", "--toda", "3", "--offdiag", "2,2", "--t1", "2", "--steps", "2",
        "--tolerance", tolerance,
    )
    assert code == 2 and out == ""
    assert "flow tolerance %r: it must be finite and >= 0" % float(tolerance) in err


def test_flow_toda_default_diag_is_zero(capsys):
    code, out, _ = run(
        capsys, "flow", "--toda", "2", "--offdiag", "1", "--t1", "0.5",
        "--steps", "3", "--order", "8", "--tolerance", "1",
    )
    assert code == 0
    first = out.strip().split("\n")[1].split(",")
    # x0 = E12 + E21: zero diagonal coordinates, unit off-diagonal ones
    assert [float(first[1]), float(first[2]), float(first[3]), float(first[4])] == [
        0.0, 1.0, 0.0, 1.0,
    ]


def test_flow_output_file(capsys, tmp_path):
    target = tmp_path / "toda.csv"
    code, out, _ = run(
        capsys, "flow", "--toda", "2", "--diag", "0.1,-0.1", "--offdiag", "0.3",
        "--t1", "1", "--steps", "5", "--order", "8", "--output", str(target),
    )
    assert code == 0
    assert "wrote 5 states" in out
    assert "max eigenvalue drift" in out
    assert target.read_text().startswith("t,x0,")


def test_flow_rk4_integrator(capsys):
    code, out, _ = run(
        capsys, "flow", "--toda", "2", "--diag", "0.1,-0.1", "--offdiag", "0.3",
        "--t1", "1", "--steps", "3", "--integrator", "rk4", "--step", "0.01",
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 4


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_flow_rk4_rejects_a_step_that_is_not_finite(capsys, step):
    # --step nan used to fail with "cannot convert float NaN to integer",
    # and --step inf exited 0 after one RK4 step per grid interval
    code, out, err = run(
        capsys, "flow", "--toda", "3", "--offdiag", "0.3,0.2", "--steps", "3",
        "--integrator", "rk4", "--step", step,
    )
    assert code == 2 and out == ""
    assert err == "input error: rk4 step %s: it must be finite and > 0\n" % step


def test_flow_rk4_rejects_a_step_over_the_substep_cap(capsys):
    # --step 1e-9 asked for 10^9 RK4 sub-steps and ran for hours
    code, out, err = run(
        capsys, "flow", "--toda", "3", "--offdiag", "0.3,0.2", "--steps", "3",
        "--integrator", "rk4", "--step", "1e-9",
    )
    assert code == 2 and out == ""
    assert err == "input error: rk4 step 1e-09 needs 1000000000 sub-steps, over 10^7\n"


def test_flow_explicit_initial_point(capsys):
    code, out, _ = run(
        capsys, "flow", "--builtin", "split2", "--x", "0.1,0.3,-0.1,0.3",
        "--t1", "0.5", "--steps", "3", "--order", "8",
    )
    assert code == 0
    assert out.startswith("t,x0,")


def test_flow_toda_requires_offdiag(capsys):
    code, _, err = run(capsys, "flow", "--toda", "2")
    assert code == 2
    assert "input error" in err


def test_flow_toda_needs_n_at_least_two(capsys):
    code, _, err = run(capsys, "flow", "--toda", "1", "--offdiag", "1")
    assert code == 2
    assert "n >= 2" in err


@pytest.mark.parametrize("flag,args", [
    ("--offdiag", ["--offdiag", "0.1,nan"]),
    ("--offdiag", ["--offdiag", "inf,0.1"]),
    ("--diag", ["--offdiag", "0.1,0.2", "--diag", "0,-inf,0"]),
    ("--diag", ["--offdiag", "0.1,0.2", "--diag", "nan,0,0"]),
])
def test_flow_toda_nonfinite_entries_rejected(capsys, flag, args):
    code, _, err = run(capsys, "flow", "--toda", "3", *args)
    assert code == 2
    assert "%s entry" % flag in err and "not a finite number" in err


def test_flow_nonfinite_expansion_rejected(capsys):
    code, out, err = run(
        capsys, "flow", "--toda", "3", "--diag", "0.1,0.2,-0.1", "--offdiag", "0.3,0.2",
        "--t1", "1e40", "--steps", "3",
    )
    assert code == 2 and out == ""
    assert err == "input error: the expansion u(t) is not finite at t=5e+39\n"


def test_flow_rejects_too_few_steps(capsys):
    code, _, err = run(
        capsys, "flow", "--toda", "2", "--offdiag", "0.1", "--steps", "0"
    )
    assert code == 2
    assert "--steps must be at least 2" in err


def test_flow_requires_x_or_toda(capsys):
    code, _, err = run(capsys, "flow", "--builtin", "split2")
    assert code == 2
    assert "input error" in err


def test_flow_rejects_exact_mode(capsys):
    code, err = parse_error(
        capsys, "flow", "--toda", "2", "--offdiag", "1", "--mode", "exact"
    )
    assert code == 2
    assert "unrecognized arguments: --mode exact" in err


def test_flow_tolerance_is_not_the_algebra_tolerance(capsys, tmp_path):
    # R = (11/10) I has Yang-Baxter defect 0.42 on sl(2); a loose truncation
    # tolerance must not let the flow accept it
    algebra = tmp_path / "sl2.json"
    algebra.write_text(json.dumps(dict(SL2_JSON, realization={
        "size": 2, "matrices": [[[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]]],
    })))
    rfile = tmp_path / "r.json"
    rfile.write_text(json.dumps({"theta": "1", "matrix": [
        ["11/10", "0", "0"], ["0", "11/10", "0"], ["0", "0", "11/10"],
    ]}))
    files = ("--algebra", str(algebra), "--rmatrix", str(rfile))
    code, out, _ = run(capsys, "check-rmatrix", *files, "--mode", "float")
    assert code == 1
    assert out.startswith("FAIL: Yang-Baxter defect 0.42")
    code, out, err = run(capsys, "flow", *files, "--x", "1,0,1", "--tolerance", "0.5")
    assert code == 2 and out == ""
    assert "does not solve the modified Yang-Baxter equation" in err
    code, out, _ = run(
        capsys, "flow", "--toda", "2", "--offdiag", "1", "--t1", "0.5", "--steps", "3",
        "--tolerance", "1",
    )
    assert code == 0 and out.startswith("t,x0,")


def test_flow_overflowed_state_rejected(capsys):
    # u(t) and its exponential stay finite, the flowed point's trace powers
    # do not: no row is written, and NumPy does not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "flow", "--toda", "3", "--offdiag", "0.3,0.2", "--t1", "1e12", "--steps", "3",
        ])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == (
        "input error: the flowed point or its trace powers are not finite at t=1e+12\n"
    )


# ---------------------------------------------------------------------------
# bell / hopf-suite


@pytest.mark.parametrize("n,count", [(1, 1), (3, 5), (6, 203)])
def test_bell_counts(capsys, n, count):
    code, out, _ = run(capsys, "bell", "--n", str(n))
    assert code == 0
    assert out.strip() == str(count)


class TooSlow(Exception):
    pass


def test_bell_30_is_counted_not_enumerated(capsys):
    # the Bell triangle counts 8.5e23 set partitions at once; enumerating
    # them would not finish, so an alarm ends the call after one second
    def alarm(signum, frame):
        raise TooSlow("bell --n 30 took more than a second")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, out, _ = run(capsys, "bell", "--n", "30")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0 and out == "846749014511809332450147\n"


def test_bell_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "bell", "--n", "0")
    assert code == 2
    assert "input error" in err


def test_hopf_suite_passes_and_prints_seed(capsys):
    code, out, _ = run(
        capsys, "hopf-suite", "--builtin", "sl2-borel", "--seed", "11",
        "--cases", "5",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("seed 11, 5 cases")
    checks = dict(line.split(": ") for line in lines[1:])
    assert set(checks) == {
        "coassociativity",
        "counit",
        "antipode",
        "coproduct_multiplicative",
        "star_antipode",
        "star_coproduct_multiplicative",
    }
    assert all(v == "ok" for v in checks.values())


def test_hopf_suite_json_and_determinism(capsys):
    argv = (
        "hopf-suite", "--builtin", "split2", "--seed", "7", "--cases", "4",
        "--json",
    )
    code, out, _ = run(capsys, *argv)
    assert code == 0
    body = out[out.index("{"):]
    rep = json.loads(body)
    assert rep["ok"] is True and rep["seed"] == 7
    assert not any(rep["failures"].values())
    assert run(capsys, *argv) == (code, out, "")


def test_hopf_suite_reports_failures(capsys, tmp_path):
    # a random integer product on sl(2) is not post-Lie: its star product is
    # not associative, and the star antipode fails on some cases
    rng = random.Random(0)
    entries = [[i, j, k, rng.randint(-2, 2)]
               for i in range(3) for j in range(3) for k in range(3)]
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"dim": 3, "product": entries}))
    argv = ("hopf-suite", "--builtin", "sl(2)", "--product", str(path),
            "--order", "4", "--cases", "10")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.splitlines() == [
        "seed 0, 10 cases, words of length <= 4, truncation order 4",
        "coassociativity: ok",
        "counit: ok",
        "antipode: ok",
        "coproduct_multiplicative: ok",
        "star_antipode: FAIL (5 cases)",
        "star_coproduct_multiplicative: ok",
    ]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    rep = json.loads(out[out.index("{"):])
    assert rep["ok"] is False
    assert rep["failures"] == {
        "coassociativity": 0, "counit": 0, "antipode": 0,
        "coproduct_multiplicative": 0, "star_antipode": 5,
        "star_coproduct_multiplicative": 0,
    }


@pytest.mark.parametrize(
    "flag, value", [("--cases", "0"), ("--cases", "-1"), ("--degree", "-2")]
)
def test_hopf_suite_rejects_bad_counts(capsys, flag, value):
    code, out, err = run(capsys, "hopf-suite", "--builtin", "sl2-borel", flag, value)
    assert code == 2
    assert out == ""
    assert "input error: %s must be at least" % flag in err
