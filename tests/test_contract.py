"""The command-line contract: what every run may and may not write.

Five kinds of check live here.  The module boundary check reads the source:
no module of the package imports or uses a private name of another.  The
model error checks feed malformed model files to the model commands, each of
which must exit 2 with one `error: <path>: ` line and no traceback.  The
output checks pin what the reports promise: the model commands load no
NumPy, a JSON report is canonical JSON, a CRLF copy of a model reports as
its LF file, `series` at its order bound is exact and one past it is
refused, and the sampled reductions of two paths at full size equal
`math.fsum`.  The scale checks run the power-set lattice on six atoms: it
round-trips byte for byte and passes every record, and one bad leg, one
repeated square or one dropped composite among its thousands of rows is
named exactly.  The generative check draws the argv of the commands that
take no model (and of the cone check, on a bundled model), with float flags
at the extremes of the float range and seeds at the ends of theirs: each run
exits 0, 1 or 2; an exit 2 writes nothing to stdout and one error line to
stderr; an exit 0 or 1 writes a report where no figure is `nan` or `inf`.
"""
import ast
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import deltasite
from deltasite import fixtures, model_io, stochastic
from deltasite.cli import main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "deltasite"


def run(argv):
    """(exit code, stdout, stderr) of one in-process call; a usage error
    that argparse raises as SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([str(arg) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# -- module boundaries ----------------------------------------------------------------

def private_uses(trees) -> list[str]:
    """Each place where one module imports a private name from the package,
    or uses a private function that only another module defines."""
    # the private functions and methods each module defines (dunders aside)
    defined = {path: {node.name for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and node.name.startswith("_") and not node.name.endswith("__")}
               for path, tree in trees.items()}
    found = []
    for path, tree in trees.items():
        elsewhere = set().union(*(names for other, names in defined.items()
                                  if other != path)) - defined[path]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level or module == "deltasite" or module.startswith("deltasite."):
                    found += [f"{path}:{node.lineno}: private name {alias.name} imported "
                              f"from {'.' * node.level}{module}"
                              for alias in node.names if alias.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr in elsewhere:
                found.append(f"{path}:{node.lineno}: private function {node.attr} "
                             f"of another module used")
    return found


def test_no_module_imports_or_uses_a_private_name_of_another():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py"))}
    assert len(trees) > 10
    assert private_uses(trees) == []


def test_boundary_check_sees_a_private_import_and_a_private_use():
    trees = {"a.py": ast.parse("def _helper():\n    pass\n"),
             "b.py": ast.parse("from .a import _helper\nfrom . import a\na._helper()\n")}
    assert private_uses(trees) == ["b.py:1: private name _helper imported from .a",
                                   "b.py:3: private function _helper of another module used"]


# -- model errors ---------------------------------------------------------------------

def assert_model_error(command, path, prefix):
    code, out, err = run([*command, "--model", path])
    assert code == 2, (code, err)
    assert out == ""
    assert any(line.startswith(prefix) for line in err.splitlines()), err
    assert "Traceback" not in err


def four_events() -> dict:
    return json.loads(fixtures.fixture_text("four_events"))


def test_a_list_that_is_a_number_is_named_at_its_path(tmp_path):
    path = tmp_path / "objects_five.json"
    path.write_text('{"schema": 1, "category": {"objects": 5}}')
    assert_model_error(("check-site", "--topology", "structural"), path,
                       "error: category.objects: ")


def test_a_document_nested_past_the_reader_is_refused_at_the_root(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert_model_error(("check-site", "--topology", "structural"), path, "error: $: ")


def test_a_level_event_outside_the_category_is_named(tmp_path):
    doc = four_events()
    doc["category"] = {"objects": ["e_a", "e_ab", "empty"]}
    path = tmp_path / "level_outside.json"
    path.write_text(json.dumps(doc))
    assert_model_error(("check-site", "--topology", "probability"), path,
                       "error: filtration.levels[")


def test_a_level_that_is_not_sigma_closed_is_named(tmp_path):
    doc = four_events()
    doc["filtration"]["levels"][1]["events"].remove("e_b")
    path = tmp_path / "not_sigma_closed.json"
    path.write_text(json.dumps(doc))
    for command in (("check-site", "--topology", "probability"),
                    ("check-sheaf", "--mode", "gluing")):
        assert_model_error(command, path, "error: filtration.levels[1]")


def test_a_second_square_for_one_cospan_is_refused_by_the_parser(tmp_path):
    """A repeat would silently replace the first square, so the parser names
    its entry; the swapped pair is another cospan and may have its own."""
    doc = four_events()
    squares = doc["category"]["pullbacks"]
    first = squares[1]
    squares.append({**first, "left": first["right"], "right": first["left"],
                    "to_left": first["to_right"], "to_right": first["to_left"]})
    path = tmp_path / "squares.json"
    path.write_text(json.dumps(doc))
    assert run(["check-site", "--topology", "structural", "--model", path])[0] == 0
    squares.append(dict(first))
    path.write_text(json.dumps(doc))
    assert run(["check-site", "--topology", "structural", "--model", path]) == (
        2, "", "error: category.pullbacks[9]: ('i:e_a>e_ab', 'i:e_b>e_ab') "
               "already has a pullback\n")


def test_a_repeated_composite_and_square_are_both_named_composition_first(tmp_path):
    doc = four_events()
    category = doc["category"]
    category["pullbacks"].append(dict(category["pullbacks"][4]))
    category["composition"].append(list(category["composition"][0]))
    path = tmp_path / "repeats.json"
    path.write_text(json.dumps(doc))
    g, f, _ = category["composition"][0]
    assert run(["check-roofs", "--model", path]) == (2, "", (
        f"error: category.composition[2]: {(g, f)!r} already has a composite\n"
        "error: category.pullbacks[8]: ('i:empty>e_ab', 'i:e_a>e_ab') already has a pullback\n"))


def test_every_repeat_is_named_not_only_the_first(tmp_path):
    """Three entries for one pair name the second and the third, and a
    repeat of another pair in the same table is named too."""
    doc = four_events()
    category = doc["category"]
    squares, triples = category["pullbacks"], category["composition"]
    squares += [dict(squares[4]), dict(squares[4]), dict(squares[1])]
    triples += [list(triples[0]), list(triples[0])]
    path = tmp_path / "repeats.json"
    path.write_text(json.dumps(doc))
    composite = "('i:e_a>e_ab', 'i:empty>e_a') already has a composite"
    square = "('i:empty>e_ab', 'i:e_a>e_ab') already has a pullback"
    assert run(["check-site", "--topology", "structural", "--model", path]) == (2, "", (
        f"error: category.composition[2]: {composite}\n"
        f"error: category.composition[3]: {composite}\n"
        f"error: category.pullbacks[8]: {square}\n"
        f"error: category.pullbacks[9]: {square}\n"
        "error: category.pullbacks[10]: ('i:e_a>e_ab', 'i:e_b>e_ab') already has a pullback\n"))


# -- what the reports promise ------------------------------------------------------------

def test_model_commands_load_neither_numpy_nor_scipy():
    # in one fresh interpreter, through cli.main: only the sampling commands
    # and the cone check load NumPy and SciPy
    model = fixtures.fixture_path("four_events")
    argvs = [["check-site", "--topology", topology, "--model", model]
             for topology in ("operadic", "probability", "structural")]
    argvs += [["check-roofs", "--model", model],
              ["check-sheaf", "--mode", "gluing", "--model", model],
              ["tropicalize", "--alpha", "0.1", "--sigma", "0.2", "--with-markers"],
              ["series", "--op", "log", "--order", "6"]]
    probe = ("import contextlib, io, json, sys\n"
             "from deltasite.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(codes, [m for m in ('numpy', 'scipy') if m in sys.modules])")
    src = str(pathlib.Path(deltasite.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == f"{[0] * len(argvs)} []\n"


@pytest.mark.parametrize("command", (("check-roofs",), ("check-site", "--topology", "probability")))
@pytest.mark.parametrize("name, code", (("six_events", 0), ("defect_missing_pullback", 1)))
def test_a_json_report_is_canonical_json(command, name, code):
    got, out, _ = run([*command, "--format", "json", "--model", fixtures.fixture_path(name)])
    assert got == code
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


MODEL_COMMANDS = (("check-site", "--topology", "operadic"),
                  ("check-site", "--topology", "probability"),
                  ("check-site", "--topology", "structural"),
                  ("check-roofs",), ("check-sheaf", "--mode", "gluing"))


@pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
def test_a_crlf_copy_of_a_model_reports_as_its_lf_file(name, tmp_path):
    # the model is read with universal newlines and hashed after that
    # translation, so the reports agree byte for byte, `model_hash` included
    crlf = tmp_path / f"{name}.json"
    crlf.write_bytes(fixtures.fixture_text(name).replace("\n", "\r\n").encode("utf-8"))
    for command, form in itertools.product(MODEL_COMMANDS, ("json", "text")):
        argv = [*command, "--format", form, "--model"]
        assert run([*argv, crlf]) == run([*argv, fixtures.fixture_path(name)]), (command, form)


def test_series_at_the_order_bound_is_exact_and_one_past_it_is_refused():
    # log at the bound is quick and is log(1 + X), (-1)^(n+1)/n
    start = time.perf_counter()
    code, out, _ = run(["series", "--op", "log", "--order", "100", "--format", "json"])
    assert time.perf_counter() - start < 10
    want = "[" + ", ".join(["0"] + [str(Fraction((-1) ** (n + 1), n))
                                    for n in range(1, 101)]) + "]"
    records = json.loads(out)["records"]
    assert (code, [(r["check"], r["instance"]) for r in records]) == (0, [("coefficients", want)])
    code, out, _ = run(["series", "--op", "log", "--order", "101"])
    assert (code, out) == (2, "")


def test_long_paths_reduce_as_math_fsum_and_equal_their_batch_rows():
    # two 100k-step streams: the reductions equal math.fsum of the plain
    # one-expression terms, and a path equals its row of a batch
    n, seed = 100_000, 2024
    batch = stochastic.sample_brownian_batch(1.0, n, 2, seed)
    for stream in (0, 1):
        path = stochastic.sample_brownian(1.0, n, seed, stream)
        w, dts, dws = path.values, path.partition.deltas, np.diff(path.values)
        assert path.values.tobytes() == batch[stream].tobytes(), stream
        qv = stochastic.quadratic_variation(path)
        assert qv == math.fsum(dws ** 2), (stream, qv)
        w0 = w[:-1]
        terms = 0.0 * w0 * dts + 3.0 * w0 ** 2 * dws + 0.5 * (6.0 * w0) * dts
        want = abs(float(w[-1] ** 3 - w[0] ** 3) - math.fsum(terms))
        got = stochastic.ito_residual("w3", path)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (stream, got, want)


# -- a model at scale ------------------------------------------------------------------

@pytest.fixture(scope="module")
def lattice6(tmp_path_factory):
    """The power-set lattice on six atoms, one level: 729 morphisms, 7,448
    declared squares and 2,702 composition rules, as its model file."""
    atoms = "abcdef"
    subsets = [frozenset(c) for r in range(len(atoms) + 1)
               for c in itertools.combinations(atoms, r)]
    model = fixtures.subset_model(atoms, subsets, [subsets], {a: 1 / 6 for a in atoms})
    path = tmp_path_factory.mktemp("scale") / "lattice6.json"
    path.write_text(model_io.serialize_model(model), encoding="utf-8")
    return path


def test_a_model_at_scale_round_trips_and_passes_every_record(lattice6):
    # the serializer writes the squares back from their stored legs, byte for byte
    text = lattice6.read_text(encoding="utf-8")
    assert model_io.serialize_model(model_io.parse_model(text)) == text
    # the structural and probability sites and the roofs: every record counted, none failing
    for command in (("check-site", "--topology", "structural"),
                    ("check-site", "--topology", "probability"), ("check-roofs",)):
        code, out, _ = run([*command, "--format", "json", "--model", lattice6])
        report = json.loads(out)
        summary = report["summary"]
        assert code == 0 and summary["total"] == len(report["records"]), summary
        assert summary["fail"] == 0, summary


def edited(lattice6, tmp_path, edit):
    """The path of a copy of lattice6 whose document edit(doc) changed."""
    doc = json.loads(lattice6.read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_a_bad_leg_in_the_middle_of_the_squares_is_named_and_nothing_else(lattice6, tmp_path):
    def bad_leg(doc):
        squares = doc["category"]["pullbacks"]
        square = squares[len(squares) // 2]
        assert (len(squares), square["left"], square["right"]) == \
            (7448, "i:e_bdf>e_abcdf", "i:e_bdf>e_abcdf"), square
        square["to_left"] = "id:e_abcdef"

    code, out, err = run(["check-site", "--topology", "structural", "--format", "json",
                          "--model", edited(lattice6, tmp_path, bad_leg)])
    assert (code, out, err) == (2, "", "error: category: pullback of ('i:e_bdf>e_abcdf', "
                                       "'i:e_bdf>e_abcdf'): bad leg 'id:e_abcdef'\n")


def test_a_second_square_for_one_cospan_is_named_by_its_entry(lattice6, tmp_path):
    def repeat(doc):
        squares = doc["category"]["pullbacks"]
        squares.append(dict(squares[len(squares) // 2]))
        assert len(squares) == 7449, len(squares)

    code, out, err = run(["check-site", "--topology", "structural", "--format", "json",
                          "--model", edited(lattice6, tmp_path, repeat)])
    assert (code, out, err) == (2, "", "error: category.pullbacks[7448]: ('i:e_bdf>e_abcdf', "
                                       "'i:e_bdf>e_abcdf') already has a pullback\n")


def test_one_composite_dropped_is_one_roof_axioms_record_and_no_roof_law(lattice6, tmp_path):
    def unclose(doc):
        rules = doc["category"]["composition"]
        rule = rules.pop(len(rules) // 2)
        assert (len(rules) + 1, rule) == \
            (2702, ["i:e_b>e_ab", "i:empty>e_b", "i:empty>e_ab"]), rule

    code, out, _ = run(["check-roofs", "--format", "json",
                        "--model", edited(lattice6, tmp_path, unclose)])
    assert code == 1
    records = json.loads(out)["records"]
    closure = [(r["instance"], r["status"], r["witness"])
               for r in records if r["check"] == "roof-axioms"]
    assert closure == [("composition closure", "fail", "fragment is not composition closed: "
                        "(i:e_b>e_ab, i:empty>e_b) has no composite")], closure
    laws = [r for r in records
            if r["check"] in ("left-unit", "right-unit", "base-functorial", "associativity")]
    assert laws == [], laws[:3]


# -- the generative contract ------------------------------------------------------------

MAX = sys.float_info.max
# the magnitudes a float flag takes: zero, subnormals, the ends of the normal
# range and ordinary values; one flag in four is negative
MAGNITUDES = (0.0, 5e-324, 1e-310, sys.float_info.min, 1e-300, 1e-100, 0.1, 0.2, 1.0,
              3.0, 1e100, 1e300, MAX)
FLOATS = hst.builds(lambda m, sign: sign * m, hst.sampled_from(MAGNITUDES),
                    hst.sampled_from((1.0, 1.0, 1.0, -1.0)))
# the ends of the seed range of a command that draws: [0, 2**128), and
# [0, 2**128 - 2) on verify-ito
SEEDS = hst.sampled_from((-1, 0, 1, 2**128 - 3, 2**128 - 2, 2**128 - 1, 2**128))
FORMATS = hst.sampled_from(("json", "text"))
# a figure that is not a number, as repr writes it
NOT_A_NUMBER = re.compile(r"(?<![A-Za-z])(nan|inf)(?![A-Za-z])", re.IGNORECASE)


def flags(**strategies):
    """argv of the named flags, each drawn or left out, each one `--flag=value`
    token: argparse reads a separate `-1e+300` or `-5e-324` as an option,
    since its negative-number pattern has no exponent."""
    return hst.tuples(*(hst.one_of(hst.none(), s.map(lambda v, k=k: f"--{k}={v}"))
                        for k, s in strategies.items())).map(
        lambda tokens: [token for token in tokens if token])


@hst.composite
def sized(draw, most=10**4):
    """--paths and --steps, the batch at most `most` values."""
    paths = draw(hst.sampled_from((1, 2, 3, 29, 30, 31, 100, 250)))
    steps = draw(hst.sampled_from((-1, 0, 1, 2, 10, 33, 100, 1000)).filter(
        lambda n: paths * n <= most))
    return ["--paths", paths, "--steps", steps]


SAMPLED = hst.tuples(hst.sampled_from(("simulate", "verify-ito")), sized(),
                     flags(alpha=FLOATS, sigma=FLOATS, x0=FLOATS, T=FLOATS)).map(
    lambda t: [t[0], *t[1], *t[2]])
CONES = hst.tuples(flags(kappa=FLOATS, sigma=FLOATS),
                   hst.sampled_from((1, 2, 100, 10**4))).map(
    lambda t: ["check-sheaf", "--mode", "cones", "--model",
               fixtures.fixture_path("four_events"), "--paths", t[1], *t[0]])
TROPICAL = hst.tuples(FLOATS, FLOATS, hst.booleans()).map(
    lambda t: ["tropicalize", f"--alpha={t[0]}", f"--sigma={t[1]}"]
    + ["--with-markers"] * t[2])
SERIES = hst.tuples(hst.sampled_from(("exp", "log", "paper-log")),
                    hst.sampled_from((-1, 0, 1, 2, 100, 101))).map(
    lambda t: ["series", "--op", t[0], f"--order={t[1]}"])
ARGV = hst.tuples(hst.one_of(SAMPLED, CONES, TROPICAL, SERIES),
                  flags(seed=SEEDS, format=FORMATS)).map(lambda t: t[0] + t[1])


def assert_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    # every flag is drawn within its type, so argparse refuses only the
    # order past the bound of `series`, and writes its usage then
    assert ("usage:" in err) == ("--order=101" in argv), (argv, err)
    if code == 2:
        assert out == "", argv
        lines = err.splitlines()
        # main writes one `error: ` line; argparse writes its usage, then
        # `<prog>: error: ...`
        assert [line for line in lines if "error: " in line] == lines[-1:], (argv, err)
        assert lines[-1].startswith(("error: ", "deltasite ")), (argv, err)
        return
    assert err == "", (argv, err)
    text = out if "--format=json" not in argv else json.dumps(json.loads(out)["records"])
    assert not NOT_A_NUMBER.search(text), (argv, out)


@settings(max_examples=200, deadline=None)
@given(argv=ARGV)
def test_every_command_without_a_model_keeps_the_contract(argv):
    assert_contract(argv)

