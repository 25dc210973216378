"""The command-line contract: what every run may and may not write.

Three kinds of check live here.  The module boundary check reads the
source: no module of the package imports or uses a private name of another.
The model error checks feed malformed model files to the model commands,
each of which must exit 2 with one `error: <path>: ` line and no traceback.
The generative check draws the argv of the commands that take no model
(and of the cone check, on a bundled model), with float flags at the
extremes of the float range and seeds at the ends of theirs: each run exits
0, 1 or 2; an exit 2 writes nothing to stdout and one error line to stderr;
an exit 0 or 1 writes a report where no figure is `nan` or `inf`.
"""
import ast
import io
import json
import pathlib
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as hst

from deltasite import fixtures
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
    """argv of the named flags, each drawn or left out."""
    return hst.tuples(*(hst.one_of(hst.none(), s.map(lambda v, k=k: (f"--{k}", v)))
                        for k, s in strategies.items())).map(
        lambda pairs: [part for pair in pairs if pair for part in pair])


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
    lambda t: ["tropicalize", "--alpha", t[0], "--sigma", t[1]]
    + ["--with-markers"] * t[2])
SERIES = hst.tuples(hst.sampled_from(("exp", "log", "paper-log")),
                    hst.sampled_from((-1, 0, 1, 2, 100, 101))).map(
    lambda t: ["series", "--op", t[0], "--order", t[1]])
ARGV = hst.tuples(hst.one_of(SAMPLED, CONES, TROPICAL, SERIES),
                  flags(seed=SEEDS, format=FORMATS)).map(lambda t: t[0] + t[1])


def assert_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        assert out == "", argv
        lines = err.splitlines()
        # main writes one `error: ` line; argparse writes its usage, then
        # `<prog>: error: ...`
        assert [line for line in lines if "error: " in line] == lines[-1:], (argv, err)
        assert lines[-1].startswith(("error: ", "deltasite ")), (argv, err)
        return
    assert err == "", (argv, err)
    text = out if "json" not in argv else json.dumps(json.loads(out)["records"])
    assert not NOT_A_NUMBER.search(text), (argv, out)


@settings(max_examples=200, deadline=None)
@given(argv=ARGV)
def test_every_command_without_a_model_keeps_the_contract(argv):
    assert_contract(argv)

