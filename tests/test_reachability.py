"""Every function of the package is run by a command, or listed with its caller.

A fresh interpreter runs a fixed matrix under `sys.setprofile`, installed
before the first `import deltasite` so that import-time calls count:
- the five model commands, in both formats, on every bundled fixture and on
  a `fixtures.subset_model` lattice of four atoms;
- the cone check, `simulate` with 1, 5 and 40 paths and with 2 paths of
  10000 steps (a block large enough to be filled in two lanes), `verify-ito`,
  `tropicalize` with and without markers, and `series` for each op;
- one malformed model, which must exit 2;
- every name of `deltasite.__all__`, resolved on the package;
- the library calls that `bench/workloads.py` makes, at small sizes.

Each module-level function and class method defined in `src/deltasite`
(`__repr__` and nested functions aside) must be entered by that matrix,
unless ALLOWED names it with its caller and the reason.  An entry that ran,
or that names no function, fails too, so the list can only shrink.
"""
import ast
import json
import os
import pathlib
import subprocess
import sys

import deltasite

PACKAGE = pathlib.Path(deltasite.__file__).parent

ITEM_7 = "ROADMAP item 7 checks declared composites and pullback squares with it"
REFEREE = "an acceptance test reads it as the referee of a command's result"

# "module.qualname" -> (caller, reason)
ALLOWED = {
    "events.compose_event_maps": ("tests/test_events.py", ITEM_7),
    "events.fiber_product": ("tests/test_events.py", ITEM_7),
    "tropical.compose": ("tests/test_acceptance.py, criteria 5 and 6", REFEREE),
    "tropical.GradedTensorSeries.__add__": ("tropical.compose", REFEREE),
    "tropical.GradedExpr.__add__": ("tests/test_acceptance.py, criterion 5", REFEREE),
    "tropical.GradedTensorSeries.coefficient": ("tests/test_acceptance.py, criterion 6",
                                                REFEREE),
    "reports.Report.failures": ("tests/test_acceptance.py", REFEREE),
    "reports.Report.records": ("bench/spans.py and demos 01 and 04",
                               "they read records by field name; commands read rows"),
}

PROBE = r"""
import sys

entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(hook)

import contextlib
import io
import json
import pathlib

import deltasite
from deltasite import cli, filtration, fixtures, model_io, stochastic

workdir = pathlib.Path(sys.argv[1])
codes = {}


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes[" ".join(argv)] = cli.main(list(argv))


atoms = "abcd"
subsets = [frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
           for mask in range(1 << len(atoms))]
middle = [frozenset(), frozenset("ab"), frozenset("cd"), frozenset(atoms)]
lattice = fixtures.subset_model(atoms, subsets, [[frozenset(), frozenset(atoms)], middle,
                                                 subsets], {a: 0.25 for a in atoms})
lattice4 = workdir / "lattice4.json"
lattice4.write_text(model_io.serialize_model(lattice), encoding="utf-8")

models = [fixtures.fixture_path(name) for name in fixtures.ALL_FIXTURES] + [str(lattice4)]
commands = [["check-site", "--topology", t] for t in ("operadic", "probability", "structural")]
commands += [["check-roofs"], ["check-sheaf", "--mode", "gluing"]]
for model in models:
    for command in commands:
        for fmt in ("json", "text"):
            run(*command, "--model", model, "--format", fmt)
run("check-sheaf", "--mode", "cones", "--paths", "100",
    "--model", fixtures.fixture_path("four_events"))
run("simulate")
run("simulate", "--paths", "5")
run("simulate", "--paths", "40")
run("simulate", "--paths", "2", "--steps", "10000")
run("verify-ito", "--paths", "20", "--steps", "100")
run("tropicalize", "--alpha", "0.1", "--sigma", "0.2")
run("tropicalize", "--alpha", "0.1", "--sigma", "0.2", "--with-markers")
for op in ("exp", "log", "paper-log"):
    run("series", "--op", op, "--order", "6")
malformed = workdir / "objects_five.json"
malformed.write_text('{"schema": 1, "category": {"objects": 5}}', encoding="utf-8")
run("check-site", "--topology", "structural", "--model", str(malformed))

for name in deltasite.__all__:
    getattr(deltasite, name)

# the library calls of bench/workloads.py
filtration.check_sigma_level([{a} for a in "abc"], frozenset("abc")).missing
fixtures.load_fixture("four_events")
w = stochastic.sample_brownian(1.0, 100, 3, stream=1)
stochastic.quadratic_variation(w)
stochastic.ito_residual("w3", w)
stochastic.sample_brownian_batch(1.0, 100, 5, 3)

sys.setprofile(None)
package = str(pathlib.Path(deltasite.__file__).parent)
print(json.dumps({"codes": codes, "entered": sorted(
    [code.co_filename, code.co_firstlineno] for code in entered
    if code.co_filename.startswith(package))}))
"""


def defined_functions():
    """{(file, first line): "module.qualname"} for every module-level function
    and class method of the package, but `__repr__`; a decorated function's
    first line is its first decorator's, as in its code object."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def add(node, qualname):
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            found[(str(path), first)] = qualname

        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(node, f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and item.name != "__repr__"):
                        add(item, f"{module}.{node.name}.{item.name}")
    return found


def run_matrix(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    doc = json.loads(out)
    return doc["codes"], {(path, line) for path, line in doc["entered"]}


def test_every_function_is_run_by_a_command_or_listed(tmp_path):
    codes, entered = run_matrix(tmp_path)
    malformed = [argv for argv in codes if argv.endswith("objects_five.json")]
    assert [codes[argv] for argv in malformed] == [2]
    assert {argv: code for argv, code in codes.items()
            if argv not in malformed and code not in (0, 1)} == {}

    functions = defined_functions()
    reached = {functions[key] for key in entered if key in functions}
    unreached = sorted(set(functions.values()) - reached - ALLOWED.keys())
    assert not unreached, f"no command runs these; delete or list them: {unreached}"
    ran = sorted(ALLOWED.keys() & reached)
    assert not ran, f"a command runs these now; take them off ALLOWED: {ran}"
    gone = sorted(ALLOWED.keys() - set(functions.values()))
    assert not gone, f"ALLOWED names functions that no longer exist: {gone}"
