"""Report bytes pinned by sha256: every bundled fixture, and power-set
lattices on four, five and six atoms, through every model command that
needs no sampling, and the sampling commands (simulate, verify-ito and the
cone check) at batch sizes on both sides of a sampling block, in both
output formats.

The table in golden_reports.json holds the exit code and the sha256 of
stdout for each case.  The fixture entries were written before the verifiers
were moved onto `reports.Report`, the lattice entries before hom-set lookups
in `FiniteCategory` were indexed, the sampling entries while every
Philox stream was still built and jumped one at a time, and the entries at
10,000 and 1,000 steps while every sampled reduction was a `math.fsum`,
and the verify-ito entries at 2,000 paths and at 20,000 steps while
verify-ito still reduced each path on its own, and the six-atom lattice
entries while every JSON report was rendered by one
`json.dumps(indent=2)` call, and the cone entries at kappa 0 and sigma 0
while the cone check still returned its own result type, and the
`unclosed` entries (six_events without the composite of
i:e_a>e_ab after i:empty>e_a) while each CLI handler still turned the
category's axiom violations into records itself, and the `series` entries
at orders 12 and 100 while the `log` series was still found by general
power-series reversion, and the entries at T 1e-110 (verify-ito, whose w3
residuals underflow: an `info` trend) and 1e-310 (simulate, whose log-drift
spread overflows: exit 2 and no report) once those two were mended, and the
entries at T 1e-105 (verify-ito, whose w3 squares are subnormal: an `info`
trend) once that band was mended, and the `swap` entries (`swap_model`, the
one model where an identity shares its hom-set) while every identity arrow
still carried an identity event map, so the table guards that reports stay byte
for byte the same.  The sampling entries are also rebuilt from
`stochastic.simulate` and `stochastic.verify_ito` called directly, which
must give the same bytes.
"""
import hashlib
import io
import itertools
import json
import pathlib
from contextlib import redirect_stderr, redirect_stdout

from deltasite import fixtures, stochastic
from deltasite.cli import build_parser, main
from deltasite.reports import Report
from deltasite.model_io import serialize_model

from conftest import swap_model

TABLE = pathlib.Path(__file__).with_name("golden_reports.json")

COMMANDS = (("check-site", "--topology", "operadic"),
            ("check-site", "--topology", "probability"),
            ("check-site", "--topology", "structural"),
            ("check-roofs",),
            ("check-sheaf", "--mode", "gluing"))

# sampling commands with their flags; each names its own seed.  Paths 250 is
# more than the 2*100 streams of the product-rule pairs, and seed 2**128 - 3
# makes the log-drift key seed + 2 the largest Philox key.  Paths 2000 at
# 1,000 steps leaves whole blocks past the pair streams, and 20,000 steps
# makes 3-row blocks, so a product-rule pair straddles a block boundary.
# The last two sit at the ends of the float range.
SAMPLING = (("simulate", "--paths", "1", "--alpha", "0.1", "--sigma", "0.2",
             "--seed", "0"),
            ("simulate", "--paths", "7", "--alpha", "0.1", "--sigma", "0.2",
             "--steps", "33", "--seed", "5"),
            ("simulate", "--paths", "30", "--alpha", "-0.05", "--sigma", "0.3",
             "--x0", "2.5", "--T", "0.5", "--steps", "17", "--seed", "11"),
            ("simulate", "--paths", "2000", "--alpha", "0.1", "--sigma", "0.2",
             "--seed", "0"),
            ("verify-ito", "--paths", "1", "--steps", "10", "--seed", "0"),
            ("verify-ito", "--paths", "3", "--steps", "10",
             "--seed", str(2**128 - 3)),
            ("verify-ito", "--paths", "150", "--steps", "333", "--seed", "7"),
            ("verify-ito", "--paths", "250", "--steps", "1000", "--seed", "0"),
            ("verify-ito", "--paths", "20", "--steps", "10000", "--seed", "0"),
            ("simulate", "--paths", "2000", "--alpha", "0.1", "--sigma", "0.2",
             "--steps", "1000", "--seed", "0"),
            ("verify-ito", "--paths", "2000", "--seed", "0"),
            ("verify-ito", "--paths", "7", "--steps", "20000", "--seed", "0"),
            ("verify-ito", "--paths", "3", "--steps", "10", "--T", "1e-110", "--seed", "0"),
            ("verify-ito", "--paths", "3", "--steps", "10", "--T", "1e-105", "--seed", "0"),
            ("simulate", "--paths", "40", "--T", "1e-310", "--sigma", "0.2", "--seed", "0"))

# the algebra commands, which read no model and draw nothing
ALGEBRA = (("tropicalize", "--alpha", "0.1", "--sigma", "0.2"),
           ("tropicalize", "--alpha", "0.3", "--sigma", "0.2", "--with-markers",
            "--seed", "4"),
           ("series", "--op", "exp", "--order", "6"),
           ("series", "--op", "log", "--order", "7"),
           ("series", "--op", "paper-log", "--order", "5", "--seed", "9"),
           *(("series", "--op", op, "--order", order)
             for op in ("exp", "log", "paper-log") for order in ("12", "100")))

# cone checks: (fixture, flags); 70,000 draws exceed one sampling block, kappa 0
# is the empty cone's fail record and sigma 0 puts every draw at the apex
CONES = (("four_events", ("--seed", "0")),
         ("interval_pair", ("--paths", "70000", "--kappa", "2.0",
                            "--sigma", "0.5", "--seed", "3")),
         ("four_events", ("--kappa", "0", "--paths", "5", "--seed", "0")),
         ("four_events", ("--sigma", "0", "--paths", "10", "--seed", "0")))

# atom weights (exact binary fractions) and the blocks of the middle level
LATTICES = {
    "lattice4": ({"a": 0.125, "b": 0.25, "c": 0.125, "d": 0.5}, ("ac", "bd")),
    "lattice5": ({"a": 0.0625, "b": 0.125, "c": 0.1875, "d": 0.25, "e": 0.375},
                 ("ad", "be", "c")),
    "lattice6": ({"a": 0.03125, "b": 0.0625, "c": 0.09375, "d": 0.125,
                  "e": 0.25, "f": 0.4375}, ("ae", "bf", "c", "d")),
}


def lattice_model(weights, blocks):
    """Power-set lattice over three levels: trivial, generated by the
    blocks, and the full power set."""
    atoms = sorted(weights)

    def unions(parts):
        return [frozenset().union(*c) for r in range(len(parts) + 1)
                for c in itertools.combinations(parts, r)]

    subsets = unions([frozenset(a) for a in atoms])
    levels = [[frozenset(), frozenset(atoms)],
              unions([frozenset(b) for b in blocks]), subsets]
    return fixtures.subset_model(atoms, subsets, levels, weights)


# the composition triple dropped from six_events to make the `unclosed` model
UNCLOSED_DROP = ["i:e_a>e_ab", "i:empty>e_a", "i:empty>e_ab"]


def unclosed_model_text() -> str:
    """six_events without one composite: the category axioms fail, and the
    roof category is not composition closed."""
    path = pathlib.Path(fixtures.fixture_path("six_events"))
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["category"]["composition"].remove(UNCLOSED_DROP)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cases(directory):
    """(key, argv) for every model x command x format; the lattice models,
    the unclosed model and the swap model are written into directory."""
    models = {name: fixtures.fixture_path(name) for name in fixtures.ALL_FIXTURES}
    texts = {name: serialize_model(lattice_model(weights, blocks))
             for name, (weights, blocks) in LATTICES.items()}
    texts["unclosed"] = unclosed_model_text()
    texts["swap"] = swap_model()
    for name, text in texts.items():
        path = pathlib.Path(directory) / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        models[name] = str(path)
    for name in sorted(models):
        for command in COMMANDS:
            for fmt in ("json", "text"):
                argv = [*command, "--format", fmt, "--seed", "0",
                        "--model", models[name]]
                yield " ".join((name, *command, fmt)), argv
    for command in SAMPLING + ALGEBRA:
        for fmt in ("json", "text"):
            yield " ".join((*command, fmt)), [*command, "--format", fmt]
    for name, flags in CONES:
        command = ("check-sheaf", "--mode", "cones", *flags)
        for fmt in ("json", "text"):
            yield (" ".join((name, *command, fmt)),
                   [*command, "--format", fmt, "--model", models[name]])


def digest(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


def test_report_bytes_match_golden_table(tmp_path):
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    got = {key: digest(argv) for key, argv in cases(tmp_path)}
    assert sorted(got) == sorted(table)
    changed = [key for key in sorted(table) if got[key] != table[key]]
    assert not changed, f"{len(changed)} reports changed, first: {changed[0]}"


VERDICTS = {"simulate": stochastic.simulate, "verify-ito": stochastic.verify_ito}


def test_the_sampling_verdicts_give_the_command_reports():
    # each verdict, called with the flag values of a sampling entry (every
    # flag but --format) under the caller's default float state, returns that
    # entry's records row for row: rendered under the entry's header they give
    # its bytes and exit code, or it raises where the entry exits 2
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    for command in SAMPLING:
        params = vars(build_parser().parse_args(command))
        name = params.pop("command")
        del params["format"], params["run"]
        try:
            report = VERDICTS[name](**params)
        except FloatingPointError:
            report = None
        for fmt in ("json", "text"):
            want = table[" ".join((*command, fmt))]
            if report is None:
                assert want == {"exit": 2, "sha256": hashlib.sha256(b"").hexdigest()}, command
                continue
            text = Report(name, None, params, report.rows).render(fmt)
            got = {"exit": report.exit_code(),
                   "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
            assert got == want, (command, fmt)
