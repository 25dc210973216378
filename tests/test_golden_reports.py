"""Report bytes pinned by sha256: every bundled fixture through every model
command that needs no sampling, in both output formats.

The table in golden_reports.json holds the exit code and the sha256 of
stdout for each case.  It was written before the verifiers were moved onto
`reports.Report`, so it guards that reports stay byte for byte the same.
"""
import hashlib
import io
import json
import pathlib
from contextlib import redirect_stderr, redirect_stdout

from deltasite import fixtures
from deltasite.cli import main

TABLE = pathlib.Path(__file__).with_name("golden_reports.json")

COMMANDS = (("check-site", "--topology", "operadic"),
            ("check-site", "--topology", "probability"),
            ("check-site", "--topology", "structural"),
            ("check-roofs",),
            ("check-sheaf", "--mode", "gluing"))


def cases():
    """(key, argv) for every fixture x command x format."""
    for name in sorted(fixtures.ALL_FIXTURES):
        for command in COMMANDS:
            for fmt in ("json", "text"):
                argv = [*command, "--format", fmt, "--seed", "0",
                        "--model", fixtures.fixture_path(name)]
                yield " ".join((name, *command, fmt)), argv


def digest(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


def test_report_bytes_match_golden_table():
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    got = {key: digest(argv) for key, argv in cases()}
    assert sorted(got) == sorted(table)
    changed = [key for key in sorted(table) if got[key] != table[key]]
    assert not changed, f"{len(changed)} reports changed, first: {changed[0]}"
