"""Report rendering: the fixed-template JSON against `json.dumps`.

`Report.to_json` writes each record from a template instead of handing the
whole document to `json.dumps(indent=2, sort_keys=True)`.  The oracle here
builds that whole document, as the renderer once did, and the two must agree
byte for byte on any header, params and record text.
"""
import gc
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from deltasite import fixtures, reports
from deltasite.reports import Record, Report
from deltasite.sites import build_tau_P, build_tau_structural, verify_grothendieck


def oracle(report: Report) -> str:
    """The canonical JSON of a report, through one `json.dumps` call."""
    doc = {
        "command": report.command,
        "model_hash": report.model_hash,
        "params": {k: report.params[k] for k in sorted(report.params)},
        "records": [{"check": r.check_id, "instance": r.instance,
                     "status": r.status, "witness": r.witness}
                    for r in report.records],
        "summary": report.summary,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# text with the characters an escaper can get wrong: quotes, backslashes,
# control characters, non-ASCII and lone surrogates, and the text the
# renderer joins around
TRICKY = ('"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "é", "∂", "😀",
          "\ud800", "\udfff", '"records": [],', "\n  ]", "}")
text = hst.lists(hst.one_of(hst.sampled_from(TRICKY), hst.characters(),
                            hst.characters(categories=["Cs"])),
                 max_size=8).map("".join)
# params as the CLI's flags give them, and any JSON value nested in lists
scalar = hst.one_of(hst.none(), hst.booleans(), hst.integers(),
                    hst.floats(), text)
value = hst.recursive(scalar, hst.lists, max_leaves=6)
params = hst.dictionaries(hst.one_of(text, hst.just("records")), value, max_size=5)
record = hst.builds(Record, text, text, hst.sampled_from(("pass", "fail", "info")), text)
report = hst.builds(Report, text, hst.one_of(hst.none(), text), params,
                    hst.lists(record, max_size=6))


@settings(max_examples=300, deadline=None)
@given(report)
@example(Report())
@example(Report("check-site", None, {"records": [], "seed": 0},
                [Record("c", '"records": [],', "pass")]))
def test_to_json_matches_json_dumps(rep):
    assert rep.to_json() == oracle(rep)


@pytest.mark.parametrize("mutant", [
    # keys out of sorted order
    ('    {\n      "instance": %s,\n      "check": %s,\n'
     '      "status": %s,\n      "witness": %s\n    }'),
    # a comma missing
    ('    {\n      "check": %s\n      "instance": %s,\n'
     '      "status": %s,\n      "witness": %s\n    }'),
    # one level too shallow
    ('  {\n    "check": %s,\n    "instance": %s,\n'
     '    "status": %s,\n    "witness": %s\n  }'),
])
def test_oracle_rejects_a_broken_template(monkeypatch, mutant):
    rep = Report("check-site", "ab", {"seed": 0}, [Record("c", "i", "pass", "w")])
    assert rep.to_json() == oracle(rep)
    monkeypatch.setattr(reports, "_RECORD", mutant)
    assert rep.to_json() != oracle(rep)


def four_events_reports():
    """verify_grothendieck's reports on four_events: its structural site and
    each probability level."""
    model = fixtures.load_fixture("four_events")
    sites = [build_tau_structural(model.category),
             *build_tau_P(model.filtration, model.measure, model.category).values()]
    return [verify_grothendieck(site) for site in sites]


def test_rows_are_plain_tuples_of_str_that_the_collector_untracks():
    """A report stores exact tuples of four str, which the cyclic collector
    stops tracking; `records` reads them back as `Record`s."""
    reports_ = four_events_reports()
    assert all(rep.rows for rep in reports_)
    gc.collect()
    for rep in reports_:
        for row in rep.rows:
            assert type(row) is tuple and len(row) == 4
            assert all(type(field) is str for field in row)
            assert not gc.is_tracked(row)
        records = rep.records
        assert [type(r) for r in records] == [Record] * len(rep.rows)
        assert [(r.check_id, r.instance, r.status, r.witness) for r in records] == rep.rows
        assert Record._fields == ("check_id", "instance", "status", "witness")
        # a report built from Records holds rows too, and renders the same bytes
        rebuilt = Report("check-site", "ab", {"seed": 0}, records)
        assert all(type(row) is tuple for row in rebuilt.rows)
        assert rebuilt.to_json() == Report("check-site", "ab", {"seed": 0}, rep.rows).to_json()
        assert rebuilt.to_text() == Report("check-site", "ab", {"seed": 0}, rep.rows).to_text()
