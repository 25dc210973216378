import json
from typing import NamedTuple

import pytest
from hypothesis import given, settings

from deltasite import cli, fixtures, model_io
from deltasite.categories import FiniteCategory, Morphism
from deltasite.errors import ClosureError
from deltasite.reports import Report
from deltasite.roofs import RoofCategory, verify_roof_category
from deltasite.sites import build_tau_structural, verify_grothendieck

from conftest import chain_category, disc, swap_model
from test_categories import small_categories


class Roof(NamedTuple):
    """A roof value for the roof-by-roof reference, written as the verifier
    writes a roof."""
    source: str
    base: str
    target: str

    def __repr__(self):
        return f"Roof({self.source} -[{self.base}]-> {self.target})"


def roof_of(rc, base):
    """The roof of a base morphism, read off the fragment's morphism table."""
    m = rc.fragment.morphisms[base]
    return Roof(m.source, base, m.target)


def test_identity_roof_is_two_sided_unit():
    rc = RoofCategory(chain_category(3))
    f = roof_of(rc, "f01")
    ids = rc.fragment.identities
    assert reference_compose(rc, roof_of(rc, ids["A"]), f) == f
    assert reference_compose(rc, f, roof_of(rc, ids["B"])) == f
    units = [r for r in verify_roof_category(rc).records
             if r.check_id in ("left-unit", "right-unit")]
    assert len(units) == 2 * len(rc.fragment.morphisms)
    assert all(r.status == "pass" for r in units)


def test_triple_composites_agree_both_ways():
    rc = RoofCategory(chain_category(4))
    roofs = [roof_of(rc, name) for name in rc.fragment.morphisms]
    triples = [(r1, r2, r3) for r1 in roofs for r2 in roofs for r3 in roofs
               if r1.target == r2.source and r2.target == r3.source]
    for r1, r2, r3 in triples:
        assert reference_compose(rc, reference_compose(rc, r1, r2), r3) == \
            reference_compose(rc, r1, reference_compose(rc, r2, r3))
    associativity = [r for r in verify_roof_category(rc).records
                     if r.check_id == "associativity"]
    assert triples and len(associativity) == len(triples)
    assert all(r.status == "pass" for r in associativity)


def test_verify_single_chain_passes():
    report = verify_roof_category(RoofCategory(chain_category(3)))
    assert report.passed
    assert any(r.check_id == "associativity" for r in report.records)


def test_verify_raises_closure_error_naming_the_pair():
    objs = {o: None for o in "ABC"}
    morphisms = [Morphism("f", "A", "B"), Morphism("g", "B", "C")]
    cat = FiniteCategory(objs, morphisms, {})  # no composite declared
    with pytest.raises(ClosureError, match=r"\(g, f\)"):
        verify_roof_category(RoofCategory(cat))


def test_missing_composite_raises_before_base_functorial_can_fail():
    """base-functorial holds by construction: drop one composite from a
    passing fragment and the verifier raises instead of failing the record."""
    cat = fixtures.load_fixture("six_events").category
    assert all(r.status == "pass" for r in verify_roof_category(RoofCategory(cat)).records
               if r.check_id == "base-functorial")
    composition = {key: h for key, h in cat.composition.items()
                   if key != ("i:e_a>e_ab", "i:empty>e_a")}
    morphisms = [m for name, m in cat.morphisms.items() if not cat.is_identity(name)]
    unclosed = FiniteCategory(cat.objects, morphisms, composition,
                              [(l, r, *legs) for (l, r), legs in cat.pullbacks.items()])
    with pytest.raises(ClosureError) as exc:
        verify_roof_category(RoofCategory(unclosed))
    assert str(exc.value) == ("fragment is not composition closed: "
                              "(i:e_a>e_ab, i:empty>e_a) has no composite")


def test_verify_commutative_square_enumerates_all_triples():
    # square: A -> B, A -> C, B -> D, C -> D with agreeing diagonal
    objs = {o: None for o in "ABCD"}
    morphisms = [Morphism("ab", "A", "B"), Morphism("ac", "A", "C"),
                 Morphism("bd", "B", "D"), Morphism("cd", "C", "D"),
                 Morphism("ad", "A", "D")]
    comp = {("bd", "ab"): "ad", ("cd", "ac"): "ad"}
    cat = FiniteCategory(objs, morphisms, comp)
    report = verify_roof_category(RoofCategory(cat))
    assert report.passed
    assert len(cat.objects) == 4


def test_roof_functoriality_records_present():
    report = verify_roof_category(RoofCategory(chain_category(3)))
    assert any(r.check_id == "base-functorial" for r in report.records)


def test_roof_equality_is_canonical_by_base():
    rc = RoofCategory(chain_category(3))
    assert roof_of(rc, "f01") == Roof("A", "f01", "B")
    assert roof_of(rc, "f01") != roof_of(rc, "f02")


# -- structural roof topology ------------------------------------------------------

def test_iso_base_roof_covers():
    model = fixtures.load_fixture("four_events")
    site = build_tau_structural(RoofCategory(model.category).fragment)
    assert "id:e_a" in site.valid["e_a"]


def test_non_mono_base_excluded():
    big = disc("big", [], vertices=["x", "y"])
    one = disc("one", [], vertices=["z"])
    from deltasite.events import EventMap
    squash = EventMap("squash", big, one, {0: {"x": "z", "y": "z"}})
    cat = FiniteCategory({"big": big, "one": one},
                         [Morphism("squash", "big", "one", squash)], {})
    site = build_tau_structural(RoofCategory(cat).fragment)
    assert "squash" not in site.valid["one"]


def test_structural_roof_site_verifies_on_fixtures():
    for name in fixtures.PASSING_FIXTURES:
        model = fixtures.load_fixture(name)
        site = build_tau_structural(RoofCategory(model.category).fragment)
        assert verify_grothendieck(site).passed, name


def test_roof_axioms_pass_on_all_fixture_fragments():
    for name in fixtures.ALL_FIXTURES:
        model = fixtures.load_fixture(name)
        assert verify_roof_category(RoofCategory(model.category)).passed, name


# -- the verifier against the roof-by-roof reference -------------------------------

def reference_compose(rc, r1, r2):
    """r2 after r1 straight from the fragment's table, with the closure
    message of verify_roof_category."""
    assert r1.target == r2.source
    base = rc.fragment.composition.get((r2.base, r1.base))
    if base is None:
        raise ClosureError(f"fragment is not composition closed: "
                           f"({r2.base}, {r1.base}) has no composite")
    return roof_of(rc, base)


def reference_verify_roof_category(rc):
    """verify_roof_category written over Roof values: every unit, pair and
    triple is composed roof by roof, pairs listed up front."""
    report = Report()
    frag = rc.fragment
    roofs = [roof_of(rc, name) for name in sorted(frag.morphisms)]
    for r in roofs:
        left = reference_compose(rc, roof_of(rc, frag.identities[r.source]), r)
        right = reference_compose(rc, r, roof_of(rc, frag.identities[r.target]))
        report.add("left-unit", repr(r), left == r)
        report.add("right-unit", repr(r), right == r)
    pairs = [(r1, roof_of(rc, n)) for r1 in roofs for n in frag.morphisms_from(r1.target)]
    for r1, r2 in pairs:
        composite = reference_compose(rc, r1, r2)
        report.add("base-functorial", f"({r1.base}, {r2.base})",
                   composite == roof_of(rc, frag.composition[(r2.base, r1.base)]))
    for r1, r2 in pairs:
        for r3 in (roof_of(rc, n) for n in frag.morphisms_from(r2.target)):
            one = reference_compose(rc, reference_compose(rc, r1, r2), r3)
            two = reference_compose(rc, r1, reference_compose(rc, r2, r3))
            report.add("associativity", f"({r1.base}, {r2.base}, {r3.base})", one == two)
    return report


def verdict(verify, rc):
    """The records of verify(rc), or the message of the ClosureError it raises."""
    try:
        return verify(rc).records
    except ClosureError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(small_categories())
def test_verifier_matches_the_roof_by_roof_reference(cat):
    # the fragments may lack composites or break the unit and associative laws
    rc = RoofCategory(cat)
    assert verdict(verify_roof_category, rc) == verdict(reference_verify_roof_category, rc)


def test_verifier_matches_the_reference_on_fixture_fragments():
    for name in fixtures.ALL_FIXTURES:
        rc = RoofCategory(fixtures.load_fixture(name).category)
        assert verdict(verify_roof_category, rc) == \
            verdict(reference_verify_roof_category, rc), name


def test_reference_strategy_reaches_every_verdict():
    """The random fragments above raise, fail a law, and pass."""
    kinds = set()

    @settings(max_examples=200, deadline=None)
    @given(small_categories())
    def collect(cat):
        found = verdict(reference_verify_roof_category, RoofCategory(cat))
        kinds.add("closure" if isinstance(found, str)
                  else "fail" if any(r.status == "fail" for r in found) else "pass")

    collect()
    assert kinds == {"closure", "fail", "pass"}


# -- every failing roof law comes with a failing category axiom ------------------

def roof_failures_without_their_axiom(cat):
    """The roof-law failures of cat for which check_axioms reports no
    violation of the same case.  A failing left-unit on base b needs `right
    unit fails for b`, a failing right-unit needs `left unit fails for b`,
    a failing associativity (f, g, h) needs `associativity fails on (h, g,
    f)`, and a ClosureError on (g, f) needs `composition undefined for (g,
    f)`; base-functorial can only pass, so a failure of it is unmatched."""
    axioms = {r.instance for r in cat.check_axioms().records}
    try:
        records = verify_roof_category(RoofCategory(cat)).records
    except ClosureError as exc:
        pair = str(exc).split(": ", 1)[1].removesuffix(" has no composite")
        return [] if f"composition undefined for {pair}" in axioms else [str(exc)]
    base = {repr(Roof(m.source, name, m.target)): name for name, m in cat.morphisms.items()}
    matching = {
        "left-unit": lambda instance: f"right unit fails for {base[instance]}",
        "right-unit": lambda instance: f"left unit fails for {base[instance]}",
        "associativity": lambda instance: "associativity fails on ({})".format(
            ", ".join(reversed(instance[1:-1].split(", ")))),
    }
    return [(r.check_id, r.instance) for r in records if r.status == "fail"
            and (r.check_id not in matching or matching[r.check_id](r.instance) not in axioms)]


@settings(max_examples=300, deadline=None)
@given(small_categories())
def test_every_roof_law_failure_comes_with_a_category_axiom_failure(cat):
    # test_reference_strategy_reaches_every_verdict shows these fragments
    # raise, fail a roof law, and pass
    assert roof_failures_without_their_axiom(cat) == []


def test_roof_law_failures_on_fixtures_come_with_category_axiom_failures():
    for name in fixtures.ALL_FIXTURES:
        assert roof_failures_without_their_axiom(fixtures.load_fixture(name).category) == [], name


# -- every failing category axiom comes with its roof verdict ----------------------

def axiom_failures_without_their_roof_verdict(cat):
    """The check_axioms violations of cat whose roof verdict is missing.
    `left unit fails for b` needs a failing right-unit on b's roof, `right
    unit fails for b` a failing left-unit, `associativity fails on (h, g,
    f)` a failing associativity (f, g, h), and the first `composition
    undefined for (g, f)` a ClosureError on (g, f); a square has no roof
    law."""
    axioms = [r.instance for r in cat.check_axioms().records]
    undefined = [a for a in axioms if a.startswith("composition undefined for ")]
    try:
        records = verify_roof_category(RoofCategory(cat)).records
    except ClosureError as exc:
        pair = str(exc).split(": ", 1)[1].removesuffix(" has no composite")
        return [] if undefined[:1] == [f"composition undefined for {pair}"] else [str(exc)]
    failing = {(r.check_id, r.instance) for r in records if r.status == "fail"}
    roof = {name: repr(Roof(m.source, name, m.target)) for name, m in cat.morphisms.items()}
    verdicts = {
        "left unit fails for ": lambda base: ("right-unit", roof[base]),
        "right unit fails for ": lambda base: ("left-unit", roof[base]),
        "associativity fails on ": lambda triple: ("associativity", "({})".format(
            ", ".join(reversed(triple[1:-1].split(", "))))),
    }
    return undefined + [axiom for axiom in axioms for head, verdict in verdicts.items()
                        if axiom.startswith(head)
                        and verdict(axiom.removeprefix(head)) not in failing]


@settings(max_examples=300, deadline=None)
@given(small_categories())
def test_every_category_axiom_failure_comes_with_its_roof_verdict(cat):
    assert axiom_failures_without_their_roof_verdict(cat) == []


def test_category_axiom_failures_on_fixtures_come_with_their_roof_verdicts():
    for name in fixtures.ALL_FIXTURES:
        category = fixtures.load_fixture(name).category
        assert axiom_failures_without_their_roof_verdict(category) == [], name


# -- a category that is not thin, through the command line -------------------------

ROOF_LAWS = ("left-unit", "right-unit", "base-functorial", "associativity")


@pytest.mark.parametrize("extra_rule, code", ((None, 0), (("s:e_ab", "id:e_ab", "id:e_ab"), 1)))
def test_check_roofs_on_a_non_thin_model_gives_the_reference_roof_records(
        tmp_path, capsys, extra_rule, code):
    text = swap_model(extra_rule)
    cat = model_io.parse_model(text).category
    assert cat.morphisms_from("e_ab") == ["id:e_ab", "s:e_ab"]  # two arrows e_ab -> e_ab
    path = tmp_path / "swap.json"
    path.write_text(text)
    assert cli.main(["check-roofs", "--format", "json", "--model", str(path)]) == code
    records = [(r["check"], r["instance"], r["status"], r["witness"])
               for r in json.loads(capsys.readouterr().out)["records"]]
    assert [r for r in records if r[0] in ROOF_LAWS] == \
        reference_verify_roof_category(RoofCategory(cat)).rows
    if extra_rule:
        assert ("category-axioms", "right unit fails for s:e_ab", "fail", "") in records
        assert ("left-unit", "Roof(e_ab -[s:e_ab]-> e_ab)", "fail", "") in records


@pytest.mark.parametrize("extra_rule", (None, ("s:e_ab", "id:e_ab", "id:e_ab")))
def test_the_laws_agree_both_ways_on_the_non_thin_model(extra_rule):
    cat = model_io.parse_model(swap_model(extra_rule)).category
    assert roof_failures_without_their_axiom(cat) == []
    assert axiom_failures_without_their_roof_verdict(cat) == []
