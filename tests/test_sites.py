import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from deltasite import fixtures
from deltasite.categories import FiniteCategory, Morphism
from deltasite.errors import PreconditionError
from deltasite.events import EventMap, SimplicialEvent
from deltasite.filtration import (FilteredSigmaAlgebra, FramedIndex,
                                  MultiArrow, ProbabilityMeasure)
from deltasite.model_io import parse_model, serialize_model
from deltasite.sites import (GrothendieckSite,
                             build_tau_operadic, build_tau_P,
                             build_tau_structural, verify_filtered,
                             verify_grothendieck)
from deltasite.reports import Report

from conftest import discrete, overlap_site
from test_categories import small_categories

GROUND = frozenset("abc")


def chain_model():
    """Four nested events on one level: empty < a < ab < abc."""
    subsets = [frozenset(), frozenset("a"), frozenset("ab"), frozenset("abc")]
    events, maps, morphisms = {}, {}, []
    for s in subsets:
        name = "empty" if not s else "e_" + "".join(sorted(s))
        events[name] = discrete(name, sorted(s), s, GROUND)
    names = ["empty", "e_a", "e_ab", "e_abc"]
    comp = {}
    for i, src in enumerate(names):
        for j, tgt in enumerate(names):
            if i < j:
                nm = f"i:{src}>{tgt}"
                maps[nm] = EventMap(nm, events[src], events[tgt],
                                    {0: {a: a for a in events[src].atoms}}
                                    if events[src].atoms else {})
                morphisms.append(Morphism(nm, src, tgt, maps[nm]))
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                comp[(f"i:{names[j]}>{names[k]}", f"i:{names[i]}>{names[j]}")] = \
                    f"i:{names[i]}>{names[k]}"
    cat = FiniteCategory(events, morphisms, comp)
    idx = FramedIndex([0])
    F = FilteredSigmaAlgebra(idx, events, {idx.points[0]: names})
    P = ProbabilityMeasure({"a": Fraction(1, 3), "b": Fraction(1, 3),
                            "c": Fraction(1, 3)})
    return cat, F, P, idx


# -- operadic topology -------------------------------------------------------------

def test_operadic_without_generators_has_only_isomorphism_covers():
    cat, F, P, idx = chain_model()
    site = build_tau_operadic(F, cat)[idx.points[0]]
    for obj, valid in site.valid.items():
        assert valid == frozenset([f"id:{obj}"])


def test_operadic_single_generator_covers_with_each_input():
    cat, F, P, idx = chain_model()
    gen = MultiArrow("g", ("e_a", "e_ab"), "e_abc", idx.points[0])
    F2 = FilteredSigmaAlgebra(idx, dict(F.events),
                              {idx.points[0]: sorted(F.level(idx.points[0]))},
                              [gen])
    site = build_tau_operadic(F2, cat)[idx.points[0]]
    assert "i:e_a>e_abc" in site.valid["e_abc"]
    assert "i:e_ab>e_abc" in site.valid["e_abc"]
    assert "i:empty>e_abc" not in site.valid["e_abc"]


def test_operadic_coverings_match_generator_scan_oracle():
    model = fixtures.load_fixture("four_events")
    filtered = build_tau_operadic(model.filtration, model.category)
    for p in model.filtration.index:
        site = filtered[p]
        witnessed = set()
        position = model.filtration.index.points.index
        for g in model.filtration.generators:
            if position(g.at) <= position(p):
                for inp in g.inputs:
                    witnessed.add((inp, g.output))
        for name in sorted(site.category.morphisms):
            m = site.category.morphisms[name]
            expected = (site.category.is_isomorphism(name)
                        or (m.source, m.target) in witnessed)
            assert (name in site.valid[m.target]) == expected


# -- probability topology -----------------------------------------------------------

def power_set_site():
    """The tau_P site on the top level of the power set of three atoms; the
    chain of chain_model is no sigma-algebra, which tau_P refuses."""
    model = fixtures.load_fixture("three_atoms_power")
    top = model.filtration.index.points[-1]
    return (build_tau_P(model.filtration, model.measure, model.category)[top],
            model.measure)


def test_probability_isomorphisms_always_cover():
    site, _ = power_set_site()
    for obj in site.category.objects:
        assert f"id:{obj}" in site.valid[obj]


def test_probability_excludes_measure_increasing_arrows():
    idx = FramedIndex([0])
    ground = frozenset("ab")
    P = ProbabilityMeasure({"a": 0.75, "b": 0.25})
    big = discrete("big", ["x", "y"], ["a", "b"], ground)
    small = discrete("small", ["z"], ["a"], ground)
    # the empty event and {b} complete the level to a sigma-algebra
    events = {"big": big, "small": small, "empty": discrete("empty", [], [], ground),
              "rest": discrete("rest", ["w"], ["b"], ground)}
    up = EventMap("up", small, big, {0: {"z": "x"}})
    cat = FiniteCategory(events, [Morphism("up", "small", "big", up)], {})
    F = FilteredSigmaAlgebra(idx, events, {idx.points[0]: sorted(events)})
    site = build_tau_P(F, P, cat)[idx.points[0]]
    assert "up" in site.valid["big"]           # P rises along the arrow: covers
    # the reverse arrow lowers P at the target: excluded
    down = EventMap("down", big, small, {0: {"x": "z", "y": "z"}},
                    atom_map={"a": "a", "b": "a"})
    cat2 = FiniteCategory(events, [Morphism("down", "big", "small", down)], {})
    site2 = build_tau_P(F, P, cat2)[idx.points[0]]
    assert "down" not in site2.valid["small"]


def test_the_first_arrow_in_name_order_names_a_build_error():
    """tau_P asks P of both ends of each arrow; here the arrow into the
    first object (b: C -> A) and the first arrow by name (a: B -> C) each
    reach an end with no event, and the first arrow by name names it."""
    ground = frozenset("x")
    events = {"A": discrete("A", ["v"], ["x"], ground), "B": discrete("B", [], [], ground),
              "C": discrete("C", ["w"], ["x"], ground)}
    cat = FiniteCategory({"A": events["A"], "B": None, "C": None},
                         [Morphism("a", "B", "C"), Morphism("b", "C", "A")])
    idx = FramedIndex([0])
    F = FilteredSigmaAlgebra(idx, events, {idx.points[0]: sorted(events)})
    with pytest.raises(PreconditionError) as refused:
        build_tau_P(F, ProbabilityMeasure({"x": 1.0}), cat)
    assert str(refused.value) == "object 'B' carries no simplicial event"


def test_levels_weighed_by_different_measures_each_verify_as_alone():
    """Two levels of one category whose measures differ: each level's rows
    are its own `verify_grothendieck` rows, prefixed, whatever the other
    level weighed first."""
    cat = fixtures.load_fixture("four_events").category
    coverings = build_tau_structural(cat).coverings
    early, late = FramedIndex([0, 1]).points
    levels = {early: GrothendieckSite(cat, coverings, "uniform",
                                      ProbabilityMeasure({"a": 0.5, "b": 0.5})),
              late: GrothendieckSite(cat, coverings, "skewed",
                                     ProbabilityMeasure({"a": 0.75, "b": 0.25}))}
    expected = Report()
    for p, site in levels.items():
        expected.extend(verify_grothendieck(site), prefix=f"level {p!r}: ")
    rows = [row for row in verify_filtered(levels).rows if row[0] != "level-monotone"]
    assert rows == expected.rows
    assert any("P=0.75" in row[3] for row in rows)


def test_probability_chain_matches_filter_oracle():
    # every chain of inclusions of the power set, with its incomparable events
    site, P = power_set_site()
    cat = site.category
    for name in sorted(cat.morphisms):
        m = cat.morphisms[name]
        expected = P(cat.event(m.source)) <= P(cat.event(m.target))
        assert (name in site.valid[m.target]) == (expected or cat.is_isomorphism(name))


# -- structural topology ---------------------------------------------------------------

def test_structural_identity_family_covers():
    model = fixtures.load_fixture("four_events")
    site = build_tau_structural(model.category)
    assert "id:e_ab" in site.valid["e_ab"]


def test_structural_excludes_non_mono():
    big = discrete("big", ["x", "y"], ["a", "b"], GROUND)
    one = discrete("one", ["z"], ["a", "b"], GROUND)
    squash = EventMap("squash", big, one, {0: {"x": "z", "y": "z"}})
    inc = EventMap("inc", one, big, {0: {"z": "x"}})
    cat = FiniteCategory({"big": big, "one": one},
                         [Morphism("squash", "big", "one", squash),
                          Morphism("inc", "one", "big", inc)],
                         {("squash", "inc"): "id:one"})
    site = build_tau_structural(cat)
    assert "squash" not in site.valid["one"]
    assert "inc" in site.valid["big"]
    assert "id:one" in site.valid["one"]


def test_structural_coverings_equal_mono_filter_oracle():
    model = fixtures.load_fixture("six_events")
    site = build_tau_structural(model.category)
    from deltasite.events import is_monomorphism
    for name in sorted(model.category.morphisms):
        m = model.category.morphisms[name]
        if model.category.is_identity(name):
            expected = True
        else:
            expected = is_monomorphism(m.event_map)
        assert (name in site.valid[m.target]) == expected


# -- axiom verification ---------------------------------------------------------------

def test_verify_passes_on_hand_built_four_event_site():
    model = fixtures.load_fixture("four_events")
    report = verify_filtered(build_tau_P(model.filtration, model.measure,
                                         model.category))
    assert report.passed
    assert any(r.check_id == "base-change" for r in report.records)
    assert any(r.check_id == "composition" for r in report.records)


def test_verify_trivial_site_passes():
    cat, F, P, idx = chain_model()
    site = build_tau_operadic(F, cat)[idx.points[0]]  # iso covers only
    assert verify_grothendieck(site).passed


def test_verify_names_omitted_base_change_instance():
    model = fixtures.load_fixture("defect_operad_gap")
    report = verify_filtered(build_tau_operadic(model.filtration, model.category))
    assert not report.passed
    failures = {r.instance for r in report.failures()}
    assert "level (1,1): (i:e_a>e_ab, i:e_b>e_ab)" in failures


def test_verify_reports_missing_pullback_with_cospan():
    model = fixtures.load_fixture("defect_missing_pullback")
    report = verify_grothendieck(build_tau_structural(model.category))
    assert not report.passed
    bad = [r for r in report.failures() if "missing pullback" in r.witness]
    assert any("(i:e_ab>e_abc, i:e_c>e_abc)" == r.instance for r in bad)


def test_probability_verification_asserts_measure_chain():
    model = fixtures.load_fixture("four_events")
    report = verify_filtered(build_tau_P(model.filtration, model.measure,
                                         model.category))
    chains = [r for r in report.records
              if r.check_id == "base-change" and "P=" in r.witness]
    assert chains, "base-change instances must carry the measure chain"
    for r in chains:
        assert r.status == "pass"
    # the composition axiom carries its transitivity chain on every instance
    comp_chains = [r for r in report.records
                   if r.check_id == "composition" and "P chain" in r.witness]
    assert comp_chains and all(r.status == "pass" for r in comp_chains)


def test_filtered_verification_checks_level_monotonicity():
    model = fixtures.load_fixture("four_events")
    report = verify_filtered(build_tau_P(model.filtration, model.measure,
                                         model.category))
    assert any(r.check_id == "level-monotone" for r in report.records)


def test_all_bundled_passing_fixtures_verify_everywhere():
    for name in fixtures.PASSING_FIXTURES:
        model = fixtures.load_fixture(name)
        assert model.category.check_axioms().records == [], name
        assert verify_grothendieck(build_tau_structural(model.category)).passed, name
        assert verify_filtered(build_tau_P(model.filtration, model.measure,
                                           model.category)).passed, name
        assert verify_filtered(build_tau_operadic(model.filtration,
                                                  model.category)).passed, name


# -- checks that no built site fails, made to fail on hand-made sites --------------

def test_isomorphism_outside_every_family_fails_isomorphisms_cover():
    # the overlap site files no family holding id:U
    report = verify_grothendieck(overlap_site())
    isos = {r.instance: r.status for r in report.records
            if r.check_id == "isomorphisms-cover"}
    assert isos == {"id:U": "fail", "id:V1": "pass", "id:V2": "pass", "id:W": "pass"}


def test_covering_filed_under_an_unknown_object_is_refused():
    overlap = overlap_site()
    coverings = dict(overlap.coverings)
    coverings["u"] = coverings.pop("U")
    with pytest.raises(PreconditionError, match="not in the category: 'u'$"):
        GrothendieckSite(overlap.category, coverings, "misspelled")


def test_covering_member_that_is_not_a_morphism_is_refused():
    overlap = overlap_site()
    coverings = dict(overlap.coverings)
    coverings["U"] = (*coverings["U"], ("nope",))
    with pytest.raises(PreconditionError, match="covering morphism 'nope' is not in the category$"):
        GrothendieckSite(overlap.category, coverings, "misspelled")


@pytest.mark.parametrize("bad, error", [
    # bad members at W, V2 and V1 (in both of its families), filed out of
    # sorted order: V1 is the first object in sorted order, f2 its first bad member
    ({"W": [("nope",)], "V2": [("h",)], "V1": [("id:V1", "f2"), ("nope",)]},
     "covering morphism 'f2' does not end at 'V1'"),
    # V1's first family is sound, its second holds two bad members
    ({"W": [("f1",)], "V1": [("id:V1", "g1"), ("g2", "nope")]},
     "covering morphism 'g2' does not end at 'V1'"),
    # a name that is no morphism, before a member ending at another object
    ({"W": [("f1",)], "V1": [("id:V1", "nope", "f2")]},
     "covering morphism 'nope' is not in the category"),
    # every member is a morphism, but one of the last object's ends elsewhere
    ({"W": [("id:W",), ("g1",)]}, "covering morphism 'g1' does not end at 'W'"),
])
def test_the_first_bad_covering_member_is_named_in_object_family_member_order(bad, error):
    overlap = overlap_site()
    with pytest.raises(PreconditionError) as refused:
        GrothendieckSite(overlap.category, {**overlap.coverings, **bad}, "bad members")
    assert str(refused.value) == error


def test_cover_dropped_at_a_later_level_fails_level_monotone():
    cat, _, _, _ = chain_model()
    early, late = FramedIndex([0, 1]).points

    def site(covers):
        families = {obj: [(f"id:{obj}",)] for obj in cat.objects}
        for m in covers:
            families[cat.morphisms[m].target].append((m,))
        return GrothendieckSite(cat, families, "hand")

    # the later site still contains i:e_a>e_ab but no longer admits it
    report = verify_filtered({early: site(["i:e_a>e_ab"]), late: site([])})
    lost = [r for r in report.records
            if r.check_id == "level-monotone" and r.status == "fail"]
    assert [(r.instance, r.witness) for r in lost] == [
        ("i:e_a>e_ab at (0,1)->(1,1)", "cover lost at later level")]

    # the same levels handed over latest first are walked in index order
    reversed_map = verify_filtered({late: site([]), early: site(["i:e_a>e_ab"])})
    assert reversed_map.records == report.records


def falling_site():
    """A cover big -> small along which P falls: the event map sends atom b
    onto a, so the source's mass 1 exceeds the target's 0.75."""
    ground = frozenset("ab")
    big = discrete("big", ["x", "y"], ["a", "b"], ground)
    small = discrete("small", ["z"], ["a"], ground)
    down = EventMap("down", big, small, {0: {"x": "z", "y": "z"}},
                    atom_map={"a": "a", "b": "a"})
    cat = FiniteCategory({"big": big, "small": small},
                         [Morphism("down", "big", "small", down)], {})
    return GrothendieckSite(cat, {"big": [("id:big",)],
                                  "small": [("id:small",), ("down",)]},
                            "falling", ProbabilityMeasure({"a": 0.75, "b": 0.25}))


def test_pullback_apex_heavier_than_the_intersection_fails_base_change():
    site = falling_site()
    report = verify_grothendieck(site)
    [record] = [r for r in report.records if r.instance == "(down, id:small)"]
    # the projection down is admitted: only the measure chain fails, since the
    # apex big weighs 1.0 and big's atoms meet small's in {a}, weighing 0.75
    assert "down" in site.valid["small"]
    assert record.check_id == "base-change" and record.status == "fail"
    assert record.witness == ("projection down: big -> small; "
                              "P=1.0<=P(product)=0.75<=P(small)=0.75")


def test_product_heavier_than_gamma_fails_the_base_change_tail():
    """The chain's tail P(w_i x gamma) <= P(gamma) holds for every
    ProbabilityMeasure; a hand-made measure that puts less mass on U than on
    its part V1 makes exactly that clause fail."""
    overlap = overlap_site()

    def mass(event):
        atoms = event.atoms if isinstance(event, SimplicialEvent) else frozenset(event)
        return 0.25 if atoms == frozenset("abc") else len(atoms) / 4

    def record(measure):
        site = GrothendieckSite(overlap.category, overlap.coverings, "tail", measure)
        [found] = [r for r in verify_grothendieck(site).records
                   if r.check_id == "base-change" and r.instance == "(f1, id:U)"]
        return found

    # identity gamma: the apex is V1, the projection f1 covers U, P(V1) equals
    # the product's 0.5, and only 0.5 <= P(U) = 0.25 fails
    assert "f1" in overlap.valid["U"]
    bad = record(mass)
    assert bad.status == "fail"
    assert bad.witness == "projection f1: V1 -> U; P=0.5<=P(product)=0.5<=P(U)=0.25"
    good = record(ProbabilityMeasure({"a": 0.25, "b": 0.25, "c": 0.5}))
    assert good.status == "pass"


def test_cover_along_which_p_falls_fails_composition():
    site = falling_site()
    report = verify_grothendieck(site)
    [record] = [r for r in report.records if r.instance == "(down, id:big)"]
    # the composite down is admitted: only the chain P(big) <= P(small) fails
    assert "down" in site.valid["small"]
    assert record.check_id == "composition" and record.status == "fail"
    assert record.witness == "composite down; P chain 1.0<=1.0<=0.75"


# -- the verifier against its per-instance form ------------------------------------

def referee_grothendieck(site):
    """verify_grothendieck as it was written before its lookup tables: the
    cospan resolved and the measure chain computed afresh per instance."""
    cat = site.category

    def pullback(left, right):
        lm, rm = cat.morphisms[left], cat.morphisms[right]
        if cat.is_identity(right):
            return lm.source, cat.identities[lm.source], left
        if cat.is_identity(left):
            return rm.source, right, cat.identities[rm.source]
        if (left, right) in cat.pullbacks:
            apex, to_left, to_right = cat.pullbacks[(left, right)]
            return apex, to_left, to_right
        if (right, left) in cat.pullbacks:
            apex, to_right, to_left = cat.pullbacks[(right, left)]
            return apex, to_left, to_right
        return None

    def measure_chain(cover_src, gamma, apex):
        P = site.measure
        p_apex = P(cat.event(apex))
        p_prod = P(cat.event(cover_src).atoms & cat.event(gamma).atoms)
        p_gamma = P(cat.event(gamma))
        ok = p_apex <= p_prod <= p_gamma
        return ok, f"P={p_apex}<=P(product)={p_prod}<=P({gamma})={p_gamma}"

    report = Report()
    for name in sorted(cat.morphisms):
        if cat.is_isomorphism(name):
            report.add("isomorphisms-cover", name,
                       name in site.valid[cat.morphisms[name].target])
    members = {obj: [(mi, cat.morphisms[mi].source)
                     for fam in site.coverings[obj] for mi in fam]
               for obj in sorted(cat.objects)}
    for obj, covers in members.items():
        for mi, src in covers:
            for g in cat.arrows_in[obj]:
                gamma = cat.morphisms[g].source
                instance = f"({mi}, {g})"
                sq = pullback(mi, g)
                if sq is None:
                    report.add("base-change", instance, False,
                               f"missing pullback for cospan ({src} -> {obj} <- {gamma})")
                    continue
                apex, _, proj = sq
                ok = proj in site.valid[gamma]
                witness = f"projection {proj}: {apex} -> {gamma}"
                if site.measure is not None:
                    chain_ok, chain = measure_chain(src, gamma, apex)
                    ok = ok and chain_ok
                    witness += "; " + chain
                report.add("base-change", instance, ok, witness)
    for obj, covers in members.items():
        for mi, src in covers:
            for mij, src2 in members[src]:
                instance = f"({mi}, {mij})"
                comp = cat.composition.get((mi, mij))
                if comp is None:
                    report.add("composition", instance, False,
                               f"composite of {mi} after {mij} missing from the table")
                    continue
                ok = comp in site.valid[obj]
                witness = f"composite {comp}"
                if site.measure is not None:
                    P = site.measure
                    p_ij, p_i, p_o = (P(cat.event(e)) for e in (src2, src, obj))
                    ok = ok and p_ij <= p_i <= p_o
                    witness += f"; P chain {p_ij}<={p_i}<={p_o}"
                report.add("composition", instance, ok, witness)
    return report


def every_site(model):
    """The structural site and every level of the probability and operadic
    topologies of a model."""
    yield build_tau_structural(model.category)
    yield from build_tau_P(model.filtration, model.measure, model.category).values()
    yield from build_tau_operadic(model.filtration, model.category).values()


def assert_referee_agrees(site):
    records = verify_grothendieck(site).records
    assert records == referee_grothendieck(site).records, site.label
    return records


def test_verifier_matches_referee_on_every_bundled_fixture():
    for name in fixtures.ALL_FIXTURES:
        sites = list(every_site(fixtures.load_fixture(name)))
        assert len(sites) >= 3, name
        for site in sites:
            assert_referee_agrees(site)


def assert_filtered_referee_agrees(model):
    """verify_filtered's records on the probability and operadic levels of
    model are the referee's per level, prefixed, then the level-monotone ones."""
    for levels in (build_tau_P(model.filtration, model.measure, model.category),
                   build_tau_operadic(model.filtration, model.category)):
        records = verify_filtered(levels).records
        expected = Report()
        for p, site in levels.items():
            expected.extend(referee_grothendieck(site), prefix=f"level {p!r}: ")
        expected.rows += [r for r in records if r.check_id == "level-monotone"]
        assert records == expected.records


def test_filtered_verifier_prefixes_the_referee_records_per_level():
    for name in fixtures.ALL_FIXTURES:
        assert_filtered_referee_agrees(fixtures.load_fixture(name))


def test_verifier_matches_referee_on_hand_made_sites():
    overlap = overlap_site()
    assert any(r.status == "fail" for r in assert_referee_agrees(overlap))
    weighted = GrothendieckSite(overlap.category, overlap.coverings, "overlap-P",
                                ProbabilityMeasure({"a": 0.5, "b": 0.25, "c": 0.25}))
    assert any("P(product)" in r.witness for r in assert_referee_agrees(weighted))
    falling = assert_referee_agrees(falling_site())
    assert {"(down, id:small)", "(down, id:big)"} <= {
        r.instance for r in falling if r.status == "fail"}


# power-set lattices of 2-4 atoms: an atom order, block sizes that cut it
# into the middle level's blocks, and raw atom weights (zeros allowed)
LATTICE_CASES = hst.integers(2, 4).flatmap(lambda n: hst.tuples(
    hst.permutations("abcd"[:n]),
    hst.lists(hst.integers(1, 3), min_size=n, max_size=n),
    hst.lists(hst.integers(0, 5), min_size=n, max_size=n).filter(any)))


def lattice_model(case):
    """The three-level power-set model of a LATTICE_CASES draw."""
    order, block_sizes, raw = case
    atoms = sorted(order)
    parts, start = [], 0
    for size in block_sizes:
        if start < len(order):
            parts.append(frozenset(order[start:start + size]))
            start += size
    middle = {frozenset().union(*c) for r in range(len(parts) + 1)
              for c in itertools.combinations(parts, r)}
    subsets = [frozenset(c) for r in range(len(atoms) + 1)
               for c in itertools.combinations(atoms, r)]
    weights = {a: w / sum(raw) for a, w in zip(atoms, raw)}
    return fixtures.subset_model(atoms, subsets,
                                 [[frozenset(), frozenset(atoms)], middle, subsets],
                                 weights)


@settings(max_examples=25, deadline=None)
@given(LATTICE_CASES)
def test_verifier_matches_referee_on_random_lattices(case):
    for site in every_site(lattice_model(case)):
        assert_referee_agrees(site)


TAIL = re.compile(r"<=P\(product\)=(.+)<=P\(.+\)=(.+)$")


@settings(max_examples=25, deadline=None)
@given(LATTICE_CASES)
def test_base_change_tail_holds_for_every_probability_measure(case):
    """P(w_i x gamma) <= P(gamma) on every base-change instance, of the
    probability levels and of the structural site weighed by the same P."""
    model = lattice_model(case)
    structural = build_tau_structural(model.category)
    weighed = [GrothendieckSite(model.category, structural.coverings, "weighed",
                                model.measure),
               *build_tau_P(model.filtration, model.measure, model.category).values()]
    tails = [TAIL.search(r.witness) for site in weighed
             for r in verify_grothendieck(site).records if r.check_id == "base-change"]
    assert tails and all(tails)
    assert all(float(m[1]) <= float(m[2]) for m in tails)


@settings(max_examples=50, deadline=None)
@given(LATTICE_CASES, hst.sampled_from(("pullback", "generator")), hst.integers(0, 10**6))
def test_verifiers_match_referee_with_one_declaration_dropped(case, kind, pick):
    """A random lattice model without one declared pullback or one operad
    generator, dropped from its model file: both verifiers still agree with
    the referee record for record, and a dropped pullback fails base change."""
    doc = json.loads(serialize_model(lattice_model(case)))
    entries = doc["category"]["pullbacks"] if kind == "pullback" else doc["operad"]
    dropped = entries.pop(pick % len(entries))
    model = parse_model(json.dumps(doc))
    for site in every_site(model):
        assert_referee_agrees(site)
    assert_filtered_referee_agrees(model)
    if kind == "pullback":
        # every inclusion is a monomorphism, so a structural cover
        report = verify_grothendieck(build_tau_structural(model.category))
        missing = {r.instance for r in report.failures()
                   if r.check_id == "base-change" and "missing pullback" in r.witness}
        assert f"({dropped['left']}, {dropped['right']})" in missing


# -- categories that are not thin ----------------------------------------------------

def every_arrow_site(cat):
    """Every arrow into each object covers it, as a singleton family."""
    return GrothendieckSite(cat, {obj: [(g,) for g in cat.arrows_in[obj]]
                                  for obj in cat.objects}, "every-arrow")


def paths_taken(cat):
    """Which of the paths that no lattice reaches cat takes: parallel arrows,
    an isomorphism that is not an identity, and a base change resolved by a
    square declared the other way round."""
    taken = set()
    if any(len(cat.arrows_in[s]) > len(set(cat.morphisms[g].source
                                       for g in cat.arrows_in[s]))
           for s in cat.objects):
        taken.add("parallel")
    if any(not cat.is_identity(n) and cat.is_isomorphism(n) for n in cat.morphisms):
        taken.add("isomorphism")
    for obj in cat.objects:
        for mi in cat.arrows_in[obj]:
            for g in cat.arrows_in[obj]:
                if (not (cat.is_identity(mi) or cat.is_identity(g))
                        and (mi, g) not in cat.pullbacks and (g, mi) in cat.pullbacks):
                    taken.add("swapped")
    return taken


@settings(max_examples=200, deadline=None)
@given(small_categories())
def test_verifier_matches_referee_on_categories_that_are_not_thin(cat):
    assert_referee_agrees(every_arrow_site(cat))


@settings(max_examples=200, deadline=None)
@given(small_categories())
def test_isomorphism_set_is_every_arrow_that_inverts(cat):
    assert cat.isomorphisms == {n for n in cat.morphisms if cat.is_isomorphism(n)}


def test_categories_that_are_not_thin_reach_every_path():
    """The random categories above have parallel arrows, isomorphisms that
    are not identities, and squares that resolve only swapped."""
    taken = set()

    @settings(max_examples=200, deadline=None)
    @given(small_categories())
    def collect(cat):
        taken.update(paths_taken(cat))

    collect()
    assert taken == {"parallel", "isomorphism", "swapped"}
