import functools
import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from deltasite import fixtures, model_io
from deltasite.categories import FiniteCategory, Morphism
from deltasite.errors import PreconditionError, StructuralError

from conftest import chain_category, swap_model


# -- axiom report ------------------------------------------------------------------

def violations(cat):
    """The instances of check_axioms' records, each a category-axioms fail."""
    records = cat.check_axioms().records
    assert all((r.check_id, r.status, r.witness) == ("category-axioms", "fail", "")
               for r in records)
    return [r.instance for r in records]


def test_check_axioms_passes_on_closed_chain():
    assert violations(chain_category(4)) == []


def test_check_axioms_flags_missing_composite():
    objs = {o: None for o in "ABC"}
    morphisms = [Morphism("f", "A", "B"), Morphism("g", "B", "C")]
    cat = FiniteCategory(objs, morphisms, {})
    assert any("composition undefined for (g, f)" in v for v in violations(cat))


def test_check_axioms_flags_noncommuting_pullback():
    objs = {o: None for o in "PABC"}
    morphisms = [Morphism("f", "A", "C"), Morphism("g", "B", "C"),
                 Morphism("pa", "P", "A"), Morphism("pb", "P", "B"),
                 Morphism("u", "P", "C"), Morphism("v", "P", "C")]
    comp = {("f", "pa"): "u", ("g", "pb"): "v"}  # legs disagree
    cat = FiniteCategory(objs, morphisms, comp, {("f", "g"): ("P", "pa", "pb")})
    assert any("does not commute" in v for v in violations(cat))


def test_check_axioms_flags_a_square_missing_a_composite_in_a_thin_category():
    """Every hom-set holds one arrow at most, so no two composites can differ,
    but a square whose composite is missing still does not commute."""
    objs = {o: None for o in "PABC"}
    morphisms = [Morphism("f", "A", "C"), Morphism("g", "B", "C"),
                 Morphism("pa", "P", "A"), Morphism("pb", "P", "B"), Morphism("u", "P", "C")]
    cat = FiniteCategory(objs, morphisms, {("f", "pa"): "u"}, {("f", "g"): ("P", "pa", "pb")})
    assert violations(cat) == ["composition undefined for (g, pb)",
                               "declared pullback square (f, g) does not commute"]


# -- cospan resolution ---------------------------------------------------------------

def square_category():
    """A -f-> C <-g- B with the declared pullback P (legs pa, pb), a third
    arrow h: D -> C whose cospans with f and g are undeclared."""
    objs = {o: None for o in "ABCDP"}
    morphisms = [Morphism("f", "A", "C"), Morphism("g", "B", "C"),
                 Morphism("h", "D", "C"), Morphism("pa", "P", "A"),
                 Morphism("pb", "P", "B"), Morphism("u", "P", "C")]
    comp = {("f", "pa"): "u", ("g", "pb"): "u"}
    return FiniteCategory(objs, morphisms, comp, {("f", "g"): ("P", "pa", "pb")})


@pytest.mark.parametrize("left, right, expected", [
    ("f", "id:C", ("A", "id:A", "f")),          # identity on the right
    ("id:C", "g", ("B", "g", "id:B")),          # identity on the left
    ("id:C", "id:C", ("C", "id:C", "id:C")),    # both identities
    ("f", "g", ("P", "pa", "pb")),              # the declared square
    ("g", "f", ("P", "pb", "pa")),              # declared only with swapped legs
])
def test_pullback_of_resolves_cospans(left, right, expected):
    assert square_category().pullback_legs(left, right) == expected


def test_pullback_of_returns_none_for_an_undeclared_cospan():
    cat = square_category()
    assert cat.pullback_legs("f", "h") is None
    assert cat.pullback_legs("h", "g") is None


def test_pullback_of_refuses_a_non_cospan():
    cat = square_category()
    with pytest.raises(PreconditionError, match="not a cospan"):
        cat.pullback_legs("pa", "f")
    with pytest.raises(PreconditionError, match="not a cospan"):
        cat.pullback_legs("f", "id:A")


def test_parsed_squares_are_plain_legs_that_pullback_legs_returns():
    """A parsed category files each square as the tuple of its legs, three
    names, which the collector stops tracking; pullback_legs hands that
    tuple back, and its swap for the reversed cospan."""
    for cat in (fixtures.load_fixture("six_events").category, lattice4()):
        gc.collect()
        assert cat.pullbacks
        for (l, r), legs in cat.pullbacks.items():
            assert type(legs) is tuple and len(legs) == 3
            assert all(type(name) is str for name in legs)
            assert not gc.is_tracked(legs)
            assert cat.pullback_legs(l, r) == legs
            if (r, l) not in cat.pullbacks:
                apex, to_left, to_right = legs
                assert cat.pullback_legs(r, l) == (apex, to_right, to_left)


def test_constructor_rejects_bad_references():
    with pytest.raises(StructuralError):
        FiniteCategory({"A": None}, [Morphism("f", "A", "Z")])
    with pytest.raises(StructuralError):
        FiniteCategory({"A": None}, [], {("f", "g"): "h"})


def test_full_subcategory_restricts_tables():
    cat = chain_category(3)
    sub = cat.full_subcategory(["A", "B"])
    assert sorted(sub.objects) == ["A", "B"]
    assert "f01" in sub.morphisms and "f02" not in sub.morphisms
    assert violations(sub) == []


def tables(cat):
    """Every table of a category, by value."""
    return (cat.objects,
            {n: (m.source, m.target) for n, m in cat.morphisms.items()},
            cat.identities, cat.composition,
            dict(cat.pullbacks),
            {o: list(cat.arrows_in[o]) for o in cat.objects},
            {o: cat.morphisms_from(o) for o in cat.objects})


def test_full_subcategory_on_every_object_keeps_the_tables():
    cat = square_category()
    before = tables(cat)
    whole = cat.full_subcategory(["P", "D", "C", "B", "A", "A"])
    assert whole is cat and tables(whole) == before
    assert violations(whole) == [] == violations(cat)
    # a proper subset is restricted as before: the square loses its apex
    sub = cat.full_subcategory(["A", "B", "C"])
    assert sorted(sub.objects) == ["A", "B", "C"]
    assert sorted(sub.morphisms) == ["f", "g", "id:A", "id:B", "id:C"]
    assert sub.pullbacks == {} and sub.pullback_legs("f", "g") is None
    assert violations(sub) == []
    with pytest.raises(KeyError, match="unknown objects"):
        cat.full_subcategory(["A", "Z"])


@pytest.mark.parametrize("name", (*fixtures.ALL_FIXTURES, "swap"))
def test_identities_carry_no_map_and_restrictions_answer_afresh(name):
    # every bundled fixture, and the swap model, where id:e_ab shares its
    # hom-set with s:e_ab; the whole category and each level's restriction
    model = model_io.parse_model(swap_model() if name == "swap"
                                 else fixtures.fixture_text(name))
    cat, F = model.category, model.filtration
    for level in (cat.objects, *(F.level(p) for p in F.index)):
        sub, fresh = assert_restriction_answers_afresh(cat, level)
        for obj in sub.objects:
            ident = sub.identities[obj]
            assert sub.morphisms[ident].event_map is None
            assert sub.is_structural(ident)
        assert {n: sub.is_structural(n) for n in sub.morphisms} == \
            {n: fresh.is_structural(n) for n in fresh.morphisms}


def test_isomorphism_detection():
    objs = {"A": None, "B": None}
    morphisms = [Morphism("f", "A", "B"), Morphism("g", "B", "A")]
    comp = {("g", "f"): "id:A", ("f", "g"): "id:B"}
    cat = FiniteCategory(objs, morphisms, comp)
    assert cat.is_isomorphism("f") and cat.is_isomorphism("g")
    assert not chain_category(2).is_isomorphism("f01")


# -- index-backed lookups against brute-force scans ------------------------------

@hst.composite
def small_categories(draw):
    """1-4 objects with parallel arrows, loops and inverse pairs; every other
    composable pair is missing or names some arrow with the right ends, so
    unit laws, associativity and declared pullbacks may all fail."""
    objs = [f"o{i}" for i in range(draw(hst.integers(1, 4)))]
    ends = draw(hst.lists(hst.tuples(hst.sampled_from(objs), hst.sampled_from(objs)),
                          max_size=6))
    arrows = [(f"a{k}", s, t) for k, (s, t) in enumerate(ends)]
    comp = {}
    for k, (name, s, t) in enumerate(list(arrows)):
        if s != t and draw(hst.booleans()):
            arrows.append((f"b{k}", t, s))
            comp[(f"b{k}", name)] = f"id:{s}"
            comp[(name, f"b{k}")] = f"id:{t}"
    ends_of = {name: (s, t) for name, s, t in arrows}
    ends_of.update({f"id:{o}": (o, o) for o in objs})
    names = sorted(ends_of)

    def fitting(s, t):
        return [h for h in names if ends_of[h] == (s, t)]

    for f in names:
        for g in names:
            if ends_of[f][1] == ends_of[g][0] and (g, f) not in comp:
                # None leaves the pair missing (or to the synthesized unit rule)
                h = draw(hst.sampled_from([None, *fitting(ends_of[f][0], ends_of[g][1])]))
                if h is not None:
                    comp[(g, f)] = h
    pullbacks = {}  # one square per cospan at most
    for _ in range(draw(hst.integers(0, 2))):
        left, right = draw(hst.sampled_from(names)), draw(hst.sampled_from(names))
        apex = draw(hst.sampled_from(objs))
        to_left = fitting(apex, ends_of[left][0])
        to_right = fitting(apex, ends_of[right][0])
        if (ends_of[left][1] == ends_of[right][1] and to_left and to_right
                and (left, right) not in pullbacks):
            pullbacks[left, right] = (apex, draw(hst.sampled_from(to_left)),
                                      draw(hst.sampled_from(to_right)))
    return FiniteCategory({o: None for o in objs},
                          [Morphism(name, s, t) for name, s, t in arrows], comp, pullbacks)


def scan_check_axioms(cat):
    """check_axioms by walking every pair and triple of morphisms."""
    mor, comp = cat.morphisms, cat.composition
    bad = []
    for f in sorted(mor):
        for g in sorted(mor):
            if mor[f].target == mor[g].source and (g, f) not in comp:
                bad.append(f"composition undefined for ({g}, {f})")
    for name, m in mor.items():
        if comp.get((cat.identities[m.target], name)) != name:
            bad.append(f"left unit fails for {name}")
        if comp.get((name, cat.identities[m.source])) != name:
            bad.append(f"right unit fails for {name}")
    for f in sorted(mor):
        for g in sorted(mor):
            for h in sorted(mor):
                if mor[f].target != mor[g].source or mor[g].target != mor[h].source:
                    continue
                gf, hg = comp.get((g, f)), comp.get((h, g))
                if gf is None or hg is None:
                    continue
                left, right = comp.get((h, gf)), comp.get((hg, f))
                if left is not None and right is not None and left != right:
                    bad.append(f"associativity fails on ({h}, {g}, {f})")
    for (l, r), (_, to_left, to_right) in sorted(cat.pullbacks.items()):
        via_left = comp.get((l, to_left))
        via_right = comp.get((r, to_right))
        if via_left is None or via_right is None or via_left != via_right:
            bad.append(f"declared pullback square ({l}, {r}) does not commute")
    return bad


def scan_is_isomorphism(cat, name):
    m = cat.morphisms[name]
    return name in cat.identities.values() or any(
        o.source == m.target and o.target == m.source
        and cat.composition.get((other, name)) == cat.identities[m.source]
        and cat.composition.get((name, other)) == cat.identities[m.target]
        for other, o in cat.morphisms.items())


@settings(max_examples=150, deadline=None)
@given(small_categories())
def test_lookups_match_brute_force_scans(cat):
    assert violations(cat) == scan_check_axioms(cat)
    for name in cat.morphisms:
        assert cat.is_identity(name) == (name in cat.identities.values())
        assert cat.is_isomorphism(name) == scan_is_isomorphism(cat, name)
    for obj in cat.objects:
        assert list(cat.arrows_in[obj]) == [
            n for n in sorted(cat.morphisms) if cat.morphisms[n].target == obj]
        assert cat.morphisms_from(obj) == [
            n for n in sorted(cat.morphisms) if cat.morphisms[n].source == obj]
    assert arrows_in(cat) == [
        (obj, [(n, (n, cat.morphisms[n].source, cat.is_identity(n)))
               for n in sorted(cat.morphisms) if cat.morphisms[n].target == obj])
        for obj in sorted(cat.objects)]


def arrows_in(cat):
    """`FiniteCategory.arrows_in` as lists, so that its order counts."""
    return [(obj, list(arrows.items())) for obj, arrows in cat.arrows_in.items()]



@settings(max_examples=150, deadline=None)
@given(small_categories())
def test_composable_pairs_match_a_scan_of_all_morphism_pairs(cat):
    mor = cat.morphisms
    assert list(cat.composable_pairs()) == [
        (f, g) for f in sorted(mor) for g in sorted(mor) if mor[f].target == mor[g].source]

def test_brute_force_strategy_reaches_every_violation_kind():
    """The random categories above produce each kind of axiom violation."""
    kinds = set()

    @settings(max_examples=300, deadline=None)
    @given(small_categories())
    def collect(cat):
        kinds.update(v.split(" ")[0] for v in violations(cat))

    collect()
    assert kinds == {"composition", "left", "right", "associativity", "declared"}


# -- construction errors against a row-by-row reference ------------------------------

def reference_construction_error(objects, morphisms, composition, pullbacks):
    """The text of the first StructuralError that construction raises,
    found one row at a time, or None if the tables are sound."""
    known = {}
    for m in morphisms:
        if m.name in known:
            return f"duplicate morphism name {m.name!r}"
        for end in (m.source, m.target):
            if end not in objects:
                return f"morphism {m.name!r} references unknown object {end!r}"
        if m.event_map is not None:
            if objects[m.source] is not None and m.event_map.source is not objects[m.source]:
                return f"morphism {m.name!r}: event map source mismatch"
            if objects[m.target] is not None and m.event_map.target is not objects[m.target]:
                return f"morphism {m.name!r}: event map target mismatch"
        known[m.name] = m
    for obj in objects:
        if f"id:{obj}" in known:
            return f"morphism name {f'id:{obj}'!r} is reserved for the identity"
        known[f"id:{obj}"] = Morphism(f"id:{obj}", obj, obj)
    for (g, f), h in composition.items():
        for name in (g, f, h):
            if name not in known:
                return f"composition rule references unknown morphism {name!r}"
        if known[f].target != known[g].source:
            return f"composition rule ({g!r}, {f!r}) is not composable"
        if known[h].source != known[f].source or known[h].target != known[g].target:
            return f"composite {h!r} has wrong endpoints for ({g!r}, {f!r})"
    for (l, r), (apex, to_left, to_right) in pullbacks.items():
        for name in (l, r):
            if name not in known:
                return f"pullback square references unknown morphism {name!r}"
        left, right = known[l], known[r]
        if left.target != right.target:
            return f"pullback of ({l!r}, {r!r}): targets differ"
        if apex not in objects:
            return f"pullback apex {apex!r} is not an object"
        for leg, want in ((to_left, left.source), (to_right, right.source)):
            lm = known.get(leg)
            if lm is None or lm.source != apex or lm.target != want:
                return f"pullback of ({l!r}, {r!r}): bad leg {leg!r}"
    return None


@functools.cache
def lattice4():
    """The category of the power-set lattice on four atoms, read from its
    model document."""
    subsets = [frozenset(c) for r in range(5) for c in itertools.combinations("abcd", r)]
    return fixtures.subset_model("abcd", subsets, [subsets], {a: 0.25 for a in "abcd"}).category


DEFECTS = ("unknown name", "not composable", "wrong composite endpoints", "targets differ",
           "apex not an object", "bad leg", "unknown object", "event map mismatch")


@settings(max_examples=300, deadline=None)
@given(defects=hst.lists(hst.sampled_from(DEFECTS), min_size=1, max_size=2), data=hst.data())
def test_construction_errors_match_a_row_by_row_reference(defects, data):
    """One or two rows of the lattice's tables, at random places, get a
    defect each; construction raises the reference's first error, word for
    word."""
    cat = lattice4()
    morphisms = [m for name, m in cat.morphisms.items() if not cat.is_identity(name)]
    rules = [[g, f, h] for (g, f), h in cat.composition.items()
             if not (cat.is_identity(g) or cat.is_identity(f))]
    squares = [(l, r, *legs) for (l, r), legs in cat.pullbacks.items()]
    ends = {name: (m.source, m.target) for name, m in cat.morphisms.items()}

    def other(*tests):
        """A morphism name whose (source, target) passes one of tests: the
        first of them, in a drawn order, that some morphism passes."""
        for test in data.draw(hst.permutations(tests)):
            names = sorted(n for n in ends if test(*ends[n]))
            if names:
                return data.draw(hst.sampled_from(names))
        raise AssertionError("no morphism fits")

    touched = set()

    def row(table):
        """The place of a row of table that no defect has touched yet."""
        i = data.draw(hst.sampled_from([i for i in range(len(table))
                                        if (id(table), i) not in touched]))
        touched.add((id(table), i))
        return i

    for defect in defects:
        if defect in ("unknown object", "event map mismatch"):
            i = row(morphisms)
            m = morphisms[i]
            if defect == "unknown object":
                morphisms[i] = Morphism(m.name, m.source, "ghost", m.event_map)
            else:
                stranger = data.draw(hst.sampled_from(
                    [n.event_map for n in morphisms if n.source != m.source]))
                morphisms[i] = Morphism(m.name, m.source, m.target, stranger)
        elif defect in ("not composable", "wrong composite endpoints") or (
                defect == "unknown name" and data.draw(hst.booleans())):
            i = row(rules)
            g, f, h = rules[i]
            if defect == "unknown name":
                rules[i][data.draw(hst.integers(0, 2))] = "ghost"
            elif defect == "not composable":
                rules[i][0] = other(lambda s, t: s != ends[f][1])
            else:
                rules[i][2] = other(lambda s, t: s != ends[f][0] and t == ends[g][1],
                                    lambda s, t: s == ends[f][0] and t != ends[g][1])
        else:
            # a square is (left, right, apex, to_left, to_right)
            i = row(squares)
            sq = squares[i]
            left, right, apex = sq[:3]
            if defect == "unknown name":
                k = data.draw(hst.sampled_from((0, 1)))
                squares[i] = (*sq[:k], "ghost", *sq[k + 1:])
            elif defect == "targets differ":
                squares[i] = (left, other(lambda s, t: t != ends[left][1]), *sq[2:])
            elif defect == "apex not an object":
                squares[i] = (left, right, "ghost", *sq[3:])
            else:
                k = data.draw(hst.sampled_from((3, 4)))
                side = ends[left if k == 3 else right][0]
                squares[i] = (*sq[:k], other(lambda s, t: s != apex and t == side,
                                             lambda s, t: s == apex and t != side), *sq[k + 1:])
    composition = {(g, f): h for g, f, h in rules}
    pullbacks = {(l, r): tuple(legs) for l, r, *legs in squares}
    expected = reference_construction_error(cat.objects, morphisms, composition, pullbacks)
    assert expected is not None
    with pytest.raises(StructuralError) as err:
        FiniteCategory(cat.objects, morphisms, composition, pullbacks)
    assert str(err.value) == expected


# -- restrictions against a category built afresh ---------------------------------------

def restriction_rows(cat, objs):
    """The rows of cat's full subcategory on objs, kept by their definition
    from a scan of cat's tables: the arrows with both ends in objs, the rules
    among them, and the squares whose sides and apex lie in objs."""
    objs = set(objs)
    arrows = {n: m for n, m in cat.morphisms.items() if m.source in objs and m.target in objs}
    rules = {(g, f): h for (g, f), h in cat.composition.items() if g in arrows and f in arrows}
    squares = {(l, r): legs for (l, r), legs in cat.pullbacks.items()
               if l in arrows and r in arrows and legs[0] in objs}
    return arrows, rules, squares


def assert_restriction_answers_afresh(cat, objs):
    """cat's restriction to objs keeps the rows the definition keeps, and
    answers every lookup and the axiom report like the category the
    constructor builds from those rows; returns the two."""
    sub = cat.full_subcategory(objs)
    arrows, rules, squares = restriction_rows(cat, objs)
    assert sub.objects == {o: cat.objects[o] for o in set(objs)}
    assert {n: (m.source, m.target, m.event_map) for n, m in sub.morphisms.items()} == \
        {n: (m.source, m.target, m.event_map) for n, m in arrows.items()}
    assert sub.composition == rules
    assert sub.pullbacks == squares
    fresh = FiniteCategory(sub.objects,
                           [m for n, m in sub.morphisms.items() if not sub.is_identity(n)],
                           sub.composition, sub.pullbacks)
    assert tables(sub) == tables(fresh)
    assert sub.isomorphisms == fresh.isomorphisms
    assert arrows_in(sub) == arrows_in(fresh)
    for obj in sub.objects:
        into = list(sub.arrows_in[obj])
        assert [sub.pullback_legs(l, r) for l in into for r in into] == \
            [fresh.pullback_legs(l, r) for l in into for r in into]
    assert sub.check_axioms().records == fresh.check_axioms().records
    return sub, fresh


@pytest.mark.parametrize("n", range(1, 5))
def test_lattice_restrictions_answer_like_their_rows_built_afresh(n):
    atoms = "abcd"[:n]
    subsets = [frozenset(c) for r in range(n + 1) for c in itertools.combinations(atoms, r)]
    model = fixtures.subset_model(atoms, subsets, [[frozenset(), frozenset(atoms)], subsets],
                                  {a: 1 / n for a in atoms})
    cat, F = model.category, model.filtration
    cuts = [F.level(p) for p in F.index]
    # without the empty event, every square of two disjoint events loses its apex
    cuts.append([o for o in cat.objects if o != "empty"])
    cuts.append(["empty", *(f"e_{atoms[:k]}" for k in range(1, n))])
    for objs in cuts:
        assert_restriction_answers_afresh(cat, objs)


@settings(max_examples=150, deadline=None)
@given(cat=small_categories(), data=hst.data())
def test_restrictions_to_random_objects_answer_like_their_rows_built_afresh(cat, data):
    objs = data.draw(hst.sets(hst.sampled_from(sorted(cat.objects))))
    assert_restriction_answers_afresh(cat, objs)
