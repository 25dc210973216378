
import itertools
import random

import pytest
from scipy.special import ndtr

from deltasite import fixtures
from deltasite.errors import PreconditionError, StructuralError
from deltasite.sheaves import (Presheaf, check_sheaf_condition,
                               constant_presheaf, transversal_cone_check)
from deltasite.categories import FiniteCategory, Morphism
from deltasite.sites import (GrothendieckSite, build_tau_operadic, build_tau_P,
                             build_tau_structural)

from conftest import discrete, overlap_site

GROUND = frozenset("abc")


# -- gluing --------------------------------------------------------------------

def test_constant_presheaf_glues_on_fixture_sites():
    for name in fixtures.PASSING_FIXTURES:
        model = fixtures.load_fixture(name)
        site = build_tau_structural(model.category)
        assert check_sheaf_condition(constant_presheaf(site, (0.0, 1.0))).passed, name
        filtered = build_tau_P(model.filtration, model.measure, model.category)
        for p, level_site in filtered.items():
            assert check_sheaf_condition(
                constant_presheaf(level_site, (0.0, 1.0))).passed, (name, p)


def test_two_element_covering_matches_brute_force_enumeration():
    site = overlap_site()
    # restriction to W forgets which of two local branches was taken on V1
    spaces = {"U": (0, 1), "V1": (0, 1), "V2": (0, 1), "W": (0,)}
    restr = {
        "f1": {0: 0, 1: 1}, "f2": {0: 0, 1: 1},
        "g1": {0: 0, 1: 0}, "g2": {0: 0, 1: 0},
        "h": {0: 0, 1: 0},
    }
    F = Presheaf(site, spaces, restr)
    report = check_sheaf_condition(F)
    # oracle: enumerate matching families by hand
    matching = [(s1, s2) for s1 in spaces["V1"] for s2 in spaces["V2"]
                if restr["g1"][s1] == restr["g2"][s2]]
    images = {(restr["f1"][s], restr["f2"][s]) for s in spaces["U"]}
    glues = set(matching) == images and len(images) == len(spaces["U"])
    rec = [r for r in report.records if r.instance == "{f1, f2} -> U"]
    assert rec and (rec[0].status == "pass") == glues
    # here every pair matches (W forgets the branch), so gluing must fail
    assert len(matching) == 4 and not glues
    assert rec[0].status == "fail"


def test_planted_non_gluing_presheaf_fails_naming_covering():
    site = overlap_site()
    spaces = {"U": (0,), "V1": (0, 1), "V2": (0,), "W": (0,)}
    restr = {
        "f1": {0: 0}, "f2": {0: 0},
        "g1": {0: 0, 1: 0}, "g2": {0: 0},
        "h": {0: 0},
    }
    F = Presheaf(site, spaces, restr)
    report = check_sheaf_condition(F)
    assert not report.passed
    bad = report.failures()[0]
    assert "f1" in bad.instance and "f2" in bad.instance and "U" in bad.instance
    assert "unglued matching family" in bad.witness


def test_undeclared_overlaps_are_noted_not_failed():
    from deltasite.categories import Morphism
    from deltasite.events import EventMap

    g3 = frozenset("abc")
    top = discrete("U", ["a", "b"], g3, g3)
    v1 = discrete("V1", ["a"], ["a"], g3)
    v2 = discrete("V2", ["b"], ["b"], g3)
    f1 = EventMap("f1", v1, top, {0: {"a": "a"}})
    f2 = EventMap("f2", v2, top, {0: {"b": "b"}})
    cat = FiniteCategory({"U": top, "V1": v1, "V2": v2},
                         [Morphism("f1", "V1", "U", f1),
                          Morphism("f2", "V2", "U", f2)], {})  # no pullbacks
    site = GrothendieckSite(cat, {"U": [("f1", "f2")]}, label="gap")
    report = check_sheaf_condition(constant_presheaf(site, (0.0,)))
    notes = [r.instance for r in report.records if r.check_id == "gluing-note"]
    assert notes, "missing overlap declarations should be noted"
    assert any("undeclared" in n for n in notes)


def test_two_member_family_is_named_by_its_members_and_target():
    """The gluing instance and the gluing-note text of the overlap site's
    family {f1, f2} -> U, as literals: no golden report holds a family of
    more than one member."""
    site = overlap_site()
    report = check_sheaf_condition(constant_presheaf(site, (0, 1)))
    assert [(r.check_id, r.instance, r.status, r.witness) for r in report.records] == [
        ("gluing", "{f1, f2} -> U", "pass", ""),
        ("gluing", "{id:V1} -> V1", "pass", ""),
        ("gluing", "{id:V2} -> V2", "pass", ""),
        ("gluing", "{id:W} -> W", "pass", "")]
    # without the declared overlap of f1 and f2 the family is noted, and two
    # sections that disagree on W no longer have to agree
    cat = site.category
    morphisms = [m for name, m in cat.morphisms.items() if not cat.is_identity(name)]
    squares = [(l, r, *legs) for (l, r), legs in cat.pullbacks.items() if {l, r} != {"f1", "f2"}]
    gap = GrothendieckSite(FiniteCategory(cat.objects, morphisms, cat.composition, squares),
                           site.coverings, "overlap-gap")
    report = check_sheaf_condition(constant_presheaf(gap, (0, 1)))
    assert [(r.check_id, r.instance, r.status, r.witness) for r in report.records] == [
        ("gluing", "{f1, f2} -> U", "fail", "unglued matching family (0, 1)"),
        ("gluing", "{id:V1} -> V1", "pass", ""),
        ("gluing", "{id:V2} -> V2", "pass", ""),
        ("gluing", "{id:W} -> W", "pass", ""),
        ("gluing-note", "{f1, f2} -> U: overlap of (f1, f2) undeclared", "info", "")]


def gluing_referee(F):
    """`check_sheaf_condition`'s rows read off its docstring, by brute force.

    Per object in sorted order and per stored family of arrows into it: the
    families of sections over the members' sources (every tuple, in product
    order) that agree on each declared overlap (each pair i <= j of members,
    resolved by `pullback_legs`) must be exactly the restrictions of the
    target's sections, and two distinct sections must not restrict alike.
    The first unglued family in product order is named.  Each undeclared
    overlap is one `gluing-note`, after every `gluing` row."""
    cat, site = F.site.category, F.site
    rows, notes = [], []
    for obj in sorted(cat.objects):
        sections = F.spaces[obj]
        for fam in site.coverings[obj]:
            name = "{" + ", ".join(fam) + "} -> " + obj
            overlaps = []
            for i, j in itertools.combinations_with_replacement(range(len(fam)), 2):
                legs = cat.pullback_legs(fam[i], fam[j])
                if legs is None:
                    notes.append(f"{name}: overlap of ({fam[i]}, {fam[j]}) undeclared")
                else:
                    overlaps.append((i, j, F.restrictions[legs[1]], F.restrictions[legs[2]]))

            def restrict(s):
                return tuple(F.restrictions[m][s] for m in fam)

            families = itertools.product(*(F.spaces[cat.morphisms[m].source] for m in fam))
            matching = [t for t in families
                        if all(left[t[i]] == right[t[j]] for i, j, left, right in overlaps)]
            collide = any(s != u and restrict(s) == restrict(u)
                          for s in sections for u in sections)
            unglued = [t for t in matching if all(restrict(s) != t for s in sections)]
            why = (["sections collide under restriction"] if collide else []) + (
                [f"unglued matching family {unglued[0]!r}"] if unglued else [])
            rows.append(("gluing", name, "fail" if why else "pass", "; ".join(why)))
    return rows + [("gluing-note", note, "info", "") for note in notes]


def three_cover_site():
    """U covered by V1, V2, V3 (objects without events).  The overlaps
    W12 = V1 x_U V2 and W13 = V3 x_U V1 (declared on the reversed cospan) are
    declared, V2 x_U V3 is not, and of the diagonals only V1 x_U V1."""
    objects = dict.fromkeys(["U", "V1", "V2", "V3", "W12", "W13", "W23"])
    arrows = [("f1", "V1", "U"), ("f2", "V2", "U"), ("f3", "V3", "U")]
    composition = {}
    for i, j in ((1, 2), (1, 3), (2, 3)):
        w = f"W{i}{j}"
        arrows += [(f"a{i}{j}", w, f"V{i}"), (f"b{i}{j}", w, f"V{j}"), (f"h{i}{j}", w, "U")]
        composition[f"f{i}", f"a{i}{j}"] = composition[f"f{j}", f"b{i}{j}"] = f"h{i}{j}"
    pullbacks = [("f1", "f2", "W12", "a12", "b12"), ("f3", "f1", "W13", "b13", "a13"),
                 ("f1", "f1", "V1", "id:V1", "id:V1")]
    cat = FiniteCategory(objects, [Morphism(*a) for a in arrows], composition, pullbacks)
    coverings = {"U": [("f1", "f2", "f3"), ("f3", "f1"), ("f2", "f3")],
                 "V1": [("a12", "a13")], "V2": [("id:V2",)], "W12": [("id:W12",)]}
    return GrothendieckSite(cat, coverings, "three-cover")


def random_presheaves(site, count, seed):
    """Up to `count` functorial presheaves on site with value spaces of one
    to three values and random restrictions (non-functorial draws skipped)."""
    rng = random.Random(seed)
    cat = site.category
    found = []
    for _ in range(50 * count):
        spaces = {o: tuple(range(rng.randint(1, 3))) for o in cat.objects}
        restrictions = {name: {v: rng.choice(spaces[m.source]) for v in spaces[m.target]}
                        for name, m in cat.morphisms.items() if not cat.is_identity(name)}
        try:
            found.append(Presheaf(site, spaces, restrictions))
        except StructuralError:
            continue
        if len(found) == count:
            break
    return found


def rows(report):
    return [(r.check_id, r.instance, r.status, r.witness) for r in report.records]


def test_gluing_rows_match_the_referee_on_hand_made_sites():
    """Two- and three-member families, undeclared overlaps, colliding
    sections and unglued matching families, on random functorial presheaves."""
    seen = set()
    for site in (overlap_site(), three_cover_site()):
        presheaves = random_presheaves(site, 150, seed=len(site.label))
        assert len(presheaves) >= 100
        for F in presheaves:
            expected = gluing_referee(F)
            assert rows(check_sheaf_condition(F)) == expected
            seen.update(("collide" in w, "unglued" in w, check) for check, _, _, w in expected)
    # every outcome was met: a collision alone, an unglued family alone, both, notes
    assert {(True, False, "gluing"), (False, True, "gluing"), (True, True, "gluing"),
            (False, False, "gluing-note")} <= seen


def test_gluing_names_the_first_unglued_family_and_colliding_sections():
    site = three_cover_site()
    cat = site.category
    constant = constant_presheaf(site, (0, 1))
    expected = gluing_referee(constant)
    assert rows(check_sheaf_condition(constant)) == expected
    # V2 x_U V3 is undeclared, so the sections over V2 and V3 need not agree
    assert expected[:3] == [("gluing", "{f1, f2, f3} -> U", "pass", ""),
                            ("gluing", "{f3, f1} -> U", "pass", ""),
                            ("gluing", "{f2, f3} -> U", "fail", "unglued matching family (0, 1)")]
    assert [r[1] for r in expected if r[0] == "gluing-note"] == [
        "{f1, f2, f3} -> U: overlap of (f2, f2) undeclared",
        "{f1, f2, f3} -> U: overlap of (f2, f3) undeclared",
        "{f1, f2, f3} -> U: overlap of (f3, f3) undeclared",
        "{f3, f1} -> U: overlap of (f3, f3) undeclared",
        "{f2, f3} -> U: overlap of (f2, f2) undeclared",
        "{f2, f3} -> U: overlap of (f2, f3) undeclared",
        "{f2, f3} -> U: overlap of (f3, f3) undeclared",
        "{a12, a13} -> V1: overlap of (a12, a12) undeclared",
        "{a12, a13} -> V1: overlap of (a12, a13) undeclared",
        "{a12, a13} -> V1: overlap of (a13, a13) undeclared"]
    # each overlap W holds one value, so every family over V1, V2, V3 matches:
    # (0, 0, 1) is the first that no section restricts to, and when the
    # arrows into U forget the section too, its two sections collide
    spaces = {o: ((0,) if o.startswith("W") else (0, 1)) for o in cat.objects}
    forget = {n: {0: 0, 1: 0} for n in cat.morphisms if not cat.is_identity(n)}
    for collapse, witness in (((), "unglued matching family (0, 0, 1)"),
                              (("f1", "f2", "f3"), "sections collide under restriction; "
                                                   "unglued matching family (0, 0, 1)")):
        keep = {f: {0: 0, 1: 1} for f in ("f1", "f2", "f3") if f not in collapse}
        F = Presheaf(site, spaces, {**forget, **keep})
        expected = gluing_referee(F)
        assert rows(check_sheaf_condition(F)) == expected
        assert expected[0] == ("gluing", "{f1, f2, f3} -> U", "fail", witness)


@pytest.mark.parametrize("name", fixtures.ALL_FIXTURES)
def test_gluing_rows_match_the_referee_on_every_fixture_site(name):
    model = fixtures.load_fixture(name)
    targets = [build_tau_structural(model.category)]
    targets += build_tau_P(model.filtration, model.measure, model.category).values()
    targets += build_tau_operadic(model.filtration, model.category).values()
    for site in targets:
        for values in ((0.0, 1.0), (0,)):
            F = constant_presheaf(site, values)
            assert rows(check_sheaf_condition(F)) == gluing_referee(F), site.label
        for F in random_presheaves(site, 3, seed=7):
            assert rows(check_sheaf_condition(F)) == gluing_referee(F), site.label


def test_a_shared_map_is_validated_on_each_arrows_own_spaces():
    """One map given for every arrow of the overlap site is valid from U's
    space into V1's and V2's, but leaves W's smaller space along g1, the
    first arrow in sorted order that ends in W; and one map defined only on
    0 is valid on W's space but undefined on 1 along f1.  U, V1 and V2 share
    one space tuple, so only a check of each arrow's own (map, target space,
    source space) finds both."""
    site = overlap_site()
    two = (0, 1)
    spaces = {"U": two, "V1": two, "V2": two, "W": (0,)}
    arrows = [n for n in site.category.morphisms if not site.category.is_identity(n)]
    with pytest.raises(StructuralError) as leaves:
        Presheaf(site, spaces, dict.fromkeys(arrows, {0: 0, 1: 1}))
    assert str(leaves.value) == "restriction along 'g1' leaves the value space at 'W'"
    with pytest.raises(StructuralError) as undefined:
        Presheaf(site, spaces, dict.fromkeys(sorted(arrows, reverse=True), {0: 0}))
    assert str(undefined.value) == "restriction along 'f1' undefined on value 1"
    # one map per space pair: valid wherever it is used
    fine = {n: ({0: 0, 1: 0} if n in ("g1", "g2", "h") else {0: 0, 1: 1}) for n in arrows}
    assert Presheaf(site, spaces, fine).restrictions["h"] == {0: 0, 1: 0}


def test_presheaf_validation_catches_non_functorial_restrictions():
    site = overlap_site()
    spaces = {"U": (0, 1), "V1": (0, 1), "V2": (0, 1), "W": (0, 1)}
    restr = {
        "f1": {0: 0, 1: 1}, "f2": {0: 0, 1: 1},
        "g1": {0: 1, 1: 0},  # flips
        "g2": {0: 0, 1: 1},
        "h": {0: 0, 1: 1},   # but the composite does not flip
    }
    with pytest.raises(StructuralError, match="functorial"):
        Presheaf(site, spaces, restr)


SWAP = {0: 1, 1: 0}


def test_restrictions_along_one_shared_swap_are_not_functorial():
    """Every arrow of the overlap site, whose rules include (f1, g1) -> h,
    restricts along one swap; refused with the text of the first rule
    walked, whether the swap is one dict or equal copies of it."""
    site = overlap_site()
    spaces = dict.fromkeys(site.category.objects, (0, 1))
    error = "restrictions not functorial on (f1, g1): 0 -> 0 vs 1"
    with pytest.raises(StructuralError) as shared:
        Presheaf(site, spaces, dict.fromkeys(site.category.morphisms, SWAP))
    assert str(shared.value) == error
    with pytest.raises(StructuralError) as copies:
        Presheaf(site, spaces, {name: dict(SWAP) for name in site.category.morphisms})
    assert str(copies.value) == error


def test_restrictions_along_one_shared_idempotent_map_are_functorial():
    site = overlap_site()
    spaces = dict.fromkeys(site.category.objects, (0, 1))
    collapse = {0: 0, 1: 0}
    F = Presheaf(site, spaces, dict.fromkeys(site.category.morphisms, collapse))
    assert F.restrictions == dict.fromkeys(site.category.morphisms, collapse)
    assert F.spaces == spaces


def test_presheaf_needs_total_value_spaces():
    site = overlap_site()
    with pytest.raises(StructuralError, match="value space"):
        Presheaf(site, {"U": (0,)}, {})


# -- transversal cones ----------------------------------------------------------------

def cone_record(report):
    """The one cone-containment record, with the numbers of its witness
    `fraction=... expected=... threshold=...`."""
    [record] = report.records
    assert record.check_id == "cone-containment"
    return record, {k: float(v) for k, v in (w.split("=") for w in record.witness.split())}


def test_cone_containment_near_three_sigma_mass():
    report = transversal_cone_check(sigma=1.0, kappa=3.0, t=0.0, t_prime=1.0,
                                    n_paths=10_000, seed=7)
    record, cone = cone_record(report)
    expected = 2 * float(ndtr(3.0)) - 1
    assert record.instance == "kappa=3.0 on [0.0,1.0]"
    assert cone["expected"] == pytest.approx(expected)
    assert report.passed
    # the threshold is three binomial standard errors below the expected mass
    three_se = 3 * (expected * (1 - expected) / 10_000) ** 0.5
    assert cone["expected"] - cone["threshold"] == pytest.approx(three_se)
    assert abs(cone["fraction"] - expected) <= three_se


def test_cone_sigma_zero_all_mass_at_apex():
    report = transversal_cone_check(sigma=0.0, kappa=3.0, t=0.0, t_prime=1.0,
                                    n_paths=500, seed=1)
    assert cone_record(report)[1]["fraction"] == 1.0
    assert report.passed


def test_cone_kappa_zero_fails_by_construction():
    report = transversal_cone_check(sigma=1.0, kappa=0.0, t=0.0, t_prime=1.0,
                                    n_paths=500, seed=1)
    assert not report.passed
    record, _ = cone_record(report)
    assert record.witness == "fraction=0.0 expected=0.0 threshold=0.0"


@pytest.mark.parametrize("kappa", (3.0, 0.0))
def test_cone_refuses_negative_sigma(kappa):
    # a negative sigma is a bad parameter, not an empty cone
    with pytest.raises(PreconditionError, match="sigma must be nonnegative"):
        transversal_cone_check(-1.0, kappa, t=0.0, t_prime=1.0, n_paths=100)


def test_cone_requires_increasing_times():
    with pytest.raises(PreconditionError):
        transversal_cone_check(1.0, 3.0, t=1.0, t_prime=1.0)


def test_cone_deterministic_given_seed():
    a = transversal_cone_check(1.0, 3.0, 0.0, 1.0, n_paths=2000, seed=11)
    b = transversal_cone_check(1.0, 3.0, 0.0, 1.0, n_paths=2000, seed=11)
    assert a == b
