
import pytest
from scipy.special import ndtr

from deltasite import fixtures
from deltasite.errors import PreconditionError, StructuralError
from deltasite.sheaves import (Presheaf, check_sheaf_condition,
                               constant_presheaf, transversal_cone_check)
from deltasite.categories import FiniteCategory
from deltasite.sites import GrothendieckSite, build_tau_P, build_tau_structural

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
