import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import deltasite
from deltasite import fixtures
from deltasite.errors import ModelError, StructuralError
from deltasite.filtration import (FilteredSigmaAlgebra, FramedIndex,
                                  FramedPoint, MultiArrow,
                                  ProbabilityMeasure, check_operad_action,
                                  check_sigma_level)

from conftest import discrete

GROUND3 = frozenset("abc")


def powerset(atoms):
    atoms = sorted(atoms)
    return [frozenset(c) for r in range(len(atoms) + 1)
            for c in itertools.combinations(atoms, r)]


# -- framed index ---------------------------------------------------------------

def test_framed_index_points_and_projection():
    idx = FramedIndex([0, Fraction(1, 2), 1], m=2)
    assert len(idx.points) == 6
    p = idx.points[3]
    assert p == FramedPoint(Fraction(1, 2), 2)
    assert p.base == Fraction(1, 2)
    assert idx.points[0] <= idx.points[5]
    assert not idx.points[4] <= idx.points[1]


def test_equal_framed_points_hash_equal_whatever_the_base_spelling():
    spellings = [(Fraction(2, 4), Fraction("1/2"), Fraction("0.5")),
                 (1, Fraction(1), Fraction("3/3")), (0, Fraction(0), Fraction("-0"))]
    for bases in spellings:
        points = [FramedPoint(b, 2) for b in bases]
        assert len(set(points)) == 1, bases
        assert {hash(p) for p in points} == {hash((bases[1].numerator,
                                                   bases[1].denominator, 2))}
    assert FramedPoint(Fraction(1, 2), 1) != FramedPoint(Fraction(1, 2), 2)


def test_level_lookup_with_a_freshly_built_point_finds_the_level():
    F = fixtures.load_fixture("fibered_pair").filtration
    for p in F.index:
        fresh = FramedPoint(Fraction(f"{p.base.numerator * 3}/{p.base.denominator * 3}"), p.k)
        assert fresh is not p and fresh.base is not p.base
        assert F.level(fresh) is F.level(p)
        assert fresh in F.levels


def test_framed_points_sort_in_index_order():
    idx = FramedIndex([0, Fraction(1, 2), 1], m=2)
    assert sorted(reversed(idx.points)) == idx.points


def test_generators_available_at_a_point_match_the_position_filter():
    F = fixtures.load_fixture("fibered_pair").filtration
    position = F.index.points.index
    assert F.generators
    for p in F.index:
        expected = [g for g in F.generators if position(g.at) <= position(p)]
        assert F.generators_at(p) == expected


def test_framed_index_rejects_bad_grids():
    with pytest.raises(StructuralError):
        FramedIndex([1, 1])
    with pytest.raises(StructuralError):
        FramedIndex([0, 1], m=0)
    with pytest.raises(StructuralError):
        FramedIndex([])


# -- sigma level closure ------------------------------------------------------------

def test_power_set_level_passes():
    report = check_sigma_level(powerset("abc"), ground_set=GROUND3)
    assert not report.missing


def test_a_one_shot_iterable_of_events_is_read_once():
    events = list(fixtures.load_fixture("four_events").filtration.events.values())
    assert not check_sigma_level(list(events)).missing
    report = check_sigma_level(e for e in events)
    assert not report.missing
    assert report.ground_set == events[0].ground_set


def test_missing_complement_reported():
    report = check_sigma_level([frozenset(), frozenset("a")], ground_set=frozenset("ab"))
    assert report.missing
    missing = {s for s, _ in report.missing}
    assert frozenset("b") in missing


def closure_oracle(sets, ground):
    """Independent saturation: breadth-first queue instead of fixpoint sweeps."""
    seen = set(sets) or {frozenset()}
    queue = list(seen)
    while queue:
        s = queue.pop()
        for candidate in [ground - s] + [s | t for t in list(seen)]:
            if candidate not in seen:
                seen.add(candidate)
                queue.append(candidate)
                queue.extend([s])
    # one more sweep for unions among late arrivals
    stable = False
    while not stable:
        stable = True
        for a in list(seen):
            for b in list(seen):
                if a | b not in seen:
                    seen.add(a | b)
                    stable = False
            if ground - a not in seen:
                seen.add(ground - a)
                stable = False
    return seen


@settings(max_examples=50)
@given(hst.sets(hst.sets(hst.sampled_from("abcd"), max_size=4).map(frozenset),
                max_size=5))
def test_sigma_report_matches_saturation_oracle(family):
    ground = frozenset("abcd")
    report = check_sigma_level(family, ground_set=ground)
    expected_missing = closure_oracle(family, ground) - set(family)
    assert {s for s, _ in report.missing} == expected_missing
    assert (not report.missing) == (not expected_missing)
    # the model gate on a one-level filtration of the same family refuses it
    # iff the closure differs from it, and names one of the missing sets
    events = {"e_" + "".join(sorted(s)): discrete("e_" + "".join(sorted(s)),
                                                  sorted(s), s, ground)
              for s in family}
    idx = FramedIndex([0])
    F = FilteredSigmaAlgebra(idx, events, {idx.points[0]: sorted(events)})
    if not expected_missing:
        F.require_sigma_levels(ground)
        return
    with pytest.raises(ModelError) as info:
        F.require_sigma_levels(ground)
    [(path, message)] = info.value.errors
    assert path == "filtration.levels[0]"
    named = re.fullmatch(r"level \(0,1\) is not a sigma-algebra: it lacks \{([a-d,]*)\}",
                         message)
    assert named, message
    assert frozenset(named.group(1).split(",")) - {""} in expected_missing


@settings(max_examples=50)
@given(hst.sets(hst.sets(hst.sampled_from("abcde"), max_size=5).map(frozenset),
                max_size=5))
def test_sigma_reasons_name_atoms_whose_union_is_the_missing_set(family):
    ground = frozenset("abcde")
    # the classes of points that no member of the family tells apart
    classes = {frozenset(x for x in ground
                         if all((x in s) == (y in s) for s in family))
               for y in ground}
    for missing, reason in check_sigma_level(family, ground_set=ground).missing:
        assert reason.startswith("union of ")
        named = [frozenset(part.split(",")) - {""}
                 for part in re.findall(r"\{([^}]*)\}", reason)]
        assert all(atom in classes for atom in named), reason
        assert frozenset().union(*named) == missing, reason


SIGMA_REASONS = """
import json
from deltasite.filtration import check_sigma_level
atoms = "abcdefghi"
report = check_sigma_level([frozenset(a) for a in atoms], ground_set=frozenset(atoms))
print(json.dumps([[sorted(s), why] for s, why in report.missing]))
"""


def test_sigma_level_reasons_do_not_depend_on_hash_seed():
    src = str(pathlib.Path(deltasite.__file__).parents[1])
    runs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", SIGMA_REASONS], env=env,
                             capture_output=True, text=True, check=True).stdout
        runs.append(json.loads(out))
    assert len(runs[0]) == 2 ** 9 - 9
    assert runs[0] == runs[1]


# -- measures -----------------------------------------------------------------------

def uniform4():
    return ProbabilityMeasure({a: 0.25 for a in "abcd"})


def test_measure_validation():
    with pytest.raises(StructuralError):
        ProbabilityMeasure({"a": 0.5, "b": 0.4})
    with pytest.raises(StructuralError):
        ProbabilityMeasure({"a": 1.5, "b": -0.5})


def test_measure_weights_must_sum_to_one_within_1e_9():
    with pytest.raises(StructuralError, match="sum to"):
        ProbabilityMeasure({"a": 0.5, "b": 0.5 + 2e-9})
    assert ProbabilityMeasure({"a": 0.5, "b": 0.5 + 5e-10}).ground_set == {"a", "b"}


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_measure_refuses_non_finite_weight(bad):
    with pytest.raises(StructuralError, match="'a'"):
        ProbabilityMeasure({"a": bad, "b": 0.5, "c": 0.5})


def test_measure_values_are_kept_and_equal_the_sorted_fsum():
    P = ProbabilityMeasure({"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4})
    assert P.ground_set == frozenset("abcd")
    for s in powerset("abcd"):
        want = math.fsum(P.atom_weights[a] for a in sorted(s))
        assert P(s) == want
        assert P(s) == want  # second call, from the kept value
    with pytest.raises(KeyError):
        P(frozenset("ae"))


def test_measure_of_empty_event_is_zero():
    assert uniform4()(frozenset()) == 0.0


def test_complement_sums_to_one():
    P = ProbabilityMeasure({"a": 0.5, "b": 0.3, "c": 0.2})
    for s in powerset("abc"):
        assert math.isclose(P(s) + P(GROUND3 - s), 1.0, abs_tol=1e-12)


# -- filtered sigma algebra + operad -----------------------------------------------------

def tiny_filtration(levels=None, generators=()):
    ground = frozenset("ab")
    events = {
        "empty": discrete("empty", [], [], ground),
        "e_a": discrete("e_a", ["a"], ["a"], ground),
        "e_b": discrete("e_b", ["b"], ["b"], ground),
        "e_ab": discrete("e_ab", ["a", "b"], ["a", "b"], ground),
    }
    idx = FramedIndex([0, 1])
    if levels is None:
        levels = {idx.points[0]: ["empty", "e_ab"],
                  idx.points[1]: ["empty", "e_a", "e_b", "e_ab"]}
    else:
        levels = dict(zip(idx.points, levels))
    return FilteredSigmaAlgebra(idx, events, levels, generators), idx


def test_filtration_monotonicity_enforced():
    with pytest.raises(StructuralError, match="not increasing"):
        tiny_filtration(levels=[["empty", "e_ab"], ["empty", "e_a"]])


def test_filtration_requires_every_point():
    ground = frozenset("ab")
    idx = FramedIndex([0, 1])
    with pytest.raises(StructuralError, match="no level"):
        FilteredSigmaAlgebra(idx, {"empty": discrete("empty", [], [], ground)},
                             {idx.points[0]: ["empty"]})
    F, idx = tiny_filtration()
    with pytest.raises(KeyError):
        F.level(FramedPoint(Fraction(9), 1))


def test_filtration_refuses_a_level_outside_the_index():
    ground = frozenset("ab")
    idx = FramedIndex([0])
    outside = FramedPoint(Fraction(0), 2)
    with pytest.raises(ModelError) as info:
        FilteredSigmaAlgebra(idx, {"empty": discrete("empty", [], [], ground)},
                             {outside: ["empty"], idx.points[0]: ["empty"]})
    assert info.value.errors == [
        ("filtration.levels[0]", "level at (0,2) is not a point of the framed index")]


def test_operad_action_empty_passes():
    F, _ = tiny_filtration()
    report = check_operad_action(F)
    assert report.passed


def test_operad_action_flags_out_of_level_generator():
    F, idx = tiny_filtration(generators=[
        MultiArrow("bad", ("e_a",), "e_ab", FramedPoint(Fraction(0), 1))])
    report = check_operad_action(F)
    assert not report.passed
    assert "(0,1)" in report.failures()[0].instance
    assert "e_a" in report.failures()[0].instance


def test_operad_action_saturated_coverage_is_total():
    idx = FramedIndex([0])
    p = idx.points[0]
    gens = [
        MultiArrow("g0", ("empty",), "empty", p),
        MultiArrow("g1", ("empty", "e_a"), "e_a", p),
        MultiArrow("g2", ("empty", "e_b"), "e_b", p),
        MultiArrow("g3", ("e_a", "e_b"), "e_ab", p),
    ]
    ground = frozenset("ab")
    events = {
        "empty": discrete("empty", [], [], ground),
        "e_a": discrete("e_a", ["a"], ["a"], ground),
        "e_b": discrete("e_b", ["b"], ["b"], ground),
        "e_ab": discrete("e_ab", ["a", "b"], ["a", "b"], ground),
    }
    F = FilteredSigmaAlgebra(idx, events,
                             {p: ["empty", "e_a", "e_b", "e_ab"]},
                             gens)
    report = check_operad_action(F)
    assert report.passed
    coverage = [r for r in report.records if r.check_id == "operad-coverage"]
    assert float(coverage[0].instance) == 1.0


def test_generator_availability_is_cumulative():
    F, idx = tiny_filtration(generators=[
        MultiArrow("g", ("empty", "e_ab"), "e_ab", FramedPoint(Fraction(0), 1))])
    late = F.generators_at(idx.points[1])
    assert [g.name for g in late] == ["g"]
