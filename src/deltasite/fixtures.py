"""Bundled verification models.

Each bundled model is defined by its JSON file in `fixtures/`, read with
`load_fixture(name)`; `subset_model` builds further subset lattices in code.

The passing fixtures are subset lattices: events are discrete simplicial sets
whose vertices are their atoms (plus one genuinely one-dimensional fixture),
morphisms are inclusions, pullbacks are intersections, filtration levels are
closed under complement and union, and the operad assembles every event from
a part and its relative complement.  On these all three topologies satisfy
the covering axioms.  The defect fixtures plant a single gap -- a missing
pullback declaration or a missing operad generator -- that verification must
name precisely.

- four_events: the power set of two atoms, the smallest fixture with a
  genuine diamond.
- six_events: six events over three atoms with full pullback closure.
- three_atoms_power: the full power set of three atoms over a three-step
  filtration.
- three_atoms_partial: the sub-sigma-algebra generated by one two-atom block.
- fibered_pair: two fiber steps per base time, so information lands
  mid-fiber.
- interval_pair: one-dimensional, two vertex events include into an edge.
- defect_operad_gap: four_events without the generator asm:empty+e_b>e_b, so
  base change of the covering i:e_a>e_ab along i:e_b>e_ab loses its witness.
- defect_missing_pullback: six_events without the declared pullback of
  (i:e_c>e_abc, i:e_ab>e_abc).

After a schema change a fixture is regenerated as
`serialize_model(parse_model(fixture_text(name)))`.
"""
from __future__ import annotations

from fractions import Fraction
from importlib import resources

from .categories import FiniteCategory, Morphism, PullbackSquare
from .errors import PreconditionError
from .events import EventMap, SimplicialEvent, discrete_event, empty_event
from .filtration import (FilteredSigmaAlgebra, FramedIndex, MultiArrow,
                         ProbabilityMeasure)
from .model_io import ModelDescription, parse_model


def _ev_name(atoms) -> str:
    return "empty" if not atoms else "e_" + "".join(sorted(atoms))


def _inc_name(src: str, tgt: str) -> str:
    return f"i:{src}>{tgt}"


def subset_model(ground, subsets, level_plan, weights) -> ModelDescription:
    """Model over a family of atom subsets closed under intersection.

    level_plan is one list of subsets per base time 0, 1, ... (one fiber step
    each) and every level should be sigma-closed if the operadic and
    probability topologies are to verify.
    """
    ground = frozenset(ground)
    subsets = sorted({frozenset(s) for s in subsets}, key=lambda s: (len(s), sorted(s)))
    for s in subsets:
        for t in subsets:
            if s & t not in subsets:
                raise PreconditionError(
                    f"subset family not closed under intersection: {sorted(s)} & {sorted(t)}")

    events: dict[str, SimplicialEvent] = {}
    for s in subsets:
        name = _ev_name(s)
        events[name] = (empty_event(ground) if not s
                        else discrete_event(name, sorted(s), s, ground))

    maps: dict[str, EventMap] = {}
    morphisms: list[Morphism] = []
    for s in subsets:
        for t in subsets:
            if s < t:
                name = _inc_name(_ev_name(s), _ev_name(t))
                maps[name] = EventMap(name, events[_ev_name(s)], events[_ev_name(t)],
                                      {0: {a: a for a in s}} if s else {})
                morphisms.append(Morphism(name, _ev_name(s), _ev_name(t), maps[name]))

    composition = {}
    for a in subsets:
        for b in subsets:
            for c in subsets:
                if a < b < c:
                    composition[(_inc_name(_ev_name(b), _ev_name(c)),
                                 _inc_name(_ev_name(a), _ev_name(b)))] = \
                        _inc_name(_ev_name(a), _ev_name(c))

    pullbacks = []
    for c in subsets:
        into = [s for s in subsets if s < c]
        for i, a in enumerate(into):
            for b in into[i:]:
                f = _inc_name(_ev_name(a), _ev_name(c))
                g = _inc_name(_ev_name(b), _ev_name(c))
                apex = a & b
                leg_a = (f"id:{_ev_name(a)}" if apex == a
                         else _inc_name(_ev_name(apex), _ev_name(a)))
                leg_b = (f"id:{_ev_name(b)}" if apex == b
                         else _inc_name(_ev_name(apex), _ev_name(b)))
                pullbacks.append(PullbackSquare(f, g, _ev_name(apex), leg_a, leg_b))

    category = FiniteCategory({name: ev for name, ev in events.items()},
                              morphisms, composition, pullbacks)

    index = FramedIndex([Fraction(t) for t in range(len(level_plan))], 1)
    levels = {p: [_ev_name(frozenset(s)) for s in plan]
              for p, plan in zip(index, level_plan)}

    generators: list[MultiArrow] = []
    seen: set[tuple[str, str]] = set()
    for p, plan in zip(index, level_plan):
        level_sets = sorted({frozenset(s) for s in plan}, key=lambda s: (len(s), sorted(s)))
        for t in level_sets:
            for s in level_sets:
                if not s < t:
                    continue
                key = (_ev_name(s), _ev_name(t))
                if key in seen:
                    continue
                seen.add(key)
                diff = t - s
                name = f"asm:{_ev_name(s)}+{_ev_name(diff)}>{_ev_name(t)}"
                generators.append(MultiArrow(name, (_ev_name(s), _ev_name(diff)),
                                             _ev_name(t), p))

    filtration = FilteredSigmaAlgebra(index, events, levels, generators)
    measure = ProbabilityMeasure(weights)
    return ModelDescription(ground, events, maps, category, filtration, measure)


PASSING_FIXTURES = ("four_events", "six_events", "three_atoms_power",
                    "three_atoms_partial", "fibered_pair", "interval_pair")

DEFECT_FIXTURES = ("defect_operad_gap", "defect_missing_pullback")

ALL_FIXTURES = PASSING_FIXTURES + DEFECT_FIXTURES


def fixture_text(name: str) -> str:
    """The bundled JSON text of a fixture."""
    res = resources.files("deltasite").joinpath("fixtures", f"{name}.json")
    return res.read_text(encoding="utf-8")


def fixture_path(name: str) -> str:
    return str(resources.files("deltasite").joinpath("fixtures", f"{name}.json"))


def load_fixture(name: str) -> ModelDescription:
    return parse_model(fixture_text(name))
