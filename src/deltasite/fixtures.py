"""Bundled verification models.

The passing fixtures are subset lattices: events are discrete simplicial sets
whose vertices are their atoms (plus one genuinely one-dimensional fixture),
morphisms are inclusions, pullbacks are intersections, filtration levels are
closed under complement and union, and the operad assembles every event from
a part and its relative complement.  On these all three topologies satisfy
the covering axioms.  The defect fixtures plant a single gap -- a missing
pullback declaration or a missing operad generator -- that verification must
name precisely.
"""
from __future__ import annotations

from fractions import Fraction
from importlib import resources

from .categories import FiniteCategory, Morphism, PullbackSquare
from .errors import PreconditionError
from .events import EventMap, SimplicialEvent, discrete_event, empty_event
from .filtration import (FilteredSigmaAlgebra, FramedIndex, MultiArrow,
                         OperadFragment, ProbabilityMeasure)
from .model_io import ModelDescription, parse_model


def _ev_name(atoms) -> str:
    return "empty" if not atoms else "e_" + "".join(sorted(atoms))


def _inc_name(src: str, tgt: str) -> str:
    return f"i:{src}>{tgt}"


def subset_model(ground, subsets, level_plan, weights, base_times=None, m=1,
                 drop_pullbacks=(), drop_generators=()) -> ModelDescription:
    """Model over a family of atom subsets closed under intersection.

    level_plan is one list of subsets per framed point (row-major over
    base_times x fiber steps) and every level should be sigma-closed if the
    operadic and probability topologies are to verify.
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

    dropped = set(drop_pullbacks)
    pullbacks = []
    for c in subsets:
        into = [s for s in subsets if s < c]
        for i, a in enumerate(into):
            for b in into[i:]:
                f = _inc_name(_ev_name(a), _ev_name(c))
                g = _inc_name(_ev_name(b), _ev_name(c))
                if (f, g) in dropped or (g, f) in dropped:
                    continue
                apex = a & b
                leg_a = (f"id:{_ev_name(a)}" if apex == a
                         else _inc_name(_ev_name(apex), _ev_name(a)))
                leg_b = (f"id:{_ev_name(b)}" if apex == b
                         else _inc_name(_ev_name(apex), _ev_name(b)))
                pullbacks.append(PullbackSquare(f, g, _ev_name(apex), leg_a, leg_b))

    category = FiniteCategory({name: ev for name, ev in events.items()},
                              morphisms, composition, pullbacks)

    if base_times is None:
        base_times = list(range(len(level_plan) // m))
    index = FramedIndex([Fraction(t) for t in base_times], m)
    if len(level_plan) != len(index):
        raise PreconditionError("level plan does not match the framed index")
    levels = {p: [_ev_name(frozenset(s)) for s in plan]
              for p, plan in zip(index, level_plan)}

    dropped_gens = set(drop_generators)
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
                if name in dropped_gens:
                    continue
                generators.append(MultiArrow(name, (_ev_name(s), _ev_name(diff)),
                                             _ev_name(t), p))

    filtration = FilteredSigmaAlgebra(index, events, levels, OperadFragment(generators))
    measure = ProbabilityMeasure(weights)
    return ModelDescription(ground, events, maps, category, filtration, measure)


# -- the bundled models -------------------------------------------------------


def four_events_model(**kw) -> ModelDescription:
    """Power set of two atoms: the smallest fixture with a genuine diamond."""
    g = ["a", "b"]
    full = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
    return subset_model(g, full,
                        [[frozenset(), frozenset("ab")], full],
                        {"a": 0.5, "b": 0.5}, **kw)


def six_events_model(**kw) -> ModelDescription:
    """Six events over three atoms with full pullback closure."""
    g = ["a", "b", "c"]
    subsets = [frozenset(), frozenset("a"), frozenset("b"), frozenset("c"),
               frozenset("ab"), frozenset("abc")]
    levels = [[frozenset(), frozenset("abc")],
              [frozenset(), frozenset("c"), frozenset("ab"), frozenset("abc")]]
    return subset_model(g, subsets, levels, {"a": 0.2, "b": 0.3, "c": 0.5}, **kw)


def three_atoms_power_model(**kw) -> ModelDescription:
    """Full power set of three atoms over a three-step filtration."""
    g = ["a", "b", "c"]
    import itertools
    subsets = [frozenset(c) for r in range(4) for c in itertools.combinations("abc", r)]
    levels = [[frozenset(), frozenset("abc")],
              [frozenset(), frozenset("a"), frozenset("bc"), frozenset("abc")],
              subsets]
    return subset_model(g, subsets, levels, {"a": 0.5, "b": 0.3, "c": 0.2}, **kw)


def three_atoms_partial_model(**kw) -> ModelDescription:
    """The sub-sigma-algebra generated by one two-atom block."""
    g = ["a", "b", "c"]
    subsets = [frozenset(), frozenset("c"), frozenset("ab"), frozenset("abc")]
    levels = [[frozenset(), frozenset("abc")], subsets]
    return subset_model(g, subsets, levels, {"a": 0.25, "b": 0.25, "c": 0.5}, **kw)


def fibered_pair_model(**kw) -> ModelDescription:
    """Two fiber steps per base time: information lands mid-fiber."""
    g = ["a", "b"]
    full = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
    coarse = [frozenset(), frozenset("ab")]
    return subset_model(g, full, [coarse, coarse, full, full],
                        {"a": 0.7, "b": 0.3}, base_times=[0, 1], m=2, **kw)


def interval_pair_model() -> ModelDescription:
    """A one-dimensional fixture: two vertex events include into an edge."""
    ground = frozenset(["u", "v"])
    empty = empty_event(ground)
    vx = discrete_event("vx", ["x"], ["u"], ground)
    vy = discrete_event("vy", ["y"], ["v"], ground)
    edge = SimplicialEvent("edge", {0: frozenset(["x", "y"]), 1: frozenset(["e"])},
                           {(1, "e", 0): "y", (1, "e", 1): "x"}, {},
                           frozenset(["u", "v"]), ground)
    events = {"empty": empty, "vx": vx, "vy": vy, "edge": edge}

    def inc(name, src, tgt, level0):
        return EventMap(name, events[src], events[tgt], {0: level0} if level0 else {})

    maps = {
        "i:empty>vx": inc("i:empty>vx", "empty", "vx", {}),
        "i:empty>vy": inc("i:empty>vy", "empty", "vy", {}),
        "i:empty>edge": inc("i:empty>edge", "empty", "edge", {}),
        "i:vx>edge": inc("i:vx>edge", "vx", "edge", {"x": "x"}),
        "i:vy>edge": inc("i:vy>edge", "vy", "edge", {"y": "y"}),
    }
    morphisms = [Morphism(n, m.source.name, m.target.name, m) for n, m in maps.items()]
    composition = {
        ("i:vx>edge", "i:empty>vx"): "i:empty>edge",
        ("i:vy>edge", "i:empty>vy"): "i:empty>edge",
    }
    pullbacks = [
        PullbackSquare("i:empty>vx", "i:empty>vx", "empty", "id:empty", "id:empty"),
        PullbackSquare("i:empty>vy", "i:empty>vy", "empty", "id:empty", "id:empty"),
        PullbackSquare("i:empty>edge", "i:empty>edge", "empty", "id:empty", "id:empty"),
        PullbackSquare("i:empty>edge", "i:vx>edge", "empty", "id:empty", "i:empty>vx"),
        PullbackSquare("i:empty>edge", "i:vy>edge", "empty", "id:empty", "i:empty>vy"),
        PullbackSquare("i:vx>edge", "i:vx>edge", "vx", "id:vx", "id:vx"),
        PullbackSquare("i:vx>edge", "i:vy>edge", "empty", "i:empty>vx", "i:empty>vy"),
        PullbackSquare("i:vy>edge", "i:vy>edge", "vy", "id:vy", "id:vy"),
    ]
    category = FiniteCategory(events, morphisms, composition, pullbacks)
    index = FramedIndex([Fraction(0), Fraction(1)], 1)
    levels = {index.points[0]: ["empty", "edge"],
              index.points[1]: ["empty", "vx", "vy", "edge"]}
    generators = [
        MultiArrow("asm:empty+edge>edge", ("empty", "edge"), "edge", index.points[0]),
        MultiArrow("asm:empty+vx>vx", ("empty", "vx"), "vx", index.points[1]),
        MultiArrow("asm:empty+vy>vy", ("empty", "vy"), "vy", index.points[1]),
        MultiArrow("asm:vx+vy>edge", ("vx", "vy"), "edge", index.points[1]),
        MultiArrow("asm:vy+vx>edge", ("vy", "vx"), "edge", index.points[1]),
    ]
    filtration = FilteredSigmaAlgebra(index, events, levels, OperadFragment(generators))
    measure = ProbabilityMeasure({"u": 0.5, "v": 0.5})
    return ModelDescription(ground, events, maps, category, filtration, measure)


def defect_operad_gap_model() -> ModelDescription:
    """four_events without the generator assembling e_b: base change of the
    covering i:e_a>e_ab along i:e_b>e_ab loses its witness."""
    return four_events_model(drop_generators=("asm:empty+e_b>e_b",))


def defect_missing_pullback_model() -> ModelDescription:
    """six_events without the declared pullback of (i:e_ab>e_abc, i:e_c>e_abc)."""
    return six_events_model(drop_pullbacks=(("i:e_ab>e_abc", "i:e_c>e_abc"),))


PASSING_FIXTURES = {
    "four_events": four_events_model,
    "six_events": six_events_model,
    "three_atoms_power": three_atoms_power_model,
    "three_atoms_partial": three_atoms_partial_model,
    "fibered_pair": fibered_pair_model,
    "interval_pair": interval_pair_model,
}

DEFECT_FIXTURES = {
    "defect_operad_gap": defect_operad_gap_model,
    "defect_missing_pullback": defect_missing_pullback_model,
}

ALL_FIXTURES = {**PASSING_FIXTURES, **DEFECT_FIXTURES}


def fixture_text(name: str) -> str:
    """The bundled JSON text of a fixture."""
    res = resources.files("deltasite").joinpath("fixtures", f"{name}.json")
    return res.read_text(encoding="utf-8")


def fixture_path(name: str) -> str:
    return str(resources.files("deltasite").joinpath("fixtures", f"{name}.json"))


def load_fixture(name: str) -> ModelDescription:
    return parse_model(fixture_text(name))
