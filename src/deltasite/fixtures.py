"""Bundled verification models.

Each bundled model is defined by its JSON file in `fixtures/`, read with
`load_fixture(name)`; `subset_model` writes the model document of a further
subset lattice.  Both are read by `parse_model`, so every model passes the
checks a user's model file gets.

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

import json
from importlib import resources

from .errors import PreconditionError
from .model_io import SCHEMA_VERSION, ModelDescription, parse_model


def _ev_name(atoms) -> str:
    return "empty" if not atoms else "e_" + "".join(sorted(atoms))


def _inc_name(src: str, tgt: str) -> str:
    return f"i:{src}>{tgt}"


def subset_model(ground, subsets, level_plan, weights) -> ModelDescription:
    """The model document of a family of atom subsets, read by `parse_model`.

    Events are discrete, morphisms are inclusions and pullbacks are
    intersections, so the family must be closed under intersection: the
    parser refuses a pullback apex that is not an event.  An event's name
    joins its atoms' names, so two subsets that get one name (atoms "a",
    "bc", "ab", "c") are refused with PreconditionError.  level_plan is one
    list of subsets per base time 0, 1, ... (one fiber step each) and every
    level should be sigma-closed if the operadic and probability topologies
    are to verify.
    """
    subsets = sorted({frozenset(s) for s in subsets}, key=lambda s: (len(s), sorted(s)))
    # an event name joins its atoms' names, so atoms of several characters
    # can give two subsets one name, and the document one event for both
    named = {}
    for s in subsets:
        other = named.setdefault(_ev_name(s), s)
        if other != s:
            raise PreconditionError(f"subsets {sorted(other)} and {sorted(s)} share the "
                                    f"event name {_ev_name(s)!r}")

    def arrow(s, t):
        """The inclusion of s in t: the identity of t where s == t."""
        return f"id:{_ev_name(t)}" if s == t else _inc_name(_ev_name(s), _ev_name(t))

    maps = {arrow(s, t): {"source": _ev_name(s), "target": _ev_name(t),
                          "levels": {"0": {a: a for a in s}} if s else {}}
            for s in subsets for t in subsets if s < t}
    levels, operad, seen = [], [], set()
    for t, plan in enumerate(level_plan):
        at = [str(t), 1]
        levels.append({"at": at, "events": [_ev_name(s) for s in plan]})
        level_sets = sorted({frozenset(s) for s in plan}, key=lambda s: (len(s), sorted(s)))
        for whole in level_sets:
            for part in level_sets:
                if part < whole and (part, whole) not in seen:
                    seen.add((part, whole))
                    inputs = [_ev_name(part), _ev_name(whole - part)]
                    operad.append({"name": f"asm:{inputs[0]}+{inputs[1]}>{_ev_name(whole)}",
                                   "inputs": inputs, "output": _ev_name(whole), "at": at})
    doc = {
        "schema": SCHEMA_VERSION,
        "ground_set": sorted(ground),
        "events": {_ev_name(s): {"atoms": sorted(s), "levels": {"0": sorted(s)}}
                   for s in subsets},
        "maps": maps,
        "category": {
            "objects": [_ev_name(s) for s in subsets],
            "morphisms": {name: {"source": spec["source"], "target": spec["target"],
                                 "map": name} for name, spec in maps.items()},
            "composition": [[arrow(b, c), arrow(a, b), arrow(a, c)]
                            for a in subsets for b in subsets for c in subsets if a < b < c],
            "pullbacks": [{"left": arrow(a, c), "right": arrow(b, c), "apex": _ev_name(a & b),
                           "to_left": arrow(a & b, a), "to_right": arrow(a & b, b)}
                          for c in subsets for i, a in enumerate(subsets)
                          for b in subsets[i:] if a < c and b < c]},
        "filtration": {"base_times": [str(t) for t in range(len(level_plan))],
                       "fiber_steps": 1, "levels": levels},
        "operad": operad,
        "measure": weights,
    }
    return parse_model(json.dumps(doc))


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
