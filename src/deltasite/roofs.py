"""Time-independent event category whose morphisms are roof diagrams.

A roof A -> B stands over the apex A x <|(A), with <|(A) the forward cone of
A; its legs are the projection to A and the base composed with projection.
Composites simplify to the roof of the composed bases, so roofs are stored
canonically by (source, base, target) and apexes are materialized only for
reports and invariant checks.
"""
from __future__ import annotations

from dataclasses import dataclass

from .categories import FiniteCategory, forward_cone
from .errors import ClosureError, PreconditionError
from .events import (EventMap, SimplicialEvent, compose_event_maps,
                     coproduct_event, product_legs)
from .reports import Report
from .sites import GrothendieckSite, build_tau_structural


@dataclass(frozen=True)
class Roof:
    source: str
    base: str
    target: str

    def __repr__(self):
        return f"Roof({self.source} -[{self.base}]-> {self.target})"


class RoofCategory:
    """Roofs over a composition-closed fragment; one roof per base morphism."""

    def __init__(self, fragment: FiniteCategory):
        self.fragment = fragment
        self.roofs: dict[str, Roof] = {
            name: Roof(m.source, name, m.target)
            for name, m in fragment.morphisms.items()}

    def objects(self):
        return sorted(self.fragment.objects)

    def roof_of(self, base: str) -> Roof:
        if base not in self.roofs:
            raise KeyError(f"no morphism {base!r} in the fragment")
        return self.roofs[base]

    def identity_roof(self, obj: str) -> Roof:
        """Roof with base id_A and legs p1, pi_A over A x <|(A)."""
        if obj not in self.fragment.objects:
            raise KeyError(f"unknown object {obj!r}")
        return self.roof_of(self.fragment.identities[obj])

    def compose(self, r1: Roof, r2: Roof) -> Roof:
        """r2 after r1.  The mediating maps through the two lower apexes
        simplify to the roof of the composed bases, which is what is stored."""
        if r1.target != r2.source:
            raise PreconditionError(
                f"roofs not composable: {r1!r} then {r2!r}")
        return self.roof_of(self._composite(r2.base, r1.base))

    def _composite(self, g: str, f: str) -> str:
        """The fragment's composite g o f of two base names; ClosureError
        if its table lacks it."""
        gf = self.fragment.composition.get((g, f))
        if gf is None:
            raise ClosureError(f"fragment is not composition closed: "
                               f"({g}, {f}) has no composite")
        return gf

    # -- apex materialization -------------------------------------------------

    def cone_event(self, obj: str) -> SimplicialEvent:
        """<|(A) as the coproduct of the events in the forward cone of A."""
        cone = sorted(forward_cone(self.fragment, obj))
        parts = [self.fragment.event(o) for o in cone]
        return coproduct_event(parts, name=f"cone({obj})",
                               ground_set=self.fragment.event(obj).ground_set)

    def apex_event(self, obj: str) -> SimplicialEvent:
        return self.materialize(self.identity_roof(obj))[0]

    def materialize(self, roof: Roof) -> tuple[SimplicialEvent, EventMap, EventMap]:
        """(apex A x <|(A), leg p1 to A, leg pi_B = base o p1 to B)."""
        a_event = self.fragment.event(roof.source)
        apex, p1, _ = product_legs(a_event, self.cone_event(roof.source),
                                   name=f"apex({roof.source})")
        base_map = self.fragment.morphism(roof.base).event_map
        if base_map is None:
            raise PreconditionError(
                f"base {roof.base!r} carries no event map; cannot materialize legs")
        pi_b = compose_event_maps(base_map, p1, name=f"pi:{roof.base}")
        return apex, p1, pi_b


def verify_roof_category(rc: RoofCategory) -> Report:
    """Unit laws and associativity over all composable roofs, plus
    functoriality of f |-> roof(f).  Raises ClosureError if the fragment
    lacks a needed composite."""
    report = Report()
    frag = rc.fragment

    # roofs are canonical in their bases: each law is read off base composites
    for name in sorted(rc.roofs):
        r = rc.roofs[name]
        report.add("left-unit", repr(r), rc._composite(name, frag.identities[r.source]) == name)
        report.add("right-unit", repr(r), rc._composite(frag.identities[r.target], name) == name)

    for f, g in frag.composable_pairs():
        report.add("base-functorial", f"({f}, {g})",
                   rc.roof_of(rc._composite(g, f)) == rc.roof_of(frag.compose(g, f)))

    for f, g in frag.composable_pairs():
        gf = rc._composite(g, f)
        for h in frag.morphisms_from(frag.morphisms[g].target):
            one = rc._composite(h, gf)
            two = rc._composite(rc._composite(h, g), f)
            report.add("associativity", f"({f}, {g}, {h})", one == two)
    return report


def build_structural_roof_topology(rc: RoofCategory) -> GrothendieckSite:
    """Coverings are roofs whose base is a monomorphism of simplicial sets.

    Roofs are canonical in their bases, so this is the structural topology
    of the underlying fragment: the generic axiom verifier applies, with base
    change supplied by the fragment's declared pullbacks."""
    return build_tau_structural(rc.fragment)
