"""Time-independent event category whose morphisms are roof diagrams.

A roof A -> B stands over the apex A x <|(A), with <|(A) the forward cone of
A; its legs are the projection to A and the base composed with projection.
Composites simplify to the roof of the composed bases, so a roof is named
by its base: `RoofCategory` keeps only its fragment and reads each roof off
the fragment's morphism table, and apexes are materialized only for reports
and invariant checks.  For the same reason the structural roof topology is
the fragment's own, `sites.build_tau_structural(fragment)`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .categories import FiniteCategory, forward_cone
from .errors import ClosureError, PreconditionError
from .events import (EventMap, SimplicialEvent, compose_event_maps,
                     coproduct_event, product_legs)
from .reports import Report


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

    def objects(self):
        return sorted(self.fragment.objects)

    def roof_of(self, base: str) -> Roof:
        m = self.fragment.morphisms.get(base)
        if m is None:
            raise KeyError(f"no morphism {base!r} in the fragment")
        return Roof(m.source, base, m.target)

    def identity_roof(self, obj: str) -> Roof:
        """Roof with base id_A and legs p1, pi_A over A x <|(A)."""
        if obj not in self.fragment.objects:
            raise KeyError(f"unknown object {obj!r}")
        return self.roof_of(self.fragment.identities[obj])

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
    lacks a needed composite.

    `base-functorial` holds by construction: it compares the roof of the
    composite with the roof of the fragment's composite, and a missing
    composite raises ClosureError before the record is made, so the record
    can only pass."""
    report = Report()
    frag = rc.fragment

    # roofs are canonical in their bases: each law is read off base composites
    for name in sorted(frag.morphisms):
        r = rc.roof_of(name)
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
