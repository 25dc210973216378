"""Time-independent event category whose morphisms are roof diagrams.

A roof A -> B is named by its base morphism: composites simplify to the roof
of the composed bases, so `RoofCategory` keeps only its fragment and reads
each roof, and each roof law, off the fragment's morphism table.  For the
same reason the structural roof topology is the fragment's own,
`sites.build_tau_structural(fragment)`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .categories import FiniteCategory
from .errors import ClosureError
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

    def roof_of(self, base: str) -> Roof:
        m = self.fragment.morphisms.get(base)
        if m is None:
            raise KeyError(f"no morphism {base!r} in the fragment")
        return Roof(m.source, base, m.target)

    def _composite(self, g: str, f: str) -> str:
        """The fragment's composite g o f of two base names; ClosureError
        if its table lacks it."""
        gf = self.fragment.composition.get((g, f))
        if gf is None:
            raise ClosureError(f"fragment is not composition closed: "
                               f"({g}, {f}) has no composite")
        return gf


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
