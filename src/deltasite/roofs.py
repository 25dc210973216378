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


# a roof's text: its source, base and target
_ROOF = "Roof({} -[{}]-> {})"
# the ClosureError of a pair (g, f) the fragment has no composite for
_UNCLOSED = "fragment is not composition closed: ({}, {}) has no composite"


@dataclass(frozen=True)
class Roof:
    source: str
    base: str
    target: str

    def __repr__(self):
        return _ROOF.format(self.source, self.base, self.target)


class RoofCategory:
    """Roofs over a composition-closed fragment; one roof per base morphism."""

    def __init__(self, fragment: FiniteCategory):
        self.fragment = fragment


def verify_roof_category(rc: RoofCategory) -> Report:
    """Unit laws and associativity over all composable roofs, plus
    functoriality of f |-> roof(f).  Raises ClosureError at the first needed
    composite the fragment lacks: the units, then each pair (g, f), then for
    each triple (h, g o f), (h, g) and (h o g, f).

    `base-functorial` holds by construction: it compares the roof of the
    composite with the roof of the fragment's composite, and a missing
    composite raises ClosureError before the record is made, so the record
    can only pass."""
    report = Report()
    append = report.rows.append
    frag = rc.fragment
    morphisms = frag.morphisms
    identities = frag.identities
    get = frag.composition.get

    # roofs are canonical in their bases: each law is read off base composites
    for name in sorted(morphisms):
        m = morphisms[name]
        roof = _ROOF.format(m.source, name, m.target)
        for check, key in (("left-unit", (name, identities[m.source])),
                           ("right-unit", (identities[m.target], name))):
            composite = get(key)
            if composite is None:
                raise ClosureError(_UNCLOSED.format(*key))
            append((check, roof, "pass" if composite == name else "fail", ""))

    # each composable pair with its composite, and the arrows that can follow g
    pairs = []
    for f, g in frag.composable_pairs():
        gf = get((g, f))
        if gf is None:
            raise ClosureError(_UNCLOSED.format(g, f))
        append(("base-functorial", f"({f}, {g})", "pass", ""))
        pairs.append((f, g, gf))

    after = {name: frag.morphisms_from(m.target) for name, m in morphisms.items()}
    for f, g, gf in pairs:
        for h in after[g]:
            one = get((h, gf))
            if one is None:
                raise ClosureError(_UNCLOSED.format(h, gf))
            hg = get((h, g))
            if hg is None:
                raise ClosureError(_UNCLOSED.format(h, g))
            two = get((hg, f))
            if two is None:
                raise ClosureError(_UNCLOSED.format(hg, f))
            append(("associativity", f"({f}, {g}, {h})", "pass" if one == two else "fail", ""))
    return report
