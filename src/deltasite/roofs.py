"""Time-independent event category whose morphisms are roof diagrams.

A roof A -> B is named by its base morphism: composites simplify to the roof
of the composed bases, so `RoofCategory` keeps only its fragment, and each
roof law is a category law of the fragment.  `FiniteCategory.violations`
decides those laws; the roof verifier lists the roofs and reads each status
off it.  For the same reason the structural roof topology is the fragment's
own, `sites.build_tau_structural(fragment)`.
"""
from __future__ import annotations

from .categories import FiniteCategory
from .errors import ClosureError
from .reports import Report


# a roof's text: its source, base and target
_ROOF = "Roof({} -[{}]-> {})"
# the ClosureError of a pair (g, f) the fragment has no composite for
_UNCLOSED = "fragment is not composition closed: ({}, {}) has no composite"


class RoofCategory:
    """Roofs over a closed fragment; one roof per base morphism."""

    def __init__(self, fragment: FiniteCategory):
        self.fragment = fragment


def verify_roof_category(rc: RoofCategory) -> Report:
    """Unit laws and associativity over all composable roofs, plus
    functoriality of f |-> roof(f), read off `FiniteCategory.violations`:
    roof `left-unit` of f fails iff the fragment's right unit fails for f,
    `right-unit` iff its left unit does, and `associativity` on (f, g, h)
    iff the fragment's fails on (h, g, f).  Raises ClosureError, before any
    record, on the first composable pair (g, f) with no composite: the units
    always have theirs, and each triple composes three composable pairs, so
    that pair is the first composite the roof laws need.

    `base-functorial` holds by construction: it compares the roof of the
    composite with the roof of the fragment's composite, and a missing
    composite raises ClosureError before the record is made, so the record
    can only pass."""
    frag = rc.fragment
    violations = frag.violations()
    if violations and violations[0][0] == "undefined":
        raise ClosureError(_UNCLOSED.format(*violations[0][1]))
    failed = {(kind, *arrows) for kind, arrows in violations}
    morphisms = frag.morphisms
    report = Report()
    for name in sorted(morphisms):
        m = morphisms[name]
        roof = _ROOF.format(m.source, name, m.target)
        report.rows += (
            ("left-unit", roof, "fail" if ("right-unit", name) in failed else "pass", ""),
            ("right-unit", roof, "fail" if ("left-unit", name) in failed else "pass", ""))
    pairs = list(frag.composable_pairs())
    report.rows += [("base-functorial", f"({f}, {g})", "pass", "") for f, g in pairs]
    report.rows += [("associativity", f"({f}, {g}, {h})",
                     "fail" if ("associativity", h, g, f) in failed else "pass", "")
                    for f, g in pairs for h in frag.morphisms_from(morphisms[g].target)]
    return report
