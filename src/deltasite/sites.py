"""Grothendieck topologies on finite event categories, verified by
enumeration.

A site stores, per object, its generating covering families, each a tuple
of the names of arrows into that object (singletons for the built
topologies; hand-made sites may store larger families), and the set of
morphisms they admit as covers.  Any nonempty family all of whose members
are admitted counts as a covering.  `verify_grothendieck` checks the three
covering axioms -- isomorphisms cover, stability under base change,
composition -- instance by instance and reports every failure.  A
filtered topology is a plain map from each framed point to its level's site,
in index order; `verify_filtered` walks any such map in index order.
"""
from __future__ import annotations

from functools import cache

from .categories import FiniteCategory
from .errors import PreconditionError
from .filtration import FilteredSigmaAlgebra, FramedPoint, ProbabilityMeasure
from .reports import Report


class GrothendieckSite:
    def __init__(self, category: FiniteCategory, coverings, label: str,
                 measure: ProbabilityMeasure | None = None):
        # coverings: mapping object -> iterable of families, each an iterable
        # of the names of arrows into that object
        self.category = category
        self.label = label
        self.measure = measure
        self.coverings: dict[str, tuple[tuple[str, ...], ...]] = {}
        self.valid: dict[str, frozenset[str]] = {}
        unknown = sorted(set(coverings) - category.objects.keys())
        if unknown:
            raise PreconditionError(
                f"coverings name objects not in the category: {', '.join(map(repr, unknown))}")
        for obj in sorted(category.objects):
            fams = tuple(tuple(fam) for fam in coverings.get(obj, ()))
            for m in (m for fam in fams for m in fam):
                if category.morphism(m).target != obj:
                    raise PreconditionError(
                        f"covering morphism {m!r} does not end at {obj!r}")
            self.coverings[obj] = fams
            self.valid[obj] = frozenset(m for fam in fams for m in fam)


# -- builders -----------------------------------------------------------------


def _singleton_site(category: FiniteCategory, admit, label: str,
                    measure: ProbabilityMeasure | None = None) -> GrothendieckSite:
    """One generating family per admitted morphism, isomorphisms always in."""
    families: dict[str, list[tuple[str]]] = {o: [] for o in category.objects}
    for name in sorted(category.morphisms):
        m = category.morphisms[name]
        if category.is_isomorphism(name) or admit(m):
            families[m.target].append((name,))
    return GrothendieckSite(category, families, label, measure)


def _level_sites(F: FilteredSigmaAlgebra, category: FiniteCategory, admit_at,
                 label: str, measure: ProbabilityMeasure | None = None
                 ) -> dict[FramedPoint, GrothendieckSite]:
    """The singleton site of each level's full subcategory, admitting the
    morphisms that pass admit_at(level), keyed by framed point in index order."""
    return {p: _singleton_site(category.full_subcategory(F.level(p)), admit_at(p),
                               f"{label}@{p!r}", measure)
            for p in F.index}


def build_tau_operadic(F: FilteredSigmaAlgebra,
                       category: FiniteCategory) -> dict[FramedPoint, GrothendieckSite]:
    """Operadic topology: at level t a morphism w' -> w of the level covers
    when some operad generator available at t has w' among its inputs and
    output w.  (A morphism's two ends always share a connected component of
    the level, so the paper's same-component condition holds by itself.)"""
    def admit_at(p):
        witnessed = {(inp, g.output) for g in F.generators_at(p)
                     for inp in g.inputs}
        return lambda m: (m.source, m.target) in witnessed

    return _level_sites(F, category, admit_at, "operadic")


def build_tau_P(F: FilteredSigmaAlgebra, P: ProbabilityMeasure,
                category: FiniteCategory) -> dict[FramedPoint, GrothendieckSite]:
    """Probability topology: a morphism w' -> w of level t covers when
    P(w) >= P(w').  (Its ends always share a component of the level.)

    Each level must be a sigma-algebra on P's ground set, else ModelError
    (`FilteredSigmaAlgebra.require_sigma_levels`).
    """
    F.require_sigma_levels(P.ground_set)

    def admit(m):
        return P(category.event(m.source)) <= P(category.event(m.target))

    return _level_sites(F, category, lambda p: admit, "probability", P)


def build_tau_structural(category: FiniteCategory) -> GrothendieckSite:
    """Structural topology: covers are families of monomorphisms of
    simplicial sets (the attached event maps, tested levelwise)."""
    return _singleton_site(category, lambda m: category.is_structural(m.name),
                           "structural")


# -- verification ---------------------------------------------------------------


def verify_grothendieck(site: GrothendieckSite) -> Report:
    """Exhaustive check of the three covering axioms on one site.

    (a) every isomorphism forms a covering family of its target;
    (b) base change: for each generating family {w_i -> w} and each arrow
        gamma -> w, the pulled-back family {w_i x_w gamma -> gamma} covers
        gamma (the pullback must be declared, except along identities);
    (c) composition: covers of covers compose to covers.
    For probability sites the measure inequality chain is asserted on every
    base-change instance, P(w_i x_w gamma) <= P(w_i x gamma) <= P(gamma) with
    the product's atoms the intersection, and on every composition instance.
    P and its text are kept per object, and per (cover source, gamma) pair
    for the product, each computed on first use.
    """
    report = Report()
    _add_site_records(report, site)
    return report


def _add_site_records(report: Report, site: GrothendieckSite, prefix: str = ""):
    """`verify_grothendieck`'s records for site, added to report in order,
    each instance prefixed with prefix."""
    cat = site.category
    valid = site.valid

    for name in sorted(cat.morphisms):
        if cat.is_isomorphism(name):
            report.add("isomorphisms-cover", prefix + name,
                       name in valid[cat.morphisms[name].target])

    # each object's generating-family members, with their sources
    members = {obj: [(mi, cat.morphisms[mi].source)
                     for fam in site.coverings[obj] for mi in fam]
               for obj in sorted(cat.objects)}

    P = site.measure

    # P and its text per object; per (cover source, gamma) pair the product's
    # P, whether it is <= P(gamma), and the chain's tail: each computed once
    @cache
    def mass(obj):
        p = P(cat.event(obj))
        return p, f"{p}"

    @cache
    def product_mass(src, gamma):
        p = P(cat.event(src).atoms & cat.event(gamma).atoms)
        p_gamma, text = mass(gamma)
        return p, p <= p_gamma, f"<=P(product)={p}<=P({gamma})={text}"

    pullback_legs = cat.pullback_legs
    for obj, covers in members.items():
        arrows = [(g, cat.morphisms[g].source) for g in cat.morphisms_into(obj)]
        for mi, src in covers:
            for g, gamma in arrows:
                instance = f"{prefix}({mi}, {g})"
                legs = pullback_legs(mi, g)
                if legs is None:
                    report.add("base-change", instance, False,
                               f"missing pullback for cospan ({src} -> {obj} <- {gamma})")
                    continue
                apex, _, proj = legs
                ok = proj in valid[gamma]
                witness = f"projection {proj}: {apex} -> {gamma}"
                if P is not None:
                    p_apex, text = mass(apex)
                    p_prod, tail_ok, tail = product_mass(src, gamma)
                    ok = ok and p_apex <= p_prod and tail_ok
                    witness += f"; P={text}{tail}"
                report.add("base-change", instance, ok, witness)

    for obj, covers in members.items():
        for mi, src in covers:
            for mij, src2 in members[src]:
                instance = f"{prefix}({mi}, {mij})"
                comp = cat.composition.get((mi, mij))
                if comp is None:
                    report.add("composition", instance, False,
                               f"composite of {mi} after {mij} missing from the table")
                    continue
                ok = comp in valid[obj]
                witness = f"composite {comp}"
                if P is not None:
                    (p_ij, t_ij), (p_i, t_i), (p_o, t_o) = (
                        mass(src2), mass(src), mass(obj))
                    ok = ok and p_ij <= p_i <= p_o
                    witness += f"; P chain {t_ij}<={t_i}<={t_o}"
                report.add("composition", instance, ok, witness)


def verify_filtered(levels: dict[FramedPoint, GrothendieckSite]) -> Report:
    """Per-level axiom verification plus level-monotonicity of validity:
    a cover at s whose data survives to t >= s must still cover at t.
    `levels` maps framed points to their sites; they are walked in the
    points' own (index) order, whatever the map's own order, and
    each level's records are added under the prefix "level <point>: "."""
    report = Report()
    pairs = [(p, levels[p]) for p in sorted(levels)]
    for p, site in pairs:
        _add_site_records(report, site, f"level {p!r}: ")
    for (earlier, s_site), (later, t_site) in zip(pairs, pairs[1:]):
        for obj in sorted(s_site.valid):
            for m in sorted(s_site.valid[obj]):
                if obj in t_site.valid and m in t_site.category.morphisms:
                    report.add(
                        "level-monotone", f"{m} at {earlier!r}->{later!r}",
                        m in t_site.valid[obj],
                        "cover lost at later level" if m not in t_site.valid[obj] else "")
    return report
