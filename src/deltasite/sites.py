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

The verifier reads its cases from tables built once per site, not from a
method call per case: each object's covers (name, source, whether an
identity) and the arrows into it (the same, and the covers of the source).
It resolves each pullback inline by the rule of
`FiniteCategory.pullback_legs` (both arrows end at the object, so the cospan
needs no check), reads the category's isomorphism set, and appends one row
per case to the report.
"""
from __future__ import annotations

from .categories import FiniteCategory
from .errors import PreconditionError
from .filtration import FilteredSigmaAlgebra, FramedPoint, ProbabilityMeasure
from .reports import Report


class GrothendieckSite:
    """A category with its generating covering families, filed per object.

    Construction checks each object's family members as one set against the
    arrows into that object (the category's into-index, which it relies on
    being complete).  Only when that check fails are the members walked one
    by one, so the error raised names the first bad member in sorted-object,
    family, member order."""

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
            fams = tuple(map(tuple, coverings.get(obj, ())))
            valid = frozenset().union(*fams)
            if not valid.issubset(category.morphisms_into(obj)):
                for m in (m for fam in fams for m in fam):
                    if m not in category.morphisms:
                        raise PreconditionError(f"covering morphism {m!r} is not in the category")
                    if category.morphisms[m].target != obj:
                        raise PreconditionError(
                            f"covering morphism {m!r} does not end at {obj!r}")
            self.coverings[obj] = fams
            self.valid[obj] = valid


# -- builders -----------------------------------------------------------------


def _singleton_site(category: FiniteCategory, admit, label: str,
                    measure: ProbabilityMeasure | None = None) -> GrothendieckSite:
    """One generating family per admitted morphism, isomorphisms always in."""
    families: dict[str, list[tuple[str]]] = {o: [] for o in category.objects}
    isomorphisms = category.isomorphisms
    for name in sorted(category.morphisms):
        m = category.morphisms[name]
        if name in isomorphisms or admit(m):
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
    """`verify_grothendieck`'s records for site, appended to report's rows in
    order, each instance prefixed with prefix."""
    cat = site.category
    valid = site.valid
    morphisms = cat.morphisms
    identities = cat.identities
    pullbacks = cat.pullbacks
    composition = cat.composition
    append = report.rows.append

    for name in sorted(cat.isomorphisms):
        append(("isomorphisms-cover", prefix + name,
                "pass" if name in valid[morphisms[name].target] else "fail", ""))

    # per object: its generating-family members (name, source, is an
    # identity), and the arrows into it (name, source, is an identity, the
    # covers of the source)
    members = {}
    arrows_in = {}
    for obj in sorted(cat.objects):
        members[obj] = [(mi, morphisms[mi].source, identities[obj] == mi)
                        for fam in site.coverings[obj] for mi in fam]
        arrows_in[obj] = [(g, morphisms[g].source, identities[obj] == g,
                           valid[morphisms[g].source])
                          for g in cat.morphisms_into(obj)]

    P = site.measure
    if P is not None:
        # P and its text per object; per (cover source, gamma) pair the
        # product's P, whether it is <= P(gamma), and the chain's tail: each
        # computed on first use
        mass, products = {}, {}

        def weigh(obj):
            p = P(cat.event(obj))
            found = mass[obj] = (p, f"{p}")
            return found

    for obj, covers in members.items():
        arrows = arrows_in[obj]
        for mi, src, mi_identity in covers:
            for g, gamma, g_identity, covers_gamma in arrows:
                # the pullback of (mi, g), as `FiniteCategory.pullback_legs`
                # resolves it: both arrows end at obj by construction
                if g_identity:
                    apex, proj = src, mi
                elif mi_identity:
                    apex, proj = gamma, identities[gamma]
                else:
                    legs = pullbacks.get((mi, g))
                    if legs is not None:
                        apex, _, proj = legs
                    else:
                        legs = pullbacks.get((g, mi))
                        if legs is None:
                            append(("base-change", f"{prefix}({mi}, {g})", "fail",
                                    f"missing pullback for cospan ({src} -> {obj} <- {gamma})"))
                            continue
                        apex, proj, _ = legs
                ok = proj in covers_gamma
                witness = f"projection {proj}: {apex} -> {gamma}"
                if P is not None:
                    p_apex, text = mass.get(apex) or weigh(apex)
                    product = products.get((src, gamma))
                    if product is None:
                        p = P(cat.event(src).atoms & cat.event(gamma).atoms)
                        p_gamma, gamma_text = mass.get(gamma) or weigh(gamma)
                        product = products[src, gamma] = (
                            p, p <= p_gamma, f"<=P(product)={p}<=P({gamma})={gamma_text}")
                    p_prod, tail_ok, tail = product
                    ok = ok and p_apex <= p_prod and tail_ok
                    witness = f"{witness}; P={text}{tail}"
                append(("base-change", f"{prefix}({mi}, {g})", "pass" if ok else "fail",
                        witness))

    for obj, covers in members.items():
        covers_obj = valid[obj]
        for mi, src, _ in covers:
            for mij, src2, _ in members[src]:
                instance = f"{prefix}({mi}, {mij})"
                comp = composition.get((mi, mij))
                if comp is None:
                    append(("composition", instance, "fail",
                            f"composite of {mi} after {mij} missing from the table"))
                    continue
                ok = comp in covers_obj
                witness = f"composite {comp}"
                if P is not None:
                    (p_ij, t_ij), (p_i, t_i), (p_o, t_o) = (
                        mass.get(src2) or weigh(src2), mass.get(src) or weigh(src),
                        mass.get(obj) or weigh(obj))
                    ok = ok and p_ij <= p_i <= p_o
                    witness = f"{witness}; P chain {t_ij}<={t_i}<={t_o}"
                append(("composition", instance, "pass" if ok else "fail", witness))


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
    append = report.rows.append
    for (earlier, s_site), (later, t_site) in zip(pairs, pairs[1:]):
        step = f" at {earlier!r}->{later!r}"
        for obj in sorted(s_site.valid):
            if obj not in t_site.valid:
                continue
            covers_later = t_site.valid[obj]
            for m in sorted(s_site.valid[obj]):
                if m in t_site.category.morphisms:
                    append(("level-monotone", m + step, "pass", "") if m in covers_later
                           else ("level-monotone", m + step, "fail", "cover lost at later level"))
    return report
