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

What depends only on the category is built once per category:
`FiniteCategory.arrows_in`, each object's arrows in with their sources and
identity flags, at construction, and the isomorphism set, on first use.  A
level restriction filters its parent's table and keeps its parent's
isomorphisms.  The full level is the category itself, so the structural
site and the full tau_P level share them.  The singleton builders ask
about each arrow once, in name order, the site constructor checks each
object's members against that table, and the verifier reads each case from
it, not from a method call per case.  It resolves each pullback inline by the rule
of `FiniteCategory.pullback_legs` (both arrows end at the object, so the
cospan needs no check) and appends one row per case to the report.  tau_P
reads P of each object once, on first use, for all its levels, and the
verifier keeps one P memo per object and per product for the site it
verifies.
"""
from __future__ import annotations

from .categories import FiniteCategory
from .errors import PreconditionError
from .filtration import FilteredSigmaAlgebra, FramedPoint, ProbabilityMeasure
from .reports import Report


class GrothendieckSite:
    """A category with its generating covering families, filed per object.

    Construction checks each object's family members as one set against the
    arrows into that object (the category's `arrows_in`).  Only when that
    check fails are the members walked one by one, so the error raised names
    the first bad member in sorted-object, family, member order."""

    def __init__(self, category: FiniteCategory, coverings, label: str,
                 measure: ProbabilityMeasure | None = None):
        # coverings: mapping object -> iterable of families, each an iterable
        # of the names of arrows into that object
        self.category = category
        self.label = label
        self.measure = measure
        self.coverings: dict[str, tuple[tuple[str, ...], ...]] = {}
        self.valid: dict[str, frozenset[str]] = {}
        if not coverings.keys() <= category.objects.keys():
            unknown = sorted(coverings.keys() - category.objects.keys())
            raise PreconditionError(
                f"coverings name objects not in the category: {', '.join(map(repr, unknown))}")
        for obj, arrows in category.arrows_in.items():
            fams = tuple(map(tuple, coverings.get(obj, ())))
            valid = frozenset().union(*fams)
            if not arrows.keys() >= valid:
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
    """One generating family per admitted morphism, isomorphisms always in.
    admit(name, source, target) is asked once about every other arrow, in
    name order, so the first arrow that it cannot decide names the error, and
    each object's families come in name order, as `arrows_in` files them."""
    isomorphisms, morphisms = category.isomorphisms, category.morphisms
    families = {obj: [] for obj in category.objects}
    for name in sorted(morphisms):
        m = morphisms[name]
        if name in isomorphisms or admit(name, m.source, m.target):
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
        return lambda name, source, target: (source, target) in witnessed

    return _level_sites(F, category, admit_at, "operadic")


def build_tau_P(F: FilteredSigmaAlgebra, P: ProbabilityMeasure,
                category: FiniteCategory) -> dict[FramedPoint, GrothendieckSite]:
    """Probability topology: a morphism w' -> w of level t covers when
    P(w) >= P(w').  (Its ends always share a component of the level.)

    Each level must be a sigma-algebra on P's ground set, else ModelError
    (`FilteredSigmaAlgebra.require_sigma_levels`).  P of each object is
    read on the first arrow that asks for it and kept for every level.
    """
    F.require_sigma_levels(P.ground_set)
    mass: dict[str, float] = {}

    def weight(obj):
        p = mass.get(obj)
        if p is None:
            p = mass[obj] = P(category.event(obj))
        return p

    def admit(name, source, target):
        return weight(source) <= weight(target)

    return _level_sites(F, category, lambda p: admit, "probability", P)


def build_tau_structural(category: FiniteCategory) -> GrothendieckSite:
    """Structural topology: covers are families of monomorphisms of
    simplicial sets (the attached event maps, tested levelwise)."""
    return _singleton_site(category, lambda name, source, target: category.is_structural(name),
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
    order, each instance prefixed with prefix.  The P memos (below) live for
    this one site."""
    cat = site.category
    valid = site.valid
    into = cat.arrows_in
    morphisms = cat.morphisms
    identities = cat.identities
    pullbacks = cat.pullbacks
    composition = cat.composition
    append = report.rows.append

    for name in sorted(cat.isomorphisms):
        append(("isomorphisms-cover", prefix + name,
                "pass" if name in valid[morphisms[name].target] else "fail", ""))

    # per object: its generating-family members, as `arrows_in` files them
    members = {obj: [arrows[mi] for fam in site.coverings[obj] for mi in fam]
               for obj, arrows in into.items()}

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
        arrows = into[obj].values()
        for mi, src, mi_identity in covers:
            for g, gamma, g_identity in arrows:
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
                ok = proj in valid[gamma]
                if P is None:
                    append(("base-change", f"{prefix}({mi}, {g})", "pass" if ok else "fail",
                            f"projection {proj}: {apex} -> {gamma}"))
                    continue
                p_apex, text = mass.get(apex) or weigh(apex)
                product = products.get((src, gamma))
                if product is None:
                    p = P(cat.event(src).atoms & cat.event(gamma).atoms)
                    p_gamma, gamma_text = mass.get(gamma) or weigh(gamma)
                    product = products[src, gamma] = (
                        p, p <= p_gamma, f"<=P(product)={p}<=P({gamma})={gamma_text}")
                p_prod, tail_ok, tail = product
                append(("base-change", f"{prefix}({mi}, {g})",
                        "pass" if ok and p_apex <= p_prod and tail_ok else "fail",
                        f"projection {proj}: {apex} -> {gamma}; P={text}{tail}"))

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
                if P is None:
                    append(("composition", instance, "pass" if ok else "fail",
                            f"composite {comp}"))
                    continue
                (p_ij, t_ij), (p_i, t_i), (p_o, t_o) = (
                    mass.get(src2) or weigh(src2), mass.get(src) or weigh(src),
                    mass.get(obj) or weigh(obj))
                append(("composition", instance, "pass" if ok and p_ij <= p_i <= p_o else "fail",
                        f"composite {comp}; P chain {t_ij}<={t_i}<={t_o}"))


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
