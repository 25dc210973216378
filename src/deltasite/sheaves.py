"""Presheaves with finite value spaces, the gluing condition, and the
transversal-cone containment check for the filtered sheaf of Brownian
values.  Like every verifier, the gluing and cone checks return a
`reports.Report`.

A presheaf copies each distinct given map once and checks it on each arrow's
own spaces, and the gluing check counts each object's distinct sections once
per object and reads each member's source off the category's `arrows_in`.
"""
from __future__ import annotations

import math
from itertools import product as iproduct

from .errors import PreconditionError, StructuralError
from .reports import Report
from .sites import GrothendieckSite


class Presheaf:
    """Contravariant finite-value assignment on a site.

    `spaces` maps each object to its finite value space; `restrictions` maps
    each morphism f: a -> b to a dict F(b) -> F(a).  Identity restrictions
    default to identity maps; functoriality is checked on every composable
    pair present in the composition table.  A map given for several arrows
    is copied once, and those arrows share the copy.  Each arrow's map is
    checked on its own spaces, in sorted arrow order, so the first error
    names the first bad arrow.
    """

    def __init__(self, site: GrothendieckSite, spaces, restrictions):
        self.site = site
        cat = site.category
        self.spaces: dict[str, tuple] = {}
        for obj in sorted(cat.objects):
            if obj not in spaces:
                raise StructuralError(f"presheaf has no value space at {obj!r}")
            self.spaces[obj] = tuple(spaces[obj])
        self.restrictions: dict[str, dict] = {}
        # per given map, by id: the map (kept alive, so no id is reused) and its copy
        copies: dict[int, tuple[object, dict]] = {}
        for name in sorted(cat.morphisms):
            m = cat.morphisms[name]
            target, source = self.spaces[m.target], self.spaces[m.source]
            if name in restrictions:
                given = restrictions[name]
                if id(given) not in copies:
                    copies[id(given)] = given, dict(given)
                rmap = copies[id(given)][1]
            elif cat.is_identity(name):
                rmap = {v: v for v in target}
            else:
                raise StructuralError(f"presheaf lacks a restriction along {name!r}")
            for v in target:
                if v not in rmap:
                    raise StructuralError(f"restriction along {name!r} undefined on value {v!r}")
                if rmap[v] not in source:
                    raise StructuralError(
                        f"restriction along {name!r} leaves the value space at {m.source!r}")
            self.restrictions[name] = rmap
        self._check_functorial()

    def _check_functorial(self):
        """Raise on the first rule (g, f) -> h, in table order, and value v
        over g's target where restricting along g then f differs from along h.
        When every arrow restricts along one shared map r, a rule asks
        r(r(v)) == r(v), and every object is the target of its identity's unit
        rule (construction files one per arrow), so r o r = r on every value
        decides that no rule fails.  Otherwise, or when some value breaks
        r o r = r, the rules are walked."""
        cat = self.site.category
        restrictions = self.restrictions
        shared = next(iter(restrictions.values()), None)
        if all(rmap is shared for rmap in restrictions.values()) and not any(
                shared[shared[v]] != shared[v] for v in set().union(*self.spaces.values())):
            return
        for (g, f), h in cat.composition.items():
            along_g, along_f, along_h = restrictions[g], restrictions[f], restrictions[h]
            for v in self.spaces[cat.morphisms[g].target]:
                via = along_f[along_g[v]]
                direct = along_h[v]
                if via != direct:
                    raise StructuralError(
                        f"restrictions not functorial on ({g}, {f}): "
                        f"{v!r} -> {via!r} vs {direct!r}")


def constant_presheaf(site: GrothendieckSite, values=(0.0,)) -> Presheaf:
    """Every object takes `values`, and every arrow restricts along one
    shared identity map."""
    values = tuple(values)
    identity = {v: v for v in values}
    return Presheaf(site, dict.fromkeys(site.category.objects, values),
                    dict.fromkeys(site.category.morphisms, identity))


def check_sheaf_condition(F: Presheaf) -> Report:
    """Gluing over every stored covering family: sections over the target
    must biject with families over the sources that agree on all declared
    fiber products.  Undeclared overlaps are noted, not failed: one
    `gluing-note` info record each, after all `gluing` records.

    Per object, its distinct sections are counted once.  Per family, the
    sections' restrictions are tabled once, and the families over the
    sources are walked in product order only until the first one that
    agrees on every declared overlap and is no section's restriction: that
    one is named."""
    site = F.site
    cat = site.category
    restrictions, spaces = F.restrictions, F.spaces
    pullback_legs = cat.pullback_legs
    report = Report()
    append = report.rows.append
    notes = []
    for obj, families in site.coverings.items():
        if not families:
            continue
        sections = spaces[obj]
        distinct = len(set(sections))
        arrows = cat.arrows_in[obj]
        for members in families:
            fam = f"{{{', '.join(members)}}} -> {obj}"
            # compatibility constraints from declared pairwise pullbacks
            constraints = []
            for i, left in enumerate(members):
                for j in range(i, len(members)):
                    legs = pullback_legs(left, members[j])
                    if legs is None:
                        notes.append(("gluing-note",
                                      f"{fam}: overlap of ({left}, {members[j]}) undeclared",
                                      "info", ""))
                    else:
                        constraints.append((i, j, restrictions[legs[1]], restrictions[legs[2]]))
            alongs = [restrictions[m] for m in members]
            images = {tuple([along[s] for along in alongs]) for s in sections}
            why = "" if len(images) == distinct else "sections collide under restriction"
            for combo in iproduct(*[spaces[arrows[m][1]] for m in members]):
                if combo in images:
                    continue
                for i, j, along_i, along_j in constraints:
                    if along_i[combo[i]] != along_j[combo[j]]:
                        break
                else:
                    unglued = f"unglued matching family {combo!r}"
                    why = f"{why}; {unglued}" if why else unglued
                    break
            append(("gluing", fam, "fail" if why else "pass", why))
    report.rows += notes
    return report


# -- the transversal cone of the Brownian sheaf -----------------------------------


def transversal_cone_check(sigma: float, kappa: float, t, t_prime,
                           n_paths: int = 10_000, seed: int = 0) -> Report:
    """Sample transitions of a Brownian section from its apex at t to t' and
    measure the fraction landing in the closed cone of half-width
    kappa*sigma*sqrt(t'-t).

    One `cone-containment` record: the fraction must reach the threshold,
    (2*Phi(kappa)-1) minus three binomial standard errors.  kappa <= 0 fails
    by construction (the cone has empty interior), all three values 0.0.
    Draws out of the float range raise FloatingPointError (stochastic.float_traps).
    """
    t, t_prime = float(t), float(t_prime)
    if not t < t_prime:
        raise PreconditionError(f"need t < t', got {t} >= {t_prime}")
    if n_paths < 1:
        raise PreconditionError("need at least one sample")
    if sigma < 0:
        raise PreconditionError("sigma must be nonnegative")
    fraction = expected = threshold = 0.0
    if kappa > 0:
        # imported here, so that the gluing check and its commands never load NumPy
        from .stochastic import float_traps, normal_cdf, normal_samples
        dt = t_prime - t
        half = kappa * sigma * math.sqrt(dt)
        with float_traps():
            draws = normal_samples(seed, n_paths) * (sigma * math.sqrt(dt))
            fraction = int((abs(draws) <= half).sum()) / n_paths
            expected = 2.0 * normal_cdf(kappa) - 1.0
        threshold = expected - 3.0 * math.sqrt(expected * (1.0 - expected) / n_paths)
    report = Report()
    report.add("cone-containment", f"kappa={kappa} on [{t},{t_prime}]",
               kappa > 0 and fraction >= threshold,
               f"fraction={fraction} expected={expected} threshold={threshold}")
    return report

