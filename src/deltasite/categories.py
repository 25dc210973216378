"""Finite categories: the computable fragment of the event category.

Objects are identifiers optionally bound to simplicial events; morphisms,
composition and declared pullbacks are explicit tables.  `violations` is the
one place that decides the category laws (unit laws, associativity, totality
of composition, commuting pullback squares), by enumeration, and it returns
each broken law as keyed data: `check_axioms` writes them into a `Report`,
and the roof verifier reads its roof laws off them.  A declared square is
filed under its cospan as the plain tuple of its legs (apex, to_left,
to_right); `pullback_legs` resolves a cospan to that tuple, or to its swap
for the reversed pair, and the site verifier applies the same rule inline.

The tables are fixed once a category is constructed.  Hom lookups (the
morphisms into and out of an object, and from one object to another) are
indexed once, at construction, each in one table, and every lookup and axiom
walk reads that index instead of scanning the table.  Construction checks
each row of the composition and pullback tables once, in one pass per
table, and raises the first bad row's error; a restriction
(`full_subcategory`) is cut from those checked tables, so no row is checked
twice.  Where no hom-set holds two arrows, `violations` decides
associativity and the squares from the hom index alone, since construction
made every composite run between the right ends.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import PreconditionError, StructuralError
from .events import EventMap, SimplicialEvent, is_monomorphism
from .reports import Report

# the text of a violation's `category-axioms` record, by its kind
_VIOLATION = {"undefined": "composition undefined for ({}, {})",
              "left-unit": "left unit fails for {}", "right-unit": "right unit fails for {}",
              "associativity": "associativity fails on ({}, {}, {})",
              "square": "declared pullback square ({}, {}) does not commute"}


@dataclass(eq=False)
class Morphism:
    name: str
    source: str
    target: str
    event_map: EventMap | None = None

    def __repr__(self):
        return f"Morphism({self.name!r}: {self.source} -> {self.target})"


class FiniteCategory:
    """Morphism/composition tables over identifier-named objects.

    Construction checks referential integrity and synthesizes identity
    morphisms (named ``id:<object>``, with no event map: in a concrete
    category an identity's map is forced) together with their unit
    composition rules, then indexes the morphism names out of each object,
    and from each object to each, in sorted order.  `arrows_in` is the one
    index of the arrows into an object: it files per object, in sorted
    order, the arrows into it by name, in name order, each as (name, source,
    whether it is the object's identity).  The law walks, the site
    constructor, the site verifier and the gluing check read it, and a
    restriction filters its parent's.  Everything else
    -- totality and associativity of composition, pullback squares
    commuting -- is decided by `violations`.  The squares are passed keyed
    by cospan, {(left, right): (apex, to_left, to_right)}, as they are kept
    and as the composition rules are passed, {(g, f): h}; so a cospan has at
    most one square.
    """

    def __init__(self, objects, morphisms, composition=None, pullbacks=None):
        # objects: mapping object id -> SimplicialEvent | None
        self.objects: dict[str, SimplicialEvent | None] = dict(objects)
        self.morphisms: dict[str, Morphism] = {}
        self.identities: dict[str, str] = {}

        for m in morphisms:
            if m.name in self.morphisms:
                raise StructuralError(f"duplicate morphism name {m.name!r}")
            for end in (m.source, m.target):
                if end not in self.objects:
                    raise StructuralError(f"morphism {m.name!r} references unknown object {end!r}")
            if m.event_map is not None:
                src_ev, tgt_ev = self.objects[m.source], self.objects[m.target]
                if src_ev is not None and m.event_map.source is not src_ev:
                    raise StructuralError(f"morphism {m.name!r}: event map source mismatch")
                if tgt_ev is not None and m.event_map.target is not tgt_ev:
                    raise StructuralError(f"morphism {m.name!r}: event map target mismatch")
            self.morphisms[m.name] = m

        for obj in self.objects:
            ident = f"id:{obj}"
            if ident in self.morphisms:
                raise StructuralError(f"morphism name {ident!r} is reserved for the identity")
            self.morphisms[ident] = Morphism(ident, obj, obj)
            self.identities[obj] = ident

        ends = {name: (m.source, m.target) for name, m in self.morphisms.items()}

        # a rule (g, f) -> h: g o f is defined and h runs where it does
        declared = composition or {}
        for (g, f), h in declared.items():
            try:
                (g_src, g_tgt), (f_src, f_tgt), h_ends = ends[g], ends[f], ends[h]
            except KeyError:
                raise StructuralError("composition rule references unknown morphism "
                                      f"{next(n for n in (g, f, h) if n not in ends)!r}") from None
            if f_tgt != g_src:
                raise StructuralError(f"composition rule ({g!r}, {f!r}) is not composable")
            if h_ends != (f_src, g_tgt):
                raise StructuralError(f"composite {h!r} has wrong endpoints for ({g!r}, {f!r})")

        self.composition: dict[tuple[str, str], str] = dict(declared)
        # unit rules: id o f = f = f o id
        for name, m in self.morphisms.items():
            self.composition.setdefault((self.identities[m.target], name), name)
            self.composition.setdefault((name, self.identities[m.source]), name)

        # a square (left, right) -> (apex, to_left, to_right): left and right
        # share a target, and each leg runs from the apex (an object) to the
        # source of its side
        self.pullbacks: dict[tuple[str, str], tuple[str, str, str]] = dict(pullbacks or {})
        for (left, right), (apex, to_left, to_right) in self.pullbacks.items():
            try:
                (l_src, l_tgt), (r_src, r_tgt) = ends[left], ends[right]
            except KeyError:
                raise StructuralError("pullback square references unknown morphism "
                                      f"{right if left in ends else left!r}") from None
            if l_tgt != r_tgt:
                raise StructuralError(f"pullback of ({left!r}, {right!r}): targets differ")
            if apex not in self.objects:
                raise StructuralError(f"pullback apex {apex!r} is not an object")
            if ends.get(to_left) != (apex, l_src):
                raise StructuralError(f"pullback of ({left!r}, {right!r}): bad leg {to_left!r}")
            if ends.get(to_right) != (apex, r_src):
                raise StructuralError(f"pullback of ({left!r}, {right!r}): bad leg {to_right!r}")

        # the index: the names out of each object, and from each object to
        # each, in sorted order; and `arrows_in`, the arrows into each object
        self._out: dict[str, list[str]] = {o: [] for o in self.objects}
        self._hom: dict[tuple[str, str], list[str]] = {}
        self.arrows_in: dict[str, dict[str, tuple[str, str, bool]]] = {
            o: {} for o in sorted(self.objects)}
        for name in sorted(ends):
            source, target = ends[name]
            self._out[source].append(name)
            self._hom.setdefault((source, target), []).append(name)
            self.arrows_in[target][name] = (name, source, name == self.identities[target])

    # -- lookups ------------------------------------------------------------

    def morphism(self, name: str) -> Morphism:
        if name not in self.morphisms:
            raise KeyError(f"unknown morphism {name!r}")
        return self.morphisms[name]

    def event(self, obj: str) -> SimplicialEvent:
        if obj not in self.objects:
            raise KeyError(f"unknown object {obj!r}")
        ev = self.objects[obj]
        if ev is None:
            raise PreconditionError(f"object {obj!r} carries no simplicial event")
        return ev

    def is_identity(self, name: str) -> bool:
        m = self.morphisms.get(name)
        return m is not None and self.identities[m.source] == name

    def morphisms_from(self, obj: str) -> list[str]:
        """Sorted names of the morphisms starting at obj (the shared index)."""
        return self._out.get(obj, [])

    def is_isomorphism(self, name: str) -> bool:
        """An identity, or some arrow back from its target to its source
        inverts it."""
        m = self.morphism(name)
        return self.is_identity(name) or any(
            self.composition.get((other, name)) == self.identities[m.source]
            and self.composition.get((name, other)) == self.identities[m.target]
            for other in self._hom.get((m.target, m.source), ()))

    @cached_property
    def isomorphisms(self) -> frozenset[str]:
        """The names of the isomorphisms, decided once per category.  Every
        identity is one; of the other arrows only one with some arrow back
        can be, so only those are tested."""
        hom = self._hom
        identities = frozenset(self.identities.values())
        return identities.union(filter(self.is_isomorphism, (
            name for (s, t), names in hom.items() if (t, s) in hom
            for name in names if name not in identities)))

    def is_structural(self, name: str) -> bool:
        """Monomorphism test on the attached simplicial map; an arrow with
        none is structural when it is an identity."""
        m = self.morphism(name)
        if m.event_map is None:
            return self.is_identity(name)
        return is_monomorphism(m.event_map)

    def pullback_legs(self, left: str, right: str) -> tuple[str, str, str] | None:
        """The pullback of the cospan (left, right) as (apex, to_left,
        to_right), or None if it is not declared.  Along an identity leg the
        pullback is the other leg's source; otherwise the legs stored under
        (left, right), or under (right, left) with its legs swapped.
        PreconditionError if the two do not share a target."""
        lm, rm = self.morphism(left), self.morphism(right)
        if lm.target != rm.target:
            raise PreconditionError(f"({left!r}, {right!r}) is not a cospan")
        identities = self.identities
        if identities[rm.source] == right:
            return lm.source, identities[lm.source], left
        if identities[lm.source] == left:
            return rm.source, right, identities[rm.source]
        legs = self.pullbacks.get((left, right))
        if legs is None and (right, left) in self.pullbacks:
            apex, to_right, to_left = self.pullbacks[right, left]
            return apex, to_left, to_right
        return legs

    def composable_pairs(self):
        """Every (f, g) with g o f defined by endpoints: f in name order, g
        in the out-index of f's target."""
        for f in sorted(self.morphisms):
            for g in self._out[self.morphisms[f].target]:
                yield f, g

    # -- axiom report ---------------------------------------------------------

    def violations(self) -> list[tuple[str, tuple[str, ...]]]:
        """The category laws this category breaks, as (kind, arrows) in
        report order: ("undefined", (g, f)) per composable pair with no
        composite, ("left-unit", (f,)), ("right-unit", (f,)),
        ("associativity", (h, g, f)) where h o (g o f) and (h o g) o f are
        both defined and differ, and ("square", (l, r)) per declared square
        that does not commute.  No entries = a category.

        Pairs and triples are walked through the out-index.  The two
        composites of one triple or square run between the same two objects,
        so where no hom-set holds two arrows, associativity holds, and so
        does every square once composition is total: those walks are skipped."""
        found = []
        thin = max(map(len, self._hom.values()), default=0) <= 1
        # the pairs (g, f) through each object o: g out of o, f into o
        total = all(all(map(self.composition.__contains__, product(self._out[o], into)))
                    for o, into in self.arrows_in.items())
        if not total:
            found += [("undefined", (g, f)) for f, g in self.composable_pairs()
                      if (g, f) not in self.composition]
        for name, m in self.morphisms.items():
            if self.composition.get((self.identities[m.target], name)) != name:
                found.append(("left-unit", (name,)))
            if self.composition.get((name, self.identities[m.source])) != name:
                found.append(("right-unit", (name,)))
        if not thin:
            for f, g in self.composable_pairs():
                gf = self.composition.get((g, f))
                if gf is None:
                    continue
                for h in self._out[self.morphisms[g].target]:
                    hg = self.composition.get((h, g))
                    left = self.composition.get((h, gf))
                    right = self.composition.get((hg, f)) if hg else None
                    if left is not None and right is not None and left != right:
                        found.append(("associativity", (h, g, f)))
        if not (thin and total):
            for (l, r), (_, to_left, to_right) in sorted(self.pullbacks.items()):
                via_left = self.composition.get((l, to_left))
                via_right = self.composition.get((r, to_right))
                if via_left is None or via_right is None or via_left != via_right:
                    found.append(("square", (l, r)))
        return found

    def check_axioms(self) -> Report:
        """One `category-axioms` fail record per violation (none = pass)."""
        return Report(rows=[("category-axioms", _VIOLATION[kind].format(*arrows), "fail", "")
                            for kind, arrows in self.violations()])

    def full_subcategory(self, objs) -> "FiniteCategory":
        """Restriction to a subset of objects, cut from this category's tables.
        It relies on construction having checked every row, and on the tables
        staying fixed, so no row is checked again.  It keeps the arrows with
        both ends inside (this category's `Morphism`s, identities included,
        read off the hom index), the rules at the composable pairs through each
        kept object, and the squares at the cospans into each kept object whose
        apex is kept (a composite, and a square's legs, run between kept
        objects).  It answers like the category the constructor builds from
        those rows: objects in this category's order, the other arrows, then
        the identities.  Its isomorphisms are this category's that it keeps.
        The whole object set gives the category itself."""
        objs = set(objs)
        unknown = objs - self.objects.keys()
        if unknown:
            raise KeyError(f"unknown objects {sorted(unknown)}")
        if len(objs) == len(self.objects):
            return self
        sub = FiniteCategory.__new__(FiniteCategory)
        sub.objects = {o: ev for o, ev in self.objects.items() if o in objs}
        sub.identities = {o: self.identities[o] for o in sub.objects}
        # the index is this category's, filtered: each list stays sorted
        sub.arrows_in = {o: {g: arrow for g, arrow in arrows.items() if arrow[1] in objs}
                         for o, arrows in self.arrows_in.items() if o in objs}
        morphisms = self.morphisms
        sub._out = {o: [g for g in self._out[o] if morphisms[g].target in objs]
                    for o in sub.objects}
        hom = self._hom
        sub._hom = {(s, t): hom[s, t] for s in sub.objects for t in sub.objects
                    if (s, t) in hom}
        arrows = sorted(g for arrows in sub.arrows_in.values()
                        for g, _, identity in arrows.values() if not identity)
        sub.morphisms = {name: morphisms[name] for name in (*arrows, *sub.identities.values())}
        composition, pullbacks = self.composition, self.pullbacks
        sub.composition, sub.pullbacks = {}, {}
        for o in sub.objects:
            into, out = sub.arrows_in[o], sub._out[o]
            for f in into:
                for g in out:
                    h = composition.get((g, f))
                    if h is not None:
                        sub.composition[g, f] = h
                for r in into:
                    legs = pullbacks.get((f, r))
                    if legs is not None and legs[0] in objs:
                        sub.pullbacks[f, r] = legs
        # an inverse runs between kept objects, and its two unit rules are kept
        sub.isomorphisms = self.isomorphisms.intersection(sub.morphisms)
        return sub
