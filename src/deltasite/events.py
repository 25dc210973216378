"""Finite truncated simplicial sets carrying atom subsets.

An event has two faces: a simplicial set (its structure) and a subset of a
finite ground set of atoms (its measure-theoretic content).  Both are finite
and validated by enumeration, so fiber products and monomorphism tests are
exact.  A model's events and maps are read from its model document by
`model_io.parse_model`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionError, StructuralError

@dataclass(eq=False)
class SimplicialEvent:
    """A truncated simplicial set over a fixed atom ground set.

    levels maps dimension -> set of simplex identifiers (plain strings).
    faces maps (dim, simplex, i) -> simplex at dim-1 and must be total for
    every stored simplex of dimension >= 1.  degeneracies maps
    (dim, simplex, i) -> simplex at dim+1 and may be partial: omitted entries
    mean the degenerate simplex is not materialized.  Simplicial identities
    are checked on every stored entry.
    """

    name: str
    levels: dict[int, frozenset[str]]
    faces: dict[tuple[int, str, int], str] = field(default_factory=dict)
    degeneracies: dict[tuple[int, str, int], str] = field(default_factory=dict)
    atoms: frozenset[str] = frozenset()
    ground_set: frozenset[str] = frozenset()

    def __post_init__(self):
        self.levels = {d: frozenset(s) for d, s in self.levels.items() if s}
        self.atoms = frozenset(self.atoms)
        self.ground_set = frozenset(self.ground_set)
        if not self.atoms <= self.ground_set:
            raise StructuralError(
                f"{self.name}: atoms {sorted(self.atoms - self.ground_set)} "
                "are not in the ground set")
        self._check_levels()
        self._check_identities()

    # -- validation -------------------------------------------------------

    def _check_levels(self):
        for d in self.levels:
            if d < 0:
                raise StructuralError(f"{self.name}: negative dimension {d}")
        for (d, x, i), y in self.faces.items():
            if x not in self.levels.get(d, frozenset()):
                raise StructuralError(f"{self.name}: face of unknown simplex {x!r} at dim {d}")
            if not 0 <= i <= d:
                raise StructuralError(f"{self.name}: face index {i} out of range for dim {d}")
            if y not in self.levels.get(d - 1, frozenset()):
                raise StructuralError(f"{self.name}: face target {y!r} missing at dim {d - 1}")
        for (d, x, i), y in self.degeneracies.items():
            if x not in self.levels.get(d, frozenset()):
                raise StructuralError(f"{self.name}: degeneracy of unknown simplex {x!r}")
            if not 0 <= i <= d:
                raise StructuralError(f"{self.name}: degeneracy index {i} out of range")
            if y not in self.levels.get(d + 1, frozenset()):
                raise StructuralError(f"{self.name}: degeneracy target {y!r} missing at dim {d + 1}")
        # faces must be total on simplices of dimension >= 1
        for d, simplices in self.levels.items():
            if d == 0:
                continue
            for x in simplices:
                for i in range(d + 1):
                    if (d, x, i) not in self.faces:
                        raise StructuralError(
                            f"{self.name}: missing face {i} of {x!r} at dim {d}")

    def _check_identities(self):
        """Enumerate the simplicial identities on all stored entries."""
        fc, dg = self.faces, self.degeneracies
        for d, simplices in sorted(self.levels.items()):
            for x in simplices:
                # d_i d_j = d_{j-1} d_i for i < j
                if d >= 2:
                    for j in range(d + 1):
                        for i in range(j):
                            left = fc[(d - 1, fc[(d, x, j)], i)]
                            right = fc[(d - 1, fc[(d, x, i)], j - 1)]
                            if left != right:
                                raise StructuralError(
                                    f"{self.name}: d_{i} d_{j} != d_{j-1} d_{i} on {x!r}")
                # s_i s_j = s_{j+1} s_i for i <= j (where stored)
                for j in range(d + 1):
                    sj = dg.get((d, x, j))
                    if sj is None:
                        continue
                    for i in range(j + 1):
                        si_sj = dg.get((d + 1, sj, i))
                        si = dg.get((d, x, i))
                        sj1_si = dg.get((d + 1, si, j + 1)) if si is not None else None
                        if si_sj is not None and sj1_si is not None and si_sj != sj1_si:
                            raise StructuralError(
                                f"{self.name}: s_{i} s_{j} != s_{j+1} s_{i} on {x!r}")
                    # d_i s_j identities on the stored degenerate simplex
                    for i in range(d + 2):
                        target = fc.get((d + 1, sj, i))
                        if target is None:
                            raise StructuralError(
                                f"{self.name}: degenerate simplex {sj!r} lacks face {i}")
                        if i in (j, j + 1):
                            if target != x:
                                raise StructuralError(
                                    f"{self.name}: d_{i} s_{j} != id on {x!r}")
                        elif i < j:
                            expect = dg.get((d - 1, fc[(d, x, i)], j - 1))
                            if expect is not None and target != expect:
                                raise StructuralError(
                                    f"{self.name}: d_{i} s_{j} != s_{j-1} d_{i} on {x!r}")
                        else:  # i > j + 1
                            expect = dg.get((d - 1, fc[(d, x, i - 1)], j))
                            if expect is not None and target != expect:
                                raise StructuralError(
                                    f"{self.name}: d_{i} s_{j} != s_{j} d_{i-1} on {x!r}")

    # -- accessors ---------------------------------------------------------

    def simplices(self, dim: int) -> frozenset[str]:
        return self.levels.get(dim, frozenset())

    def __repr__(self):
        return f"SimplicialEvent({self.name!r}, dims={sorted(self.levels)}, atoms={sorted(self.atoms)})"


@dataclass(eq=False)
class EventMap:
    """A map of events: per-dimension simplex functions commuting with all
    stored face and degeneracy maps, plus an atom-side witness.

    With atom_map omitted the atom condition is the inclusion
    atoms(source) <= atoms(target).
    """

    name: str
    source: SimplicialEvent
    target: SimplicialEvent
    level_maps: dict[int, dict[str, str]] = field(default_factory=dict)
    atom_map: dict[str, str] | None = None

    def __post_init__(self):
        self._check_total()
        self._check_commutes()
        self._check_atoms()

    def _check_total(self):
        for d, simplices in self.source.levels.items():
            lm = self.level_maps.get(d, {})
            for x in simplices:
                if x not in lm:
                    raise StructuralError(f"{self.name}: no image for {x!r} at dim {d}")
                if lm[x] not in self.target.simplices(d):
                    raise StructuralError(
                        f"{self.name}: image {lm[x]!r} not a dim-{d} simplex of target")

    def _check_commutes(self):
        for (d, x, i), y in self.source.faces.items():
            fx = self.level_maps[d][x]
            want = self.level_maps[d - 1][y]
            got = self.target.faces.get((d, fx, i))
            if got != want:
                raise StructuralError(
                    f"{self.name}: does not commute with face {i} of {x!r}")
        for (d, x, i), y in self.source.degeneracies.items():
            fx = self.level_maps[d][x]
            want = self.level_maps[d + 1][y]
            got = self.target.degeneracies.get((d, fx, i))
            if got != want:
                raise StructuralError(
                    f"{self.name}: does not commute with degeneracy {i} of {x!r}")

    def _check_atoms(self):
        if self.atom_map is None:
            if not self.source.atoms <= self.target.atoms:
                raise StructuralError(
                    f"{self.name}: atoms of source not included in atoms of target "
                    "(and no atom_map given)")
        else:
            for a in self.source.atoms:
                if a not in self.atom_map:
                    raise StructuralError(f"{self.name}: atom {a!r} has no image")
                if self.atom_map[a] not in self.target.atoms:
                    raise StructuralError(f"{self.name}: atom image {self.atom_map[a]!r} invalid")

    def __repr__(self):
        return f"EventMap({self.name!r}: {self.source.name} -> {self.target.name})"


# -- constructors -----------------------------------------------------------

def compose_event_maps(g: EventMap, f: EventMap, name: str | None = None) -> EventMap:
    """g after f.  Requires f.target is g.source."""
    if f.target is not g.source and f.target.name != g.source.name:
        raise PreconditionError(f"cannot compose {g.name} after {f.name}: endpoints differ")
    lm = {d: {x: g.level_maps[d][y] for x, y in m.items()}
          for d, m in f.level_maps.items()}
    return EventMap(name or f"{g.name}*{f.name}", f.source, g.target, lm)


# -- operations --------------------------------------------------------------

def is_monomorphism(f: EventMap) -> bool:
    """True iff every level map is injective."""
    for d, lm in f.level_maps.items():
        if len(set(lm.values())) != len(lm):
            return False
    return True


def fiber_product(f: EventMap, g: EventMap, name=None
                  ) -> tuple[SimplicialEvent, EventMap, EventMap]:
    """Levelwise pullback of the cospan f: A -> C <- B :g.

    Simplices are the pairs (x, y) with f(x) = g(y), named "(x,y)", at each
    dimension that A and B share; faces and degeneracies are componentwise
    and stay inside the pullback because f and g commute with them, and a
    degeneracy of a pair exists only where both components carry one.
    Atoms multiply as joint occurrence: atoms(A) & atoms(B).  Returns
    (P, projection .pA to A, projection .pB to B).
    """
    if f.target is not g.target and f.target.name != g.target.name:
        raise PreconditionError(
            f"fiber product needs a shared target: {f.name} ends at "
            f"{f.target.name}, {g.name} at {g.target.name}")
    a, b = f.source, g.source
    name = name or f"({a.name}x[{f.target.name}]{b.name})"
    pairs: dict[int, dict[tuple[str, str], str]] = {}
    for d in sorted(set(a.levels) & set(b.levels)):
        fd, gd = f.level_maps[d], g.level_maps[d]
        kept = {(x, y): f"({x},{y})" for x in sorted(a.simplices(d))
                for y in sorted(b.simplices(d)) if fd[x] == gd[y]}
        if kept:
            pairs[d] = kept
    faces, degens = {}, {}
    for d, kept in pairs.items():
        above = pairs.get(d + 1, {})
        for (x, y), p in kept.items():
            if d - 1 in pairs:
                for i in range(d + 1):
                    faces[(d, p, i)] = f"({a.faces[(d, x, i)]},{b.faces[(d, y, i)]})"
            for i in range(d + 1):
                up = (a.degeneracies.get((d, x, i)), b.degeneracies.get((d, y, i)))
                if up in above:
                    degens[(d, p, i)] = above[up]
    event = SimplicialEvent(name, {d: frozenset(kept.values()) for d, kept in pairs.items()},
                            faces, degens, a.atoms & b.atoms, a.ground_set)
    return (event,
            EventMap(f"{name}.pA", event, a,
                     {d: {p: x for (x, _), p in kept.items()} for d, kept in pairs.items()}),
            EventMap(f"{name}.pB", event, b,
                     {d: {p: y for (_, y), p in kept.items()} for d, kept in pairs.items()}))
