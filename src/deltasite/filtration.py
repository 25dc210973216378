"""Filtered sigma-algebras over a discretized framed index, with operad
generators and atom-generated probability measures.

The index is a finite rational grid with an (0,1]-fiber cut into m equal
steps; its points order themselves, (base, k) lexicographically, which is
the index order.  Levels are event collections keyed by framed points and
must grow monotonically.  Closure laws and the operad action are verified by
report-style checks rather than enforced at construction, so that defective
inputs can be represented and diagnosed; `require_sigma_levels` is the one
gate that refuses a level which is not a sigma-algebra.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import ModelError, PreconditionError, StructuralError
from .events import SimplicialEvent
from .reports import Report


@dataclass(frozen=True, order=True)
class FramedPoint:
    """Index point (t, k/m): base time t, a Fraction, with fiber position k
    of m.  Points compare as (base, k): the index order, since base times
    strictly increase.  A point hashes over exact integers, not Fraction's
    hash, computed once at construction: it relies on the point and its
    base staying unchanged.  Points that share their base object compare
    without `Fraction.__eq__`, as tuple comparison tries identity first."""

    base: Fraction
    k: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash",
                           hash((self.base.numerator, self.base.denominator, self.k)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"({self.base},{self.k})"


class FramedIndex:
    """Finite increasing base grid with an m-step fiber over each base time.

    `points` lists the points in their own (index) order; a point's `base`
    is its bundle projection q, which drops the fiber coordinate.  A base
    time that is already a Fraction is kept as given, so the points share it
    with the points a parser makes from the same text.
    """

    def __init__(self, base_times, m: int = 1):
        base = [t if type(t) is Fraction else Fraction(t) for t in base_times]
        if any(b >= a for b, a in zip(base, base[1:])):
            raise StructuralError("base times must be strictly increasing")
        if not base:
            raise StructuralError("framed index needs at least one base time")
        if m < 1:
            raise StructuralError("fiber resolution m must be >= 1")
        self.base_times = base
        self.m = m
        self.points = [FramedPoint(t, k) for t in base for k in range(1, m + 1)]

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class MultiArrow:
    """Operad generator: a multi-input assembly of events, placed at an index."""

    name: str
    inputs: tuple[str, ...]
    output: str
    at: FramedPoint


class FilteredSigmaAlgebra:
    """Event collections per framed point, monotone in the index order, with
    the operad generators placed at its points."""

    def __init__(self, index: FramedIndex, events, levels, generators=()):
        # events: mapping event id -> SimplicialEvent; levels: mapping
        # FramedPoint -> iterable of event ids; generators: MultiArrows.
        self.index = index
        self.events: dict[str, SimplicialEvent] = dict(events)
        self.generators: tuple[MultiArrow, ...] = tuple(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise StructuralError("duplicate operad generator names")
        self.levels: dict[FramedPoint, frozenset[str]] = {}
        # each point's place among the levels given, as a model file lists them
        self._declared: dict[FramedPoint, int] = {p: i for i, p in enumerate(levels)}
        for p in index:
            if p not in levels:
                raise StructuralError(f"no level declared at framed point {p!r}")
            ids = frozenset(levels[p])
            missing = ids.difference(self.events)
            if missing:
                raise StructuralError(f"level {p!r} references unknown events {sorted(missing)}")
            self.levels[p] = ids
        prev: frozenset[str] | None = None
        for p in index:
            if prev is not None and not prev <= self.levels[p]:
                raise StructuralError(
                    f"filtration not increasing at {p!r}: lost {sorted(prev - self.levels[p])}")
            prev = self.levels[p]
        for p, i in self._declared.items():
            if p not in self.levels:
                raise ModelError([(f"filtration.levels[{i}]",
                                   f"level at {p!r} is not a point of the framed index")])
        # each point's and each generator's position in the index, found once
        self._position: dict[FramedPoint, int] = {p: i for i, p in enumerate(index.points)}
        self._placed: list[int] = []
        for g in self.generators:
            i = self._position.get(g.at)
            if i is None:
                raise StructuralError(f"generator {g.name!r} placed at unknown point {g.at!r}")
            for ev in (*g.inputs, g.output):
                if ev not in self.events:
                    raise StructuralError(f"generator {g.name!r} references unknown event {ev!r}")
            self._placed.append(i)

    def generators_at(self, point: FramedPoint) -> list[MultiArrow]:
        """Generators available at `point`, a point of the index: those
        placed at u <= point, in their own order.

        Availability is cumulative because later levels contain everything
        assembled earlier (the filtration is increasing)."""
        j = self._position.get(point)
        if j is None:
            raise KeyError(f"unknown framed point {point!r}")
        return [g for g, i in zip(self.generators, self._placed) if i <= j]

    def level(self, point: FramedPoint) -> frozenset[str]:
        if point not in self.levels:
            raise KeyError(f"unknown framed point {point!r}")
        return self.levels[point]

    def require_sigma_levels(self, ground_set):
        """Raise ModelError at filtration.levels[i] for the first level, in
        index order, that is not a sigma-algebra on ground_set, naming the
        smallest set it lacks; i is the level's place among the levels given."""
        for p in self.index:
            gap = _sigma_gap([self.events[e].atoms for e in self.levels[p]], ground_set)
            if gap is not None:
                raise ModelError([(f"filtration.levels[{self._declared[p]}]",
                                   f"level {p!r} is not a sigma-algebra: it lacks {_label(gap)}")])


def _atoms_of(e) -> frozenset[str]:
    return e.atoms if isinstance(e, SimplicialEvent) else frozenset(e)


class ProbabilityMeasure:
    """Atom-generated measure: P(event) is the exact sum of atom weights,
    which must be finite, non-negative and sum to 1 within 1e-9.

    The weights are fixed at construction: the ground set and every value
    of P are computed from them once and kept.
    """

    def __init__(self, atom_weights):
        self.atom_weights = {a: float(w) for a, w in atom_weights.items()}
        for a, w in sorted(self.atom_weights.items()):
            if not math.isfinite(w):
                raise StructuralError(f"weight of atom {a!r} is not finite: {w!r}")
        if any(w < 0 for w in self.atom_weights.values()):
            raise StructuralError("negative atom weight")
        total = math.fsum(self.atom_weights.values())
        if abs(total - 1.0) > 1e-9:
            raise StructuralError(f"atom weights sum to {total}, not 1")
        self.ground_set = frozenset(self.atom_weights)
        self._values: dict[frozenset[str], float] = {}

    def __call__(self, event) -> float:
        atoms = _atoms_of(event)
        value = self._values.get(atoms)
        if value is None:
            unknown = atoms - self.ground_set
            if unknown:
                raise KeyError(f"atoms {sorted(unknown)} carry no weight")
            value = self._values[atoms] = math.fsum(
                self.atom_weights[a] for a in sorted(atoms))
        return value


# -- closure checks ---------------------------------------------------------


@dataclass
class SigmaLevelReport:
    ground_set: frozenset[str]
    missing: list[tuple[frozenset[str], str]] = field(default_factory=list)


def _by_size(s: frozenset[str]):
    """Sort key: smaller atom sets first, then lexicographic."""
    return len(s), sorted(s)


def _label(s: frozenset[str]) -> str:
    return "{" + ",".join(sorted(s)) + "}"


def _sigma_gap(sets, ground_set) -> frozenset[str] | None:
    """The smallest (by `_by_size`) of the empty set, complements and pairwise
    unions that `sets` lacks, or None: a sigma-algebra.  O(|sets|^2) bitmasks."""
    atoms = sorted(frozenset(ground_set).union(*sets))
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    ground = sum(bit[a] for a in ground_set)
    masks = {sum(bit[a] for a in s) for s in sets}
    gap = ({0} | {ground & ~s for s in masks}
           | {s | t for s, t in combinations(masks, 2)}) - masks
    if not gap:
        return None
    return min((frozenset(a for a in atoms if s & bit[a]) for s in gap), key=_by_size)


def check_sigma_level(level, ground_set=None) -> SigmaLevelReport:
    """Report every set of the sigma-algebra the level generates (its
    closure under complement and union) that the level lacks.

    The algebra's atoms are the ground-set points grouped by which members
    of the level contain them, and its sets are the unions of atoms; each
    missing set names the atoms it is the union of.

    `level` is any iterable of events or atom sets; the ground set defaults
    to the events' common ground set.
    """
    level = list(level)
    sets = [_atoms_of(e) for e in level]
    if ground_set is None:
        grounds = {e.ground_set for e in level if isinstance(e, SimplicialEvent)}
        if len(grounds) != 1:
            raise PreconditionError("pass ground_set= when the level's events do not fix one")
        ground_set = next(iter(grounds))
    ground_set = frozenset(ground_set)
    for s in sets:
        if not s <= ground_set:
            raise PreconditionError(f"event atoms {sorted(s)} outside the ground set")

    classes: dict[tuple[bool, ...], list[str]] = {}
    for point in sorted(ground_set):
        classes.setdefault(tuple(point in s for s in sets), []).append(point)
    atoms = sorted((frozenset(c) for c in classes.values()), key=_by_size)
    unions = {frozenset().union(*combo): combo
              for r in range(len(atoms) + 1) for combo in combinations(atoms, r)}
    report = SigmaLevelReport(ground_set)
    for s in sorted(unions.keys() - set(sets), key=_by_size):
        names = " ".join(map(_label, unions[s]))
        report.missing.append((s, f"union of atoms {names}" if names else "union of no atoms"))
    return report


def check_operad_action(F: FilteredSigmaAlgebra) -> Report:
    """Every generator must act inside its own level: all inputs and the
    output measurable at the generator's index (one `operad-action` fail
    record per stray event).  Closes with an `operad-coverage` info record:
    the fraction of (point, event) pairs whose event is assembled (is the
    output of a generator available at that point)."""
    report = Report()
    levels = [F.levels[p] for p in F.index]
    for g, i in zip(F.generators, F._placed):
        level = levels[i]
        for ev in (*g.inputs, g.output):
            if ev not in level:
                report.add("operad-action",
                           f"generator {g.name!r} at {g.at!r}: event {ev!r} not in level",
                           False)
    pairs = 0
    covered = 0
    for p in F.index:
        available = {g.output for g in F.generators_at(p)}
        for ev in sorted(F.level(p)):
            pairs += 1
            if ev in available:
                covered += 1
    report.add("operad-coverage", f"{covered / pairs if pairs else 1.0:.4f}", None)
    return report
