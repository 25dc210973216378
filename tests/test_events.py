import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from deltasite.errors import PreconditionError, StructuralError
from deltasite.events import (EventMap, SimplicialEvent, compose_event_maps,
                              fiber_product, is_monomorphism)

from conftest import discrete

GROUND = frozenset("ab")


def edge_event(name="edge", atoms=("a", "b")):
    return SimplicialEvent(name, {0: frozenset("xy"), 1: frozenset(["e"])},
                           {(1, "e", 0): "y", (1, "e", 1): "x"}, {},
                           frozenset(atoms), GROUND)


def identity_map(event: SimplicialEvent) -> EventMap:
    """The identity map of an event, level by level."""
    return EventMap(f"id:{event.name}", event, event,
                    {d: {x: x for x in s} for d, s in event.levels.items()})


def levelwise_isomorphic(a: SimplicialEvent, b: SimplicialEvent) -> bool:
    """Existence of a levelwise bijection commuting with faces/degeneracies:
    the brute-force referee for fiber products, by search over per-level
    bijections rather than identifier equality."""
    def sizes(event):
        return {d: len(s) for d, s in event.levels.items()}

    if sizes(a) != sizes(b) or a.atoms != b.atoms:
        return False
    dims = sorted(a.levels)
    if not dims:
        return True

    def extend(i, assignment):
        if i == len(dims):
            return True
        d = dims[i]
        xs = sorted(a.simplices(d))
        for perm in itertools.permutations(sorted(b.simplices(d))):
            trial = dict(assignment)
            trial.update({(d, x): y for x, y in zip(xs, perm)})
            ok = True
            for (dd, x, j), y in a.faces.items():
                if dd not in dims[: i + 1] or (dd - 1) not in dims[: i + 1]:
                    continue
                if (dd, x) in trial and (dd - 1, y) in trial:
                    if b.faces.get((dd, trial[(dd, x)], j)) != trial[(dd - 1, y)]:
                        ok = False
                        break
            if ok:
                for (dd, x, j), y in a.degeneracies.items():
                    if (dd, x) in trial and (dd + 1, y) in trial:
                        if b.degeneracies.get((dd, trial[(dd, x)], j)) != trial[(dd + 1, y)]:
                            ok = False
                            break
            if ok and extend(i + 1, trial):
                return True
        return False

    return extend(0, {})


# -- validation --------------------------------------------------------------

def test_faces_must_be_total():
    with pytest.raises(StructuralError, match="missing face"):
        SimplicialEvent("bad", {0: frozenset("x"), 1: frozenset("e")},
                        {(1, "e", 0): "x"}, {}, frozenset(), GROUND)


def test_face_target_must_exist():
    with pytest.raises(StructuralError, match="face target"):
        SimplicialEvent("bad", {0: frozenset("x"), 1: frozenset("e")},
                        {(1, "e", 0): "x", (1, "e", 1): "z"}, {}, frozenset(), GROUND)


def test_simplicial_identity_violation_detected():
    # a 2-simplex whose faces do not satisfy d_0 d_1 = d_0 d_0
    levels = {0: frozenset("pq"), 1: frozenset(["e", "f", "g"]), 2: frozenset(["T"])}
    faces = {(1, "e", 0): "q", (1, "e", 1): "p",
             (1, "f", 0): "p", (1, "f", 1): "q",
             (1, "g", 0): "q", (1, "g", 1): "q",
             (2, "T", 0): "e", (2, "T", 1): "f", (2, "T", 2): "g"}
    with pytest.raises(StructuralError, match="d_"):
        SimplicialEvent("bad", levels, faces, {}, frozenset(), GROUND)


def test_atoms_must_be_in_ground_set():
    with pytest.raises(StructuralError, match="ground set"):
        discrete("bad", ["x"], ["z"], GROUND)


def test_event_map_must_commute_with_faces():
    e = edge_event()
    twisted = {0: {"x": "y", "y": "x"}, 1: {"e": "e"}}
    with pytest.raises(StructuralError, match="commute"):
        EventMap("bad", e, e, twisted)


def test_event_map_needs_atom_inclusion():
    small = discrete("s", ["x"], ["a"], GROUND)
    other = discrete("t", ["x"], ["b"], GROUND)
    with pytest.raises(StructuralError, match="atoms"):
        EventMap("bad", small, other, {0: {"x": "x"}})


# -- is_monomorphism -----------------------------------------------------------

def test_identity_is_mono():
    assert is_monomorphism(identity_map(edge_event()))


def test_vertex_collapse_is_not_mono():
    two = discrete("two", ["x", "y"], [], GROUND)
    one = discrete("one", ["z"], [], GROUND)
    collapse = EventMap("c", two, one, {0: {"x": "z", "y": "z"}})
    assert not is_monomorphism(collapse)


@settings(max_examples=60)
@given(hst.permutations([0, 1, 2]) | hst.tuples(*[hst.integers(0, 2)] * 3))
def test_mono_matches_per_level_injectivity_oracle(assignment):
    # a complex of three disjoint edges; maps send edge i to edge sigma(i)
    def triple_edge(name):
        levels = {0: frozenset(f"v{i}{j}" for i in range(3) for j in (0, 1)),
                  1: frozenset(f"e{i}" for i in range(3))}
        faces = {}
        for i in range(3):
            faces[(1, f"e{i}", 0)] = f"v{i}1"
            faces[(1, f"e{i}", 1)] = f"v{i}0"
        return SimplicialEvent(name, levels, faces, {}, frozenset(), GROUND)

    src, tgt = triple_edge("K"), triple_edge("K")
    sigma = list(assignment)
    lm = {0: {}, 1: {}}
    for i in range(3):
        lm[1][f"e{i}"] = f"e{sigma[i]}"
        for j in (0, 1):
            lm[0][f"v{i}{j}"] = f"v{sigma[i]}{j}"
    f = EventMap("sigma", src, tgt, lm)

    def injective_oracle(mapping):
        items = sorted(mapping.items())
        for (x1, y1), (x2, y2) in itertools.combinations(items, 2):
            if x1 != x2 and y1 == y2:
                return False
        return True

    oracle = all(injective_oracle(lm[d]) for d in lm)
    assert is_monomorphism(f) == oracle


# -- fiber product ------------------------------------------------------------------

def subobject_pair():
    top = discrete("top", ["a", "b", "c"], ["a", "b"], GROUND)
    left = discrete("left", ["a", "b"], ["a"], GROUND)
    right = discrete("right", ["b", "c"], ["b"], GROUND)
    f = EventMap("f", left, top, {0: {"a": "a", "b": "b"}})
    g = EventMap("g", right, top, {0: {"b": "b", "c": "c"}})
    return top, left, right, f, g


def test_fiber_product_along_identity_returns_source():
    e = edge_event()
    v = discrete("v", ["w"], ["a"], GROUND)
    f = EventMap("f", v, e, {0: {"w": "x"}})
    pull, pa, pb = fiber_product(f, identity_map(e))
    assert levelwise_isomorphic(pull, v)
    # the projection to the identity's source replays f
    assert all(f.level_maps[0][pa.level_maps[0][s]] == pb.level_maps[0][s]
               for s in pull.simplices(0))


def test_fiber_product_of_subobjects_is_intersection():
    top, left, right, f, g = subobject_pair()
    pull, pa, pb = fiber_product(f, g)
    # oracle: enumerate all pairs and compare with plain set intersection
    expected = {(x, y) for x in left.simplices(0) for y in right.simplices(0)
                if f.level_maps[0][x] == g.level_maps[0][y]}
    assert {(pa.level_maps[0][s], pb.level_maps[0][s]) for s in pull.simplices(0)} == expected
    inter = frozenset(left.simplices(0)) & frozenset(right.simplices(0))
    assert {pa.level_maps[0][s] for s in pull.simplices(0)} == inter
    assert pull.atoms == left.atoms & right.atoms


def test_fiber_product_universal_property_brute_force():
    top, left, right, f, g = subobject_pair()
    pull, pa, pb = fiber_product(f, g)
    # a cone over the cospan from a 2-vertex discrete event
    cone = discrete("cone", ["p", "q"], [], GROUND)
    ca = EventMap("ca", cone, left, {0: {"p": "b", "q": "b"}})
    cb = EventMap("cb", cone, right, {0: {"p": "b", "q": "b"}})
    assert all(f.level_maps[0][ca.level_maps[0][s]] == g.level_maps[0][cb.level_maps[0][s]]
               for s in cone.simplices(0))
    # enumerate every level-0 function cone -> pull; exactly one mediates
    mediators = []
    targets = sorted(pull.simplices(0))
    for images in itertools.product(targets, repeat=2):
        lm = {0: {"p": images[0], "q": images[1]}}
        try:
            u = EventMap("u", cone, pull, lm)
        except StructuralError:
            continue
        if all(pa.level_maps[0][u.level_maps[0][s]] == ca.level_maps[0][s]
               and pb.level_maps[0][u.level_maps[0][s]] == cb.level_maps[0][s]
               for s in cone.simplices(0)):
            mediators.append(lm)
    assert len(mediators) == 1


def test_fiber_product_mismatched_targets_rejected():
    top, left, right, f, g = subobject_pair()
    other = discrete("other", ["z"], ["a", "b"], GROUND)
    h = EventMap("h", left, other, {0: {"a": "z", "b": "z"}})
    with pytest.raises(PreconditionError):
        fiber_product(f, h)


def test_pullback_projection_inherits_mono():
    top, left, right, f, g = subobject_pair()
    assert is_monomorphism(f)
    _, _, pb = fiber_product(f, g)
    assert is_monomorphism(pb)
    # and a non-mono left arm gives no such guarantee: collapse two vertices
    squash = discrete("squash", ["p", "q"], [], GROUND)
    h = EventMap("h", squash, top, {0: {"p": "b", "q": "b"}})
    _, _, pb2 = fiber_product(h, g)
    assert not is_monomorphism(pb2)


def test_monos_closed_under_composition():
    top, left, right, f, g = subobject_pair()
    sub = discrete("sub", ["a"], [], GROUND)
    inc = EventMap("inc", sub, left, {0: {"a": "a"}})
    assert is_monomorphism(inc) and is_monomorphism(f)
    assert is_monomorphism(compose_event_maps(f, inc))


@settings(max_examples=60)
@given(hst.sets(hst.sampled_from("abcd"), max_size=4),
       hst.sets(hst.sampled_from("abcd"), max_size=4))
def test_mono_pullback_closure_on_generated_instances(sa, sb):
    # inclusions of arbitrary subsets into the full event: the projection of
    # their pullback to either arm is again a monomorphism
    ground = frozenset("abcd")
    top = discrete("top", sorted(ground), ground, ground)
    a = discrete("A", sorted(sa), sa, ground)
    b = discrete("B", sorted(sb), sb, ground)
    f = EventMap("f", a, top, {0: {v: v for v in sa}} if sa else {})
    g = EventMap("g", b, top, {0: {v: v for v in sb}} if sb else {})
    assert is_monomorphism(f) and is_monomorphism(g)
    pull, pa, pb = fiber_product(f, g)
    assert is_monomorphism(pa) and is_monomorphism(pb)
    assert pull.simplices(0) == frozenset(f"({v},{v})" for v in sa & sb)


def terminal_event(max_dim):
    """The terminal event: one simplex pt<d> per dimension up to max_dim, every
    atom; each face and degeneracy hits the one simplex next to it."""
    dims = range(max_dim + 1)
    return SimplicialEvent("pt", {d: frozenset([f"pt{d}"]) for d in dims},
                           {(d, f"pt{d}", i): f"pt{d - 1}" for d in dims if d for i in range(d + 1)},
                           {(d, f"pt{d}", i): f"pt{d + 1}" for d in dims if d < max_dim
                            for i in range(d + 1)},
                           GROUND, GROUND)


def to_point(event, pt):
    """The unique map from event to the terminal event pt."""
    return EventMap(f"!{event.name}", event, pt,
                    {d: {x: min(pt.simplices(d)) for x in s} for d, s in event.levels.items()})


def test_fiber_product_over_terminal_equals_product():
    pt = terminal_event(1)
    a = edge_event("A")
    b = edge_event("B", atoms=("a",))
    pull, _, _ = fiber_product(to_point(a, pt), to_point(b, pt))
    assert pull.levels == {d: {f"({x},{y})" for x in a.simplices(d) for y in b.simplices(d)}
                           for d in (0, 1)}
    assert pull.atoms == frozenset("a")


def degenerate_edge_event(name="degen"):
    """An edge x -> y beside the degenerate edge s_0 x."""
    return SimplicialEvent(name, {0: frozenset("xy"), 1: frozenset(["e", "sx"])},
                           {(1, "e", 0): "y", (1, "e", 1): "x",
                            (1, "sx", 0): "x", (1, "sx", 1): "x"},
                           {(0, "x", 0): "sx"}, frozenset("a"), GROUND)


PRODUCT_FACTORS = (
    lambda: discrete("D", ["u", "v"], ["b"], GROUND),
    edge_event,
    degenerate_edge_event,
    lambda: terminal_event(2),
)


@pytest.mark.parametrize("make_a, make_b", itertools.product(PRODUCT_FACTORS, repeat=2))
def test_product_legs_are_the_fiber_product_over_the_point(make_a, make_b):
    """Over the terminal event, the fiber product is a x b written pair by
    pair: every pair "(x,y)" of simplices in each shared dimension, faces
    componentwise, a degeneracy where both components carry one, and the
    two projections."""
    a, b = make_a(), make_b()
    pt = terminal_event(2)
    pull, pa, pb = fiber_product(to_point(a, pt), to_point(b, pt))
    dims = set(a.levels) & set(b.levels)
    pairs = {d: [(x, y) for x in a.simplices(d) for y in b.simplices(d)] for d in dims}
    assert pull.levels == {d: {f"({x},{y})" for x, y in pairs[d]} for d in dims}
    assert pull.faces == {(d, f"({x},{y})", i): f"({a.faces[(d, x, i)]},{b.faces[(d, y, i)]})"
                          for d in dims if d for x, y in pairs[d] for i in range(d + 1)}
    assert pull.degeneracies == {(d, f"({x},{y})", i): f"({up},{b.degeneracies[(d, y, i)]})"
                                 for (d, x, i), up in a.degeneracies.items()
                                 for y in b.simplices(d) if (d, y, i) in b.degeneracies}
    assert pull.atoms == a.atoms & b.atoms
    assert pa.level_maps == {d: {f"({x},{y})": x for x, y in pairs[d]} for d in dims}
    assert pb.level_maps == {d: {f"({x},{y})": y for x, y in pairs[d]} for d in dims}
