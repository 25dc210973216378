import copy
import functools
import itertools
import json
import math
import pathlib
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from deltasite import fixtures
from deltasite.errors import ModelError, PreconditionError
from deltasite.model_io import (_CHECKS, _MODEL, _NAME, _Leaf, _names, _walk, model_hash,
                                parse_model, serialize_model)

MINIMAL = {
    "schema": 1,
    "ground_set": ["a"],
    "events": {
        "empty": {"atoms": [], "levels": {}},
        "omega": {"atoms": ["a"], "levels": {"0": ["a"]}},
    },
    "maps": {
        "i:empty>omega": {"source": "empty", "target": "omega", "levels": {}},
    },
    "category": {
        "objects": ["empty", "omega"],
        "morphisms": {
            "i:empty>omega": {"source": "empty", "target": "omega",
                              "map": "i:empty>omega"},
        },
        "composition": [],
        "pullbacks": [],
    },
    "measure": {"a": 1.0},
}


def minimal_text():
    return json.dumps(MINIMAL, indent=2, sort_keys=True) + "\n"


def test_minimal_model_parses_and_round_trips():
    model = parse_model(minimal_text())
    assert model.ground_set == frozenset(["a"])
    assert sorted(model.category.objects) == ["empty", "omega"]
    canonical = serialize_model(model)
    assert serialize_model(parse_model(canonical)) == canonical


def test_round_trip_is_byte_identical_on_all_bundled_fixtures():
    for name in fixtures.ALL_FIXTURES:
        text = fixtures.fixture_text(name)
        assert serialize_model(parse_model(text)) == text, name


def unions(parts):
    """Every union of some of parts, each as a frozenset."""
    return [frozenset().union(*c) for r in range(len(parts) + 1)
            for c in itertools.combinations(parts, r)]


# (atoms, the blocks of the middle level, atom weights, sha256 of the document)
LATTICE_DIGESTS = (
    ("abcd", ("ab", "cd"), (0.25,) * 4,
     "18ad553690f63f475820d0e5cd02a7290a3d9fcea670e9ba2e95ac607135f7cd"),
    ("abcdef", ("ab", "cd", "e", "f"), tuple((i + 1) / 21 for i in range(6)),
     "d548b055e8382bb356e3e3ba06451a65fe6301818f84241ced28327e80a1a162"),
)


@pytest.mark.parametrize("atoms, blocks, weights, digest", LATTICE_DIGESTS,
                         ids=("lattice4", "lattice6"))
def test_lattice_documents_keep_their_bytes(atoms, blocks, weights, digest):
    subsets = unions(atoms)
    levels = [[frozenset(), frozenset(atoms)], unions(blocks), subsets]
    model = fixtures.subset_model(atoms, subsets, levels, dict(zip(atoms, weights)))
    assert model_hash(serialize_model(model)) == digest


def test_subset_family_not_closed_under_intersection_is_refused_at_the_category():
    family = [frozenset("ab"), frozenset("bc"), frozenset("abc")]
    with pytest.raises(ModelError) as err:
        fixtures.subset_model("abc", family, [family], {a: 1 / 3 for a in "abc"})
    assert err.value.errors == [("category", "pullback apex 'e_b' is not an object")]


def test_subsets_that_share_an_event_name_are_refused_by_name():
    atoms = ["a", "bc", "ab", "c"]
    family = [frozenset(c) for r in range(5) for c in itertools.combinations(atoms, r)]
    with pytest.raises(PreconditionError) as err:
        fixtures.subset_model(atoms, family, [family], {a: 0.25 for a in atoms})
    assert str(err.value) == ("subsets ['a', 'bc'] and ['ab', 'c'] share the event name "
                              "'e_abc'")


def test_fixture_directory_holds_exactly_the_named_fixtures():
    folder = pathlib.Path(fixtures.fixture_path("four_events")).parent
    assert sorted(path.name for path in folder.iterdir()) == \
        sorted(f"{name}.json" for name in fixtures.ALL_FIXTURES)


def test_defect_missing_pullback_is_six_events_without_one_square():
    doc = json.loads(fixtures.fixture_text("six_events"))
    squares = doc["category"]["pullbacks"]
    kept = [sq for sq in squares if {sq["left"], sq["right"]} != {"i:e_c>e_abc", "i:e_ab>e_abc"}]
    assert len(kept) == len(squares) - 1
    doc["category"]["pullbacks"] = kept
    assert json.loads(fixtures.fixture_text("defect_missing_pullback")) == doc


def test_defect_operad_gap_is_four_events_without_one_generator():
    doc = json.loads(fixtures.fixture_text("four_events"))
    kept = [gen for gen in doc["operad"] if gen["name"] != "asm:empty+e_b>e_b"]
    assert len(kept) == len(doc["operad"]) - 1
    doc["operad"] = kept
    assert json.loads(fixtures.fixture_text("defect_operad_gap")) == doc


def test_category_referencing_undeclared_event_fails_with_name():
    doc = json.loads(minimal_text())
    doc["events"] = {}
    doc["maps"] = {}
    doc["category"]["morphisms"] = {}
    with pytest.raises(ModelError) as err:
        parse_model(json.dumps(doc))
    paths = [p for p, _ in err.value.errors]
    assert "category.objects.empty" in paths
    assert "category.objects.omega" in paths


def test_weights_not_summing_to_one_rejected():
    doc = json.loads(minimal_text())
    doc["measure"] = {"a": 0.9}
    with pytest.raises(ModelError) as err:
        parse_model(json.dumps(doc))
    assert any(p == "measure" and "0.9" in m for p, m in err.value.errors)


@pytest.mark.parametrize("weight", (float("nan"), float("inf"), "x", None, [1.0]))
def test_weight_that_is_not_a_finite_number_is_refused_with_its_path(weight):
    doc = json.loads(minimal_text())
    doc["measure"] = {"a": weight}
    with pytest.raises(ModelError) as err:
        parse_model(json.dumps(doc))
    assert [p for p, _ in err.value.errors] == ["measure.a"]


@pytest.mark.parametrize("measure", (["a"], 5, None))
def test_measure_that_is_not_an_object_is_refused(measure):
    doc = json.loads(minimal_text())
    doc["measure"] = measure
    with pytest.raises(ModelError) as err:
        parse_model(json.dumps(doc))
    assert [p for p, _ in err.value.errors] == ["measure"]


# (keys into four_events, the value set there, the path of the first error)
MALFORMED = (
    (("events", "e_a", "levels"), {"zero": ["a"]}, "events.e_a.levels"),
    (("filtration", "fiber_steps"), "two", "filtration.fiber_steps"),
    (("filtration", "fiber_steps"), 1.5, "filtration.fiber_steps"),
    (("category", "morphisms", "i:e_a>e_ab"), "e_a->e_ab",
     "category.morphisms.i:e_a>e_ab"),
    (("maps", "i:e_a>e_ab", "levels"), [{"a": "a"}], "maps.i:e_a>e_ab.levels"),
    (("events",), None, "events"),
    (("events", "e_a", "levels"), {"0": 5}, "events.e_a.levels.0"),
    (("events", "e_a", "levels"), {"0": None}, "events.e_a.levels.0"),
    (("events", "e_a", "atoms"), 5, "events.e_a.atoms"),
    (("events", "e_a", "faces"), {"1": {"x": 5}}, "events.e_a.faces.1.x"),
    (("events", "e_a", "degeneracies"), {"0": {"a": {"x": "y"}}},
     "events.e_a.degeneracies.0.a"),
    (("events", "e_a", "degeneracies"), {"0": {"a": 3}}, "events.e_a.degeneracies.0.a"),
    (("maps", "i:e_a>e_ab", "levels"), {"0": 5}, "maps.i:e_a>e_ab.levels.0"),
    (("category", "objects"), 5, "category.objects"),
    (("category", "composition"), 5, "category.composition"),
    (("category", "pullbacks"), 5, "category.pullbacks"),
    (("filtration", "levels"), 5, "filtration.levels"),
    (("filtration", "base_times"), 5, "filtration.base_times"),
    (("operad",), 5, "operad"),
    (("maps", "i:e_a>e_ab", "source"), ["x"], "maps.i:e_a>e_ab.source"),
    (("category", "morphisms", "i:e_a>e_ab", "source"), ["x"],
     "category.morphisms.i:e_a>e_ab.source"),
    (("category", "morphisms", "i:e_a>e_ab", "map"), ["x"],
     "category.morphisms.i:e_a>e_ab.map"),
    (("operad", 0, "name"), ["x"], "operad[0].name"),
    (("filtration", "levels", 0, "at"), ["0", "x"], "filtration.levels[0].at"),
    (("filtration", "levels", 0, "at", 1), True, "filtration.levels[0].at"),
    (("filtration", "levels", 0, "at", 1), 1.9, "filtration.levels[0].at"),
    (("filtration", "levels", 0, "at", 1), "1", "filtration.levels[0].at"),
    (("filtration", "fiber_steps"), 10**9, "filtration.fiber_steps"),
    (("filtration", "base_times", 1), "1e100000", "filtration.base_times[1]"),
    (("filtration", "levels", 0, "at", 0), "1e100000", "filtration.levels[0].at"),
    (("operad", 0, "at", 0), "1e100000", "operad[0].at"),
    (("category",), {"objects": ["e_a", "e_ab", "empty"]}, "filtration.levels[1].events[2]"),
    (("filtration", "levels", 1, "at"), ["0.0", 1], "filtration.levels[1].at"),
    # a name must be printable, wherever it stands
    (("events", "x\n"), {"levels": {"0": ["x"]}}, "events"),
    (("events", "e_a", "faces"), {"1": {"x\u2028": ["a", "a"]}}, "events.e_a.faces.1"),
    (("events", "e_a", "degeneracies"), {"0": {"a\n": {"0": "y"}}},
     "events.e_a.degeneracies.0"),
    (("maps", "m\t"), {"source": "e_a", "target": "e_ab", "levels": {"0": {"a": "a"}}},
     "maps"),
    (("category", "morphisms", "f\u2029"), {"source": "e_a", "target": "e_ab", "map": None},
     "category.morphisms"),
    (("category", "morphisms", "i:e_a>e_ab", "map"), "i:e_a>e_ab\n",
     "category.morphisms.i:e_a>e_ab.map"),
    (("category", "composition", 0, 2), "i:empty>e_ab\u2028", "category.composition[0]"),
    (("category", "pullbacks", 0, "apex"), "e_a\n", "category.pullbacks[0]"),
    (("events", "e_a", "levels"), {"0\n": [5]}, "events.e_a.levels"),
    # an integer key must be written as str() writes it: no two keys name one integer
    (("events", "e_a", "levels"), {"0": ["a"], "00": ["zz"]}, "events.e_a.levels"),
    (("events", "e_a", "levels"), {"+0": ["a"]}, "events.e_a.levels"),
    (("events", "e_a", "levels"), {" 0": ["a"]}, "events.e_a.levels"),
    (("events", "e_a", "levels"), {"0_0": ["a"]}, "events.e_a.levels"),
    (("events", "e_a", "levels"), {"\u0660": ["a"]}, "events.e_a.levels"),
    # a pair has one composite and one pullback: a second entry for it is refused,
    # whether it contradicts the first or repeats it
    (("category", "composition", 0), ["i:e_b>e_ab", "i:empty>e_b", "i:e_b>e_ab"],
     "category.composition[1]"),
    (("category", "composition", 0), ["i:e_b>e_ab", "i:empty>e_b", "i:empty>e_ab"],
     "category.composition[1]"),
    (("category", "pullbacks", 1), {"left": "i:e_a>e_ab", "right": "i:e_a>e_ab", "apex": "empty",
                                    "to_left": "i:empty>e_a", "to_right": "i:empty>e_a"},
     "category.pullbacks[1]"),
    (("category", "pullbacks", 1), {"left": "i:e_a>e_ab", "right": "i:e_a>e_ab", "apex": "e_a",
                                    "to_left": "id:e_a", "to_right": "id:e_a"},
     "category.pullbacks[1]"),
)


@pytest.mark.parametrize("keys, value, path", MALFORMED)
def test_malformed_section_is_refused_with_its_path(keys, value, path):
    doc = json.loads(fixtures.fixture_text("four_events"))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(ModelError) as err:
        parse_model(json.dumps(doc))
    assert err.value.errors[0][0] == path


def test_fiber_steps_beyond_the_declared_levels_is_refused_before_the_index():
    # a framed index of 2 * 10**9 points would take minutes and gigabytes to build
    doc = json.loads(fixtures.fixture_text("four_events"))
    doc["filtration"]["fiber_steps"] = 10**9
    text = json.dumps(doc)
    start = time.perf_counter()
    with pytest.raises(ModelError) as err:
        parse_model(text)
    assert time.perf_counter() - start < 0.05
    assert [p for p, _ in err.value.errors] == ["filtration.fiber_steps"]


@settings(max_examples=300, deadline=None)
@given(hst.floats(allow_nan=False, allow_infinity=False))
def test_rational_bound_admits_every_finite_float(x):
    doc = json.loads(fixtures.fixture_text("four_events"))
    doc["filtration"]["base_times"] = [repr(x), x]
    with pytest.raises(ModelError) as err:
        parse_model(json.dumps(doc))
    # the two equal times are refused as a grid, not as values
    assert [p for p, _ in err.value.errors] == ["filtration"]


@pytest.mark.parametrize("text", (
    "[" * 100000 + "]" * 100000,                       # deeper than the parser recurses
    '{"schema": 1, "x": ' + "7" * 5000 + "}",          # past the int-to-str digit limit
), ids=("deep-nesting", "long-integer"))
def test_unreadable_document_is_refused_at_the_root(text):
    if "7" * 5000 in text and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter reads integers of any length")
    with pytest.raises(ModelError) as err:
        parse_model(text)
    assert [p for p, _ in err.value.errors] == ["$"]


def _nodes(value, at=()):
    """The key path of every value in a JSON document, the root's (empty) first."""
    yield at
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, (*at, key))


# Values swapped in anywhere: every JSON type, NaN, infinities, negative and
# fractional numbers, booleans, strings where lists are expected and lists
# where names are; and keys a renamed object key may take.
SWAPS = (None, True, False, 0, -1, 2, 1.5, -0.5, math.nan, math.inf, -math.inf,
         "", "x", "1", "1/0", [], ["x"], [1], [None], {}, {"x": 1}, {"0": 5})
KEYS = ("x", "", "0", "-1", "1.5", "zero")


@hst.composite
def mutated_fixture(draw, name):
    """A bundled fixture's JSON after one to three swaps, deletions or key
    renames at random places."""
    doc = json.loads(fixtures.fixture_text(name))
    for _ in range(draw(hst.integers(1, 3))):
        at = draw(hst.sampled_from(list(_nodes(doc))))
        kind = draw(hst.sampled_from(("swap", "delete", "rename")))
        if not at:
            if kind == "swap":
                doc = copy.deepcopy(draw(hst.sampled_from(SWAPS)))
            continue
        parent = doc
        for key in at[:-1]:
            parent = parent[key]
        if kind == "swap":
            parent[at[-1]] = copy.deepcopy(draw(hst.sampled_from(SWAPS)))
        elif kind == "delete":
            del parent[at[-1]]
        elif isinstance(parent, dict):
            parent[draw(hst.sampled_from(KEYS))] = parent.pop(at[-1])
    return doc


@pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
@settings(max_examples=100, deadline=None)
@given(data=hst.data())
def test_mutated_fixture_fails_only_with_located_model_errors(name, data):
    sections = tuple(json.loads(fixtures.fixture_text(name)))
    try:
        parse_model(json.dumps(data.draw(mutated_fixture(name))))
    except ModelError as err:
        for path, _ in err.errors:
            assert path == "$" or path.startswith("line ") or any(
                path == top or path.startswith((f"{top}.", f"{top}[")) for top in sections), path


# -- the column check against a walk of one value at a time ------------------------

def canonical_integer(key) -> bool:
    try:
        return str(int(key)) == key
    except ValueError:
        return False


def reference_walk(shape, raw, path, errors, required=()):
    """The shape walk one value at a time, with no column checks: the oracle
    that `_walk` must agree with, error for error."""
    if isinstance(shape, _Leaf):
        if not shape.test([raw]):
            errors.append((path, f"{shape.problem}, got {raw!r}"))
    elif not isinstance(raw, type(shape)):
        what = "a list" if isinstance(shape, list) else "an object"
        errors.append((path or "$", f"must be {what}, got {raw!r}"))
    elif isinstance(shape, list):
        item, = shape
        if not (isinstance(item, _Leaf) and all(item.test([v]) for v in raw)):
            for i, value in enumerate(raw):
                reference_walk(item, value, f"{path}[{i}]", errors, required=item)
    elif str in shape or int in shape:
        item, = shape.values()
        if int in shape and not (_names(raw) and all(map(canonical_integer, raw))):
            errors.append((path, f"keys must be integers in canonical form, got {sorted(raw)}"))
        elif str in shape and not _names(raw):
            errors += [(path, f"key {_NAME.problem}, got {key!r}")
                       for key in raw if not _NAME.test([key])]
        elif not (isinstance(item, _Leaf) and all(item.test([v]) for v in raw.values())):
            for key, value in raw.items():
                reference_walk(item, value, f"{path}.{key}", errors)
    else:
        for key, field in shape.items():
            if key in raw or key in required:
                reference_walk(field, raw.get(key), f"{path}.{key}" if path else key, errors)


def assert_walks_agree(doc):
    found, expected = [], []
    _walk(_MODEL, doc, "", found, required=("schema",))
    reference_walk(_MODEL, doc, "", expected, required=("schema",))
    assert found == expected
    # the compiled check of the whole table passes a JSON document exactly
    # when the walk finds nothing in it
    assert _CHECKS[id(_MODEL)]([doc]) == (not expected)


@pytest.mark.parametrize("keys, value, path", MALFORMED)
def test_column_check_finds_what_the_reference_finds_on_malformed_rows(keys, value, path):
    doc = json.loads(fixtures.fixture_text("four_events"))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    assert_walks_agree(doc)


@pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
@settings(max_examples=100, deadline=None)
@given(data=hst.data())
def test_column_check_finds_what_the_reference_finds_on_mutated_fixtures(name, data):
    assert_walks_agree(data.draw(mutated_fixture(name)))


@functools.cache
def lattice6_text():
    atoms, blocks, weights, _ = LATTICE_DIGESTS[1]
    subsets = unions(atoms)
    levels = [[frozenset(), frozenset(atoms)], unions(blocks), subsets]
    return serialize_model(fixtures.subset_model(atoms, subsets, levels,
                                                 dict(zip(atoms, weights))))


@pytest.mark.parametrize("section", (("category", "composition"), ("category", "pullbacks"),
                                     ("maps",), ("operad",)))
@settings(max_examples=25, deadline=None)
@given(data=hst.data())
def test_column_check_finds_what_the_reference_finds_at_scale(section, data):
    """The six-atom lattice (2,702 composition rules, 7,448 squares) with one
    value swapped at a random row of a long table."""
    doc = json.loads(lattice6_text())
    table = doc
    for key in section:
        table = table[key]
    rows = sorted(table) if isinstance(table, dict) else range(len(table))
    row = data.draw(hst.sampled_from(rows))
    at = data.draw(hst.sampled_from(list(_nodes(table[row], (row,)))))
    parent = table
    for key in at[:-1]:
        parent = parent[key]
    parent[at[-1]] = copy.deepcopy(data.draw(hst.sampled_from(SWAPS)))
    assert_walks_agree(doc)


def test_compiled_check_passes_every_bundled_fixture_and_the_lattice():
    """A valid document is never walked: the compiled check of the whole
    table passes it, and so does the check of each of its sections."""
    texts = [fixtures.fixture_text(name) for name in sorted(fixtures.ALL_FIXTURES)]
    for doc in map(json.loads, [*texts, lattice6_text()]):
        assert _CHECKS[id(_MODEL)]([doc])
        for key, value in doc.items():
            if key in _MODEL and not isinstance(_MODEL[key], _Leaf):
                assert _CHECKS[id(_MODEL[key])]([value]), key


def test_unknown_top_level_key_is_ignored():
    doc = json.loads(minimal_text())
    doc["comment"] = {"written by": ["hand"]}
    model = parse_model(json.dumps(doc))
    assert serialize_model(model) == minimal_text()


def test_syntax_error_reports_position():
    with pytest.raises(ModelError) as err:
        parse_model('{"schema": 1,,}')
    path, _ = err.value.errors[0]
    assert path.startswith("line 1 col")


def test_schema_version_checked():
    doc = json.loads(minimal_text())
    doc["schema"] = 2
    with pytest.raises(ModelError) as err:
        parse_model(json.dumps(doc))
    assert any(p == "schema" for p, _ in err.value.errors)


def test_unknown_map_reference_is_located():
    doc = json.loads(minimal_text())
    doc["category"]["morphisms"]["i:empty>omega"]["map"] = "ghost"
    with pytest.raises(ModelError) as err:
        parse_model(json.dumps(doc))
    assert any("category.morphisms.i:empty>omega" == p for p, _ in err.value.errors)


def test_operad_requires_filtration():
    doc = json.loads(minimal_text())
    doc["operad"] = [{"name": "g", "inputs": ["omega"], "output": "omega",
                      "at": ["0", 1]}]
    with pytest.raises(ModelError) as err:
        parse_model(json.dumps(doc))
    assert any(p == "operad" for p, _ in err.value.errors)


def test_bad_event_structure_located():
    doc = json.loads(minimal_text())
    doc["events"]["omega"]["faces"] = {"1": {"e": ["a", "a"]}}
    with pytest.raises(ModelError) as err:
        parse_model(json.dumps(doc))
    assert any(p == "events.omega" for p, _ in err.value.errors)


def test_model_hash_is_stable():
    text = minimal_text()
    assert model_hash(text) == model_hash(text)
    assert model_hash(text) != model_hash(text + " ")


def test_fixture_loader_matches_parser():
    model = fixtures.load_fixture("four_events")
    assert sorted(model.category.objects) == ["e_a", "e_ab", "e_b", "empty"]
    assert model.filtration is not None and model.measure is not None


def test_degeneracies_survive_round_trip():
    doc = copy.deepcopy(MINIMAL)
    doc["events"]["pt"] = {
        "atoms": ["a"], "levels": {"0": ["pt0"], "1": ["pt1"], "2": ["pt2"]},
        "faces": {"1": {"pt1": ["pt0", "pt0"]}, "2": {"pt2": ["pt1", "pt1", "pt1"]}},
        "degeneracies": {"0": {"pt0": {"0": "pt1"}}, "1": {"pt1": {"0": "pt2", "1": "pt2"}}}}
    model = parse_model(json.dumps(doc))
    pt = model.events["pt"]
    assert pt.degeneracies == {(0, "pt0", 0): "pt1", (1, "pt1", 0): "pt2", (1, "pt1", 1): "pt2"}
    text = serialize_model(model)
    back = parse_model(text)
    assert back.events["pt"].degeneracies == pt.degeneracies
    assert back.events["pt"].faces == pt.faces
    assert serialize_model(back) == text
