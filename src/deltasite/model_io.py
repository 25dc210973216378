"""The model-description file: one JSON document describing ground set,
events, maps, category fragment, filtration, operad and measure.

Parsing checks every value against one shape table, _MODEL, before it builds
anything; the section builders then check referential integrity.  Every
problem is collected with its JSON path (`.key` for an object key, `[i]` for
a list entry) before raising.  Serialization is canonical (sorted keys,
two-space indent, rationals as strings), so fixtures round-trip byte for byte.

The shape table is compiled once per process, at import, into one column
check per node that covers every value at that node (all 7,448 pullback
entries of a six-atom lattice in one pass), and only a column that fails is
walked value by value to find each problem's path.  The composition rules are walked for
repeated pairs only when some pair repeats, and the pullback entries only
when the category refuses them.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from operator import is_not, itemgetter
from typing import Callable, NamedTuple

from .categories import FiniteCategory, Morphism
from .errors import ModelError, StructuralError
from .events import EventMap, SimplicialEvent
from .filtration import (FilteredSigmaAlgebra, FramedIndex, FramedPoint,
                         MultiArrow, ProbabilityMeasure)

SCHEMA_VERSION = 1


@dataclass
class ModelDescription:
    ground_set: frozenset[str]
    events: dict[str, SimplicialEvent]
    maps: dict[str, EventMap]
    category: FiniteCategory
    filtration: FilteredSigmaAlgebra | None = None
    measure: ProbabilityMeasure | None = None

    def require_filtration(self) -> FilteredSigmaAlgebra:
        if self.filtration is None:
            raise ModelError([("filtration", "this command needs a filtration section")])
        return self.filtration

    def require_measure(self) -> ProbabilityMeasure:
        if self.measure is None:
            raise ModelError([("measure", "this command needs a measure section")])
        return self.measure


def model_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- the shape of a model file ------------------------------------------------------


class _Leaf(NamedTuple):
    """A value that passes `test`; else `problem, got <value>` at its path.
    `test` takes a whole column of values, and is true only if every one of
    them passes: a single value is tested as a column of one."""
    test: Callable[[list], bool]
    problem: str


def _walk(shape, raw, path, errors, required=()):
    """Append (path, problem) for every value in raw that does not fit shape:
    a _Leaf; [item], a list of items; {str: item} or {int: item}, an object
    keyed by _NAME, or by an integer's canonical text; or {field: shape, ...},
    an object whose fields are checked where present, and as None where
    absent if named in `required`.  Other fields are ignored.  Every field of
    a list entry is required.  A value its node's check in _CHECKS passes is not walked."""
    if isinstance(shape, _Leaf):
        if not shape.test([raw]):
            errors.append((path, f"{shape.problem}, got {raw!r}"))
    elif _CHECKS[id(shape)]([raw]):
        return
    elif not isinstance(raw, type(shape)):
        what = "a list" if isinstance(shape, list) else "an object"
        errors.append((path or "$", f"must be {what}, got {raw!r}"))
    elif isinstance(shape, list):
        item, = shape
        for i, value in enumerate(raw):
            _walk(item, value, f"{path}[{i}]", errors, required=item)  # all its fields
    elif str in shape or int in shape:
        item, = shape.values()
        if int in shape and not (_names(raw) and _integers(list(raw))):
            errors.append((path, f"keys must be integers in canonical form, got {sorted(raw)}"))
        elif str in shape and not _names(raw):
            errors += [(path, f"key {_NAME.problem}, got {key!r}")
                       for key in raw if not _NAME.test([key])]
        else:
            for key, value in raw.items():
                _walk(item, value, f"{path}.{key}", errors)
    else:
        for key, field in shape.items():
            if key in raw or key in required:
                _walk(field, raw.get(key), f"{path}.{key}" if path else key, errors)


_CHECKS: dict[int, Callable[[list], bool]] = {}  # each list or object node's, by id


def _compile(shape, required=()) -> Callable[[list], bool]:
    """The column check of shape, compiled with those below it into _CHECKS:
    true only if every one of a column of values fits, so that `_walk` would
    find nothing.  The items of lists, and the keys and values of objects, are
    chained into one column for the node below.  It may say no to values that
    fit (a subclass of list or dict, which JSON does not make)."""
    if isinstance(shape, _Leaf):
        return shape.test
    kind = {type(shape)}
    if isinstance(shape, list):
        items = _compile(shape[0], required=shape[0])
        def check(values):
            return set(map(type, values)) <= kind and items(list(chain.from_iterable(values)))
    elif str in shape or int in shape:
        items, integers = _compile(*shape.values()), int in shape
        def check(values):
            return (set(map(type, values)) <= kind
                    and _names(keys := list(chain.from_iterable(values)))
                    and (not integers or _integers(keys))
                    and items(list(chain.from_iterable(map(dict.values, values)))))
    else:
        fields = [(key, key in required, _compile(field)) for key, field in shape.items()]
        def check(values):
            if not set(map(type, values)) <= kind:
                return False
            for key, needed, fits in fields:
                if not fits([value.get(key) for value in values] if needed
                            else [value[key] for value in values if key in value]):
                    return False
            return True
    _CHECKS[id(shape)] = check
    return check


# A rational's size bound, checked on its text before any Fraction is built:
# the repr of every finite float fits (at most 24 characters, exponent -324
# to 308), and the value's digits stay far below the int-to-str limit.
_RATIONAL_CHARS = 100
_RATIONAL_EXPONENT = 400


def _bounded(text: str) -> str:
    """text, if it is short and its decimal exponent (if any) is small."""
    _, e, exponent = text.lower().partition("e")
    if len(text) > _RATIONAL_CHARS or (e and abs(int(exponent)) > _RATIONAL_EXPONENT):
        raise ValueError(f"rational {text!r} too large")
    return text


def _names(values) -> bool:
    """Every one of values is a name: a string of printable characters, so
    that no name can end a line of a text report, or of an error, and start
    another.  One join and one scan for the lot: strings join into a
    printable string only if each is printable, and anything else stops the
    join."""
    try:
        return "".join(values).isprintable()
    except TypeError:
        return False


def _integers(keys: list) -> bool:
    """Every key is an integer as str() writes it, so that no two keys ("0",
    "00", "+0", " 0") name one integer."""
    try:
        return list(map(str, map(int, keys))) == keys
    except ValueError:
        return False


@lru_cache(maxsize=256)
def _rational(text: str) -> Fraction:
    """The bounded rational that text reads as, parsed once per text: a
    model repeats a few base times across its levels and generators."""
    return Fraction(_bounded(text))


def _fraction(raw) -> bool:
    """raw reads as a bounded rational."""
    try:
        _rational(str(raw))
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _triples(values) -> bool:
    """Every one of values is a list of three names."""
    return (set(map(type, values)) <= {list} and set(map(len, values)) <= {3}
            and _names(chain.from_iterable(values)))


def _squares(values) -> bool:
    """Every one of values is an object whose _SQUARE fields are names."""
    if not set(map(type, values)) <= {dict}:
        return False
    try:
        return _names(chain.from_iterable(map(itemgetter(*_SQUARE), values)))
    except KeyError:
        return False


def _each(test: Callable[[object], bool]) -> Callable[[list], bool]:
    """The column test that every value passes test."""
    return lambda values: all(map(test, values))


_NAME = _Leaf(_names, "must be a name")
_POINT = _Leaf(_each(lambda v: type(v) is list and len(v) == 2 and _fraction(v[0])
                     and type(v[1]) is int),
               "must be [base, fiber] with a bounded rational base and an integer fiber")
_SQUARE = ("left", "right", "apex", "to_left", "to_right")

_MODEL = {
    "schema": _Leaf(_each(lambda v: type(v) is int and v == SCHEMA_VERSION),
                    f"expected schema {SCHEMA_VERSION}"),
    "ground_set": [_NAME],
    "events": {str: {
        "levels": {int: [_NAME]},
        "faces": {int: {str: [_NAME]}},
        "degeneracies": {int: {str: {int: _NAME}}},
        "atoms": [_NAME]}},
    "maps": {str: {"source": _NAME, "target": _NAME, "levels": {int: {str: _NAME}}}},
    "category": {
        "objects": [_NAME],
        "morphisms": {str: {
            "source": _NAME, "target": _NAME,
            "map": _Leaf(lambda vs: _names(filter(partial(is_not, None), vs)),
                         "must be a name or null")}},
        "composition": [_Leaf(_triples, "entry must be [g, f, g*f]")],
        "pullbacks": [_Leaf(_squares, "entry needs left/right/apex/to_left/to_right")]},
    "filtration": {
        "base_times": [_Leaf(_each(_fraction),
                             f"must be a rational number of at most {_RATIONAL_CHARS}"
                             f" characters and exponent {_RATIONAL_EXPONENT} in size")],
        "fiber_steps": _Leaf(_each(lambda v: type(v) is int), "must be an integer"),
        "levels": [{"at": _POINT, "events": [_NAME]}]},
    "operad": [{"name": _NAME, "inputs": [_NAME], "output": _NAME, "at": _POINT}],
    "measure": {str: _Leaf(_each(lambda v: type(v) in (int, float)
                                 and abs(v) <= sys.float_info.max),
                           "weight must be a finite number")},
}
_compile(_MODEL, required=("schema",))


def parse_model(text: str) -> ModelDescription:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError([(f"line {exc.lineno} col {exc.colno}", exc.msg)]) from None
    except RecursionError:
        raise ModelError([("$", "nested too deeply to read")]) from None
    except ValueError as exc:  # an integer past the int-to-str digit limit
        raise ModelError([("$", str(exc).split(";")[0])]) from None
    errors: list[tuple[str, str]] = []
    _walk(_MODEL, doc, "", errors, required=("schema",))
    if errors:
        raise ModelError(errors)

    ground = doc.get("ground_set", [])
    if len(set(ground)) != len(ground):
        errors.append(("ground_set", "duplicate atoms"))
    ground_set = frozenset(ground)

    events: dict[str, SimplicialEvent] = {}
    for name, spec in sorted(doc.get("events", {}).items()):
        levels = {int(d): frozenset(simplices)
                  for d, simplices in spec.get("levels", {}).items()}
        faces = {(int(d), simplex, i): tgt
                 for d, table in spec.get("faces", {}).items()
                 for simplex, targets in table.items() for i, tgt in enumerate(targets)}
        degens = {(int(d), simplex, int(i)): tgt
                  for d, table in spec.get("degeneracies", {}).items()
                  for simplex, entries in table.items() for i, tgt in entries.items()}
        try:
            events[name] = SimplicialEvent(name, levels, faces, degens,
                                           frozenset(spec.get("atoms", [])), ground_set)
        except StructuralError as exc:
            errors.append((f"events.{name}", str(exc)))
    if errors:
        raise ModelError(errors)

    maps: dict[str, EventMap] = {}
    for name, spec in sorted(doc.get("maps", {}).items()):
        path = f"maps.{name}"
        src, tgt = spec.get("source"), spec.get("target")
        if src not in events or tgt not in events:
            errors.append((path, f"unknown source/target event {src!r}/{tgt!r}"))
            continue
        level_maps = {int(d): dict(m) for d, m in spec.get("levels", {}).items()}
        try:
            maps[name] = EventMap(name, events[src], events[tgt], level_maps)
        except StructuralError as exc:
            errors.append((path, str(exc)))
    if errors:
        raise ModelError(errors)

    cat_spec = doc.get("category", {})
    objects = {obj: events[obj] for obj in cat_spec.get("objects", []) if obj in events}
    errors += [(f"category.objects.{obj}", "object is not a declared event")
               for obj in cat_spec.get("objects", []) if obj not in events]
    morphisms = []
    for name, spec in sorted(cat_spec.get("morphisms", {}).items()):
        emap = maps.get(spec.get("map"))
        if emap is None and spec.get("map") is not None:
            errors.append((f"category.morphisms.{name}", f"unknown map {spec['map']!r}"))
        morphisms.append(Morphism(name, spec.get("source", ""), spec.get("target", ""), emap))
    # a pair has one composite and one pullback, so a second entry for it is
    # refused rather than left to replace the first.  The rules are walked for
    # repeats only if there are fewer composites than rules, and the squares
    # only if the category is refused (it refuses a repeated pair too).  The
    # category reads the squares lazily, so each row's tuple is freed once filed
    triples = cat_spec.get("composition", [])
    composition = {(g, f): h for g, f, h in triples}
    if len(composition) < len(triples):
        seen = set()
        for i, (g, f, h) in enumerate(triples):
            if (g, f) in seen:
                errors.append((f"category.composition[{i}]",
                               f"({g!r}, {f!r}) already has a composite"))
            seen.add((g, f))
    squares = cat_spec.get("pullbacks", [])
    category = problem = None
    if not errors:
        try:
            category = FiniteCategory(objects, morphisms, composition,
                                      map(itemgetter(*_SQUARE), squares))
        except StructuralError as exc:
            problem = ("category", str(exc))
    if category is None:
        seen = set()
        for i, pair in enumerate(map(itemgetter("left", "right"), squares)):
            if pair in seen:
                errors.append((f"category.pullbacks[{i}]", f"{pair!r} already has a pullback"))
            seen.add(pair)
        raise ModelError(errors or [problem])

    filtration = None
    if "filtration" in doc:
        fspec = doc["filtration"]
        generators = [MultiArrow(g["name"], tuple(g["inputs"]), g["output"],
                                 FramedPoint(_rational(str(g["at"][0])), g["at"][1]))
                      for g in doc.get("operad", [])]
        levels = {}
        for i, e in enumerate(fspec.get("levels", [])):
            p = FramedPoint(_rational(str(e["at"][0])), e["at"][1])
            if p in levels:
                raise ModelError([(f"filtration.levels[{i}].at",
                                   f"point {p!r} already has a level")])
            levels[p] = e["events"]
        # every framed point needs a level: refuse an index larger than the
        # levels declared before building it
        base_times, m = fspec.get("base_times", []), fspec.get("fiber_steps", 1)
        declared = len(fspec.get("levels", []))
        if len(base_times) * m > declared:
            raise ModelError([("filtration.fiber_steps", f"{m} fiber steps over "
                               f"{len(base_times)} base times need more than {declared} levels")])
        try:
            index = FramedIndex([_rational(str(t)) for t in base_times], m)
            filtration = FilteredSigmaAlgebra(index, events, levels, generators)
        except StructuralError as exc:
            raise ModelError([("filtration", str(exc))]) from None
        # the site of a level is a full subcategory of the category
        errors += [(f"filtration.levels[{i}].events[{j}]", f"event {e!r} is not a category object")
                   for i, level in enumerate(fspec.get("levels", []))
                   for j, e in enumerate(level["events"]) if e not in category.objects]
    elif "operad" in doc:
        errors.append(("operad", "operad section requires a filtration section"))

    measure = None
    if "measure" in doc:
        if set(doc["measure"]) != ground_set:
            errors.append(("measure", "weights must be keyed by exactly the ground set"))
        else:
            try:
                measure = ProbabilityMeasure(doc["measure"])
            except StructuralError as exc:
                errors.append(("measure", str(exc)))
    if errors:
        raise ModelError(errors)
    return ModelDescription(ground_set, events, maps, category, filtration, measure)


def load_model(path) -> tuple[ModelDescription, str]:
    """Parse a model file; returns (model, sha256 of the file text)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_model(text), model_hash(text)


# -- canonical serialization -------------------------------------------------------


def _event_doc(ev: SimplicialEvent) -> dict:
    levels = {str(d): sorted(s) for d, s in sorted(ev.levels.items())}
    faces: dict[str, dict[str, list[str]]] = {}
    for d in sorted(ev.levels):
        if d == 0:
            continue
        table = {}
        for x in sorted(ev.simplices(d)):
            table[x] = [ev.faces[(d, x, i)] for i in range(d + 1)]
        if table:
            faces[str(d)] = table
    degens: dict[str, dict[str, dict[str, str]]] = {}
    for (d, x, i), y in sorted(ev.degeneracies.items()):
        degens.setdefault(str(d), {}).setdefault(x, {})[str(i)] = y
    doc = {"atoms": sorted(ev.atoms), "levels": levels}
    if faces:
        doc["faces"] = faces
    if degens:
        doc["degeneracies"] = degens
    return doc


def serialize_model(model: ModelDescription) -> str:
    cat = model.category
    doc: dict = {
        "schema": SCHEMA_VERSION,
        "ground_set": sorted(model.ground_set),
        "events": {name: _event_doc(ev) for name, ev in sorted(model.events.items())},
        "maps": {
            name: {
                "source": m.source.name,
                "target": m.target.name,
                "levels": {str(d): dict(sorted(lm.items()))
                           for d, lm in sorted(m.level_maps.items())},
            }
            for name, m in sorted(model.maps.items())
        },
        "category": {
            "objects": sorted(cat.objects),
            "morphisms": {
                name: {
                    "source": m.source,
                    "target": m.target,
                    "map": m.event_map.name if m.event_map is not None else None,
                }
                for name, m in sorted(cat.morphisms.items())
                if not cat.is_identity(name)
            },
            "composition": sorted(
                [g, f, h] for (g, f), h in cat.composition.items()
                if not (cat.is_identity(g) or cat.is_identity(f))),
            "pullbacks": [
                {"left": left, "right": right, "apex": apex,
                 "to_left": to_left, "to_right": to_right}
                for (left, right), (apex, to_left, to_right) in sorted(cat.pullbacks.items())
            ],
        },
    }
    if model.filtration is not None:
        F = model.filtration
        doc["filtration"] = {
            "base_times": [str(t) for t in F.index.base_times],
            "fiber_steps": F.index.m,
            "levels": [{"at": [str(p.base), p.k], "events": sorted(F.level(p))}
                       for p in F.index],
        }
        if F.generators:
            doc["operad"] = [
                {"name": g.name, "inputs": list(g.inputs), "output": g.output,
                 "at": [str(g.at.base), g.at.k]}
                for g in sorted(F.generators, key=lambda g: g.name)
            ]
    if model.measure is not None:
        doc["measure"] = {a: w for a, w in sorted(model.measure.atom_weights.items())}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
