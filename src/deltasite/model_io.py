"""The model-description file: one JSON document describing ground set,
events, maps, category fragment, filtration, operad and measure.

Parsing validates referential integrity and collects every problem with a
JSON-path location before raising.  Serialization is canonical (sorted keys,
two-space indent, rationals as strings), so fixtures round-trip byte for
byte.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .categories import FiniteCategory, Morphism, PullbackSquare
from .errors import ModelError, StructuralError
from .events import EventMap, SimplicialEvent
from .filtration import (FilteredSigmaAlgebra, FramedIndex, FramedPoint,
                         MultiArrow, OperadFragment, ProbabilityMeasure)

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


def _parse_fraction(raw, errors, path):
    try:
        return Fraction(str(raw))
    except (ValueError, ZeroDivisionError):
        errors.append((path, f"not a rational number: {raw!r}"))
        return Fraction(0)


def _is_finite_number(raw) -> bool:
    try:
        return math.isfinite(float(raw))
    except (TypeError, ValueError, OverflowError):
        return False


def _object(raw, path, errors) -> dict:
    """raw if it is a JSON object; else an error at path and an empty one."""
    if isinstance(raw, dict):
        return raw
    errors.append((path, f"must be an object, got {raw!r}"))
    return {}


def _integer_keys(raw, path, errors) -> dict:
    """A JSON object keyed by dimension or index, with its keys read as
    integers."""
    table = _object(raw, path, errors)
    try:
        return {int(d): v for d, v in table.items()}
    except ValueError:
        errors.append((path, f"keys must be integers, got {sorted(table)}"))
        return {}


def _names(raw, path, errors) -> list:
    """raw if it is a JSON list of strings; else an error at path and an
    empty list."""
    if isinstance(raw, list) and all(isinstance(x, str) for x in raw):
        return raw
    errors.append((path, f"must be a list of names, got {raw!r}"))
    return []


def parse_model(text: str) -> ModelDescription:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError([(f"line {exc.lineno} col {exc.colno}", exc.msg)]) from None
    if not isinstance(doc, dict):
        raise ModelError([("$", "top level must be an object")])
    errors: list[tuple[str, str]] = []

    if doc.get("schema") != SCHEMA_VERSION:
        errors.append(("schema", f"expected schema {SCHEMA_VERSION}, got {doc.get('schema')!r}"))

    ground = doc.get("ground_set", [])
    if not isinstance(ground, list) or not all(isinstance(a, str) for a in ground):
        errors.append(("ground_set", "must be a list of atom names"))
        ground = []
    if len(set(ground)) != len(ground):
        errors.append(("ground_set", "duplicate atoms"))
    ground_set = frozenset(ground)

    events: dict[str, SimplicialEvent] = {}
    event_specs = _object(doc.get("events", {}), "events", errors)
    for name in sorted(event_specs):
        path = f"events.{name}"
        spec = _object(event_specs[name], path, errors)
        faces, degens = {}, {}
        levels = {d: frozenset(_names(simplices, f"{path}.levels.{d}", errors))
                  for d, simplices in
                  _integer_keys(spec.get("levels", {}), f"{path}.levels", errors).items()}
        for d, table in _integer_keys(spec.get("faces", {}), f"{path}.faces", errors).items():
            for simplex, targets in _object(table, f"{path}.faces.{d}", errors).items():
                for i, tgt in enumerate(_names(targets, f"{path}.faces.{d}.{simplex}", errors)):
                    faces[(d, simplex, i)] = tgt
        for d, table in _integer_keys(spec.get("degeneracies", {}),
                                      f"{path}.degeneracies", errors).items():
            for simplex, entries in _object(table, f"{path}.degeneracies.{d}", errors).items():
                at = f"{path}.degeneracies.{d}.{simplex}"
                for i, tgt in _integer_keys(entries, at, errors).items():
                    if isinstance(tgt, str):
                        degens[(d, simplex, i)] = tgt
                    else:
                        errors.append((f"{at}.{i}", f"must be a name, got {tgt!r}"))
        atoms = _names(spec.get("atoms", []), f"{path}.atoms", errors)
        try:
            events[name] = SimplicialEvent(name, levels, faces, degens,
                                           frozenset(atoms), ground_set)
        except StructuralError as exc:
            errors.append((path, str(exc)))
    if errors:
        raise ModelError(errors)

    maps: dict[str, EventMap] = {}
    map_specs = _object(doc.get("maps", {}), "maps", errors)
    for name in sorted(map_specs):
        path = f"maps.{name}"
        spec = _object(map_specs[name], path, errors)
        src, tgt = spec.get("source"), spec.get("target")
        if src not in events or tgt not in events:
            errors.append((path, f"unknown source/target event {src!r}/{tgt!r}"))
            continue
        level_maps = {d: dict(m) for d, m in
                      _integer_keys(spec.get("levels", {}), f"{path}.levels", errors).items()}
        try:
            maps[name] = EventMap(name, events[src], events[tgt], level_maps)
        except StructuralError as exc:
            errors.append((path, str(exc)))
    if errors:
        raise ModelError(errors)

    cat_spec = _object(doc.get("category", {}), "category", errors)
    objects = {}
    for obj in cat_spec.get("objects", []):
        if obj not in events:
            errors.append((f"category.objects.{obj}", "object is not a declared event"))
        else:
            objects[obj] = events[obj]
    morphisms = []
    morphism_specs = _object(cat_spec.get("morphisms", {}), "category.morphisms", errors)
    for name in sorted(morphism_specs):
        path = f"category.morphisms.{name}"
        spec = _object(morphism_specs[name], path, errors)
        emap = None
        if spec.get("map") is not None:
            emap = maps.get(spec["map"])
            if emap is None:
                errors.append((path, f"unknown map {spec['map']!r}"))
        morphisms.append(Morphism(name, spec.get("source", ""), spec.get("target", ""), emap))
    composition = {}
    for idx, triple in enumerate(cat_spec.get("composition", [])):
        if not (isinstance(triple, list) and len(triple) == 3):
            errors.append((f"category.composition[{idx}]", "entry must be [g, f, g*f]"))
            continue
        g, f, h = triple
        composition[(g, f)] = h
    pullbacks = []
    for idx, sq in enumerate(cat_spec.get("pullbacks", [])):
        try:
            pullbacks.append(PullbackSquare(sq["left"], sq["right"], sq["apex"],
                                            sq["to_left"], sq["to_right"]))
        except (KeyError, TypeError):
            errors.append((f"category.pullbacks[{idx}]",
                           "entry needs left/right/apex/to_left/to_right"))
    if errors:
        raise ModelError(errors)
    try:
        category = FiniteCategory(objects, morphisms, composition, pullbacks)
    except StructuralError as exc:
        raise ModelError([("category", str(exc))]) from None

    filtration = None
    if "filtration" in doc:
        fspec = _object(doc["filtration"], "filtration", errors)
        base = [_parse_fraction(t, errors, f"filtration.base_times[{i}]")
                for i, t in enumerate(fspec.get("base_times", []))]
        m = fspec.get("fiber_steps", 1)
        if type(m) is not int:
            errors.append(("filtration.fiber_steps", f"must be an integer, got {m!r}"))
        generators = []
        for idx, g in enumerate(doc.get("operad", [])):
            path = f"operad[{idx}]"
            try:
                at = FramedPoint(_parse_fraction(g["at"][0], errors, path), int(g["at"][1]))
                generators.append(MultiArrow(g["name"], tuple(g["inputs"]), g["output"], at))
            except (KeyError, TypeError, IndexError):
                errors.append((path, "generator needs name/inputs/output/at"))
        levels = {}
        for idx, entry in enumerate(fspec.get("levels", [])):
            path = f"filtration.levels[{idx}]"
            try:
                at = FramedPoint(_parse_fraction(entry["at"][0], errors, path),
                                 int(entry["at"][1]))
                levels[at] = list(entry["events"])
            except (KeyError, TypeError, IndexError):
                errors.append((path, "level needs at=[base, fiber] and events"))
        if errors:
            raise ModelError(errors)
        try:
            index = FramedIndex(base, m)
            filtration = FilteredSigmaAlgebra(index, events, levels,
                                              OperadFragment(generators))
        except StructuralError as exc:
            raise ModelError([("filtration", str(exc))]) from None
    elif "operad" in doc:
        errors.append(("operad", "operad section requires a filtration section"))

    measure = None
    if "measure" in doc:
        weights = doc["measure"]
        if not isinstance(weights, dict) or set(weights) != set(ground_set):
            errors.append(("measure", "weights must be keyed by exactly the ground set"))
        else:
            bad = [(f"measure.{atom}", f"weight must be a finite number, got {weights[atom]!r}")
                   for atom in sorted(weights) if not _is_finite_number(weights[atom])]
            errors.extend(bad)
            if not bad:
                try:
                    measure = ProbabilityMeasure(weights)
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
                    "map": m.event_map.name if m.event_map is not None
                           and not cat.is_identity(name) else None,
                }
                for name, m in sorted(cat.morphisms.items())
                if not cat.is_identity(name)
            },
            "composition": sorted(
                [g, f, h] for (g, f), h in cat.composition.items()
                if not (cat.is_identity(g) or cat.is_identity(f))),
            "pullbacks": [
                {"left": sq.left, "right": sq.right, "apex": sq.apex,
                 "to_left": sq.to_left_source, "to_right": sq.to_right_source}
                for (_, _), sq in sorted(cat.pullbacks.items())
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
        if len(F.operad):
            doc["operad"] = [
                {"name": g.name, "inputs": list(g.inputs), "output": g.output,
                 "at": [str(g.at.base), g.at.k]}
                for g in sorted(F.operad, key=lambda g: g.name)
            ]
    if model.measure is not None:
        doc["measure"] = {a: w for a, w in sorted(model.measure.atom_weights.items())}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
