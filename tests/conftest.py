import json

import pytest

from deltasite import fixtures
from deltasite.categories import FiniteCategory, Morphism
from deltasite.events import EventMap, SimplicialEvent
from deltasite.sites import GrothendieckSite


GROUND = frozenset(["a", "b", "c", "d"])


def discrete(name, vertices, atoms, ground):
    """Event with vertex set only (dimension 0); no vertices make it empty."""
    return SimplicialEvent(name, {0: frozenset(vertices)}, atoms=frozenset(atoms),
                           ground_set=frozenset(ground))


def disc(name, atoms, vertices=None, ground=GROUND):
    """Discrete event whose vertices default to its atoms."""
    return discrete(name, vertices if vertices is not None else atoms, atoms, ground)


def chain_category(n=3, with_event=False):
    """A -> B -> C ... with all composites present; objects carry no events
    unless asked (used for pure reachability and roof tests)."""
    names = [chr(ord("A") + i) for i in range(n)]
    objects = {nm: (disc(nm, []) if with_event else None) for nm in names}
    morphisms = []
    comp = {}
    for i in range(n):
        for j in range(i + 1, n):
            morphisms.append(Morphism(f"f{i}{j}", names[i], names[j]))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                comp[(f"f{j}{k}", f"f{i}{j}")] = f"f{i}{k}"
    return FiniteCategory(objects, morphisms, comp)


def overlap_site():
    """U covered by two subobjects V1, V2 with declared intersection W; the
    one multi-member covering family used by the gluing tests."""
    g3 = frozenset("abc")
    top = discrete("U", ["a", "b", "c"], g3, g3)
    v1 = discrete("V1", ["a", "b"], ["a", "b"], g3)
    v2 = discrete("V2", ["b", "c"], ["b", "c"], g3)
    w = discrete("W", ["b"], ["b"], g3)

    def inc(name, src, tgt):
        return EventMap(name, src, tgt, {0: {v: v for v in src.simplices(0)}})

    maps = {"f1": inc("f1", v1, top), "f2": inc("f2", v2, top),
            "g1": inc("g1", w, v1), "g2": inc("g2", w, v2),
            "h": inc("h", w, top)}
    morphisms = [Morphism(n, m.source.name, m.target.name, m)
                 for n, m in maps.items()]
    comp = {("f1", "g1"): "h", ("f2", "g2"): "h"}
    pullbacks = {("f1", "f2"): ("W", "g1", "g2"),
                 ("f1", "f1"): ("V1", "id:V1", "id:V1"),
                 ("f2", "f2"): ("V2", "id:V2", "id:V2"),
                 ("h", "h"): ("W", "id:W", "id:W"),
                 ("f1", "h"): ("W", "g1", "id:W"),
                 ("f2", "h"): ("W", "g2", "id:W"),
                 ("g1", "g1"): ("W", "id:W", "id:W"),
                 ("g2", "g2"): ("W", "id:W", "id:W")}
    cat = FiniteCategory({"U": top, "V1": v1, "V2": v2, "W": w},
                         morphisms, comp, pullbacks)
    coverings = {"U": [("f1", "f2")], "V1": [("id:V1",)], "V2": [("id:V2",)],
                 "W": [("id:W",)]}
    return GrothendieckSite(cat, coverings, label="overlap")


def swap_model(extra_rule=None):
    """four_events cut to e_ab and empty, plus s:e_ab swapping the vertices a
    and b, with s o s = id and s o i = i; extra_rule (g, f, h) is declared
    after those two."""
    doc = json.loads(fixtures.fixture_text("four_events"))
    kept = ["e_ab", "empty"]
    doc["events"] = {e: doc["events"][e] for e in kept}
    doc["maps"] = {"i:empty>e_ab": doc["maps"]["i:empty>e_ab"],
                   "s:e_ab": {"levels": {"0": {"a": "b", "b": "a"}},
                              "source": "e_ab", "target": "e_ab"}}
    doc["category"] = {
        "objects": kept,
        "morphisms": {name: {"map": name, "source": m["source"], "target": m["target"]}
                      for name, m in doc["maps"].items()},
        "composition": [["s:e_ab", "s:e_ab", "id:e_ab"],
                        ["s:e_ab", "i:empty>e_ab", "i:empty>e_ab"],
                        *([list(extra_rule)] if extra_rule else [])],
        "pullbacks": [
            {"left": "i:empty>e_ab", "right": "i:empty>e_ab", "apex": "empty",
             "to_left": "id:empty", "to_right": "id:empty"},
            {"left": "s:e_ab", "right": "s:e_ab", "apex": "e_ab",
             "to_left": "id:e_ab", "to_right": "id:e_ab"},
            {"left": "s:e_ab", "right": "i:empty>e_ab", "apex": "empty",
             "to_left": "i:empty>e_ab", "to_right": "id:empty"}],
    }
    for level in doc["filtration"]["levels"]:
        level["events"] = kept
    doc["operad"] = [g for g in doc["operad"] if {*g["inputs"], g["output"]} <= set(kept)]
    return json.dumps(doc)


@pytest.fixture
def ground():
    return GROUND
