"""Layer times on power-set lattices: the baseline table of ROADMAP.md.

    python3 bench/baseline.py                 # n = 4, 5, 6
    python3 bench/baseline.py --atoms 3 4 5 6 7 --repeat 3

Each lattice is `workloads.lattice_model(n)` (atoms paired into blocks for
the middle level).  Every layer is timed alone, with its inputs built
outside the timed call, `--repeat` times; the table gives the median and
the JSON line after it also the quartiles.
"""
from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

import run
from spans import category_sizes


def layer_calls(model) -> dict:
    from deltasite import roofs, sites
    cat, F, P = model.category, model.filtration, model.measure
    structural = sites.build_tau_structural(cat)
    probability = sites.build_tau_P(F, P, cat)
    operadic = sites.build_tau_operadic(F, cat)
    rc = roofs.RoofCategory(cat)
    return {
        "`FiniteCategory.check_axioms`": cat.check_axioms,
        "`verify_grothendieck` (structural)": lambda: sites.verify_grothendieck(structural),
        "`verify_filtered` (probability)": lambda: sites.verify_filtered(probability),
        "`verify_filtered` (operadic)": lambda: sites.verify_filtered(operadic),
        "`verify_roof_category`": lambda: roofs.verify_roof_category(rc),
    }


def measure(n: int, repeat: int, seed: int) -> dict:
    import workloads
    model = workloads.lattice_model(n, random.Random(seed))
    out = {"sizes": category_sizes(model.category), "layers": {}}
    for name, call in layer_calls(model).items():
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        q = statistics.quantiles(times, n=4) if repeat > 1 else times * 3
        out["layers"][name] = {"median_s": statistics.median(times),
                               "q1_s": q[0], "q3_s": q[2]}
    return out


def fmt(seconds: float) -> str:
    return f"{seconds * 1e3:.1f} ms" if seconds < 1 else f"{seconds:.2f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--atoms", type=int, nargs="+", default=[4, 5, 6])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args(argv)
    if any(not 2 <= n <= 8 for n in args.atoms) or args.repeat < 1:
        parser.error("atoms must lie in 2..8 and repeat be >= 1")
    run.import_program()
    results = {n: measure(n, args.repeat, args.seed) for n in args.atoms}
    head = "| Layer (power-set lattice, n atoms) | " + " | ".join(f"n={n}" for n in results)
    print(head + " |")
    print("|---" * (len(results) + 1) + "|")
    sizes = [results[n]["sizes"] for n in results]
    print("| morphisms / composition entries / declared pullbacks | " + " | ".join(
        f"{s['morphisms']} / {s['composition_entries']} / {s['declared_pullbacks']}"
        for s in sizes) + " |")
    print("| composable pairs / triples | " + " | ".join(
        f"{s['composable_pairs']} / {s['composable_triples']}" for s in sizes) + " |")
    for layer in results[args.atoms[0]]["layers"]:
        print(f"| {layer} | " + " | ".join(
            fmt(results[n]["layers"][layer]["median_s"]) for n in results) + " |")
    print(f"median of {args.repeat} runs; Python {sys.version.split()[0]}")
    print(json.dumps({str(n): r for n, r in results.items()}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
