#!/usr/bin/env python3
"""Time without a time index: roof diagrams, gluing, cones.

A roof is named by its base morphism, and its composites reduce to roofs of
composed bases, so the category axioms can be verified exhaustively.
Presheaves on the resulting site glue over its coverings, and the filtered
sheaf of Brownian values replaces transition maps in time with cones.
"""
from deltasite import fixtures
from deltasite.roofs import RoofCategory, verify_roof_category
from deltasite.sheaves import (check_sheaf_condition, constant_presheaf,
                               transversal_cone_check)
from deltasite.sites import build_tau_structural, verify_grothendieck

model = fixtures.load_fixture("six_events")
rc = RoofCategory(model.category)

report = verify_roof_category(rc)
print(f"roof category axioms: {'PASS' if report.passed else 'FAIL'} "
      f"({len(report.records)} instances)")

# roofs are named by their bases: the roof topology is the fragment's own
site = build_tau_structural(rc.fragment)
print(f"structural roof topology: "
      f"{'PASS' if verify_grothendieck(site).passed else 'FAIL'}")

# the constant presheaf glues over every covering of the structural site
glue = check_sheaf_condition(constant_presheaf(site, (0.0, 1.0)))
print(f"\nconstant presheaf gluing: {'PASS' if glue.passed else 'FAIL'} "
      f"({len(glue.records)} coverings)")

# across levels there is no transition map, only a cone of reachable values
cone = transversal_cone_check(sigma=1.0, kappa=3.0, t=0.0, t_prime=1.0,
                              n_paths=10_000, seed=7)
print(f"transversal cone (kappa=3): {cone.records[0].witness}, pass={cone.passed}")
