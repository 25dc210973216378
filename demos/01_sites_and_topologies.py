#!/usr/bin/env python3
"""Build a finite event model and verify its three Grothendieck topologies.

The model `four_events` is the power set of two atoms: events are discrete
simplicial sets whose vertices are their atoms, morphisms are inclusions,
and pullbacks are intersections.  A two-level filtration grows from the
trivial sigma-algebra to the full power set, an operad assembles every event
from a part and its relative complement, and the measure is uniform.
"""
from deltasite import fixtures
from deltasite.filtration import check_operad_action, check_sigma_level
from deltasite.sites import (build_tau_operadic, build_tau_P,
                             build_tau_structural, verify_filtered,
                             verify_grothendieck)

model = fixtures.load_fixture("four_events")
print("objects:", ", ".join(sorted(model.category.objects)))
print("category axioms violations:", model.category.check_axioms().failures() or "none")

for point in model.filtration.index:
    events = [model.events[n] for n in sorted(model.filtration.level(point))]
    closed = not check_sigma_level(events).missing
    print(f"level {point!r}: {len(events)} events, sigma-closed={closed}")

print("operad action:", "ok" if check_operad_action(model.filtration).passed else "broken")

# The operadic topology covers an event with the summands that assemble it.
operadic = verify_filtered(build_tau_operadic(model.filtration, model.category))
print(f"operadic topology: {'PASS' if operadic.passed else 'FAIL'} "
      f"({len(operadic.records)} axiom instances)")

# The probability topology covers with measure-decreasing arrows.
probability = verify_filtered(build_tau_P(model.filtration, model.measure,
                                          model.category))
print(f"probability topology: {'PASS' if probability.passed else 'FAIL'} "
      f"({len(probability.records)} axiom instances)")

# The structural topology covers with monomorphisms of simplicial sets.
structural = verify_grothendieck(build_tau_structural(model.category))
print(f"structural topology: {'PASS' if structural.passed else 'FAIL'} "
      f"({len(structural.records)} axiom instances)")

# A planted defect: remove the operad generator assembling e_b and the
# base-change axiom fails, naming the exact covering/arrow pair.
broken = fixtures.load_fixture("defect_operad_gap")
report = verify_filtered(build_tau_operadic(broken.filtration, broken.category))
print("\nplanted operad gap:")
for record in report.failures()[:3]:
    print(f"  {record.check_id} fails at {record.instance}")
