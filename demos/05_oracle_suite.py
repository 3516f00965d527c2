#!/usr/bin/env python3
"""Walkthrough: the exact-enumeration oracle that keeps the formulas honest.

Every closed-form or asymptotic claim in the library has a brute-force
counterpart at small N: exact rational normalization, exhaustive argmax,
big-integer weight sums. This runs the default suite and shows one check
in detail.
"""

from boltzkit import (
    EnergySpectrum,
    ProbabilityVector,
    SystemSpec,
    check_most_probable_state,
    check_normalization_and_means,
    default_suite,
    reports_to_json,
)

print("One check in detail: exact normalization for a 1/4, 1/4, 1/2 prior")
spec = SystemSpec(
    spectrum=EnergySpectrum([0.0, 1.0, 2.0]),
    prior=ProbabilityVector([0.25, 0.25, 0.5]),
    particles=9,
)
for r in check_normalization_and_means(spec):
    print(f"  {r.check_name:<28} exact={r.exact_value:<6} "
          f"error={r.abs_error:g} passed={r.passed}")

print("\nExhaustive most-probable state at beta=1:")
r = check_most_probable_state(spec, 1.0)
print(f"  argmax={r.exact_value}  distance={r.approx_value:.4f} "
      f"(allowed {r.tolerance:.4f})")

print("\nFull quick suite:")
reports = default_suite("quick")
for r in reports:
    print(f"  {'PASS' if r.passed else 'FAIL'} {r.check_name} [{r.instance}]")
print(f"\n{sum(r.passed for r in reports)}/{len(reports)} checks passed")

print("\nReports serialize to JSON for machine consumption; first record:")
print(reports_to_json(reports[:1]))
