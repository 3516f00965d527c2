#!/usr/bin/env python3
"""Walkthrough: macrostates, microstate counts, and why one macrostate wins.

Six particles over three levels: enumerate every occupation vector, count
the microstates behind each, and watch the most mixed state dominate the
total as the particle count grows.
"""

import math

from boltzkit import (
    CompositionSet,
    Macrostate,
    statistical_weight,
    weight_ratio_probability,
)

print("All occupation vectors of 6 particles over 3 levels")
print(f"{'macrostate':>14} {'microstates':>12} {'share of 3^6':>14}")
total_weight = 0
for m in CompositionSet(6, 3):
    w = statistical_weight(m).exact
    total_weight += w
    share = weight_ratio_probability(m)
    print(f"{str(list(m.occupations)):>14} {w:>12} {share:>14.6f}")

print(f"\nsum of microstate counts: {total_weight} (= 3^6 = {3**6})")

# The balanced macrostate's share of the total log-weight approaches 1.
print("\nDominance of the most mixed macrostate (two levels):")
print(f"{'N':>6} {'ln W_max':>12} {'N ln 2':>12} {'ratio':>8}")
for n_particles in (10, 50, 200, 1000, 5000):
    half = n_particles // 2
    log_w = statistical_weight(Macrostate([half, n_particles - half])).log_value
    print(
        f"{n_particles:>6} {log_w:>12.3f} {n_particles * math.log(2):>12.3f} "
        f"{log_w / (n_particles * math.log(2)):>8.5f}"
    )
print("\nAlmost all microstates sit under the single balanced macrostate,")
print("which is why maximizing the microstate count finds equilibrium.")
