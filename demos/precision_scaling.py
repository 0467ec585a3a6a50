#!/usr/bin/env python3
"""Heisenberg scaling of the mode observable vs the suboptimal magnetization.

Demonstrates:
1. delta-g^2 from error propagation for both observables at g = 1,
2. log-log slopes: ~ -2 for the mode occupation, ~ -1.3 for magnetization,
3. the N^2-scaled mode uncertainty pinning to 4 pi^2, and the N log^2 N-scaled
   magnetization uncertainty approaching pi^2 from above.

Run with: python3 demos/precision_scaling.py
"""

import math

from compressed_metrology import metrology


def main():
    sizes = [2**k for k in range(3, 14)]
    print(f"{'N':>6} {'dg^2 (mode occ.)':>18} {'dg^2 * N^2':>12} "
          f"{'dg^2 (magnet.)':>16} {'dg^2 * N log^2 N':>17}")
    for n in sizes:
        pb = metrology.precision_b(1.0, n)
        pm = metrology.precision_m(1.0, n)
        print(f"{n:6d} {pb:18.6e} {pb * n**2:12.5f} {pm:16.6e} "
              f"{pm * n * math.log(n)**2:17.5f}")

    sizes_b, sizes_m = [2**k for k in range(3, 11)], [2**k for k in range(8, 14)]
    fit_b = metrology.fit_power_law(sizes_b, [metrology.precision_b(1.0, n) for n in sizes_b])
    fit_m = metrology.fit_power_law(sizes_m, [metrology.precision_m(1.0, n) for n in sizes_m])
    print(f"\nmode-occupation slope over N = 8..1024:   {fit_b.slope:+.4f}  (Heisenberg: -2)")
    print(f"magnetization slope over N = 256..8192:   {fit_m.slope:+.4f}  (worse than -2 + 1)")
    print(f"asymptote of dg^2 * N^2 for the mode:      {4 * math.pi**2:.5f} = 4 pi^2")
    print("\nMeasuring one Fourier mode instead of the average magnetization")
    print("upgrades the estimate of g from ~1/(N log^2 N) to the optimal 1/N^2.")


if __name__ == "__main__":
    main()
