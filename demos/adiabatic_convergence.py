#!/usr/bin/env python3
"""Digital-adiabatic preparation quality vs the Trotter step count.

Demonstrates:
1. the measured |<B> - target| falling with the proxy L * Delta^2 at fixed T,
2. the squared overlap with the exact even-parity ground state,
3. the residual floor set by the finite duration T itself.

Both misses are set by the step Delta, not accumulated over the run.  The
overlap loss is the product's trailing half field step, so 1 - overlap^2
falls ~4x per doubling of L; the bias is the Delta^2 shift of the one-step
Floquet ground state and settles at the floor of T = 160.

Run with: python3 demos/adiabatic_convergence.py
"""

import numpy as np

from compressed_metrology import adiabatic, dense, ising, matchgate


def main():
    n, g = 4, 1.0
    total_time = 10.0 * n * n
    params = ising.IsingParams(n, field_b=g, coupling_j=1.0)
    target = ising.expected_b(g, n)
    _, ground, _ = dense.even_ground(params)
    obs = matchgate.observable_b_coefficients(n)

    print(f"N = {n}, g = {g}, T = {total_time:.0f} (the 10 N^2 desk default)")
    print(f"analytic target <B> = {target:.7f}")
    print(f"\n{'L':>7} {'L*Delta^2':>10} {'|<B> - target|':>15} {'1 - overlap^2':>14}")
    for steps in (256, 512, 1024, 2048, 4096, 16384, 65536, 262144):
        sch = adiabatic.TrotterSchedule(total_time=total_time, steps=steps)
        rot = adiabatic.adiabatic_rotation(params, sch)
        bias = abs(matchgate.expectation_quadratic(rot, obs) - target)
        overlap = abs(np.vdot(ground, dense.trotter_evolve(params, sch))) ** 2
        print(f"{steps:7d} {steps * sch.delta**2:10.3f} "
              f"{bias:15.3e} {1.0 - overlap:14.3e}")

    print("\n1 - overlap^2 falls ~4x per doubling of L: the trailing half field step.")
    print("Above the floor the bias falls as Delta^2: the one-step Floquet ground state shift.")
    print("Past L ~ 16k the bias flattens near 2.9e-4: that is the adiabatic")
    print("floor of T = 160 itself, not a Trotter artifact (it shrinks with T).")


if __name__ == "__main__":
    main()
