#!/usr/bin/env python3
"""Anatomy of one compressed Trotter step as an explicit gate program.

Demonstrates:
1. the shift ladder (m controlled-X gates plus one X) realizing |j> -> |j+1>,
2. the auxiliary-assisted interaction block HT . RXX . HT,
3. the text dump format (the test suite reads it back byte-identically).

Run with: python3 demos/gate_program.py
"""

from compressed_metrology import adiabatic, circuit, ising


def main():
    n = 8
    m = n.bit_length() - 1
    schedule = adiabatic.TrotterSchedule(total_time=4.0, steps=2)
    params = ising.IsingParams(n, field_b=1.0, coupling_j=0.8)

    print(f"N = {n} spins -> m = {m} data qubits + probe + auxiliary")
    # step l = 2 from its two angles: interaction J tau(2), field 4 B Delta
    step = circuit.trotter_step_gates(params.coupling_j * float(schedule.taus()[2]),
                                      4.0 * params.field_b * schedule.delta, m)
    print(f"\none Trotter step ({len(step)} gates):")
    print(circuit.dump_program(step))

    shift = circuit.decompose_shift(m)
    print(f"shift ladder: {len(shift)} gates (m+1), "
          f"~{circuit.lowered_gate_count(shift)} after lowering each "
          f"k-controlled X to O(k) elementary gates")

    full = circuit.full_program(params, schedule)
    text = circuit.dump_program(full)
    print(f"\nfull program: {len(full)} gates over {schedule.steps + 1} steps; "
          f"its dump is {len(text.splitlines())} lines, the first a metadata header")


if __name__ == "__main__":
    main()
