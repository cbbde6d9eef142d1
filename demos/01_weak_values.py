"""Weak values: complex, anomalous, and constrained by sum rules.

A weak value W = <b|A|psi> / <b|psi> is what a gently coupled meter reads
out on average when the system is prepared in psi and post-selected on b.
Unlike an eigenvalue it can be complex and can leave the spectrum of A
entirely. This script computes single weak values, the full table over a
basis pair, and the algebraic identities every exact table satisfies.
"""

import math

import numpy as np

from weaktomo import (
    Observable,
    StateVector,
    check_sum_rules,
    fourier_basis,
    reference_basis,
    weak_value,
    weak_value_table,
)


def main():
    psi = StateVector(np.array([math.sqrt(3.0) / 2.0, 0.5], dtype=complex))
    basis_a = reference_basis(2)
    basis_b = fourier_basis(2)

    print("state amplitudes:", np.round(psi.amplitudes, 4))
    print()

    # A single weak value: the projector onto |0>, post-selected on the
    # second Fourier vector (|0> - |1>)/sqrt2. The result is real here but
    # lies far outside the projector's spectrum [0, 1].
    proj0 = Observable.projector(basis_a.column(0))
    w = weak_value(psi, proj0, basis_b.column(1))
    print(f"weak value of |0><0| post-selected on (|0>-|1>)/sqrt2: {w:.4f}")
    print("  an 'anomalous' value: outside [0, 1], impossible for a")
    print("  projective average, routine for a post-selected weak one")
    print()

    # The full table W[j, i]: every projector |a_i><a_i| against every
    # post-selection outcome b_j, with the outcome probabilities P_j.
    table = weak_value_table(psi, basis_a, basis_b)
    print("weak-value table (rows are post-selection outcomes):")
    for j in range(table.dim):
        row = ", ".join(f"{z:.4f}" for z in table.W[j])
        print(f"  j={j}  P={table.P[j]:.4f}  W=[{row}]")
    print()

    # Exact tables are rigid: each defined row sums to one, and the
    # P-weighted column sums rebuild the state's diagonal in basis A.
    report = check_sum_rules(table, psi)
    print("sum-rule deviations (machine zero on exact data):")
    print(f"  row sums vs 1:          {report.row_sum_dev:.2e}")
    print(f"  weighted-column imag:   {report.imag_dev:.2e}")
    print(f"  weighted cols vs diag:  {report.diag_dev:.2e}")
    print()

    # Near-orthogonal post-selection makes weak values huge. The relative
    # phase theta shows up in the imaginary part as -cot(theta/2)/2, the
    # engine behind weak-value amplification.
    for theta in (1.0, 0.3, 0.1):
        pre = StateVector.normalized(
            np.array([1.0, np.exp(1j * theta)], dtype=complex))
        post = StateVector.normalized(np.array([1.0, -1.0], dtype=complex))
        proj1 = Observable.projector(basis_a.column(1))
        w = weak_value(pre, proj1, post)
        print(f"  theta={theta:<4}  W = {w.real:.3f}{w.imag:+.3f}i   "
              f"|Im W| ~ 1/theta for small theta")


if __name__ == "__main__":
    main()
