"""The measuring device: first-order pointer shifts vs the exact law.

A weak measurement couples the system observable A to a Gaussian pointer
through U = exp(-i g A x p). To first order in g the post-selected pointer
moves by

    dq = g Re W           (position)
    dp = 2 g Im W sigma_p^2   (momentum)

so one device reads out both parts of the complex weak value. The
post-selected pointer is exactly a superposition of displaced Gaussians, so
its outcome probability and mean shifts have a closed form at any coupling
(exact_law). This script compares the two and shows the first-order formulas
converging quadratically as the coupling weakens.
"""

import numpy as np

from weaktomo import (
    Observable,
    PointerConfig,
    StateVector,
    exact_law,
    fourier_basis,
    table_shifts,
    weak_value_table,
)


def main():
    psi = StateVector.normalized(np.array([0.8, 0.3 + 0.52j]))
    post = fourier_basis(2).column(1)
    proj = Observable.projector(StateVector(np.eye(2, dtype=complex)[:, 0]))
    # One pointer measures proj; post-selection outcome 1 of the Fourier basis.
    table = weak_value_table(psi.projector(), proj, fourier_basis(2))
    w = table.W[1, 0]
    print(f"weak value W = {w:.6f}")
    print()

    cfg = PointerConfig.uniform(1, g=0.02, sigma_q=1.0)
    dq, dp = table_shifts(table, cfg)
    print(f"first-order prediction at g={cfg.g[0]}:")
    print(f"  dq = g Re W            = {dq[1, 0]:+.6f}")
    print(f"  dp = 2 g Im W sigma_p^2 = {dp[1, 0]:+.6f}")
    print()

    print("exact closed-form law, residual vs g:")
    print("  g       |dq/g - Re W|   |dp/(2 g sp^2) - Im W|")
    prev_q = None
    for g in (0.04, 0.02, 0.01, 0.005):
        cfg = PointerConfig.uniform(1, g=g, sigma_q=1.0)
        _, dq, dp = exact_law(psi, proj, fourier_basis(2), cfg)
        err_q = abs(dq[1, 0] / g - w.real)
        err_p = abs(dp[1, 0] / (2.0 * g * cfg.sigma_p[0] ** 2) - w.imag)
        note = ""
        if prev_q is not None:
            note = f"   (q residual shrank {prev_q / err_q:.2f}x)"
        print(f"  {g:<7} {err_q:.3e}       {err_p:.3e}{note}")
        prev_q = err_q
    print("  halving g divides both residuals by ~4: the formulas are")
    print("  accurate to first order with O(g^2) corrections")
    print()

    # The exact law also yields the post-selection probability, which the
    # first-order formulas do not touch.
    cfg = PointerConfig.uniform(1, g=0.02, sigma_q=1.0)
    P, _, _ = exact_law(psi, proj, fourier_basis(2), cfg)
    base = abs(np.vdot(post.amplitudes, psi.amplitudes)) ** 2
    print(f"post-selection probability: exact {P[1]:.6f}, "
          f"uncoupled |<b|psi>|^2 = {base:.6f}")
    print("  the weak coupling perturbs the outcome statistics only at O(g)")


if __name__ == "__main__":
    main()
