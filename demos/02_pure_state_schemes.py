"""Four measurement schemes, one pure state, four exact recoveries.

Each scheme trades experimental effort differently:

  postselected       one row of the weak-value table (one post-selection)
  all_data           every row, merged for a noise-robust estimate
  single_projector   one fixed probe projector, scanned over post-selections
  single_observable  one fixed observable; the state is found in the kernel
                     of a small linear system built from its weak values

On exact data all four return the same state up to global phase.
"""

from weaktomo import ExperimentConfig, PURE_SCHEMES, run_reconstruction


def main():
    dim = 4
    print(f"target: Haar-random pure state, d={dim}, state seed 11")
    print()

    for scheme in PURE_SCHEMES:
        bundle = run_reconstruction(ExperimentConfig(
            dim=dim, scheme=scheme, state_seed=11))
        line = f"  {scheme:<18} fidelity {bundle.metrics['fidelity']:.15f}"
        if scheme == "all_data":
            # every usable row yields its own candidate; consistency is the
            # largest pairwise infidelity among them
            line += f"   row consistency {bundle.metrics['consistency']:.1e}"
        if scheme == "single_observable":
            # smallest eigenvalue of M^dag M; exactly zero means the data
            # pin the state to a one-dimensional kernel
            line += f"   kernel residual {bundle.metrics['kernel_residual']:.1e}"
        print(line)
    print()

    # What each scheme consumed:
    bundle = run_reconstruction(ExperimentConfig(
        dim=dim, scheme="postselected", state_seed=11))
    print("postselected used one table row:")
    row = bundle.table.W[bundle.config.postselect_row]
    print("  W[0] =", ", ".join(f"{z:.3f}" for z in row))
    print()

    bundle = run_reconstruction(ExperimentConfig(
        dim=dim, scheme="single_observable", state_seed=11))
    print("single_observable used one weak-value column (one observable,")
    print("scanned over post-selections):")
    print("  w =", ", ".join(f"{z:.3f}" for z in bundle.table.W[:, 0]))
    print(f"  kernel dimension {bundle.kernel.kernel_dim} "
          "(1 means the reconstruction is unambiguous)")


if __name__ == "__main__":
    main()
