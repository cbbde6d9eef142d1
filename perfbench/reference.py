"""Reference formulas for the benchmark's correctness checks.

Plain numpy, independent of weaktomo: every check of a benchmark operation
compares the program's output with a value computed here from the inputs the
benchmark generated.  ``selftest`` checks these formulas on qubit cases worked
out by hand.

Conventions: basis A is the computational basis, basis B is given by the
columns of a unitary ``B``, so <b_j|a_i> = conj(B[i, j]).  Pointers are
minimum-uncertainty Gaussians, sigma_p = 1 / (2 sigma_q).
"""

import math

import numpy as np


def fourier_basis(d: int) -> np.ndarray:
    """Columns exp(2 pi i j k / d) / sqrt(d): mutually unbiased to basis A."""
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d) / math.sqrt(d)


def haar_pure(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random pure state: a normalised complex Gaussian vector."""
    amp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return amp / np.linalg.norm(amp)


def ginibre(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    """Ginibre-ensemble density matrix G G^dag / tr, exactly Hermitian."""
    g = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def projector(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def density(state: np.ndarray) -> np.ndarray:
    """A density matrix from a state vector or a density matrix."""
    return projector(state) if state.ndim == 1 else state


def outcome_probabilities(rho: np.ndarray, B: np.ndarray) -> np.ndarray:
    """P_j = <b_j|rho|b_j>."""
    return np.einsum("ij,ij->j", B.conj(), rho @ B).real


def weak_value_table(rho: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed form W[j, i] = <b_j|a_i><a_i|rho|b_j> / <b_j|rho|b_j>, and P_j."""
    rho_b = rho @ B                               # [i, j] = <a_i|rho|b_j>
    P = np.einsum("ij,ij->j", B.conj(), rho_b).real
    W = (B.conj() * rho_b).T / P[:, None]
    return W, P


def sum_rule_deviation(W: np.ndarray, P: np.ndarray, rho: np.ndarray) -> float:
    """Largest deviation from sum_i W[j, i] = 1 and sum_j P_j W[j, i] = rho_ii."""
    rows = np.abs(W.sum(axis=1) - 1.0).max()
    diag = np.abs(P @ W - np.diag(rho)).max()
    return float(max(rows, diag))


def fidelity(x: np.ndarray, y: np.ndarray) -> float:
    """|<x|y>|^2 for two vectors, <x|y|x> for a vector and a matrix, and
    (tr sqrt(sqrt(x) y sqrt(x)))^2 for two matrices."""
    if x.ndim == 1 and y.ndim == 1:
        return float(abs(np.vdot(x, y)) ** 2)
    if x.ndim == 2 and y.ndim == 1:
        x, y = y, x
    if x.ndim == 1:
        return float(np.vdot(x, y @ x).real)
    vals, vecs = np.linalg.eigh(x)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    inner = np.linalg.eigvalsh(root @ y @ root)
    return float(np.sqrt(np.clip(inner, 0.0, None)).sum() ** 2)


def trace_distance(x: np.ndarray, y: np.ndarray) -> float:
    """(1/2) tr |x - y| for states given as vectors or matrices."""
    return float(0.5 * np.abs(np.linalg.eigvalsh(density(x) - density(y))).sum())


def model_stderr(P: np.ndarray, shots: int, g: float,
                 sigma_q: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """First-order standard errors of Re W and Im W for each outcome j.

    Half the trials read positions and half momenta, so a cell of outcome j
    holds n_j = shots P_j / 2 readouts on average; then
    se(Re W) = sigma_q / (g sqrt(n_j)) and
    se(Im W) = sigma_p / (2 g sigma_p^2 sqrt(n_j)).
    """
    sigma_p = 0.5 / sigma_q
    root_n = np.sqrt(shots * np.asarray(P) / 2.0)
    return sigma_q / (g * root_n), sigma_p / (2.0 * g * sigma_p**2 * root_n)


def binomial_halfwidth(P: np.ndarray, shots: int, k: float) -> np.ndarray:
    """k binomial standard deviations of an observed frequency, plus one count."""
    P = np.asarray(P)
    return k * np.sqrt(P * (1.0 - P) / shots) + 1.0 / shots


def chi2_mean_bound(n: int, z: float) -> float:
    """Upper quantile of chi^2_n / n at z normal standard deviations, by the
    Wilson-Hilferty approximation: the bound on the mean of n squared
    standard normal z-scores."""
    a = 2.0 / (9.0 * n)
    return (1.0 - a + z * math.sqrt(a)) ** 3


def trace_distance_bound(d: int, g: float, shots: int, c: float) -> float:
    """c d / (g sqrt(shots)): every W entry has a standard error of about
    sqrt(2 d / shots) / g, and d x d of them enter a reconstructed matrix."""
    return c * d / (g * math.sqrt(shots))


def selftest() -> list[str]:
    """Check the formulas above on qubit cases worked out by hand."""
    errors = []

    def expect(label, got, want, tol=1e-12):
        if not np.allclose(got, want, atol=tol, rtol=0.0):
            errors.append(f"{label}: got {got}, want {want}")

    B = fourier_basis(2)                          # b_0 = (1, 1)/sqrt2, b_1 = (1, -1)/sqrt2
    expect("fourier basis", B, np.array([[1, 1], [1, -1]]) / math.sqrt(2))

    # |0>: P_j = 1/2, W[j, 0] = |<b_j|0>|^2 / P_j = 1 and W[j, 1] = 0.
    W, P = weak_value_table(projector(np.array([1, 0], complex)), B)
    expect("|0> P", P, [0.5, 0.5])
    expect("|0> W", W, [[1, 0], [1, 0]])

    # (|0> + i|1>)/sqrt2: <b_0|psi> = (1+i)/2, <b_1|psi> = (1-i)/2, so
    # W[0] = ((1-i)/2, (1+i)/2) and W[1] = ((1+i)/2, (1-i)/2).
    psi = np.array([1, 1j]) / math.sqrt(2)
    W, P = weak_value_table(projector(psi), B)
    expect("|+i> P", P, [0.5, 0.5])
    expect("|+i> W", W, np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]]) / 2)
    expect("|+i> sum rules", sum_rule_deviation(W, P, projector(psi)), 0.0)

    # diag(3/4, 1/4): W[j, i] = (1/2) rho_ii / (1/2) = rho_ii.
    rho = np.diag([0.75, 0.25]).astype(complex)
    W, P = weak_value_table(rho, B)
    expect("mixed W", W, [[0.75, 0.25], [0.75, 0.25]])
    expect("mixed sum rules", sum_rule_deviation(W, P, rho), 0.0)

    zero = np.array([1, 0], complex)
    plus = np.array([1, 1], complex) / math.sqrt(2)
    expect("F(|0>, I/2)", fidelity(projector(zero), np.eye(2) / 2), 0.5)
    expect("F(|0>, |+>)", fidelity(zero, plus), 0.5)
    expect("F(|0><0|, |+><+|)", fidelity(projector(zero), projector(plus)), 0.5, 1e-10)
    expect("F(rho, rho)", fidelity(rho, rho), 1.0, 1e-10)
    expect("T(|0>, I/2)", trace_distance(zero, np.eye(2) / 2), 0.5)
    # Pure states: T = sqrt(1 - F) = 1/sqrt2.
    expect("T(|0>, |+>)", trace_distance(zero, plus), 1 / math.sqrt(2))

    # g = 0.1, sigma_q = 1, shots = 2e4, P_j = 1/2: n_j = 5000 and both
    # errors are 1 / (0.1 sqrt(5000)) = 0.141421...; sigma_q = 2 doubles both,
    # since se(Im W) = 1 / (2 g sigma_p sqrt(n_j)) with sigma_p = 1/4.
    se_re, se_im = model_stderr(np.array([0.5]), 20_000, 0.1)
    expect("se Re", se_re, [0.1414213562373095])
    expect("se Im", se_im, [0.1414213562373095])
    se_re, se_im = model_stderr(np.array([0.5]), 20_000, 0.1, sigma_q=2.0)
    expect("se Re, sigma_q=2", se_re, [0.282842712474619])
    expect("se Im, sigma_q=2", se_im, [0.282842712474619])
    expect("binomial", binomial_halfwidth(np.array([0.5]), 10_000, 3.0), [0.0151])
    expect("td bound", trace_distance_bound(2, 0.1, 10_000, 1.0), 0.2)
    # Tables give 149.449 for the 0.999 quantile of chi^2 with 100 degrees
    # of freedom; 0.999 is 3.0902 normal standard deviations.
    expect("chi2 bound", chi2_mean_bound(100, 3.0902), 1.49449, 1e-3)
    return errors
