"""Independent oracles for the weak-value algebra.

Everything here is written the slow, obvious way (explicit projectors,
explicit traces, scalar loops) so it shares no code path with the package
implementations it is used to check.
"""

import numpy as np


def oracle_weak_value(rho: np.ndarray, obs: np.ndarray, post: np.ndarray) -> complex:
    pi = np.outer(post, post.conj())
    denom = np.trace(pi @ rho)
    return complex(np.trace(pi @ obs @ rho) / denom)


def oracle_post_probability(rho: np.ndarray, post: np.ndarray) -> float:
    pi = np.outer(post, post.conj())
    return float(np.trace(pi @ rho).real)


def oracle_first_order_probability(rho: np.ndarray, post: np.ndarray, obs: np.ndarray,
                                   g: float, mean_p: float) -> float:
    """Post-selection probability after one weak coupling g to obs, to first
    order in g: tr(Pi rho) (1 + 2 g Im(W) <p>), with W the weak value of obs."""
    w = oracle_weak_value(rho, obs, post)
    return oracle_post_probability(rho, post) * (1.0 + 2.0 * g * w.imag * mean_p)


def oracle_table(rho: np.ndarray, basis_a: np.ndarray, basis_b: np.ndarray):
    """Weak values of every reference projector |a_i><a_i| for every
    post-selection |b_j>, via the trace formula entry by entry."""
    d = rho.shape[0]
    w = np.zeros((d, d), dtype=complex)
    p = np.zeros(d)
    defined = np.zeros(d, dtype=bool)
    for j in range(d):
        b = basis_b[:, j]
        p[j] = oracle_post_probability(rho, b)
        if p[j] <= 1e-14:
            continue
        defined[j] = True
        for i in range(d):
            a = basis_a[:, i]
            proj = np.outer(a, a.conj())
            w[j, i] = oracle_weak_value(rho, proj, b)
    return w, p, defined


def oracle_shifts(w: complex, g: float, sigma_p: float):
    return g * w.real, 2.0 * g * w.imag * sigma_p**2


def align_phase(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rotate x by a global phase to best match y."""
    inner = np.vdot(y, x)
    if abs(inner) == 0:
        return x
    return x * (inner.conjugate() / abs(inner))


def oracle_consistency(candidates: list) -> float:
    """Largest pairwise infidelity 1 - |<c_a|c_b>|^2, a < b, by a scalar loop."""
    worst = 0.0
    for a in range(len(candidates)):
        for b in range(a + 1, len(candidates)):
            inner = sum(x.conjugate() * y for x, y in zip(candidates[a], candidates[b]))
            worst = max(worst, 1.0 - abs(inner) ** 2)
    return worst


def oracle_clip_renormalise(h: np.ndarray) -> np.ndarray:
    """Hermitize, clip negative eigenvalues and rescale to unit trace."""
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    clipped = np.clip(vals, 0.0, None)
    return (vecs * (clipped / clipped.sum())) @ vecs.conj().T
