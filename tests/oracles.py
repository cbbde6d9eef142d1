"""Independent oracles for the weak-value algebra.

Everything here is written the slow, obvious way (explicit projectors,
explicit traces, scalar loops) so it shares no code path with the package
implementations it is used to check.
"""

import io

import numpy as np

from weaktomo.errors import InvalidRecordsError


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


def oracle_mixed_bbasis(w: np.ndarray, p: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Density matrix from a full weak-value table, read in the post-selection
    basis B and rotated back to basis A, with beta[j, k] = <b_j|a_k>:

        <b_i|rho|b_j> = P_j sum_k W_jk beta_ik / beta_jk,

    entry by entry, then rho_A = beta^dag rho_B beta."""
    d = p.size
    rho_b = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            rho_b[i, j] = p[j] * sum(w[j, k] * beta[i, k] / beta[j, k] for k in range(d))
    return beta.conj().T @ rho_b @ beta


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


def oracle_gram_consistency(candidates: list) -> float:
    """Largest pairwise infidelity 1 - |<c_a|c_b>|^2, a < b, read off the
    candidates' Gram matrix at the index pairs that np.triu_indices lists."""
    cand = np.stack(candidates, axis=1)
    overlaps = (cand.conj().T @ cand)[np.triu_indices(cand.shape[1], 1)]
    return float(np.max(1.0 - np.abs(overlaps) ** 2, initial=0.0))


def oracle_clip_renormalise(h: np.ndarray) -> np.ndarray:
    """Hermitize, clip negative eigenvalues and rescale to unit trace."""
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    clipped = np.clip(vals, 0.0, None)
    return (vecs * (clipped / clipped.sum())) @ vecs.conj().T


def oracle_nearest_state(h: np.ndarray) -> np.ndarray:
    """Nearest state to h in Frobenius norm (Smolin, Gambetta & Smith): one
    eigendecomposition of the Hermitian part, whose eigenvalues shift down by
    the threshold theta_k = (sum of the top k - 1) / k of the largest k whose
    k-th eigenvalue stays above it, clipped at zero, in the same eigenbasis."""
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    desc = sorted(vals, reverse=True)
    for k in range(len(desc), 0, -1):
        theta = (sum(desc[:k]) - 1.0) / k
        if desc[k - 1] > theta:
            break
    return (vecs * np.clip(vals - theta, 0.0, None)) @ vecs.conj().T


def oracle_grid(n_points: int, extent: float):
    """Positions on [-extent, extent) and their DFT-conjugate angular
    momenta, FFT-ordered."""
    dx = 2.0 * extent / n_points
    return -extent + dx * np.arange(n_points), 2.0 * np.pi * np.fft.fftfreq(n_points, d=dx)


def oracle_gaussian_pointer(q: np.ndarray, mean_q: float, mean_p: float,
                            sigma_q: float) -> np.ndarray:
    """Unit-norm Gaussian pointer sampled at positions q."""
    psi = np.exp(-((q - mean_q) ** 2) / (4.0 * sigma_q**2) + 1j * mean_p * (q - mean_q))
    return psi / np.linalg.norm(psi)


def oracle_pointer_covariance(psi: np.ndarray, q: np.ndarray, k: np.ndarray) -> float:
    """Symmetrized covariance <{q - <q>, p - <p>}> of a grid wavefunction."""
    psi = psi / np.linalg.norm(psi)
    q_mean = float(np.sum(q * np.abs(psi) ** 2))
    p_psi = np.fft.ifft(k * np.fft.fft(psi))
    p_mean = float(np.vdot(psi, p_psi).real)
    return float(2.0 * np.vdot((q - q_mean) * psi, p_psi - p_mean * psi).real)


def oracle_grid_evolution(rho: np.ndarray, observables: list, g, sigma_q, mean_q, mean_p,
                          post: np.ndarray, n_points: int = 256):
    """Post-selection probability and conditional pointer shifts (dq, dp),
    one entry per pointer, under U = exp(-i sum_i g_i A_i x p_i), by evolving
    the joint system-pointer state on a grid of n_points per pointer spanning
    +-10 max(sigma_q).

    Each momentum operator is diagonal on the DFT-conjugate grid, so at fixed
    momenta (k_1..k_n) the system evolves by the d x d unitary
    exp(-i sum_i g_i k_i A_i), whether or not the A_i commute.  A mixed rho
    is evolved one eigen-component at a time.  The joint state holds
    d * n_points^n amplitudes.
    """
    g, sigma_q, mean_q, mean_p = (np.atleast_1d(np.asarray(x, dtype=float))
                                  for x in (g, sigma_q, mean_q, mean_p))
    d, n, N = rho.shape[0], len(observables), n_points
    q1, k1 = oracle_grid(N, 10.0 * float(sigma_q.max()))
    flat_k = [kc.reshape(-1) for kc in np.meshgrid(*([k1] * n), indexing="ij")]
    h = sum((g[i] * flat_k[i])[:, None, None] * np.asarray(observables[i])
            for i in range(n))
    vals, vecs = np.linalg.eigh(h)
    pointers = [oracle_gaussian_pointer(q1, mean_q[i], mean_p[i], sigma_q[i])
                for i in range(n)]
    product = pointers[0]
    for psi in pointers[1:]:
        product = np.multiply.outer(product, psi)
    weight_k = np.zeros(N**n)
    weight_q = np.zeros((N,) * n)
    w_rho, chi_rho = np.linalg.eigh(rho)
    for w_m, chi in zip(w_rho, chi_rho.T):
        if w_m <= 1e-14:
            continue
        joint = chi.reshape((d,) + (1,) * n) * product[None]
        phi = np.fft.fftn(joint, axes=tuple(range(1, n + 1))).reshape(d, -1)
        # U(k) phi = V exp(-i Lambda) V^dag phi at each momentum grid point.
        y = np.einsum("bts,tb->bs", vecs.conj(), phi) * np.exp(-1j * vals)
        xi = post.conj() @ np.einsum("bst,bt->sb", vecs, y)
        weight_k += w_m * np.abs(xi) ** 2
        weight_q += w_m * np.abs(np.fft.ifftn(xi.reshape((N,) * n))) ** 2
    prob = weight_k.sum() / N**n  # Parseval: the initial FFT norm is N^n
    weight_k = weight_k.reshape((N,) * n)
    dq, dp = np.empty(n), np.empty(n)
    for i in range(n):
        other = tuple(ax for ax in range(n) if ax != i)
        marg_p, marg_q = weight_k.sum(axis=other), weight_q.sum(axis=other)
        dp[i] = np.sum(k1 * marg_p) / marg_p.sum() - mean_p[i]
        dq[i] = np.sum(q1 * marg_q) / marg_q.sum() - mean_q[i]
    return float(prob), dq, dp


RECORDS_HEADER = "trial,outcome_j,pointer,quadrature,readout"


def oracle_records_csv(trial, outcome, pointer, quadrature, readout) -> str:
    """The records CSV written one row at a time, as the codec first did."""
    buf = io.StringIO()
    buf.write(RECORDS_HEADER + "\n")
    for t, j, i, c, r in zip(np.asarray(trial).tolist(), np.asarray(outcome).tolist(),
                             np.asarray(pointer).tolist(), np.asarray(quadrature).tolist(),
                             np.asarray(readout, dtype=float).tolist()):
        buf.write(f"{t},{j},{i},{('q', 'p')[c]},{r!r}\n")
    return buf.getvalue()


def oracle_records_from_csv(text: str) -> dict:
    """The records CSV read one row at a time, as the codec first did: the
    five columns by name, or InvalidRecordsError naming the first bad row.

    Lines split as ``str.splitlines`` splits them, the header is stripped and
    fields go through ``int`` and ``float``, so this reader also takes the
    whitespace, underscores, non-ASCII digits and line breaks that the
    records grammar leaves out."""
    trials, outcomes, pointers, quads, readouts = [], [], [], [], []
    lines = iter(text.splitlines())
    header = next(lines, "").strip()
    if header != RECORDS_HEADER:
        raise InvalidRecordsError(f"unexpected record CSV header: {header!r}")
    for row, line in enumerate(filter(None, lines), start=1):
        fields = line.split(",")
        if len(fields) != 5:
            raise InvalidRecordsError(
                f"records row {row}: expected 5 fields, got {len(fields)}")
        t, j, i, c, r = fields
        quad = {"q": 0, "p": 1}.get(c)
        if quad is None:
            raise InvalidRecordsError(
                f"records row {row}: quadrature {c!r} is neither 'q' nor 'p'")
        try:
            trials.append(int(t))
            outcomes.append(int(j))
            pointers.append(int(i))
            readouts.append(float(r))
        except ValueError as exc:
            raise InvalidRecordsError(f"records row {row}: {exc}") from None
        quads.append(quad)
    for row, values in enumerate(zip(trials, outcomes, pointers), start=1):
        for name, value in zip(("trial", "outcome", "pointer"), values):
            if not -(1 << 63) <= value < 1 << 63:
                raise InvalidRecordsError(
                    f"records row {row}: {name} {value} does not fit 64 bits")
    return {"trial": np.array(trials, dtype=np.int64),
            "outcome": np.array(outcomes, dtype=np.int64),
            "pointer": np.array(pointers, dtype=np.int64),
            "quadrature": np.array(quads, dtype=np.uint8),
            "readout": np.array(readouts, dtype=np.float64)}
