"""Experiment orchestration: configs, seeded runs, demos, comparisons.

A single ExperimentConfig fully determines a run: the true state, the
post-selection basis, the pointer parameters, the reconstruction scheme, and
(for sampled mode) the shot budget and seed.  Identical configs give
bit-identical results regardless of worker count; parallelism only ever
distributes independently seeded cells.  A scheme comparison shares work
across its experiments, not results: each (shots, seed) cell draws one table
per measured object for every scheme that reads it, and each experiment's
score is bit for bit the one its own run_reconstruction gives.
"""

import math
import os
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    MissingDataError,
    PreconditionError,
    ResourceLimitError,
    SchemeInapplicableError,
)
from .qcore import (
    DensityMatrix,
    Observable,
    OrthonormalBasis,
    StateVector,
    fidelity,
    fourier_basis,
    random_density_matrix,
    random_pure_state,
    reference_basis,
    trace_distance,
    transition_matrix,
    _as_density,
    _complete_basis,
)
from .weakval import WeakValueTable, weak_value_table
from .pointer import (
    NoiseModel,
    PointerConfig,
    RecordStream,
    _check_readout_scales,
    _law,
    _sampled_table,
    sample_records,
)
from .recon import (
    estimate_element_nonorthogonal,
    estimate_element_orthogonal,
    reconstruct_mixed_abasis,
    reconstruct_pure_all_data,
    reconstruct_pure_postselected,
    reconstruct_pure_single_observable,
    reconstruct_pure_single_projector,
)

STATE_SPECS = ("haar-pure", "ginibre", "explicit")
BASIS_SPECS = ("fourier", "explicit")
DATA_MODES = ("exact", "sampled")


def thread_cap() -> int:
    """Worker-count cap: WEAKTOMO_THREADS when set, else the CPU count."""
    cpus = os.cpu_count() or 1
    raw = os.environ.get("WEAKTOMO_THREADS", "")
    try:
        limit = int(raw)
    except ValueError:
        return cpus
    return max(1, min(cpus, limit)) if limit > 0 else cpus


def _check_integer(value, name: str, low=-math.inf, high=math.inf) -> None:
    """Raise ValueError unless ``value`` is an integer, not a bool, in [low, high]."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, seedable description of one tomography experiment.

    Complex payloads (explicit states, bases, probe vectors) are numpy
    arrays; everything else is a scalar, so configs mirror a flat JSON
    object with re/im objects for the array-valued fields.
    """

    dim: int
    scheme: str
    data_mode: str = "exact"
    state_spec: str = "haar-pure"
    state: np.ndarray | None = None
    state_seed: int | None = None
    state_rank: int | None = None
    basis_spec: str = "fourier"
    basis_b: np.ndarray | None = None
    pointer_g: float = 0.05
    pointer_sigma_q: float = 1.0
    pointer_mean_q: float = 0.0
    pointer_mean_p: float = 0.0
    shots: int = 0
    seed: int = 0
    noise_sigma_scale: float = 1.0
    noise_offset: float = 0.0
    postselect_row: int = 0
    phi: object = "ramp"
    lambdas: np.ndarray | None = None
    partial_a: np.ndarray | None = None
    partial_b: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; options: {tuple(SCHEMES)}")
        if self.data_mode not in DATA_MODES:
            raise ValueError(f"unknown data_mode {self.data_mode!r}")
        if self.state_spec not in STATE_SPECS:
            raise ValueError(f"unknown state_spec {self.state_spec!r}")
        if self.basis_spec not in BASIS_SPECS:
            raise ValueError(f"unknown basis_spec {self.basis_spec!r}")
        if self.state_spec == "explicit" and self.state is None:
            raise ValueError("state_spec 'explicit' requires the state field")
        if self.basis_spec == "explicit" and self.basis_b is None:
            raise ValueError("basis_spec 'explicit' requires the basis_b field")
        _check_integer(self.shots, "shots", 1 if self.data_mode == "sampled" else 0)
        _check_integer(self.seed, "seed", 0)
        if self.state_seed is not None:
            _check_integer(self.state_seed, "state_seed", 0)
        if self.state_rank is not None:
            _check_integer(self.state_rank, "state_rank", 1, self.dim)
        _check_integer(self.postselect_row, "postselect_row", 0, self.dim - 1)
        # The pointer and noise fields are checked where they are used, and
        # together for the most pointers a scheme reads, one per dimension,
        # and for the configured shots.
        _check_readout_scales(self.pointer_config(self.dim), _resolve_noise(self),
                              self.shots)

    def pointer_config(self, n_pointers: int) -> PointerConfig:
        """n_pointers identical pointers with the configured parameters."""
        return PointerConfig.uniform(
            n_pointers,
            g=self.pointer_g,
            sigma_q=self.pointer_sigma_q,
            mean_q=self.pointer_mean_q,
            mean_p=self.pointer_mean_p,
        )


def _resolve_state(cfg: ExperimentConfig) -> StateVector | DensityMatrix:
    """The configured true state as it was given: a StateVector for a
    Haar-random or explicit vector, a DensityMatrix for a Ginibre or explicit
    matrix.  A pure truth stays a vector; every consumer takes either type."""
    seed = cfg.seed if cfg.state_seed is None else cfg.state_seed
    if cfg.state_spec == "haar-pure":
        return random_pure_state(cfg.dim, seed)
    if cfg.state_spec == "ginibre":
        rank = cfg.dim if cfg.state_rank is None else cfg.state_rank
        return random_density_matrix(cfg.dim, rank, seed)
    arr = np.asarray(cfg.state, dtype=complex)
    return StateVector(arr) if arr.ndim == 1 else DensityMatrix(arr)


def _resolve_basis(cfg: ExperimentConfig) -> OrthonormalBasis:
    if cfg.basis_spec == "fourier":
        return fourier_basis(cfg.dim)
    return OrthonormalBasis(np.asarray(cfg.basis_b, dtype=complex))


def _resolve_noise(cfg: ExperimentConfig) -> NoiseModel:
    return NoiseModel(readout_sigma_scale=cfg.noise_sigma_scale,
                      systematic_offset=cfg.noise_offset)


def ramp_probe(dim: int) -> StateVector:
    """Default probe (1, 2, ..., d)/norm: its DFT never vanishes, so it has
    nonzero overlap with every Fourier-basis vector in every dimension."""
    return StateVector.normalized(np.arange(1, dim + 1, dtype=complex))


def _resolve_phi(cfg: ExperimentConfig) -> StateVector:
    if isinstance(cfg.phi, str):
        if cfg.phi != "ramp":
            raise ValueError(f"unknown phi spec {cfg.phi!r}")
        return ramp_probe(cfg.dim)
    return StateVector.normalized(np.asarray(cfg.phi, dtype=complex))


def _resolve_partial_pair(cfg: ExperimentConfig) -> tuple[StateVector, StateVector]:
    d = cfg.dim
    if cfg.partial_a is None:
        a = np.zeros(d, dtype=complex)
        a[0] = 1.0
    else:
        a = np.asarray(cfg.partial_a, dtype=complex)
    if cfg.partial_b is None:
        b = np.zeros(d, dtype=complex)
        b[0] = b[1] = 1.0 / math.sqrt(2.0)
    else:
        b = np.asarray(cfg.partial_b, dtype=complex)
    return StateVector.normalized(a), StateVector.normalized(b)


@dataclass(frozen=True)
class ResultBundle:
    """Everything one run produced.

    ``estimate`` is a StateVector, a DensityEstimate, or an ElementPair
    depending on the scheme; ``table`` holds the (exact or estimated)
    weak-value table the scheme read, None for partial tomography.
    wall_time is informational and never serialized, keeping seeded outputs
    byte-identical.
    """

    scheme: str
    config: ExperimentConfig
    estimate: object
    metrics: dict
    table: WeakValueTable | None = None
    kernel: object = None
    wall_time: float = 0.0


def _basis_a(cfg: ExperimentConfig) -> OrthonormalBasis:
    return reference_basis(cfg.dim)


def _phi_projector(cfg: ExperimentConfig) -> Observable:
    return Observable.projector(_resolve_phi(cfg))


def _lambda_observable(cfg: ExperimentConfig) -> Observable:
    lam = np.arange(cfg.dim, dtype=float) if cfg.lambdas is None else cfg.lambdas
    lam = np.asarray(lam, dtype=float)
    if lam.size != cfg.dim:
        raise ValueError(f"need {cfg.dim} eigenvalues, got {lam.size}")
    return Observable.from_eigensystem(lam, reference_basis(cfg.dim))


def _postselected(cfg, table, beta, basis_b):
    row = cfg.postselect_row
    if not table.defined[row]:
        raise MissingDataError(f"post-selection outcome {row} is undefined")
    return reconstruct_pure_postselected(table.W[row], beta.beta[row]), {}, None


def _all_data(cfg, table, beta, basis_b):
    result = reconstruct_pure_all_data(table, beta)
    return result.merged, {"consistency": result.consistency}, None


def _single_projector(cfg, table, beta, basis_b):
    if not table.defined.all():
        raise MissingDataError(
            f"outcomes {np.where(~table.defined)[0].tolist()} are undefined; "
            "this scheme sums over every outcome")
    estimate = reconstruct_pure_single_projector(table.W[:, 0], _resolve_phi(cfg), basis_b)
    return estimate, {}, None


def _single_observable(cfg, table, beta, basis_b):
    rows = np.where(table.defined)[0]
    if rows.size == 0:
        raise MissingDataError("every outcome is undefined")
    estimate, kernel = reconstruct_pure_single_observable(
        table.W[:, 0], _lambda_observable(cfg), beta, rows=rows)
    return estimate, {"kernel_residual": kernel.smallest_eig}, kernel


def _mixed(cfg, table, beta, basis_b):
    result = reconstruct_mixed_abasis(table, beta)
    return result, {"hermiticity_gap": result.hermiticity_defect}, None


@dataclass(frozen=True)
class Scheme:
    """``measured(cfg)``: what the scheme weakly measures, as
    ``weak_value_table`` takes it (basis A: d pointers; an Observable: one),
    None when the scheme generates its own data.  ``pure``: it needs a pure
    truth.  ``reconstruct(cfg, table, beta, basis_b)`` returns the estimate,
    scheme-specific metrics and the kernel diagnostics (or None)."""

    measured: Callable | None
    pure: bool
    reconstruct: Callable | None = None


_MIXED = Scheme(_basis_a, False, _mixed)
SCHEMES = {
    "postselected": Scheme(_basis_a, True, _postselected),
    "all_data": Scheme(_basis_a, True, _all_data),
    "single_projector": Scheme(_phi_projector, True, _single_projector),
    "single_observable": Scheme(_lambda_observable, True, _single_observable),
    # One estimator under its a-basis and its b-basis name.
    "mixed_a": _MIXED,
    "mixed_b": _MIXED,
    "partial": Scheme(None, False),
}
PURE_SCHEMES = tuple(name for name, scheme in SCHEMES.items() if scheme.pure)

_OWN_DATA = "partial tomography generates its own data"


def _measurement(cfg: ExperimentConfig) -> tuple[object, PointerConfig]:
    """What the configured scheme weakly measures, and its pointers."""
    measured = SCHEMES[cfg.scheme].measured(cfg)
    return measured, cfg.pointer_config(1 if isinstance(measured, Observable) else cfg.dim)


def _table(cfg: ExperimentConfig, truth: StateVector | DensityMatrix, measured,
           basis_b: OrthonormalBasis, pcfg: PointerConfig, law=None) -> WeakValueTable:
    """The weak-value table of ``measured`` over basis B: in closed form in
    exact mode, estimated from ``cfg.shots`` sampled trials otherwise.
    ``law`` is what the tables come from, when the caller holds it for many:
    the closed-form table in exact mode, else ``_law``'s outcome law and
    first-order shifts."""
    if cfg.data_mode == "sampled":
        return _sampled_table(truth, measured, basis_b, pcfg, cfg.shots, cfg.seed,
                              _resolve_noise(cfg), law=law)
    return weak_value_table(truth, measured, basis_b) if law is None else law


def _transition(cfg: ExperimentConfig, measured, basis_b: OrthonormalBasis):
    """beta from basis A to B.  Basis A is the reference basis, which the
    d-pointer schemes measure."""
    basis_a = measured if isinstance(measured, OrthonormalBasis) else reference_basis(cfg.dim)
    return transition_matrix(basis_a, basis_b)


def _resolve_truth(cfg: ExperimentConfig) -> StateVector | DensityMatrix:
    """The true state; a mixed one raises for a scheme that needs a pure one."""
    truth = _resolve_state(cfg)
    if SCHEMES[cfg.scheme].pure and not isinstance(truth, StateVector):
        raise SchemeInapplicableError(f"scheme {cfg.scheme!r} reconstructs a pure state; "
                                      "the configured state is mixed")
    return truth


def simulate(cfg: ExperimentConfig) -> WeakValueTable | RecordStream:
    """The data the configured scheme consumes, as ``weaktomo simulate`` writes it.

    Exact mode gives the closed-form weak-value table (d x d for the basis-A
    schemes, d x 1 for the single-observable ones); sampled mode gives the
    pointer records of ``cfg.shots`` trials.  Partial tomography raises
    SchemeInapplicableError: its data depend on the configured vector pair.
    So does a pure-state scheme on a mixed truth, which it could not read.
    """
    if SCHEMES[cfg.scheme].measured is None:
        raise SchemeInapplicableError(f"{_OWN_DATA}; there is nothing to simulate")
    truth = _resolve_truth(cfg)
    measured, pcfg = _measurement(cfg)
    basis_b = _resolve_basis(cfg)
    if cfg.data_mode == "exact":
        return weak_value_table(truth, measured, basis_b)
    return sample_records(truth, measured, basis_b, pcfg, cfg.shots, cfg.seed,
                          _resolve_noise(cfg))


def _finite_metrics(metrics: dict) -> dict:
    for key, value in metrics.items():
        if not np.isfinite(value):
            raise ValueError(f"metric {key} is not finite: {value}")
    return {k: float(v) for k, v in metrics.items()}


def run_reconstruction(cfg: ExperimentConfig, *,
                       table: WeakValueTable | None = None) -> ResultBundle:
    """Run the configured scheme and score it against the truth.

    Without ``table`` the data are generated: in closed form in exact mode;
    in sampled mode by drawing, from ``cfg.seed``, the per-cell readout
    count, sum and sum of squares of ``cfg.shots`` trials straight from
    their law and estimating the weak values from them, in time and memory
    that do not grow with the shots.  That table has the law of estimating
    from ``simulate(cfg)``'s records, not their bits; pass
    ``estimate_weak_values`` of those records as ``table`` to reproduce the
    records route.  A provided ``table`` (d x d for basis-A schemes, d x 1 for single-observable
    ones) bypasses data generation.  Partial tomography always generates its
    own data: its post-selection geometry depends on the configured pair.
    Metrics include fidelity and trace distance for state schemes and the
    element error for partial tomography.  Every scheme is scored against the
    truth as it was resolved, so a mixed estimate of a pure truth gets the
    fidelity <psi|rho|psi>.
    """
    t0 = time.perf_counter()
    scheme = SCHEMES[cfg.scheme]
    truth = _resolve_truth(cfg)
    basis_b = _resolve_basis(cfg)
    kernel = None
    if scheme.measured is None:
        if table is not None:
            raise SchemeInapplicableError(f"{_OWN_DATA}; it cannot consume a table")
        estimate, metrics = _run_partial(cfg, truth)
        metrics = _finite_metrics(metrics)
    else:
        measured, pcfg = _measurement(cfg)
        if table is None:
            table = _table(cfg, truth, measured, basis_b, pcfg)
        elif (table.dim, table.n_pointers) != (cfg.dim, pcfg.n_pointers):
            raise SchemeInapplicableError(
                f"scheme {cfg.scheme!r} consumes a {cfg.dim} x {pcfg.n_pointers} table, "
                f"got {table.dim} x {table.n_pointers}")
        estimate, metrics, kernel = _score(cfg, scheme, truth, table,
                                           _transition(cfg, measured, basis_b), basis_b)

    return ResultBundle(
        scheme=cfg.scheme,
        config=cfg,
        estimate=estimate,
        metrics=metrics,
        table=table,
        kernel=kernel,
        wall_time=time.perf_counter() - t0,
    )


def _score(cfg: ExperimentConfig, scheme: Scheme, truth: StateVector | DensityMatrix,
           table: WeakValueTable, beta, basis_b: OrthonormalBasis):
    """Reconstruct with ``scheme`` from ``table`` and score the estimate
    against ``truth``: the estimate, its finite metrics (the scheme's own,
    fidelity and trace distance) and the kernel diagnostics or None."""
    estimate, metrics, kernel = scheme.reconstruct(cfg, table, beta, basis_b)
    state = estimate if scheme.pure else estimate.physical
    metrics["fidelity"] = fidelity(state, truth)
    metrics["trace_distance"] = trace_distance(state, truth)
    return estimate, _finite_metrics(metrics), kernel


def _pair_data(cfg: ExperimentConfig, truth: StateVector | DensityMatrix,
               observable: Observable, posts: list[StateVector]):
    """Weak values of ``observable`` and outcome probabilities at ``posts``,
    read from the table over a basis that the posts begin."""
    n = len(posts)
    basis = _complete_basis([post.amplitudes for post in posts])
    table = _table(cfg, truth, observable, basis, cfg.pointer_config(1))
    if not table.defined[:n].all():
        raise MissingDataError("a post-selection outcome of the pair is undefined: "
                               "zero probability, or no sampled trial reached it")
    return table.W[:n, 0], table.P[:n]


def _run_partial(cfg: ExperimentConfig, truth: StateVector | DensityMatrix):
    """Estimate the single element <a|rho|b>, routing on the pair's overlap.

    A non-orthogonal pair weakly measures |a><a| and post-selects on b; an
    orthogonal pair weakly measures the projector onto the bridge state
    (a + b)/sqrt2 and post-selects on a and on b separately.
    """
    a, b = _resolve_partial_pair(cfg)
    overlap_ba = b.overlap(a)
    mat = _as_density(truth)
    if abs(overlap_ba) > 1e-12:
        (w,), (p_b,) = _pair_data(cfg, truth, Observable.projector(a), [b])
        element = estimate_element_nonorthogonal(w, p_b, overlap_ba)
        true_ab = complex(np.vdot(a.amplitudes, mat @ b.amplitudes))
        return element, {"element_error": abs(element - true_ab)}
    bridge = StateVector.normalized(a.amplitudes + b.amplitudes)
    (w, w_prime), (p_a, p_b) = _pair_data(cfg, truth, Observable.projector(bridge), [a, b])
    pair = estimate_element_orthogonal(w, w_prime, p_a, p_b)
    true_ba = complex(np.vdot(b.amplitudes, mat @ a.amplitudes))
    return pair, {"element_error": abs(pair.element_ba - true_ba),
                  "hermiticity_gap": pair.hermiticity_gap}


@dataclass(frozen=True)
class PhaseDemoReport:
    """Closed-form and sampled results of the phase-detection demo."""

    theta: float
    g: float
    sigma_p: float
    shots: int
    seed: int
    weak_value: complex
    dq: float
    dp_shift: float
    leading_order_dp: float
    post_prob: float
    retained: int
    theta_estimate: float | None
    predicted_rel_error: float
    low_signal_warning: bool


def demo_phase_detection(theta: float, g: float = 0.01, sigma_p: float = 0.5,
                         shots: int = 0, seed: int = 0) -> PhaseDemoReport:
    """Detect a small relative phase from the imaginary weak value.

    The state (|0> + e^{i theta}|1>)/sqrt2 is weakly coupled to |1><1| and
    post-selected on (|0> - |1>)/sqrt2.  Exactly,

        W = 1/2 - (i/2) cot(theta/2),

    so the conditional momentum shift dp = 2 g Im(W) sigma_p^2 amplifies the
    phase by the inverse post-selection probability.  With shots > 0, the
    number of post-selected trials, Binomial(shots, P), and the mean of their
    momentum readouts, Gaussian around dp, are drawn from ``seed`` in O(1)
    time whatever ``shots`` is, and theta is recovered by inverting the
    exact Im W relation.
    """
    if not 0.0 < theta <= math.pi:
        raise PreconditionError("theta must lie in (0, pi]")
    if g <= 0 or sigma_p <= 0 or shots < 0:
        raise PreconditionError("g and sigma_p must be positive and shots >= 0")
    if shots > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"{shots} shots do not fit a 64-bit trial count")
    half = 0.5 * theta
    w = complex(0.5, -0.5 / math.tan(half))
    dq = g * w.real
    dp_shift = 2.0 * g * w.imag * sigma_p**2
    post_prob = math.sin(half) ** 2
    leading = -2.0 * g * sigma_p**2 / theta

    expected_kept = shots * post_prob
    sigma_im = 1.0 / (2.0 * g * sigma_p * math.sqrt(max(expected_kept, 1.0)))
    dtheta_dim = 4.0 / (1.0 + 4.0 * w.imag**2)
    predicted_rel = sigma_im * dtheta_dim / theta
    warning = bool(shots > 0 and (expected_kept < 1.0 or predicted_rel > 1.0))

    rng = np.random.default_rng(seed)
    retained = int(rng.binomial(shots, post_prob))
    theta_estimate = None
    if retained:
        # The retained momenta are i.i.d. N(dp, sigma_p^2): draw their mean.
        mean_p = dp_shift + sigma_p * rng.standard_normal() / math.sqrt(retained)
        im_hat = mean_p / (2.0 * g * sigma_p**2)
        theta_estimate = 2.0 * math.atan2(1.0, -2.0 * im_hat)

    return PhaseDemoReport(
        theta=theta, g=g, sigma_p=sigma_p, shots=shots, seed=seed,
        weak_value=w, dq=dq, dp_shift=dp_shift, leading_order_dp=leading,
        post_prob=post_prob, retained=retained, theta_estimate=theta_estimate,
        predicted_rel_error=predicted_rel, low_signal_warning=warning,
    )


def _attempt(fn, *args):
    """``fn(*args)``, or the exception it raised, held as an executor's future
    holds it, so that a sweep raises its experiments' errors in their order."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _source(cfg: ExperimentConfig, truth: StateVector | DensityMatrix,
            basis_b: OrthonormalBasis) -> tuple:
    """What the configured scheme's tables come from, built once for many:
    its measured object, pointers, ``_table`` law and beta, in the order a
    run builds them."""
    measured, pcfg = _measurement(cfg)
    law = (weak_value_table(truth, measured, basis_b) if cfg.data_mode == "exact"
           else _law(truth, measured, basis_b, pcfg))
    return measured, pcfg, law, _transition(cfg, measured, basis_b)


def compare_schemes(cfg_base: ExperimentConfig, schemes, shot_grid,
                    n_seeds: int = 20) -> list[dict]:
    """Score several schemes across a shot grid with a common true state.

    Each (scheme, shots) row runs n_seeds independently seeded experiments
    and reports the median and interquartile range of the trace distance to
    the truth, plus the discarded-data fraction (nonzero only for the
    postselected scheme, which keeps a single outcome).  Schemes that cannot
    run on the configured state are reported as skipped.

    Every trace distance is the one ``run_reconstruction`` gives for that
    (scheme, shots, seed) config, bit for bit, and every such config is
    built and checked, but work that the experiments share is done once.
    The truth, basis B, and each measured object's pointers, law and beta
    are built once per sweep.  Each (shots, seed) cell draws one table per
    distinct measured object, which every scheme that measures it reads:
    postselected, all_data, mixed_a and mixed_b all read the basis-A table.
    Each distinct estimator is scored once on it, so mixed_b, the mixed_a
    estimator under its b-basis name, takes mixed_a's score.  Cells are the
    unit of work of a thread pool capped by ``thread_cap()``; results are
    aggregated in a fixed order, so the table never depends on scheduling.
    When experiments fail, the sweep raises the error of the first failing
    (scheme, shots, seed index) key in sorted order.
    """
    if cfg_base.state_seed is None and cfg_base.state_spec != "explicit":
        # Every cell must score against the same true state even though the
        # sampling seed varies.
        cfg_base = replace(cfg_base, state_seed=cfg_base.seed)
    truth = _resolve_state(cfg_base)
    basis_b = _resolve_basis(cfg_base)
    skipped: dict[str, str] = {}
    jobs: dict[tuple, ExperimentConfig] = {}
    exact = cfg_base.data_mode == "exact"
    seeds = [cfg_base.seed] if exact else [cfg_base.seed + s for s in range(n_seeds)]

    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; options: {tuple(SCHEMES)}")
        if SCHEMES[scheme].measured is None:
            skipped[scheme] = "estimates one element, no state-level trace distance"
            continue
        if SCHEMES[scheme].pure and not isinstance(truth, StateVector):
            skipped[scheme] = "state is mixed"
            continue
        for shots in shot_grid:
            for s_idx, seed in enumerate(seeds):
                jobs[(scheme, int(shots), s_idx)] = replace(
                    cfg_base, scheme=scheme, shots=int(shots), seed=seed)

    # Scheme names grouped by what they measure, then by estimator; each
    # group's tables come from one source, built with its first name's config.
    groups: dict[Callable, dict[Scheme, list[str]]] = {}
    for name in sorted({key[0] for key in jobs}):
        scheme = SCHEMES[name]
        groups.setdefault(scheme.measured, {}).setdefault(scheme, []).append(name)
    cells = sorted({key[1:] for key in jobs})
    plan = []
    for by_scheme in groups.values():
        lead = next(iter(by_scheme.values()))[0]
        plan.append((lead, _attempt(_source, jobs[(lead, *cells[0])], truth, basis_b),
                     by_scheme))

    def distance(cfg, scheme, table, beta) -> float:
        return _score(cfg, scheme, truth, table, beta, basis_b)[1]["trace_distance"]

    def score_cell(cell) -> dict:
        """Trace distance, or the error raised, of every experiment in a cell."""
        out = {}
        for lead, source, by_scheme in plan:
            table = source
            if not isinstance(source, Exception):
                measured, pcfg, law, beta = source
                table = _attempt(_table, jobs[(lead, *cell)], truth, measured, basis_b,
                                 pcfg, law)
            for scheme, names in by_scheme.items():
                value = table
                if not isinstance(table, Exception):
                    value = _attempt(distance, jobs[(names[0], *cell)], scheme, table, beta)
                out.update(((name, *cell), value) for name in names)
        return out

    results: dict[tuple, float | Exception] = {}
    with ThreadPoolExecutor(max_workers=thread_cap()) as pool:
        for out in pool.map(score_cell, cells):
            results.update(out)
    for key in sorted(results):
        if isinstance(results[key], Exception):
            raise results[key]

    # Discard fraction: the postselected scheme keeps one outcome of B.
    p_kept = float(weak_value_table(truth, reference_basis(cfg_base.dim),
                                    basis_b).P[cfg_base.postselect_row])
    rows = [{"scheme": scheme, "skipped": reason} for scheme, reason in skipped.items()]
    for scheme in schemes:
        if scheme in skipped:
            continue
        for shots in shot_grid:
            values = np.array([results[(scheme, int(shots), s_idx)]
                               for s_idx in range(len(seeds))])
            q25, q50, q75 = np.percentile(values, [25.0, 50.0, 75.0])
            rows.append({
                "scheme": scheme,
                "shots": int(shots),
                "metric": "trace_distance",
                "median": float(q50),
                "iqr": float(q75 - q25),
                "discard_fraction": 1.0 - p_kept if scheme == "postselected" else 0.0,
            })
    return rows
