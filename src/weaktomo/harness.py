"""Experiment orchestration: configs, seeded runs, demos, comparisons.

A single ExperimentConfig fully determines a run: the true state, the
post-selection basis, the pointer parameters, the reconstruction scheme, and
(for sampled mode) the shot budget and seed.  Every scheme, partial
tomography included, is one ``Scheme`` row: a run builds one ``Source`` and
its law, takes its table from ``_tables``, and the scheme's reconstruct and
score steps read both.  Identical configs give bit-identical results, and no
function starts a thread.  A scheme comparison shares work across its
experiments, not results: it checks one config per shot count, builds each
source and law once, and walks source, then shot count, then batch of
seeds, drawing each batch's tables through the same ``_tables`` and scoring
each with every distinct scheme that reads it, so each experiment's score is
bit for bit the one its own run_reconstruction gives.
"""

import functools
import math
import os
import time
from collections.abc import Callable
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
    TransitionMatrix,
    fidelity,
    fourier_basis,
    random_density_matrix,
    random_pure_state,
    reference_basis,
    trace_distance,
    transition_matrix,
    _as_density,
    _check_integer,
    _complete_basis,
)
from .weakval import WeakValueTable, weak_value_table
from .pointer import (
    NoiseModel,
    PointerConfig,
    RecordStream,
    _check_readout_scales,
    _draw_cells,
    _estimate_cells,
    _law,
    sample_records,
)
from .recon import (
    DensityEstimate,
    ElementPair,
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
# A comparison draws the seeds of each (source, shots) in batches of at most
# this many cells, 2 d^2 a seed, so that its peak memory at large d stays
# near one run's: from d=65 on a batch holds one seed, at d=2 it holds 2048.
_BATCH_CELLS = 1 << 14


def thread_cap() -> int:
    """Worker-count cap: WEAKTOMO_THREADS when set, else the CPU count.  No
    other weaktomo code reads WEAKTOMO_THREADS or calls this function."""
    cpus = os.cpu_count() or 1
    raw = os.environ.get("WEAKTOMO_THREADS", "")
    try:
        limit = int(raw)
    except ValueError:
        return cpus
    return max(1, min(cpus, limit)) if limit > 0 else cpus


def _check_scheme(name) -> None:
    if name not in SCHEMES:
        raise ValueError(f"unknown scheme {name!r}; options: {tuple(SCHEMES)}")


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
        _check_integer(self.dim, "dim", 2)
        _check_scheme(self.scheme)
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
        return PointerConfig(n_pointers, g=self.pointer_g, sigma_q=self.pointer_sigma_q,
                             mean_q=self.pointer_mean_q, mean_p=self.pointer_mean_p)


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

    ``estimate`` is a StateVector, a DensityEstimate, or a complex element
    or an ElementPair for partial tomography; ``table`` holds the (exact or
    estimated) weak-value table the scheme read.  ``scheme`` is derived: the
    config's.  wall_time is informational and never serialized, keeping
    seeded outputs byte-identical.
    """

    config: ExperimentConfig
    estimate: object
    metrics: dict
    table: WeakValueTable
    kernel: object = None
    wall_time: float = 0.0

    @property
    def scheme(self) -> str:
        return self.config.scheme


@dataclass(frozen=True)
class Source:
    """What one run measures, built once and read by every step: ``measured``
    as ``weak_value_table`` takes it (basis A: d pointers; an Observable:
    one) over ``basis`` with ``pointers``, and the scheme's ``probe``: the
    post-selection row, phi, or the pair (a, b) and its route."""

    measured: object
    basis: OrthonormalBasis
    pointers: PointerConfig
    probe: object = None

    @functools.cached_property
    def beta(self) -> TransitionMatrix:
        """beta from basis A to ``basis``, built on first read, after the table:
        built before it, an exact d=256 all_data run took 5% longer (2 CPUs)."""
        return transition_matrix(reference_basis(self.basis.dim), self.basis)


def _basis_a_source(cfg: ExperimentConfig, basis_b: OrthonormalBasis) -> Source:
    return Source(reference_basis(cfg.dim), basis_b, cfg.pointer_config(cfg.dim),
                  cfg.postselect_row)


def _projector_source(cfg: ExperimentConfig, basis_b: OrthonormalBasis) -> Source:
    phi = _resolve_phi(cfg)
    return Source(Observable.projector(phi), basis_b, cfg.pointer_config(1), phi)


def _observable_source(cfg: ExperimentConfig, basis_b: OrthonormalBasis) -> Source:
    lam = np.asarray(np.arange(cfg.dim) if cfg.lambdas is None else cfg.lambdas, dtype=float)
    if lam.shape != (cfg.dim,):
        raise ValueError(f"lambdas must hold {cfg.dim} eigenvalues, got shape {lam.shape}")
    return Source(Observable.from_eigensystem(lam, reference_basis(cfg.dim)), basis_b,
                  cfg.pointer_config(1))


def _partial_source(cfg: ExperimentConfig, basis_b: OrthonormalBasis) -> Source:
    """A non-orthogonal pair weakly measures |a><a| and post-selects on b; an
    orthogonal pair weakly measures the projector onto the bridge state
    (a + b)/sqrt2 and post-selects on a and on b.  Either way the table is
    read over a basis that the post-selection vectors begin, so the pair's
    own basis takes the place of basis B.  The probe is (a, b, bridged)."""
    a, b = _resolve_partial_pair(cfg)
    bridged = abs(b.overlap(a)) <= 1e-12
    if bridged:
        measured, posts = StateVector.normalized(a.amplitudes + b.amplitudes), [a, b]
    else:
        measured, posts = a, [b]
    return Source(Observable.projector(measured), _complete_basis([p.amplitudes for p in posts]),
                  cfg.pointer_config(1), (a, b, bridged))


def _postselected(src: Source, table: WeakValueTable):
    row = src.probe
    if not table.defined[row]:
        raise MissingDataError(f"post-selection outcome {row} is undefined")
    return reconstruct_pure_postselected(table.W[row], src.beta.beta[row]), {}, None


def _all_data(src: Source, table: WeakValueTable):
    result = reconstruct_pure_all_data(table, src.beta)
    return result.merged, {"consistency": result.consistency}, None


def _single_projector(src: Source, table: WeakValueTable):
    if not table.defined.all():
        raise MissingDataError(
            f"outcomes {np.where(~table.defined)[0].tolist()} are undefined; "
            "this scheme sums over every outcome")
    return reconstruct_pure_single_projector(table.W[:, 0], src.probe, src.basis), {}, None


def _single_observable(src: Source, table: WeakValueTable):
    rows = np.where(table.defined)[0]
    if rows.size == 0:
        raise MissingDataError("every outcome is undefined")
    estimate, kernel = reconstruct_pure_single_observable(
        table.W[:, 0], src.measured, src.beta, rows=rows)
    return estimate, {"kernel_residual": kernel.smallest_eig}, kernel


def _mixed(src: Source, table: WeakValueTable):
    result = reconstruct_mixed_abasis(table, src.beta)
    return result, {"hermiticity_gap": result.hermiticity_defect}, None


def _partial(src: Source, table: WeakValueTable):
    """The element <a|rho|b>, or both orientations through the bridge."""
    a, b, bridged = src.probe
    n = 2 if bridged else 1
    if not table.defined[:n].all():
        raise MissingDataError("a post-selection outcome of the pair is undefined: "
                               "zero probability, or no sampled trial reached it")
    if n == 1:
        return estimate_element_nonorthogonal(table.W[0, 0], table.P[0], b.overlap(a)), {}, None
    pair = estimate_element_orthogonal(table.W[0, 0], table.W[1, 0], table.P[0], table.P[1])
    return pair, {"hermiticity_gap": pair.hermiticity_gap}, None


def _state_score(src: Source, estimate, truth) -> dict:
    """Fidelity and trace distance of a state estimate; a mixed estimate is
    scored by its physical projection."""
    state = estimate.physical if isinstance(estimate, DensityEstimate) else estimate
    return {"fidelity": fidelity(state, truth), "trace_distance": trace_distance(state, truth)}


def _element_score(src: Source, estimate, truth) -> dict:
    """|estimate - <a|rho|b>|, or for a pair the error of <b|rho|a>."""
    a, b, _ = src.probe
    if isinstance(estimate, ElementPair):
        a, b, estimate = b, a, estimate.element_ba
    true = complex(np.vdot(a.amplitudes, _as_density(truth) @ b.amplitudes))
    return {"element_error": abs(estimate - true)}


@dataclass(frozen=True)
class Scheme:
    """``source(cfg, basis_b)`` builds the run's Source; ``reconstruct(src,
    table)`` returns the estimate, its own metrics and the kernel diagnostics
    (or None); ``score(src, estimate, truth)`` returns the metrics against
    the truth.  ``pure``: the scheme needs a pure truth."""

    source: Callable
    reconstruct: Callable
    pure: bool
    score: Callable = _state_score


_MIXED = Scheme(_basis_a_source, _mixed, False)
SCHEMES = {
    "postselected": Scheme(_basis_a_source, _postselected, True),
    "all_data": Scheme(_basis_a_source, _all_data, True),
    "single_projector": Scheme(_projector_source, _single_projector, True),
    "single_observable": Scheme(_observable_source, _single_observable, True),
    # One estimator under its a-basis and its b-basis name.
    "mixed_a": _MIXED,
    "mixed_b": _MIXED,
    "partial": Scheme(_partial_source, _partial, False, _element_score),
}
PURE_SCHEMES = tuple(name for name, scheme in SCHEMES.items() if scheme.pure)
STATE_SCHEMES = tuple(name for name, scheme in SCHEMES.items() if scheme.score is _state_score)


def _law_of(cfg: ExperimentConfig, truth: StateVector | DensityMatrix, src: Source):
    """What the source's tables come from: the closed-form table in exact
    mode, else ``_law``'s outcome law and first-order shifts."""
    if cfg.data_mode == "exact":
        return weak_value_table(truth, src.measured, src.basis)
    return _law(truth, src.measured, src.basis, src.pointers)


def _tables(cfg: ExperimentConfig, src: Source, law, seeds) -> list[WeakValueTable]:
    """The source's table for each seed, from ``_law_of``'s ``law``: the exact
    table itself in exact mode, else estimated from ``cfg.shots`` sampled
    trials of the seed, the seeds drawn in one batch."""
    if cfg.data_mode == "exact":
        return [law] * len(seeds)
    return _estimate_cells(_draw_cells(*law, src.pointers, cfg.shots, seeds, _resolve_noise(cfg)),
                           src.pointers)


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
    schemes, d x 1 for the one-pointer ones, partial included); sampled mode
    gives the pointer records of ``cfg.shots`` trials.  A pure-state scheme
    on a mixed truth, which it could not read, raises SchemeInapplicableError.
    """
    truth = _resolve_truth(cfg)
    src = SCHEMES[cfg.scheme].source(cfg, _resolve_basis(cfg))
    if cfg.data_mode == "exact":
        return weak_value_table(truth, src.measured, src.basis)
    return sample_records(truth, src.measured, src.basis, src.pointers, cfg.shots, cfg.seed,
                          _resolve_noise(cfg))


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
    records route.  A provided ``table`` (d x d for basis-A schemes, d x 1
    for the one-pointer ones, partial included) bypasses data generation.
    Metrics include fidelity and trace distance for state schemes and the
    element error for partial tomography.  Every scheme is scored against the
    truth as it was resolved, so a mixed estimate of a pure truth gets the
    fidelity <psi|rho|psi>.
    """
    t0 = time.perf_counter()
    truth = _resolve_truth(cfg)
    src = SCHEMES[cfg.scheme].source(cfg, _resolve_basis(cfg))
    if table is None:
        table = _tables(cfg, src, _law_of(cfg, truth, src), [cfg.seed])[0]
    elif (table.dim, table.n_pointers) != (cfg.dim, src.pointers.n_pointers):
        raise SchemeInapplicableError(
            f"scheme {cfg.scheme!r} consumes a {cfg.dim} x {src.pointers.n_pointers} table, "
            f"got {table.dim} x {table.n_pointers}")
    estimate, metrics, kernel = _score(SCHEMES[cfg.scheme], truth, src, table)
    return ResultBundle(config=cfg, estimate=estimate, metrics=metrics, table=table,
                        kernel=kernel, wall_time=time.perf_counter() - t0)


def _score(scheme: Scheme, truth: StateVector | DensityMatrix, src: Source,
           table: WeakValueTable):
    """Reconstruct with ``scheme`` from ``table`` and score the estimate
    against ``truth``: the estimate, its finite metrics (the scheme's own and
    its score step's) and the kernel diagnostics or None.  A non-finite
    metric raises ValueError."""
    estimate, metrics, kernel = scheme.reconstruct(src, table)
    metrics.update(scheme.score(src, estimate, truth))
    for key, value in metrics.items():
        if not np.isfinite(value):
            raise ValueError(f"metric {key} is not finite: {value}")
    return estimate, {k: float(v) for k, v in metrics.items()}, kernel


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
    exact Im W relation.  A theta outside (0, pi], a g or sigma_p that is
    not positive and finite, or a negative shots raises PreconditionError;
    a shots that is no integer raises ValueError; a reported number that
    leaves the float range raises ArithmeticError.
    """
    _check_integer(shots, "shots")
    if not 0.0 < theta <= math.pi:
        raise PreconditionError("theta must lie in (0, pi]")
    if not (0.0 < g < math.inf and 0.0 < sigma_p < math.inf) or shots < 0:
        raise PreconditionError("g and sigma_p must be positive and finite, and shots >= 0")
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
    reported = (w.real, w.imag, dq, dp_shift, leading, post_prob, predicted_rel,
                0.0 if theta_estimate is None else theta_estimate)
    if not all(map(math.isfinite, reported)):
        raise ArithmeticError("the phase demo's numbers leave the float range")

    return PhaseDemoReport(
        theta=theta, g=g, sigma_p=sigma_p, shots=shots, seed=seed,
        weak_value=w, dq=dq, dp_shift=dp_shift, leading_order_dp=leading,
        post_prob=post_prob, retained=retained, theta_estimate=theta_estimate,
        predicted_rel_error=predicted_rel, low_signal_warning=warning,
    )


def _attempt(fn, *args):
    """``fn(*args)``, or the exception it raised, held so that a sweep raises
    its experiments' errors in their sorted order, not in the order they ran.
    An exception held in ``args`` by an earlier step is returned as it is."""
    for arg in args:
        if isinstance(arg, Exception):
            return arg
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def compare_schemes(cfg_base: ExperimentConfig, schemes, shot_grid,
                    n_seeds: int = 20) -> list[dict]:
    """Score several schemes across a shot grid with a common true state.

    Each (scheme, shots) row runs n_seeds independently seeded experiments
    and reports the median and interquartile range of the trace distance to
    the truth, plus the discarded-data fraction (nonzero only for the
    postselected scheme, which keeps a single outcome).  Schemes that cannot
    run on the configured state, and partial tomography, which is scored by
    its element error and has no trace distance, are reported as skipped.
    An empty scheme list or shot grid, an n_seeds below 1, a shot count that
    the config refuses, and a repeated scheme or shot count raise ValueError
    before any experiment runs.

    Every trace distance is the one ``run_reconstruction`` gives for that
    (scheme, shots, seed) config, bit for bit: both take their tables from
    ``_tables`` and score them with ``_score``.  Work that the experiments
    share is done once.  Each shot count's config is built by ``replace``,
    with every check, and the seeds are ``cfg_base.seed`` plus 0 to
    n_seeds - 1.  The truth, basis B, and each distinct source and its law
    are built once per sweep, and the discard fraction is read off the
    basis-A source's law.  The sweep walks source, then shot count, then
    batch of at most ``_BATCH_CELLS`` cells, drawn by one ``_tables`` call;
    each distinct ``Scheme`` built on the source scores each table once, in
    the calling thread.  So postselected, all_data, mixed_a and mixed_b read
    one basis-A table a seed, and mixed_b, the mixed_a estimator under its
    b-basis name, takes mixed_a's score.  An error that a source, its law or
    a batch raises goes to every experiment that reads it.  When experiments
    fail, the sweep raises the error of the first failing (scheme, shots,
    seed index) key in sorted order.
    """
    schemes, shot_grid = list(schemes), list(shot_grid)
    _check_integer(n_seeds, "n_seeds", 1)
    for scheme in schemes:
        _check_scheme(scheme)
    for name, values in (("schemes", schemes), ("shot counts", shot_grid)):
        if not values:
            raise ValueError(f"no {name} to compare")
    if cfg_base.state_seed is None and cfg_base.state_spec != "explicit":
        # Every cell scores against one true state; only the sampling seed varies.
        cfg_base = replace(cfg_base, state_seed=cfg_base.seed)
    per_shots = [replace(cfg_base, shots=shots) for shots in shot_grid]
    for name, values in (("schemes", schemes), ("shot counts", [int(c.shots) for c in per_shots])):
        repeated = list(dict.fromkeys(v for v in values if values.count(v) > 1))
        if repeated:
            raise ValueError(f"repeated {name}: {repeated}")
    truth = _resolve_state(cfg_base)
    basis_b = _resolve_basis(cfg_base)
    exact = cfg_base.data_mode == "exact"
    seeds = [cfg_base.seed] if exact else [int(cfg_base.seed) + s for s in range(n_seeds)]

    # Scheme names by source builder, then by estimator.
    skipped: dict[str, str] = {}
    groups: dict[Callable, dict[Scheme, list[str]]] = {}
    for name in schemes:
        scheme = SCHEMES[name]
        if name not in STATE_SCHEMES:
            skipped[name] = "estimates one element, no state-level trace distance"
        elif scheme.pure and not isinstance(truth, StateVector):
            skipped[name] = "state is mixed"
        else:
            groups.setdefault(scheme.source, {}).setdefault(scheme, []).append(name)

    # Trace distance, or the error held, of every (scheme, shots, seed index).
    per_batch = max(1, _BATCH_CELLS // (2 * cfg_base.dim**2))
    results: dict[tuple, float | Exception] = {}
    laws = {}
    for builder, by_scheme in groups.items():
        src = _attempt(builder, cfg_base, basis_b)
        laws[builder] = law = _attempt(_law_of, cfg_base, truth, src)
        for cfg in per_shots:
            for start in range(0, len(seeds), per_batch):
                batch = seeds[start:start + per_batch]
                tables = _attempt(_tables, cfg, src, law, batch)
                if isinstance(tables, Exception):
                    tables = [tables] * len(batch)
                for s_idx, table in enumerate(tables, start):
                    for scheme, names in by_scheme.items():
                        value = _attempt(_score, scheme, truth, src, table)
                        if not isinstance(value, Exception):
                            value = value[1]["trace_distance"]
                        results.update(((name, int(cfg.shots), s_idx), value) for name in names)
    for key in sorted(results):
        if isinstance(results[key], Exception):
            raise results[key]

    # Discard fraction: the postselected scheme keeps one outcome of B, whose
    # probability the basis-A law holds (the exact table, or P, dq and dp).
    law = laws.get(SCHEMES["postselected"].source)
    p_kept = None if law is None else float((law.P if exact else law[0])[cfg_base.postselect_row])
    rows = [{"scheme": scheme, "skipped": reason} for scheme, reason in skipped.items()]
    for scheme in schemes:
        if scheme in skipped:
            continue
        for shots in shot_grid:
            values = np.array([results[(scheme, int(shots), s_idx)]
                               for s_idx in range(len(seeds))])
            q25, q50, q75 = np.percentile(values, [25.0, 50.0, 75.0])
            rows.append({"scheme": scheme, "shots": int(shots), "metric": "trace_distance",
                         "median": float(q50), "iqr": float(q75 - q25),
                         "discard_fraction": 1.0 - p_kept if scheme == "postselected" else 0.0})
    return rows
