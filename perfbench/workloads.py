"""The benchmark's four workloads.

Each workload makes the inputs of its operations from the run's seed, runs
one operation at a time (a closed loop with one client) and checks every
operation's outputs against ``reference``, outside the timed region.  A
workload also has a traced form of its operation: the same calls inside
spans, followed by the public functions of each layer called one by one on
the same inputs, so each layer's time is measured from outside.

Import this module only after ``run.py`` has pinned the thread counts and
put the checkout's ``src`` on the path.
"""

import hashlib
import json
import os
import shutil
import tempfile
import zlib
from contextlib import contextmanager

import numpy as np

import weaktomo as wt
import weaktomo.cli
from weaktomo import serialize

import reference as ref

# A W entry or P_j may sit this many model standard errors from the closed
# form.  A run checks about 1e4 of them, so a Gaussian error reaches 7 about
# once in 1e8 runs; an estimator that is wrong reaches it at once.
K_SIGMA = 7.0
# The mean of z^2 over all Re W (or all Im W) entries may reach the upper
# quantile of chi^2_N / N at this many normal standard deviations (about
# 1e-9 one-sided).  It catches a systematic error of a fraction of a standard
# error in every entry: at sampled_table's sizes, Im W halved gives a mean
# z^2 of Im W of at least 2.7 over 30 seeded states, against a limit of 2.46.
CHI2_Z = 6.0
# Trace-distance bound c d / (g sqrt(shots)).  Over 1500 seeded runs at d in
# {2, 4, 8}, g in {0.05, 0.1, 0.2} the largest c seen was 2.0.
TD_C = 4.0
# Exact mode: tolerance of the table, the sum rules and the estimates.
EXACT_TOL = 1e-9
# Metrics the program reports must equal the benchmark's own values this closely.
METRIC_TOL = 1e-9
# compare_sweep: the 1e4-shot median over the 1e5-shot median lies in
# [sqrt(10) / RATIO_SPAN, sqrt(10) * RATIO_SPAN] = [1.05, 9.5], which leaves
# out both no convergence (1) and convergence as 1/shots (10).  Over 200
# seeded operations the log of the ratio had a standard deviation of at most
# 0.25, so the window's edges are more than 4 of them away.
RATIO_SPAN = 3.0
# Post-selection probabilities of the generated states are at least
# P_FLOOR / d, so that no outcome goes without records at the smallest shot
# count (a run of the program then fails, correctly, with MissingDataError).
P_FLOOR = 0.2

TABLE_SCHEMES = ("postselected", "all_data", "mixed_a", "mixed_b")
PURE_SCHEMES = ("postselected", "all_data")

# Span names whose time run_reconstruction spends in other layers; the rest
# of a harness.run span is harness self time.
HARNESS_CHILDREN = ("qcore.state_check", "qcore.basis_check", "weakval.table",
                    "pointer.sample", "pointer.estimate", "recon.reconstruct",
                    "qcore.fidelity", "qcore.trace_distance")


class Workload:
    """One workload: its sizes, inputs, operation, checks and traced operation."""

    name = ""
    # Operations in a run, untraced and traced; a smoke run holds two.
    ops = 10
    traced_ops = 5
    # setup_s is the median over this many fresh processes: the run's own
    # and setup_processes - 1 helpers that only set up.
    setup_processes = 3
    sizes: dict = {}
    smoke_sizes: dict = {}

    def __init__(self, seed: int, smoke: bool = False, scratch: str = "."):
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        for key, value in (self.smoke_sizes if smoke else self.sizes).items():
            setattr(self, key, value)

    def n_ops(self, trace: bool) -> int:
        if self.smoke:
            return 2
        return self.traced_ops if trace else self.ops

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(self.name.encode()), index])

    def inputs(self, index: int) -> dict:
        raise NotImplementedError

    def prepare(self, x: dict) -> None:
        """Untimed work before the operation, such as writing input files."""

    def cleanup(self, x: dict) -> None:
        """Untimed work after the checks."""

    def op(self, x: dict):
        raise NotImplementedError

    def check(self, x: dict, out) -> list[str]:
        raise NotImplementedError

    def traced_op(self, tr, x: dict) -> tuple[object, dict]:
        raise NotImplementedError


def _state_with_floor(rng, d: int, B: np.ndarray, make) -> np.ndarray:
    """Draw states from ``make`` until every P_j is at least P_FLOOR / d."""
    while True:
        state = make(rng, d)
        if ref.outcome_probabilities(ref.density(state), B).min() >= P_FLOOR / d:
            return state


def _config(scheme: str, state: np.ndarray, B: np.ndarray, **kwargs) -> wt.ExperimentConfig:
    return wt.ExperimentConfig(dim=B.shape[0], scheme=scheme, state_spec="explicit",
                               state=state, basis_spec="explicit", basis_b=B, **kwargs)


def _check_sampled(W: np.ndarray, P: np.ndarray, estimate: np.ndarray, rho: np.ndarray,
                   B: np.ndarray, shots: int, g: float, reported_td: float) -> list[str]:
    """Checks of a sampled mixed_a estimate against the closed form."""
    errors = []
    d = B.shape[0]
    W_ref, P_ref = ref.weak_value_table(rho, B)
    se_re, se_im = ref.model_stderr(P_ref, shots, g)
    z_re = np.abs(W.real - W_ref.real) / se_re[:, None]
    z_im = np.abs(W.imag - W_ref.imag) / se_im[:, None]
    if max(z_re.max(), z_im.max()) > K_SIGMA:
        errors.append(f"W is {max(z_re.max(), z_im.max()):.2f} standard errors "
                      f"from the closed form (limit {K_SIGMA})")
    for part, z in (("Re W", z_re), ("Im W", z_im)):
        mean_z2, limit = float(np.mean(z**2)), ref.chi2_mean_bound(z.size, CHI2_Z)
        if mean_z2 > limit:
            errors.append(f"{part}: mean z^2 over its {z.size} entries is {mean_z2:.3f} "
                          f"(limit {limit:.3f})")
    gap = np.abs(P - P_ref) - ref.binomial_halfwidth(P_ref, shots, K_SIGMA)
    if gap.max() > 0:
        errors.append(f"P_j leaves its binomial bounds at j={int(gap.argmax())}")
    td = ref.trace_distance(estimate, rho)
    bound = ref.trace_distance_bound(d, g, shots, TD_C)
    if td > bound:
        errors.append(f"trace distance {td:.4f} above the bound {bound:.4f}")
    if abs(td - reported_td) > METRIC_TOL:
        errors.append(f"reported trace distance {reported_td} differs from {td}")
    return errors


def _harness_layers(tr, cfg: wt.ExperimentConfig, state: np.ndarray, B: np.ndarray,
                    acc: dict, table=None) -> None:
    """Call one by one, in a harness.layers span, the layer functions that
    run_reconstruction(cfg) calls for a table scheme, and take their time
    off harness.self_s."""
    with tr.span("harness.layers"):
        since = len(tr.spans)
        _layer_calls(tr, cfg, state, B, acc, table)
    totals = tr.totals(since)
    acc["harness.self_s"] -= sum(totals.get(name, 0.0) for name in HARNESS_CHILDREN)


def _layer_calls(tr, cfg, state, B, acc, table) -> None:
    d = cfg.dim
    pure = cfg.scheme in PURE_SCHEMES
    with tr.span("qcore.state_check"):
        if state.ndim == 1:
            psi = wt.StateVector(state)
            rho = psi.projector()
        else:
            psi, rho = None, wt.DensityMatrix(state)
    with tr.span("qcore.basis_check"):
        basis_a = wt.reference_basis(d)
        basis_b = wt.OrthonormalBasis(B)
        beta = wt.transition_matrix(basis_a, basis_b)
    if table is None and cfg.data_mode == "sampled":
        pcfg = wt.PointerConfig.uniform(d, g=cfg.pointer_g)
        with tr.span("pointer.sample"):
            records = wt.sample_records(rho, basis_a, basis_b, pcfg, cfg.shots, cfg.seed)
        acc["pointer.records"] += len(records)
        acc["pointer.record_mb"] += _record_mb(records)
        with tr.span("pointer.estimate"):
            table = wt.estimate_weak_values(records, pcfg, d)
        del records
    elif table is None:
        with tr.span("weakval.table"):
            table = wt.weak_value_table(rho, basis_a, basis_b)
    with tr.span("recon.reconstruct"):
        if cfg.scheme == "postselected":
            row = cfg.postselect_row
            estimate = wt.reconstruct_pure_postselected(table.W[row], beta.beta[row])
        elif cfg.scheme == "all_data":
            estimate = wt.reconstruct_pure_all_data(table, beta).merged
        elif cfg.scheme == "mixed_a":
            result = wt.reconstruct_mixed_abasis(table, beta)
        else:
            result = wt.reconstruct_mixed_bbasis(table, beta)
    if not pure:
        with tr.span("recon.project"):
            wt.project_to_physical(result.raw)
        acc["recon.negative_raw"] += int(result.min_eig_raw < 0)
        estimate = result.physical
    truth = psi if pure else rho
    with tr.span("qcore.fidelity"):
        wt.fidelity(estimate, truth)
    with tr.span("qcore.trace_distance"):
        wt.trace_distance(estimate, truth)


def _record_mb(records) -> float:
    """Size of a RecordStream's column arrays, computed from their nbytes."""
    return sum(getattr(records, col).nbytes for col in (
        "trial", "outcome", "pointer", "quadrature", "readout")) / 1e6


def _run_in_span(tr, cfg, acc, table=None):
    """run_reconstruction in a harness.run span; its time counts toward
    harness.self_s until _harness_layers takes the layer calls off."""
    with tr.span("harness.run") as span:
        bundle = wt.run_reconstruction(cfg, table=table)
    acc["harness.self_s"] += span["end"] - span["start"]
    acc["harness.experiments"] += 1
    return bundle


class ExactLargeD(Workload):
    name = "exact_large_d"
    ops = 7
    traced_ops = 3
    sizes = {"d": 512}
    smoke_sizes = {"d": 16}

    def inputs(self, index):
        rng = self.rng(index)
        B = ref.fourier_basis(self.d)
        return {"psi": ref.haar_pure(rng, self.d), "rho": ref.ginibre(rng, self.d), "B": B}

    def _configs(self, x):
        return [("all_data", x["psi"]), ("mixed_a", x["rho"]), ("mixed_b", x["rho"])]

    def op(self, x):
        return [wt.run_reconstruction(_config(scheme, state, x["B"]))
                for scheme, state in self._configs(x)]

    def check(self, x, out):
        errors = []
        for (scheme, state), bundle in zip(self._configs(x), out):
            rho = ref.density(state)
            W_ref, P_ref = ref.weak_value_table(rho, x["B"])
            table = bundle.table
            dev = max(np.abs(table.W - W_ref).max(), np.abs(table.P - P_ref).max())
            if dev > EXACT_TOL:
                errors.append(f"{scheme}: table is {dev:.2e} from the closed form")
            dev = ref.sum_rule_deviation(table.W, table.P, rho)
            if dev > EXACT_TOL:
                errors.append(f"{scheme}: sum rules fail by {dev:.2e}")
            if scheme == "all_data":
                infidelity = 1.0 - ref.fidelity(state, bundle.estimate.amplitudes)
                if infidelity > EXACT_TOL:
                    errors.append(f"all_data: 1 - |<psi|psi_hat>|^2 = {infidelity:.2e}")
                if abs(bundle.metrics["fidelity"] - (1.0 - infidelity)) > METRIC_TOL:
                    errors.append("all_data: reported fidelity differs from |<psi|psi_hat>|^2")
            else:
                dist = np.linalg.norm(bundle.estimate.physical.elements - rho)
                if dist > EXACT_TOL:
                    errors.append(f"{scheme}: Frobenius distance to rho is {dist:.2e}")
        return errors

    def traced_op(self, tr, x):
        acc = _counters()
        cfgs = [(_config(scheme, state, x["B"]), state) for scheme, state in self._configs(x)]
        with tr.span("op"):
            out = [_run_in_span(tr, cfg, acc) for cfg, _ in cfgs]
        with tr.span("layers"):
            for cfg, state in cfgs:
                _harness_layers(tr, cfg, state, x["B"], acc)
        return out, acc


class SampledTable(Workload):
    name = "sampled_table"
    ops = 40
    traced_ops = 14
    sizes = {"d": 8, "shots": 10**6, "g": 0.2}
    smoke_sizes = {"d": 4, "shots": 20_000, "g": 0.2}

    def inputs(self, index):
        rng = self.rng(index)
        B = ref.fourier_basis(self.d)
        rho = _state_with_floor(rng, self.d, B, ref.ginibre)
        return {"rho": rho, "B": B, "seed": int(rng.integers(2**31))}

    def _config(self, x):
        return _config("mixed_a", x["rho"], x["B"], data_mode="sampled",
                       shots=self.shots, seed=x["seed"], pointer_g=self.g)

    def op(self, x):
        return wt.run_reconstruction(self._config(x))

    def check(self, x, out):
        return _check_sampled(out.table.W, out.table.P, out.estimate.physical.elements,
                              x["rho"], x["B"], self.shots, self.g,
                              out.metrics["trace_distance"])

    def traced_op(self, tr, x):
        acc = _counters()
        cfg = self._config(x)
        with tr.span("op"):
            out = _run_in_span(tr, cfg, acc)
        with tr.span("layers"):
            _harness_layers(tr, cfg, x["rho"], x["B"], acc)
        return out, acc


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_records_csv(path: str, rows: int) -> dict:
    """The benchmark's own parser of a records CSV that should hold ``rows``
    rows.  It reads about 64 KB at a time into preallocated arrays, so that
    its memory stays far below the program's own and does not set the run's
    peak_rss_mb.  Quadrature reads 0 for q and 1 for p."""
    cols = {"trial": np.empty(rows, np.int64), "outcome": np.empty(rows, np.int64),
            "pointer": np.empty(rows, np.int64), "quadrature": np.empty(rows, np.uint8),
            "readout": np.empty(rows, np.float64)}
    done = 0
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != "trial,outcome_j,pointer,quadrature,readout":
            raise ValueError(f"unexpected header {header!r}")
        while lines := fh.readlines(1 << 16):
            fields = ",".join(line.rstrip("\n") for line in lines).split(",")
            n = len(fields) // 5
            if len(fields) % 5 or done + n > rows:
                raise ValueError(f"the records do not make {rows} rows of 5 fields")
            part = slice(done, done + n)
            for k, name in enumerate(("trial", "outcome", "pointer")):
                cols[name][part] = np.array(fields[k::5], dtype=np.int64)
            quad = np.array(fields[3::5])
            if not np.all((quad == "q") | (quad == "p")):
                raise ValueError("a quadrature is neither q nor p")
            cols["quadrature"][part] = quad == "p"
            cols["readout"][part] = np.array(fields[4::5], dtype=np.float64)
            done += n
    if done != rows:
        raise ValueError(f"the records CSV has {done} rows, not {rows}")
    return cols


class CliRecords(Workload):
    name = "cli_records"
    # Even, so that every operation has its same-seed twin.
    ops = 70
    traced_ops = 34
    # Set-up is short here (import plus a 0.35 s warm-up), so import-time
    # noise needs more processes to average out.
    setup_processes = 7
    sizes = {"d": 4, "shots": 20_000, "g": 0.2}
    smoke_sizes = {"d": 2, "shots": 4_000, "g": 0.2}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.digests: dict[int, tuple[str, str]] = {}

    def inputs(self, index):
        # Operations 2k and 2k+1 get the same inputs, so that every other
        # operation checks that its files repeat byte for byte.
        pair = index // 2
        rng = self.rng(pair)
        B = ref.fourier_basis(self.d)
        rho = _state_with_floor(rng, self.d, B, ref.ginibre)
        return {"pair": pair, "rho": rho, "B": B, "seed": int(rng.integers(2**31))}

    def prepare(self, x):
        x["dir"] = tempfile.mkdtemp(prefix="cli-", dir=self.scratch)
        x["config"] = os.path.join(x["dir"], "config.json")
        x["csv"] = os.path.join(x["dir"], "records.csv")
        x["bundle"] = os.path.join(x["dir"], "bundle.json")
        rho, B = x["rho"], x["B"]
        config = {"dim": self.d, "scheme": "mixed_a", "pointer_g": self.g,
                  "state_spec": "explicit",
                  "state": {"dim": self.d, "re": rho.real.ravel().tolist(),
                            "im": rho.imag.ravel().tolist()},
                  "basis_spec": "explicit",
                  "basis_b": {"dim": self.d, "re": B.real.ravel().tolist(),
                              "im": B.imag.ravel().tolist()}}
        with open(x["config"], "w") as fh:
            json.dump(config, fh)

    def cleanup(self, x):
        shutil.rmtree(x["dir"], ignore_errors=True)

    def _argv(self, x, command, *extra):
        return [command, "--config", x["config"], "--sampled", "--shots", str(self.shots),
                "--seed", str(x["seed"]), "--quiet", *extra]

    def _simulate(self, x):
        return wt.cli.main(self._argv(x, "simulate", "--out", x["csv"]))

    def _reconstruct(self, x):
        return wt.cli.main(self._argv(x, "reconstruct", "--records", x["csv"],
                                      "--out", x["bundle"]))

    def op(self, x):
        return self._simulate(x), self._reconstruct(x)

    def check(self, x, out):
        if out != (0, 0):
            return [f"CLI exit codes {out}"]
        errors = []
        d, shots = self.d, self.shots
        try:
            rec = read_records_csv(x["csv"], shots * d)
        except ValueError as e:
            return [f"records CSV: {e}"]
        with open(x["bundle"]) as fh:
            bundle = json.load(fh)
        trials = np.arange(shots)
        if not np.array_equal(rec["trial"], np.repeat(trials, d)):
            errors.append("trial column is not each trial repeated d times")
        if not np.array_equal(rec["pointer"], np.tile(np.arange(d), shots)):
            errors.append("pointer column is not 0..d-1 tiled per trial")
        if not np.array_equal(rec["quadrature"], np.repeat(trials % 2, d)):
            errors.append("quadrature is not q on even trials and p on odd ones")
        outcome = rec["outcome"].reshape(shots, d)
        if outcome.min() < 0 or outcome.max() >= d or np.any(outcome != outcome[:, :1]):
            errors.append("outcomes leave [0, d) or change within a trial")
        if errors:
            return errors

        # The bundle's table must be the estimate of these very records.
        table = bundle["table"]
        W = np.array(table["W_re"]) + 1j * np.array(table["W_im"])
        P = np.array(table["P"])
        j = outcome[:, 0]
        quad = (trials % 2)[:, None]
        cells = (np.repeat(j[:, None], d, 1) * d + np.arange(d)) * 2 + quad
        readout = rec["readout"].reshape(shots, d)
        counts = np.bincount(cells.ravel(), minlength=2 * d * d).reshape(d, d, 2)
        means = np.bincount(cells.ravel(), weights=readout.ravel(),
                            minlength=2 * d * d).reshape(d, d, 2) / counts
        sigma_p = 0.5
        W_own = means[:, :, 0] / self.g + 1j * means[:, :, 1] / (2 * self.g * sigma_p**2)
        P_own = np.bincount(j, minlength=d) / shots
        if max(np.abs(W - W_own).max(), np.abs(P - P_own).max()) > METRIC_TOL:
            errors.append("bundle table is not the estimate of the records CSV")

        est = bundle["estimate"]["physical"]
        physical = (np.array(est["re"]) + 1j * np.array(est["im"])).reshape(d, d)
        errors += _check_sampled(W, P, physical, x["rho"], x["B"], shots, self.g,
                                 bundle["metrics"]["trace_distance"])

        digests = (_sha(x["csv"]), _sha(x["bundle"]))
        first = self.digests.setdefault(x["pair"], digests)
        if digests != first:
            errors.append("same seed, different CSV or bundle bytes")
        return errors

    def traced_op(self, tr, x):
        acc = _counters()
        cfg = _config("mixed_a", x["rho"], x["B"], data_mode="sampled",
                      shots=self.shots, seed=x["seed"], pointer_g=self.g)
        with tr.span("op"):
            with tr.span("cli.simulate") as sim:
                code_sim = self._simulate(x)
            with tr.span("cli.reconstruct") as rec:
                code_rec = self._reconstruct(x)
        cli_s = sim["end"] - sim["start"] + rec["end"] - rec["start"]
        with tr.span("layers") as layers:
            with tr.span("qcore.state_check"):
                rho = wt.DensityMatrix(x["rho"])
            with tr.span("qcore.basis_check"):
                basis_a = wt.reference_basis(self.d)
                basis_b = wt.OrthonormalBasis(x["B"])
            pcfg = wt.PointerConfig.uniform(self.d, g=self.g)
            with tr.span("pointer.sample"):
                records = wt.sample_records(rho, basis_a, basis_b, pcfg, self.shots, x["seed"])
            acc["pointer.records"] += len(records)
            acc["pointer.record_mb"] += _record_mb(records)
            with tr.span("pointer.to_csv"):
                text = records.to_csv()
            acc["pointer.csv_mb"] += len(text) / 1e6
            with tr.span("pointer.from_csv"):
                records = wt.RecordStream.from_csv(text)
            with tr.span("pointer.estimate"):
                table = wt.estimate_weak_values(records, pcfg, self.d)
            bundle = _run_in_span(tr, cfg, acc, table=table)
            _harness_layers(tr, cfg, x["rho"], x["B"], acc, table=table)
            with tr.span("serialize.bundle_json"):
                payload = serialize.dumps(serialize.bundle_to_json(bundle))
            acc["serialize.bundle_mb"] += len(payload) / 1e6
        # CLI self time: the two commands minus the layer calls they make.
        acc["cli.self_s"] += cli_s - sum(
            s["end"] - s["start"] for s in tr.spans
            if s["parent"] == layers["id"] and s["name"] != "harness.layers")
        return (code_sim, code_rec), acc


@contextmanager
def _threads(n: int):
    old = os.environ.get("WEAKTOMO_THREADS")
    os.environ["WEAKTOMO_THREADS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["WEAKTOMO_THREADS"]
        else:
            os.environ["WEAKTOMO_THREADS"] = old


class CompareSweep(Workload):
    name = "compare_sweep"
    ops = 13
    traced_ops = 7
    sizes = {"grid": (10_000, 100_000), "seeds": 20, "g": 0.05}
    smoke_sizes = {"grid": (10_000, 100_000), "seeds": 4, "g": 0.05}
    d = 2

    def inputs(self, index):
        rng = self.rng(index)
        B = ref.fourier_basis(self.d)
        psi = _state_with_floor(rng, self.d, B, ref.haar_pure)
        return {"psi": psi, "B": B, "seed": int(rng.integers(1, 2**31 - 1000))}

    def _base(self, x):
        return _config("all_data", x["psi"], x["B"], data_mode="sampled",
                       shots=self.grid[0], seed=x["seed"], pointer_g=self.g)

    def op(self, x):
        return wt.compare_schemes(self._base(x), TABLE_SCHEMES, self.grid, n_seeds=self.seeds)

    def check(self, x, out):
        errors = []
        rows = {(r["scheme"], r.get("shots")): r for r in out}
        if len(rows) != len(out) or len(out) != len(TABLE_SCHEMES) * len(self.grid):
            return [f"expected one row per scheme and shot count, got {len(out)} rows"]
        kept = ref.outcome_probabilities(ref.projector(x["psi"]), x["B"])[0]
        lo, hi = self.grid
        for scheme in TABLE_SCHEMES:
            cells = [rows.get((scheme, shots)) for shots in self.grid]
            if any(cell is None or "skipped" in cell for cell in cells):
                errors.append(f"{scheme}: a cell is missing or skipped")
                continue
            want = 1.0 - kept if scheme == "postselected" else 0.0
            for cell in cells:
                if abs(cell["discard_fraction"] - want) > 1e-12:
                    errors.append(f"{scheme}: discard fraction {cell['discard_fraction']} "
                                  f"is not {want}")
                if not 0.0 < cell["median"] <= 1.0:
                    errors.append(f"{scheme}: median {cell['median']} outside (0, 1]")
            ratio = rows[(scheme, lo)]["median"] / rows[(scheme, hi)]["median"]
            centre = np.sqrt(hi / lo)
            if not centre / RATIO_SPAN <= ratio <= centre * RATIO_SPAN:
                errors.append(f"{scheme}: median ratio {ratio:.3f} outside "
                              f"[{centre / RATIO_SPAN:.3f}, {centre * RATIO_SPAN:.3f}]")
        return errors

    def traced_op(self, tr, x):
        acc = _counters()
        with tr.span("op"), tr.span("harness.compare") as par:
            out = self.op(x)
        with tr.span("layers"):
            with _threads(1), tr.span("harness.compare_serial") as ser:
                self.op(x)
            for scheme in TABLE_SCHEMES:
                for shots in self.grid:
                    cfg = _config(scheme, x["psi"], x["B"], data_mode="sampled",
                                  shots=shots, seed=x["seed"], pointer_g=self.g)
                    _run_in_span(tr, cfg, acc)
                    _harness_layers(tr, cfg, x["psi"], x["B"], acc)
        acc["harness.experiments"] = sum(1 for r in out if "skipped" not in r) * self.seeds
        workers = wt.thread_cap()
        acc["harness.parallel_eff"] = ((ser["end"] - ser["start"])
                                       / ((par["end"] - par["start"]) * workers))
        return out, acc


WORKLOADS = {cls.name: cls for cls in (ExactLargeD, SampledTable, CliRecords, CompareSweep)}

# Spans whose per-operation summed duration is a per-layer time metric,
# named "<span>_s"; a layer a workload does not call reads 0.  COUNTERS are
# the other per-layer metrics, which the traced operations count themselves.
# BENCHMARK.json gives every metric's unit.
LAYER_SPANS = (
    "qcore.state_check", "qcore.basis_check", "qcore.fidelity", "qcore.trace_distance",
    "weakval.table", "pointer.sample", "pointer.estimate", "pointer.to_csv",
    "pointer.from_csv", "recon.reconstruct", "recon.project", "harness.run",
    "harness.compare", "harness.compare_serial", "serialize.bundle_json",
    "cli.simulate", "cli.reconstruct",
)
COUNTERS = (
    "pointer.records", "pointer.record_mb", "pointer.csv_mb", "recon.negative_raw",
    "harness.self_s", "harness.experiments", "harness.parallel_eff",
    "serialize.bundle_mb", "cli.self_s",
)


def _counters() -> dict:
    return {name: 0 for name in COUNTERS}
