"""Gaussian pointer model: first-order shifts, the exact law, sampling.

Units use hbar = 1 throughout.  A weak measurement couples observable A_i to
the momentum p_i of pointer i via U = exp(-i g sum_i A_i x p_i), and reads
out either pointer position or momentum.  The pointers are identical: one
coupling g and one minimum-uncertainty Gaussian (``PointerConfig``) serve
every pointer.  To first order in g the conditional readout means shift by

    dq_i = g Re W_i      and      dp_i = 2 g Im W_i (Delta p)^2,

with W_i the weak value of A_i for the post-selected outcome.  Every coupling here
goes through orthogonal spectral projectors, so the post-selected pointer
state is a finite superposition of displaced Gaussians: ``exact_law`` gives
its outcome probabilities and conditional means in closed form at any
coupling and any dimension, against which the first-order model is checked.

Shot sampling draws from one law: the exact weak-value table of what is
weakly measured (the d projectors of a basis, one pointer each, or a single
observable on one pointer) shifted by ``table_shifts``.  Even trials read
positions, odd trials momenta; each trial draws one outcome and one
Gaussian readout per pointer.  ``sample_records`` draws the trials themselves,
block by block, each block from its own (seed, block) RNG, into a
``RecordStream`` with one row per pointer readout, which is what
``weaktomo simulate --sampled`` writes.  Estimation reads only per-cell
count, sum and sum of squares, one cell per (outcome, pointer, quadrature).
So an in-memory sampled run never draws trials: it draws those sufficient
statistics directly from their joint law, in O(d * n_pointers) time and
memory whatever the number of shots.  That draw has the law of reducing
sampled records, not their bits; estimating from records reduces the rows
to the same cells and feeds them to the same estimator (``_estimate_cells``).
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidRecordsError,
    PreconditionError,
    ResourceLimitError,
)
from .qcore import (
    PROB_FLOOR,
    Observable,
    OrthonormalBasis,
    _as_density,
)
from .weakval import WeakValueTable, weak_value_table

# A record stream may hold at most this many rows (8.9 GB of columns).
RECORD_ROW_LIMIT = 1 << 28
# Trials are generated in fixed blocks, each with its own (seed, block) RNG,
# so the merged stream never depends on how blocks are assigned to workers.
BLOCK_TRIALS = 1 << 14

QUAD_POSITION = 0
QUAD_MOMENTUM = 1
_QUAD_NAMES = ("q", "p")
_QUAD_CODES = {name: code for code, name in enumerate(_QUAD_NAMES)}

# The records CSV: its header and the fields of a row.
_HEADER = "trial,outcome_j,pointer,quadrature,readout"
_COLUMNS = ("trial", "outcome", "pointer", "quadrature", "readout")
_DTYPES = (np.int64, np.int64, np.int64, np.uint8, np.float64)
_QUAD_CELLS = np.array([f"{name}," for name in _QUAD_NAMES], dtype=object)
# The numeric fields, which np.loadtxt reads.
_NUMBERS = np.dtype([(name, dtype) for name, dtype in zip(_COLUMNS, _DTYPES)
                     if name != "quadrature"])
# Rows formatted per chunk by to_csv; characters read per block by from_csv.
_WRITE_ROWS = 1 << 14
_READ_CHARS = 1 << 18
# The largest magnitude whose square is a finite float.
_SQUARE_LIMIT = float(np.sqrt(np.finfo(float).max))
# Standard normal draws are bounded by this many spreads: beyond it lies
# probability e^-800, below the smallest float.
_TAIL = 40.0
# The longest integer field read column-wise: any 18 signs and digits that
# spell an integer fit 64 bits.
_INT_CHARS = 18


def _check_reals(what: str, **values) -> None:
    """Raise ValueError unless every value is a number, not a bool, with a
    finite square: the sampler and the estimator square each of them."""
    for name, value in values.items():
        if isinstance(value, (bool, np.bool_)) or not abs(float(value)) <= _SQUARE_LIMIT:
            raise ValueError(f"{what} {name} must be a number with a finite square, "
                             f"got {value!r}")


@dataclass(frozen=True)
class PointerConfig:
    """n_pointers identical pointers, one per weakly measured observable.

    Each pointer couples with strength g, which may be zero (no interaction)
    but never negative, and starts as a minimum-uncertainty Gaussian with
    position spread sigma_q, so its momentum spread is sigma_p = 1/2 / sigma_q,
    centered on (mean_q, mean_p).
    """

    n_pointers: int
    g: float = 0.05
    sigma_q: float = 1.0
    mean_q: float = 0.0
    mean_p: float = 0.0

    def __post_init__(self):
        _check_reals("pointer", g=self.g, sigma_q=self.sigma_q, mean_q=self.mean_q,
                     mean_p=self.mean_p)
        if self.n_pointers < 1:
            raise ValueError("need at least one pointer")
        if self.g < 0:
            raise ValueError("coupling g must be >= 0")
        if self.sigma_q <= 0:
            raise ValueError("pointer spread sigma_q must be positive")
        _check_reals("pointer", sigma_p=self.sigma_p)

    @classmethod
    def uniform(cls, n_pointers: int, g: float = 0.05, sigma_q: float = 1.0,
                mean_q: float = 0.0, mean_p: float = 0.0) -> "PointerConfig":
        """The same as the constructor, kept for its callers."""
        return cls(n_pointers, g, sigma_q, mean_q, mean_p)

    @property
    def sigma_p(self) -> float:
        return 0.5 / self.sigma_q


@dataclass(frozen=True)
class NoiseModel:
    """Readout corruption applied at sampling time.

    readout_sigma_scale multiplies the Gaussian readout spreads (0 gives
    noiseless records centered on the model means); systematic_offset is
    added to every position readout before estimation sees it.
    """

    readout_sigma_scale: float = 1.0
    systematic_offset: float = 0.0

    def __post_init__(self):
        _check_reals("noise model", readout_sigma_scale=self.readout_sigma_scale,
                     systematic_offset=self.systematic_offset)
        if self.readout_sigma_scale < 0:
            raise ValueError("readout_sigma_scale must be >= 0")


def _check_readout_scales(cfg: PointerConfig, noise: NoiseModel, shots: int) -> None:
    """Raise ValueError unless the squares that the sampler and the estimator
    form from pointer and noise values together are finite: each readout
    spread, sigma_q or sigma_p times the noise scale; the squared norm
    n_pointers (offset / g)^2 of a row of weak values that the offset shifts
    by offset / g each (g = 0 is refused by the estimator itself); and the
    sums of squared readouts of a cell.  A readout lies within |mean| +
    |offset| + _TAIL spread of zero, so n readouts square to at most n times
    that squared; the cell sums that ``_draw_cells`` draws, a spread^2 chi^2
    term plus n mean^2, to at most twice as much.  So the bound is
    2 shots (|mean| + |offset| + _TAIL spread)^2 in each quadrature.  Shots
    beyond 2^63 - 1, which the sampler refuses, are bounded there."""
    scale = noise.readout_sigma_scale
    row = noise.systematic_offset / cfg.g * cfg.n_pointers**0.5 if cfg.g > 0 else 0.0
    root = math.sqrt(2.0 * min(shots, np.iinfo(np.int64).max))
    _check_reals("pointer and noise", sigma_q_times_scale=cfg.sigma_q * scale,
                 sigma_p_times_scale=cfg.sigma_p * scale, offset_over_g_row_norm=row,
                 position_readout_bound_times_root_2_shots=root * (
                     abs(cfg.mean_q) + abs(noise.systematic_offset)
                     + _TAIL * cfg.sigma_q * scale),
                 momentum_readout_bound_times_root_2_shots=root * (
                     abs(cfg.mean_p) + _TAIL * cfg.sigma_p * scale))


@dataclass(frozen=True)
class RecordStream:
    """Columnar batch of experiment records, one row per pointer readout,
    ordered trial-major."""

    trial: np.ndarray
    outcome: np.ndarray
    pointer: np.ndarray
    quadrature: np.ndarray
    readout: np.ndarray
    n_trials: int = 0

    def __post_init__(self):
        cols = {
            "trial": np.asarray(self.trial, dtype=np.int64),
            "outcome": np.asarray(self.outcome, dtype=np.int64),
            "pointer": np.asarray(self.pointer, dtype=np.int64),
            "quadrature": np.asarray(self.quadrature, dtype=np.uint8),
            "readout": np.asarray(self.readout, dtype=np.float64),
        }
        size = cols["trial"].size
        if any(arr.size != size for arr in cols.values()):
            raise DimensionMismatchError("record columns have unequal lengths")
        n_trials = self.n_trials
        if n_trials == 0 and size:
            n_trials = int(cols["trial"].max()) + 1
        for name, arr in cols.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n_trials", n_trials)

    def __len__(self) -> int:
        return self.trial.size

    def to_csv(self) -> str:
        """The rows as CSV text, in the grammar ``from_csv`` reads.

        Readouts are written as ``repr`` of a Python float, the shortest text
        that reads back to the same bits (numpy scalars print otherwise).
        Rows are formatted in chunks of ``_WRITE_ROWS`` and the chunks joined
        once; no buffer holds the text at four bytes a character, as an
        ``io.StringIO`` would.  A quadrature other than 0 or 1 raises
        InvalidRecordsError naming its first row.
        """
        quad = self.quadrature
        if quad.size and quad.max() > QUAD_MOMENTUM:
            row = int(np.argmax(quad > QUAD_MOMENTUM))
            raise InvalidRecordsError(
                f"records row {row + 1}: quadrature {quad[row]} outside [0, 2)")
        chunks = [_HEADER]
        for start in range(0, len(self), _WRITE_ROWS):
            rows = slice(start, start + _WRITE_ROWS)
            cells = [""] * (5 * quad[rows].size)
            # Each row is "\n" + "t," + "j," + "i," + "q," + repr(readout).
            cells[0::5] = _decimals(self.trial[rows], "\n", ",")
            cells[1::5] = _decimals(self.outcome[rows], "", ",")
            cells[2::5] = _decimals(self.pointer[rows], "", ",")
            cells[3::5] = _QUAD_CELLS[quad[rows]].tolist()
            cells[4::5] = map(repr, self.readout[rows].tolist())
            chunks.append("".join(cells))
        chunks.append("\n")
        return "".join(chunks)

    @classmethod
    def from_csv(cls, text: str) -> "RecordStream":
        """Parse ``to_csv`` output.

        The grammar: the header line ``trial,outcome_j,pointer,quadrature,readout``,
        then one row per line of five comma-separated fields: trial, outcome
        and pointer as ASCII decimal integers (an optional sign, then digits),
        the quadrature as ``q`` or ``p``, and the readout in Python float
        syntax (``nan`` and ``inf`` included).  Lines end in ``\n`` or
        ``\r\n``; blank lines are skipped.  Anything else raises
        InvalidRecordsError naming the first bad row: a foreign header, a row
        without five fields, a quadrature other than q/p, an unparsable
        number, whitespace, an underscore or a non-ASCII character in a field
        (``int`` and ``float`` would read ``1_0`` or an Arabic-Indic digit),
        or an index beyond 64 bits, which is named only when no row is
        unparsable.  Rows are numbered from 1 after the header, as the
        estimators number them.

        The text is read in blocks of about ``_READ_CHARS`` characters cut at
        line ends.  A block whose rows all keep to the grammar ``to_csv``
        writes is checked and parsed column-wise (``_block_columns``); any
        other block is read row by row (``_scan_rows``), which names the
        first bad row.
        """
        end = text.find("\n")
        end = len(text) if end < 0 else end
        header = text[:end].removesuffix("\r")
        if header != _HEADER:
            raise InvalidRecordsError(f"unexpected record CSV header: {header!r}")
        parts = [[np.empty(0, dtype) for dtype in _DTYPES]]
        overflow, row, start = None, 1, end + 1
        while start < len(text):
            stop = text.find("\n", start + _READ_CHARS)
            stop = len(text) if stop < 0 else stop + 1
            block = text[start:stop]
            start = stop
            if "\r" in block:
                block = block.replace("\r\n", "\n")
            if not block.endswith("\n"):
                block += "\n"
            cols = _block_columns(block)
            if cols is None:
                cols = _scan_rows(block, row)
            if overflow is None:
                try:
                    parts.append([np.asarray(col, dtype) for col, dtype in zip(cols, _DTYPES)])
                except OverflowError:
                    overflow = _overflow_error(cols, row)
            row += len(cols[0])
        if overflow is not None:
            raise overflow
        trial, outcome, pointer, quad, readout = map(np.concatenate, zip(*parts))
        return cls(trial=trial, outcome=outcome, pointer=pointer, quadrature=quad,
                   readout=readout)


def _decimals(col: np.ndarray, prefix: str, suffix: str) -> list:
    """``f"{prefix}{v}{suffix}"`` for each value v of an integer column.

    Trial, outcome and pointer columns repeat their values, so when the
    column spans fewer values than it has rows each value in its range is
    formatted once and the rows take theirs from that table.
    """
    if col.size:
        low, high = int(col.min()), int(col.max())
        if high - low < col.size:
            table = np.array([f"{prefix}{v}{suffix}" for v in range(low, high + 1)],
                             dtype=object)
            return table[col - low].tolist()
    return [f"{prefix}{v}{suffix}" for v in col.tolist()]


def _bytes(text: str) -> np.ndarray:
    """The UTF-8 bytes of text, lone surrogates included."""
    return np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)


def _outside_grammar(buf: np.ndarray) -> np.ndarray:
    """Which bytes no row may hold: all but printable ASCII other than space
    and "_", and the line end."""
    return (buf > ord("~")) | ((buf < ord("!")) & (buf != ord("\n"))) | (buf == ord("_"))


def _block_columns(block: str):
    """The five columns of a block of rows, each row ending in a newline, or
    None unless every row keeps to the grammar ``to_csv`` writes.

    Bytes give the layout: every byte printable ASCII but space and ``_``
    (or a newline), each line holding exactly four commas, each quadrature
    field ``q`` or ``p``, and each integer field at most ``_INT_CHARS``
    signs and digits.  ``np.loadtxt`` then reads the four numeric fields.
    The integer fields hold nothing a float parser reads differently, so no
    numpy version's float fallback for integers can accept ``2.5`` or
    ``nan`` as an index, and they fit 64 bits; the readout field is read as
    ``float`` reads it.
    """
    buf = _bytes(block)
    if _outside_grammar(buf).any():
        return None
    ends = np.flatnonzero(buf == ord("\n"))
    commas = np.flatnonzero(buf == ord(","))
    if commas.size != 4 * ends.size:
        return None
    # Row r holds commas 4r..4r+3: with as many commas as four a line, the
    # first and last of them inside the line make exactly four in each.
    commas = commas.reshape(-1, 4)
    starts = np.concatenate(([0], ends[:-1] + 1))
    quad = buf[commas[:, 2] + 1]
    if ((commas[:, 0] < starts) | (commas[:, 3] > ends) | (commas[:, 3] != commas[:, 2] + 2)
            | ((quad != ord("q")) & (quad != ord("p")))).any():
        return None
    bounds = np.column_stack((starts - 1, commas[:, :3]))
    if (np.diff(bounds, axis=1) > _INT_CHARS + 1).any():
        return None
    # The integer fields hold only signs, digits and commas: the first other
    # byte of each line is its quadrature.
    other = np.flatnonzero((buf > ord("9")) | ((buf < ord("0")) & (buf != ord("+"))
                                               & (buf != ord("-")) & (buf != ord(","))))
    if (other[np.searchsorted(other, starts)] != commas[:, 2] + 1).any():
        return None
    try:
        numbers = np.loadtxt(io.StringIO(block), dtype=_NUMBERS, delimiter=",",
                             usecols=(0, 1, 2, 4), comments=None, quotechar=None, ndmin=1)
    except ValueError:
        return None
    return (numbers["trial"], numbers["outcome"], numbers["pointer"],
            (quad == ord("p")).astype(np.uint8), numbers["readout"])


def _scan_rows(block: str, row: int):
    """The five columns of a block of rows as lists, read one row at a time;
    ``row`` numbers the block's first row.

    Each row is checked in a fixed order, and the first failure raises
    InvalidRecordsError: five fields, the quadrature, ``int`` of trial,
    outcome and pointer and ``float`` of the readout, then the grammar's
    bytes, which ``int`` and ``float`` do not check.
    """
    buf = _bytes(block)
    outside = np.flatnonzero(_outside_grammar(buf))
    # The index of the first line holding a byte outside the grammar.
    stray = np.count_nonzero(buf[:outside[0]] == ord("\n")) if outside.size else -1
    cols = ([], [], [], [], [])
    for k, line in enumerate(block.split("\n")):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 5:
            raise InvalidRecordsError(
                f"records row {row}: expected 5 fields, got {len(fields)}")
        t, j, i, c, r = fields
        quad = _QUAD_CODES.get(c)
        if quad is None:
            raise InvalidRecordsError(
                f"records row {row}: quadrature {c!r} is neither 'q' nor 'p'")
        try:
            values = (int(t), int(j), int(i), quad, float(r))
        except ValueError as exc:
            raise InvalidRecordsError(f"records row {row}: {exc}") from None
        if k == stray:
            name, field = next((name, field) for name, field in zip(_COLUMNS, fields)
                               if _outside_grammar(_bytes(field)).any())
            raise InvalidRecordsError(
                f"records row {row}: {name} {field!r} holds whitespace, an underscore "
                f"or a non-ASCII character")
        for col, value in zip(cols, values):
            col.append(value)
        row += 1
    return cols


def _overflow_error(cols, row: int) -> InvalidRecordsError:
    """The error naming the first index beyond 64 bits in a block's columns;
    ``row`` numbers the block's first row."""
    row, name, value = next(
        (row, name, value)
        for row, values in enumerate(zip(*cols[:3]), start=row)
        for name, value in zip(_COLUMNS, values)
        if not -(1 << 63) <= value < 1 << 63)
    return InvalidRecordsError(f"records row {row}: {name} {value} does not fit 64 bits")


def _check_pointer_count(n_pointers: int, cfg: PointerConfig) -> None:
    if cfg.n_pointers != n_pointers:
        raise DimensionMismatchError(
            f"need {n_pointers} pointers (one per weakly measured observable), "
            f"got {cfg.n_pointers}"
        )


def table_shifts(table: WeakValueTable, cfg: PointerConfig) -> tuple[np.ndarray, np.ndarray]:
    """First-order mean shifts for every (outcome j, pointer i) cell."""
    _check_pointer_count(table.n_pointers, cfg)
    dq = cfg.g * table.W.real
    dp = 2.0 * cfg.g * table.W.imag * cfg.sigma_p**2
    return dq, dp


def exact_law(rho, measured, basis_b: OrthonormalBasis, cfg: PointerConfig):
    """Outcome law and readout shifts of a run at any coupling, in closed form.

    Takes what ``_law`` takes and returns what it returns: P, shape (d,), and
    the mean shifts dq and dp, shape (d, n_pointers), of every outcome j.
    The coupling is U = sum_m |v_m><v_m| x D(S_m), where D(S_m) translates
    pointer i by S[m, i]: for a basis A, v_m = a_m and S = g I; for an
    Observable, v_m are its eigenvectors and S[m, 0] = g lambda_m.  So the
    pointer post-selected on b_j is a superposition of the displaced
    Gaussians phi_m = D(S_m) phi.  With
    beta = B^dag V, R = V^dag rho V, O[k, m] = <phi_k|phi_m>
    = prod_i exp(-(S_ki - S_mi)^2 / (8 sigma_q^2) + i p0 (S_ki - S_mi)),
    T = R o O^T and M = diag(beta_j) T diag(beta_j^*):

        P_j   = sum_mk M_mk
        dq_ji = sum_mk M_mk (S_ki + S_mi) / 2 / P_j
        dp_ji = Re sum_mk M_mk i (S_ki - S_mi) / (4 sigma_q^2) / P_j

    T is Hermitian, so every row follows from C = beta^* o (beta T), in
    O(d^3) time and O(d^2) memory.  Rows with P_j <= PROB_FLOOR read zero
    shifts, as masked rows do in ``_law``.
    """
    mat = _as_density(rho)
    d = mat.shape[0]
    if measured.dim != d or basis_b.dim != d:
        raise DimensionMismatchError(
            f"dims rho={d}, A={measured.dim}, B={basis_b.dim} do not agree")
    if isinstance(measured, Observable):
        n, v, shift = 1, measured.eigenbasis.vectors, cfg.g * measured.eigenvalues[:, None]
    else:
        n, v, shift = d, measured.vectors, cfg.g * np.eye(d)
    _check_pointer_count(n, cfg)
    # Exponent of O[k, m], expanded so that no (d, d, n) array is formed.
    w = 1.0 / (8.0 * cfg.sigma_q**2)
    sq = (shift**2).sum(axis=1) * w
    drift = shift.sum(axis=1) * cfg.mean_p
    log_o = (2.0 * (shift * w) @ shift.T - sq[:, None] - sq[None, :]
             + 1j * (drift[:, None] - drift[None, :]))
    t = (v.conj().T @ mat @ v) * np.exp(log_o).T
    beta = basis_b.vectors.conj().T @ v
    c = beta.conj() * (beta @ t)
    P = c.real.sum(axis=1)
    inv_p = np.divide(1.0, P, out=np.zeros(d), where=P > PROB_FLOOR)[:, None]
    dq = c.real @ shift * inv_p
    dp = -(c.imag @ shift) / (2.0 * cfg.sigma_q**2) * inv_p
    return np.clip(P, 0.0, 1.0), dq, dp


def _readout_law(dq: np.ndarray, dp: np.ndarray, cfg: PointerConfig,
                 noise: NoiseModel | None, shots: int) -> tuple[np.ndarray, np.ndarray]:
    """Readout means, shape (d, 2, n_pointers), and spreads, shape (2, 1),
    of every (outcome, quadrature) from the (d, n_pointers) shifts dq/dp,
    with the noise model applied, checked for ``shots`` trials."""
    noise = noise or NoiseModel()
    _check_readout_scales(cfg, noise, shots)
    means = np.empty((dq.shape[0], 2, cfg.n_pointers))
    means[:, QUAD_POSITION] = cfg.mean_q + dq + noise.systematic_offset
    means[:, QUAD_MOMENTUM] = cfg.mean_p + dp
    spreads = np.array([[cfg.sigma_q], [cfg.sigma_p]]) * noise.readout_sigma_scale
    return means, spreads


def _check_shots(shots: int) -> None:
    if shots < 1:
        raise ValueError("shots must be >= 1")


def _sample_stream(P, dq, dp, cfg: PointerConfig, shots: int, seed: int,
                   noise: NoiseModel | None) -> RecordStream:
    """Draw ``shots`` trials from outcome law P as a record stream, one row
    per pointer readout.

    Trials come in fixed-size blocks seeded by (seed, block), so the draws
    never depend on how the stream is assembled.  shots < 1 raises
    ValueError and more than RECORD_ROW_LIMIT rows raise ResourceLimitError,
    both before anything is drawn.
    """
    _check_shots(shots)
    n = cfg.n_pointers
    if shots * n > RECORD_ROW_LIMIT:
        raise ResourceLimitError(
            f"{shots} trials x {n} pointers = {shots * n} record rows exceed the "
            f"2^28 limit; an in-memory sampled run needs no records")
    means, spreads = _readout_law(dq, dp, cfg, noise, shots)
    # Readout mean of (outcome j, quadrature c) in row 2j + c.
    means = means.reshape(2 * P.size, n)
    cum = np.cumsum(P)
    cum[-1] = 1.0
    outcomes = np.empty(shots, dtype=np.int64)
    quad = (np.arange(shots) % 2).astype(np.uint8)
    readout = np.empty((shots, n))
    for block in range((shots + BLOCK_TRIALS - 1) // BLOCK_TRIALS):
        sl = slice(block * BLOCK_TRIALS, min((block + 1) * BLOCK_TRIALS, shots))
        rng = np.random.default_rng([seed, block])
        outcomes[sl] = np.searchsorted(cum, rng.random(sl.stop - sl.start), side="right")
        values = rng.standard_normal((sl.stop - sl.start, n))
        values *= np.take(spreads, quad[sl], axis=0)
        values += np.take(means, 2 * outcomes[sl] + quad[sl], axis=0)
        readout[sl] = values
    return RecordStream(trial=np.repeat(np.arange(shots, dtype=np.int64), n),
                        outcome=np.repeat(outcomes, n),
                        pointer=np.tile(np.arange(n, dtype=np.int64), shots),
                        quadrature=np.repeat(quad, n), readout=readout.reshape(-1),
                        n_trials=shots)


def _cell_sums(outcomes, quad, readout, d: int):
    """Per-cell count, sum and sum of squares, shape (d, n, 2), and trials per
    outcome, of trials given by outcome, quadrature code and (n,) readouts.
    np.add.at adds each readout into its (outcome, pointer, quadrature) cell
    in trial order.
    """
    n = readout.shape[1]
    per_trial = np.bincount(2 * outcomes + quad, minlength=d * 2)
    idx = ((2 * n * outcomes + quad)[:, None] + 2 * np.arange(n)).reshape(-1)
    values = readout.reshape(-1)
    sums = np.zeros(d * n * 2)
    sumsq = np.zeros(d * n * 2)
    np.add.at(sums, idx, values)
    np.add.at(sumsq, idx, values**2)
    per_trial = per_trial.reshape(d, 1, 2)
    shape = (d, n, 2)
    # Every trial reads every pointer once, in the trial's quadrature.
    return (np.repeat(per_trial, n, axis=1), sums.reshape(shape), sumsq.reshape(shape),
            per_trial.sum(axis=(1, 2)))


def _draw_cells(P, dq, dp, cfg: PointerConfig, shots: int, seed: int,
                noise: NoiseModel | None):
    """``_cell_sums`` of ``shots`` sampled trials, drawn from its law directly.

    One generator seeded by ``seed`` draws the outcome counts of the
    ceil(shots/2) position trials and of the floor(shots/2) momentum trials,
    each as a multinomial over P.  A trial reads all its pointers in one
    quadrature, so a cell's count is that of its (outcome, quadrature).  The
    n readouts of a cell are i.i.d. N(mu, sigma^2), independent of the other
    cells given the counts, so their mean is mu + sigma Z / sqrt(n) and, by
    Cochran's theorem, independently of it, their sum of squared deviations
    is sigma^2 times a chi^2 with n - 1 degrees of freedom.  Time and memory
    are O(d * n_pointers), whatever ``shots`` is; shots beyond 2^63 - 1 raise
    ResourceLimitError.
    """
    _check_shots(shots)
    if shots > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"{shots} shots do not fit a 64-bit trial count")
    means, spreads = _readout_law(dq, dp, cfg, noise, shots)
    rng = np.random.default_rng(seed)
    p = P / P.sum()
    per_trial = np.stack([rng.multinomial((shots + 1) // 2, p),
                          rng.multinomial(shots // 2, p)], axis=1)    # (d, 2)
    counts = np.broadcast_to(per_trial[:, :, None], means.shape)       # (d, 2, n)
    filled = counts > 0
    mean = means + spreads * rng.standard_normal(means.shape) / np.sqrt(np.maximum(counts, 1))
    chi2 = 2.0 * rng.standard_gamma(np.maximum(counts - 1, 0) / 2.0)
    sums = np.where(filled, counts * mean, 0.0)
    sumsq = np.where(filled, spreads**2 * chi2 + counts * mean**2, 0.0)
    return (*(a.transpose(0, 2, 1) for a in (counts, sums, sumsq)), per_trial.sum(axis=1))


def _law(rho, measured, basis_b: OrthonormalBasis, cfg: PointerConfig):
    """Outcome law and first-order readout shifts of a sampled run."""
    table = weak_value_table(rho, measured, basis_b)
    dq, dp = table_shifts(table, cfg)
    return table.P, dq, dp


def sample_records(rho, measured, basis_b: OrthonormalBasis, cfg: PointerConfig,
                   shots: int, seed: int, noise: NoiseModel | None = None) -> RecordStream:
    """Simulate a weak-measurement run, one pointer per measured observable.

    ``measured`` is what ``weak_value_table`` accepts: a basis A, with one
    pointer per projector, or a single Observable on one pointer.  Each
    trial draws its post-selection outcome j from the exact outcome law,
    then emits one readout per pointer from a Gaussian centered on the
    first-order shifted mean for (j, i).  Masked (zero-probability)
    outcomes are never drawn.  The stream holds n_pointers rows per trial;
    it is built for callers that need the rows themselves, such as
    ``simulate --sampled``, and its bytes are a function of the arguments.
    More than RECORD_ROW_LIMIT rows raise ResourceLimitError before any
    record is allocated.  An in-memory sampled ``run_reconstruction``
    draws no trials: it draws the per-cell sums the estimator reads from
    their law, so it matches this route in distribution, not bit for bit.
    """
    return _sample_stream(*_law(rho, measured, basis_b, cfg), cfg, shots, seed, noise)


def _record_cells(records: RecordStream, dim: int, n_pointers: int):
    """``_cell_sums`` of a record stream's checked rows.

    Rows are numbered from 1; the first row with an out-of-range index or a
    non-finite readout raises InvalidRecordsError, and so does the first row
    that breaks the layout ``sample_records`` writes: trials 0, 1, ... in
    order, each one outcome and n_pointers rows for pointers
    0..n_pointers-1, even trials reading q and odd trials p.
    """
    for name, col, bound in (("outcome", records.outcome, dim),
                             ("pointer", records.pointer, n_pointers),
                             ("quadrature", records.quadrature, 2)):
        if col.size and (col.min() < 0 or col.max() >= bound):
            row = int(np.argmax((col < 0) | (col >= bound)))
            raise InvalidRecordsError(
                f"records row {row + 1}: {name} {col[row]} outside [0, {bound})")
    if not np.isfinite(records.readout).all():
        row = int(np.argmax(~np.isfinite(records.readout)))
        raise InvalidRecordsError(
            f"records row {row + 1}: readout {records.readout[row]} is not finite")
    n = n_pointers
    n_full = len(records) // n                   # rows of complete trials
    t = np.arange(n_full)[:, None]

    def by_trial(col):
        return col[:n_full * n].reshape(n_full, n)

    outcome, quad = by_trial(records.outcome), by_trial(records.quadrature)
    checks = (("trial", by_trial(records.trial), t),
              ("pointer", by_trial(records.pointer), np.arange(n)),
              ("outcome", outcome, outcome[:, :1]),
              ("quadrature", quad, t % 2))
    bad = [col != expected for _, col, expected in checks]
    any_bad = np.logical_or.reduce(bad)
    if any_bad.any():
        cell = np.unravel_index(np.argmax(any_bad), any_bad.shape)
        name, col, expected = next(c for c, b in zip(checks, bad) if b[cell])
        got, want = col[cell], np.broadcast_to(expected, col.shape)[cell]
        if name == "quadrature":
            got, want = _QUAD_NAMES[got], _QUAD_NAMES[want]
        raise InvalidRecordsError(
            f"records row {cell[0] * n + cell[1] + 1}: {name} {got} where {want} "
            f"belongs (trials run 0, 1, ... in order, each with one outcome and "
            f"{n} pointer rows; even trials read q and odd trials p)")
    if len(records) % n:
        raise InvalidRecordsError(
            f"records row {len(records)}: the last trial has "
            f"{len(records) % n} of {n} pointer rows")
    return _cell_sums(outcome[:, 0], quad[:, 0], by_trial(records.readout), dim)


def _estimate_cells(cells, cfg: PointerConfig) -> WeakValueTable:
    """The estimate shared by records and in-memory sampled cells."""
    if cfg.g <= 0:
        raise PreconditionError("estimation divides by g; all couplings must be positive")
    counts, sums, sumsq, trials = cells
    n_trials = int(trials.sum())
    if n_trials == 0:
        raise InvalidRecordsError("record stream is empty")
    shape = counts.shape
    means = np.divide(sums, counts, out=np.zeros(shape), where=counts > 0)
    # Unbiased per-cell variance; standard error of the cell mean.
    var = np.divide(sumsq - counts * means**2, counts - 1,
                    out=np.zeros(shape), where=counts > 1)
    stderr = np.sqrt(np.divide(np.clip(var, 0.0, None), counts,
                               out=np.zeros(shape), where=counts > 1))
    defined = counts.min(axis=(1, 2)) > 0
    im_scale = 2.0 * cfg.g * cfg.sigma_p**2
    re = (means[:, :, QUAD_POSITION] - cfg.mean_q) / cfg.g
    im = (means[:, :, QUAD_MOMENTUM] - cfg.mean_p) / im_scale
    return WeakValueTable(dim=trials.size, W=re + 1j * im, P=trials / n_trials,
                          defined=defined, stderr_re=stderr[:, :, QUAD_POSITION] / cfg.g,
                          stderr_im=stderr[:, :, QUAD_MOMENTUM] / im_scale,
                          n_trials=n_trials)


def estimate_weak_values(records: RecordStream, cfg: PointerConfig, dim: int) -> WeakValueTable:
    """Invert the first-order shift model on a record stream.

    Produces an estimated d x n_pointers weak-value table, with n_pointers
    taken from ``cfg``: Re W[j,i] from position cells, Im W[j,i] from
    momentum cells, P[j] from outcome frequencies, and per-entry standard
    errors.  Rows with any empty (pointer, quadrature) cell are masked
    undefined; cells with fewer than two records report a zero standard
    error.  An out-of-range outcome, pointer or quadrature, a non-finite
    readout, or a row out of the trial layout ``sample_records`` writes
    raises InvalidRecordsError naming the first such row.
    """
    return _estimate_cells(_record_cells(records, dim, cfg.n_pointers), cfg)


def _sampled_table(rho, measured, basis_b: OrthonormalBasis, cfg: PointerConfig,
                   shots: int, seed: int, noise: NoiseModel | None) -> WeakValueTable:
    """A table with the law of ``estimate_weak_values(sample_records(...))``.

    The estimator reads per-cell sums that ``_draw_cells`` draws directly,
    so no trial is drawn and the cost does not depend on ``shots``.  The
    table is a function of the arguments, but its bits differ from those of
    the records route with the same seed.  It raises what that route raises.
    """
    return _estimate_cells(_draw_cells(*_law(rho, measured, basis_b, cfg), cfg, shots,
                                       seed, noise), cfg)
