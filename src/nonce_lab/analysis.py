"""Leakage assessment and classification of swap conditions.

The assessment path runs Welch's t-test over labelled capture campaigns
and compares the largest |t| with the 4.5 threshold.  The profiled path
fits per-class Gaussian templates at the strongest points and scores
all aligned swap windows of a trace with them.  The clustered path
needs no profiling: it splits the aligned windows of the one trace into
two classes along their first principal component.  Both read the
nonce bits off the classes.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dsp import AlignedSwapWindows, check_median_window, rectified_envelope
from .errors import AlignmentError, ConfigError, DomainError, RecoveryFailed, StatError
from .ff_curve import MULTIPLIERS
from .tracesim import (
    LeakageTrace,
    MarkerTable,
    SimConfig,
    TraceSet,
    check_file_size,
    parse_meta,
    swap_windows,
)

MODEL_MAGIC = b"SCTM"
MODEL_VERSION = 1
LEAK_THRESHOLD = 4.5

# Keeps t finite when both classes have zero variance at a sample;
# equal means then give t = 0 instead of 0/0.
_VARIANCE_FLOOR = 1e-30

# Rows per rectified_envelope call in feature_matrix, and per slab of
# windows that recover_nonce_bits cuts and scores.
_ENVELOPE_BLOCK_ROWS = 64

# Ridge added to the pooled covariance, as a fraction of its mean
# variance, so regularization scales with the signal.
_RIDGE_SCALE = 1e-6

# Clustering: the power iteration's stopping step and cap, the EM steps,
# and each cluster's variance floor as a fraction of the values' variance.
_PC_TOLERANCE = 1e-12
_PC_MAX_STEPS = 500
_EM_STEPS = 50
_EM_VARIANCE_FLOOR = 1e-6


@dataclass(frozen=True, eq=False, slots=True)
class TTestResult:
    """Per-sample Welch statistics for a two-class campaign."""

    t_values: np.ndarray
    n0: int
    n1: int

    @property
    def max_abs_t(self) -> float:
        return float(np.max(np.abs(self.t_values)))


@dataclass(frozen=True, eq=False, slots=True)
class NonceEstimate:
    """Recovered nonce bits with the window-level evidence behind them.

    ``probabilities[i]`` is the class-1 probability of window i, the
    one its condition guess ``conds[i]`` was read from.
    """

    bits: tuple[int, ...]
    conds: tuple[int, ...]
    probabilities: np.ndarray

    @property
    def value(self) -> int:
        out = 0
        for bit in self.bits:
            out = (out << 1) | bit
        return out


def _as_matrix(data: TraceSet | np.ndarray | Sequence, *, copy: bool = False) -> np.ndarray:
    if isinstance(data, TraceSet):
        sizes = {t.samples.size for t in data.traces}
        if len(sizes) != 1:
            raise DomainError("traces must share one length to form a matrix")
        return np.stack([t.samples for t in data.traces]).astype(np.float64, copy=False)
    try:
        matrix = np.array(data, dtype=np.float64, copy=True if copy else None)
    except ValueError as exc:
        raise DomainError("traces must share one length to form a matrix") from exc
    if matrix.ndim != 2:
        raise DomainError("expected a 2-D trace matrix")
    return matrix


def _class_split(
    matrix: np.ndarray, labels: Sequence
) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(labels).ravel()
    if y.size != matrix.shape[0]:
        raise DomainError("one label per trace required")
    if not np.isin(y, (0, 1)).all():
        raise DomainError("labels must be 0 or 1")
    return matrix[y == 0], matrix[y == 1]


def feature_matrix(
    data: TraceSet | np.ndarray, median_samples: int
) -> np.ndarray:
    """Rectified-median envelope of every trace, one row each.

    Classification features must not depend on the carrier phase at the
    window position, so windows are always reduced to envelopes before
    fitting or scoring.
    """
    return _envelope_rows(_as_matrix(data, copy=True), median_samples)


def _envelope_rows(matrix: np.ndarray, median_samples: int) -> np.ndarray:
    """``feature_matrix`` in place, on a matrix the caller owns."""
    check_median_window(median_samples, matrix.shape[1])
    # Each row carries its own reflected edges, so one filter call per block
    # of rows equals one per row; blocks bound the padded copy's size, and
    # each block's envelopes overwrite its rows.
    pad = median_samples // 2
    for lo in range(0, len(matrix), _ENVELOPE_BLOCK_ROWS):
        block = np.pad(matrix[lo : lo + _ENVELOPE_BLOCK_ROWS], ((0, 0), (pad, pad)), "symmetric")
        envelope = rectified_envelope(block.ravel(), median_samples).reshape(block.shape)
        matrix[lo : lo + len(block)] = envelope[:, pad:-pad]
    return matrix


def harvest_swap_windows(trace_set: TraceSet) -> TraceSet:
    """Cut the swap windows out of full traces into a window-level set.

    Profiling operates on isolated windows; this turns a set of whole
    scalar multiplications into one, keeping each window's condition as
    its label and skipping windows flagged as interfered.
    """
    windows: list[LeakageTrace] = []
    labels: list[int] = []
    # Window traces carry no markers and never change their meta, so all
    # share one empty table and the windows of one trace one meta copy.
    markers = MarkerTable.empty()
    for row, trace in enumerate(trace_set.traces):
        meta = dict(trace.meta)
        for col, window in enumerate(swap_windows(trace)):
            if trace_set.interfered is not None and trace_set.interfered[row, col]:
                continue
            windows.append(
                LeakageTrace(
                    samples=trace.samples[window.start : window.end].copy(),
                    sample_rate=trace.sample_rate,
                    markers=markers,
                    meta=meta,
                )
            )
            labels.append(window.cond)
    if not windows:
        raise DomainError("no usable swap windows to harvest")
    return TraceSet(windows, np.asarray(labels, dtype=np.int8).reshape(-1, 1))


def welch_t(data: TraceSet | np.ndarray, labels: Sequence) -> TTestResult:
    """Two-class Welch t statistic at every sample point.

    Computed over slabs of about 64 columns, so the class copies and the
    variance temporaries stay small. A slab never has one column beside
    wider ones (numpy would sum it pairwise, not row by row), so every
    column gets the arithmetic of the whole matrix.
    """
    matrix = _as_matrix(data)
    parts = []
    for cols in np.array_split(matrix, max(1, -(-matrix.shape[1] // 64)), axis=1):
        class0, class1 = _class_split(cols, labels)
        n0, n1 = class0.shape[0], class1.shape[0]
        if n0 < 2 or n1 < 2:
            raise StatError("each class needs at least 2 traces")
        delta = class0.mean(axis=0) - class1.mean(axis=0)
        spread = class0.var(axis=0, ddof=1) / n0 + class1.var(axis=0, ddof=1) / n1
        parts.append(delta / np.sqrt(np.maximum(spread, _VARIANCE_FLOOR)))
    return TTestResult(t_values=np.concatenate(parts), n0=n0, n1=n1)


def select_poi(result: TTestResult, count: int) -> np.ndarray:
    """Indices of the strongest |t| values, ties won by the lower index."""
    magnitude = np.abs(result.t_values)
    if not 1 <= count <= magnitude.size:
        raise ConfigError(
            f"poi count must lie in [1, {magnitude.size}], got {count}"
        )
    order = np.lexsort((np.arange(magnitude.size), -magnitude))
    return order[:count].astype(np.int64)


@dataclass(eq=False)
class TemplateModel:
    """Per-class Gaussian profile over selected points of interest."""

    poi: np.ndarray
    mean0: np.ndarray
    mean1: np.ndarray
    cov: np.ndarray
    mode: str
    trained_on: dict[str, str] = field(default_factory=dict)
    _chol: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.poi = np.asarray(self.poi, dtype=np.int64)
        self.mean0 = np.asarray(self.mean0, dtype=np.float64)
        self.mean1 = np.asarray(self.mean1, dtype=np.float64)
        self.cov = np.asarray(self.cov, dtype=np.float64)
        p = self.poi.size
        if p == 0:
            raise DomainError("a template needs at least one poi")
        if (np.diff(self.poi) <= 0).any() or self.poi[0] < 0:
            raise DomainError("poi must be strictly increasing and non-negative")
        if self.mean0.shape != (p,) or self.mean1.shape != (p,):
            raise DomainError("class means must match the poi count")
        if not all(np.isfinite(v).all() for v in (self.mean0, self.mean1, self.cov)):
            raise DomainError("class means and covariance must be finite")
        if self.mode == "diag":
            if self.cov.shape != (p,):
                raise DomainError("diagonal covariance must be a vector")
            if (self.cov <= 0.0).any():
                raise StatError("covariance is singular after regularization")
        elif self.mode == "full":
            if self.cov.shape != (p, p):
                raise DomainError("full covariance must be a square matrix")
            if not np.allclose(self.cov, self.cov.T, rtol=1e-9, atol=0.0):
                raise StatError("covariance must be symmetric")
            try:
                self._chol = np.linalg.cholesky(self.cov)
            except np.linalg.LinAlgError as exc:
                raise StatError(
                    "covariance is singular after regularization"
                ) from exc
        else:
            raise ConfigError(f"unknown template mode {self.mode!r}")

    def _mahalanobis(self, deltas: np.ndarray) -> np.ndarray:
        """Quadratic forms delta' C^-1 delta, one per row."""
        if self.mode == "diag":
            return np.sum(deltas**2 / self.cov, axis=-1)
        # With C = L L', each form is |L^-1 delta|^2.
        whitened = np.linalg.solve(self._chol, deltas.T)
        return np.sum(whitened * whitened, axis=0)


def fit_templates(
    data: TraceSet | np.ndarray,
    labels: Sequence,
    poi: Sequence[int],
    *,
    mode: str = "diag",
    trained_on: dict[str, str] | None = None,
) -> TemplateModel:
    """Class means plus pooled, ridge-regularized covariance at the poi.

    The ridge term is ``_RIDGE_SCALE`` times the mean of the covariance
    trace.  Full mode demands at least ``10 * len(poi)`` traces per
    class; diagonal mode only needs two.
    """
    matrix = _as_matrix(data)
    poi_sorted = np.sort(np.asarray(poi, dtype=np.int64))
    if poi_sorted.size == 0:
        raise DomainError("poi must not be empty")
    if np.unique(poi_sorted).size != poi_sorted.size:
        raise DomainError("poi must be unique")
    if poi_sorted[0] < 0 or poi_sorted[-1] >= matrix.shape[1]:
        raise DomainError("poi fall outside the trace length")
    class0, class1 = _class_split(matrix[:, poi_sorted], labels)
    n0, n1 = class0.shape[0], class1.shape[0]
    if n0 < 2 or n1 < 2:
        raise StatError("each class needs at least 2 traces")
    if mode == "full" and min(n0, n1) < 10 * poi_sorted.size:
        raise StatError(
            f"full covariance over {poi_sorted.size} poi needs at least "
            f"{10 * poi_sorted.size} traces per class, got {min(n0, n1)}"
        )
    mean0 = class0.mean(axis=0)
    mean1 = class1.mean(axis=0)
    residual0 = class0 - mean0
    residual1 = class1 - mean1
    dof = n0 + n1 - 2
    if mode == "diag":
        pooled = (
            np.sum(residual0**2, axis=0) + np.sum(residual1**2, axis=0)
        ) / dof
        ridge = _RIDGE_SCALE * float(pooled.mean())
        cov = pooled + ridge
    else:
        pooled = (residual0.T @ residual0 + residual1.T @ residual1) / dof
        ridge = _RIDGE_SCALE * float(np.trace(pooled)) / poi_sorted.size
        cov = pooled + ridge * np.eye(poi_sorted.size)
    meta = {
        "mode": mode,
        "feature_length": str(matrix.shape[1]),
        "n0": str(n0),
        "n1": str(n1),
    }
    if trained_on:
        meta.update(trained_on)
    return TemplateModel(
        poi=poi_sorted, mean0=mean0, mean1=mean1, cov=cov, mode=mode,
        trained_on=meta,
    )


def _log_likelihood_ratio(model: TemplateModel, features: np.ndarray) -> np.ndarray:
    d0 = features - model.mean0
    d1 = features - model.mean1
    return 0.5 * (model._mahalanobis(d0) - model._mahalanobis(d1))


def classify_batch(
    model: TemplateModel, matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Likelihood-ratio decisions for feature windows, one window per row.

    Returns the condition guesses and the class-1 probabilities: the
    normalized class-1 likelihood under equal priors.  An exact tie
    resolves to condition 0.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] <= int(model.poi[-1]):
        raise DomainError("matrix rows must cover all poi")
    llr = _log_likelihood_ratio(model, matrix[:, model.poi])
    probabilities = 1.0 / (1.0 + np.exp(-np.clip(llr, -700.0, 700.0)))
    return (llr > 0.0).astype(np.int8), probabilities


def fit_swap_classifier(
    train_set: TraceSet,
    cfg: SimConfig,
    *,
    poi_count: int = 64,
    mode: str = "diag",
) -> TemplateModel:
    """Standard profiling pipeline for window-level training sets: the
    windows' envelopes, poi by t-test strength, then templates.

    The envelope width and the source's variant, word count and curve
    (read from the first trace's meta) ride along so scoring repeats the
    preprocessing.
    """
    median_samples = max(3, cfg.samples_per_event // 4)
    meta = train_set.traces[0].meta
    trained_on = {key: meta[key] for key in ("variant", "word_count", "curve") if key in meta}
    trained_on["median_samples"] = str(median_samples)
    labels = train_set.labels[:, 0]
    features = _envelope_rows(_as_matrix(train_set), median_samples)
    poi = select_poi(welch_t(features, labels), min(poi_count, features.shape[1]))
    return fit_templates(features, labels, poi, mode=mode, trained_on=trained_on)


def _window_starts(
    trace: LeakageTrace, windows: AlignedSwapWindows, multiplier: str, width: int
) -> tuple[np.ndarray, list[int]]:
    """A view of every ``width``-sample stretch of the trace, one per row,
    and the rows where the aligned swap windows start.

    Ladder windows end flush against the following iteration, so they
    anchor there; double-and-add windows anchor at their start.  Each is
    clamped into the trace: detected positions can sit a few samples off
    at the boundaries.
    """
    if multiplier not in MULTIPLIERS:
        raise ConfigError(f"unknown multiplier {multiplier!r}")
    if len(windows) == 0:
        raise AlignmentError("no swap windows to classify")
    samples = trace.samples
    if samples.size < width:
        raise AlignmentError("trace is shorter than one swap window")
    if multiplier == "ladder":
        starts = [max(min(end, samples.size) - width, 0) for _, end in windows.spans]
    else:
        starts = [min(max(start, 0), samples.size - width) for start, _ in windows.spans]
    return np.lib.stride_tricks.sliding_window_view(samples, width), starts


def _estimate(guesses: np.ndarray, probabilities: np.ndarray, multiplier: str) -> NonceEstimate:
    """Undo the swap encoding: on the ladder each condition is the XOR of
    adjacent scalar bits, seeded at the most significant bit; with
    double-and-add the conditions are the bits themselves."""
    conds = tuple(guesses.tolist())
    if multiplier == "ladder":
        bits = tuple(np.bitwise_xor.accumulate(guesses).tolist())
    else:
        bits = conds
    return NonceEstimate(bits=bits, conds=conds, probabilities=probabilities)


def recover_nonce_bits(
    trace: LeakageTrace,
    model: TemplateModel,
    windows: AlignedSwapWindows,
    multiplier: str,
) -> NonceEstimate:
    """Classify every aligned swap window with a profiled model and undo
    the swap encoding.  The window length and the envelope width come
    from the model metadata, so scoring repeats the training
    preprocessing."""
    width = int(model.trained_on.get("feature_length", "0"))
    if width <= 0:
        raise DomainError("model metadata lacks the training window length")
    median_samples = int(model.trained_on.get("median_samples", "0"))
    if median_samples < 3:
        raise DomainError("model metadata lacks the envelope width")
    view, starts = _window_starts(trace, windows, multiplier, width)
    # The windows are cut, reduced to envelopes in place and scored one
    # slab of rows at a time, so no matrix of all of them exists.
    slabs = [
        classify_batch(model, _envelope_rows(view[starts[lo : lo + _ENVELOPE_BLOCK_ROWS]], median_samples))
        for lo in range(0, len(starts), _ENVELOPE_BLOCK_ROWS)
    ]
    guesses, probabilities = (np.concatenate(part) for part in zip(*slabs))
    return _estimate(guesses, probabilities, multiplier)


def first_component(matrix: np.ndarray) -> np.ndarray:
    """Unit first principal axis of a centred matrix (one sample per row),
    by power iteration from the all-ones direction, until no coordinate
    moves by more than ``_PC_TOLERANCE``: about ten steps on a victim
    trace's windows, whose leakage component stands far above the noise."""
    axis = np.full(matrix.shape[1], 1.0 / np.sqrt(matrix.shape[1]))
    for _ in range(_PC_MAX_STEPS):
        step = matrix.T @ (matrix @ axis)
        norm = np.linalg.norm(step)
        if norm == 0.0:
            raise RecoveryFailed("the swap windows do not vary; nothing to cluster")
        step /= norm
        moved = np.abs(step - axis).max()
        axis = step
        if moved <= _PC_TOLERANCE:
            break
    return axis


def two_cluster_posteriors(values: np.ndarray) -> np.ndarray:
    """Each value's posterior for the upper cluster of a two-Gaussian
    mixture fitted by ``_EM_STEPS`` steps of EM: per cluster a weight, a
    mean and a variance floored at ``_EM_VARIANCE_FLOOR`` of the values'
    own.  EM starts from a split at the median rank."""
    n = values.size
    if n < 2:
        raise RecoveryFailed("clustering needs at least two swap windows")
    resp = np.tile((1.0, 0.0), (n, 1))
    resp[np.argsort(values, kind="stable")[n // 2 :]] = (0.0, 1.0)
    tiny = np.finfo(np.float64).tiny
    floor = _EM_VARIANCE_FLOOR * float(values.var()) + tiny
    for _ in range(_EM_STEPS):
        counts = np.maximum(resp.sum(axis=0), tiny)
        means = values @ resp / counts
        deviations = (values[:, None] - means) ** 2
        variances = np.maximum(np.sum(deviations * resp, axis=0) / counts, floor)
        log_p = np.log(counts / n) - 0.5 * np.log(variances) - 0.5 * deviations / variances
        resp = np.exp(log_p - log_p.max(axis=1, keepdims=True))
        resp /= resp.sum(axis=1, keepdims=True)
    return resp[:, 1]


def cluster_nonce_bits(
    trace: LeakageTrace,
    windows: AlignedSwapWindows,
    multiplier: str,
    width: int,
    cfg: SimConfig,
) -> tuple[NonceEstimate, NonceEstimate]:
    """Split one trace's aligned swap windows into two classes with no
    profiling: cut ``width`` samples long (a swap burst's) as
    ``recover_nonce_bits`` cuts them, enveloped, centred, projected onto
    their first principal component and split there by a two-Gaussian
    mixture.  Which cluster holds the swaps is unknown, so the nonce is
    read under both labellings, the upper cluster as cond = 1 first; the
    caller keeps the one the public key confirms.  ``probabilities`` are
    cluster posteriors."""
    view, starts = _window_starts(trace, windows, multiplier, width)
    features = _envelope_rows(view[starts], max(3, cfg.samples_per_event // 4))
    features -= features.mean(axis=0)
    upper = two_cluster_posteriors(features @ first_component(features))
    guesses = (upper > 0.5).astype(np.int8)
    return (
        _estimate(guesses, upper, multiplier),
        _estimate(1 - guesses, 1.0 - upper, multiplier),
    )


def write_model(model: TemplateModel, path: Path | str) -> None:
    """Serialize a template model to its binary container."""
    meta_blob = "".join(
        f"{k}={v}\n" for k, v in sorted(model.trained_on.items())
    ).encode()
    mode_flag = 0 if model.mode == "diag" else 1
    with open(path, "wb") as fh:
        fh.write(
            struct.pack(
                "<4sIBII",
                MODEL_MAGIC,
                MODEL_VERSION,
                mode_flag,
                model.poi.size,
                len(meta_blob),
            )
        )
        fh.write(meta_blob)
        fh.write(model.poi.astype("<i8").tobytes())
        fh.write(model.mean0.astype("<f8").tobytes())
        fh.write(model.mean1.astype("<f8").tobytes())
        fh.write(model.cov.astype("<f8").tobytes())


def read_model(path: Path | str) -> TemplateModel:
    """Load a template model, revalidating its invariants."""
    header_fmt = "<4sIBII"
    header_size = struct.calcsize(header_fmt)
    with open(path, "rb") as fh:
        header = fh.read(header_size)
        if len(header) != header_size:
            raise DomainError(f"{path} is truncated")
        magic, version, mode_flag, p, meta_len = struct.unpack(header_fmt, header)
        if magic != MODEL_MAGIC:
            raise DomainError(f"{path} is not a template model (bad magic)")
        if version != MODEL_VERSION:
            raise DomainError(f"unsupported model version {version}")
        if mode_flag not in (0, 1):
            raise DomainError(f"unknown covariance mode flag {mode_flag}")
        mode = "diag" if mode_flag == 0 else "full"
        cov_count = p if mode == "diag" else p * p
        check_file_size(fh, header_size + meta_len + 8 * (3 * p + cov_count), path)
        trained_on = parse_meta(fh.read(meta_len), path)
        payload = fh.read(8 * (3 * p + cov_count))
    poi = np.frombuffer(payload[: 8 * p], dtype="<i8")
    mean0 = np.frombuffer(payload[8 * p : 16 * p], dtype="<f8")
    mean1 = np.frombuffer(payload[16 * p : 24 * p], dtype="<f8")
    cov = np.frombuffer(payload[24 * p :], dtype="<f8")
    if mode == "full":
        cov = cov.reshape(p, p)
    return TemplateModel(
        poi=poi.copy(),
        mean0=mean0.copy(),
        mean1=mean1.copy(),
        cov=cov.copy(),
        mode=mode,
        trained_on=trained_on,
    )


def export_t_csv(result: TTestResult, path: Path | str) -> None:
    """Write the t-curve as CSV for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("sample_index", "t_value"))
        for i, value in enumerate(result.t_values):
            writer.writerow((i, f"{value:.9g}"))
