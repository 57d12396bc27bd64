"""Pitch evaluation metrics.

All trajectory metrics compare a predicted F0 trajectory against a truth
trajectory of equal length, where a frame is voiced iff its value is
strictly positive.  Relative error is referenced to truth:
``|pred - truth| / truth``.

Conventions
-----------
- Gross error: relative error strictly above 20% on a frame voiced in
  both trajectories.  GPE = gross frames / both-voiced frames.
- Fine error: among both-voiced frames with relative error <= 20%
  (the boundary stays on the fine side so GPE and FPE partition
  cleanly), the fraction with error strictly above 5%.
- Accurately processed: frames unvoiced in both, plus both-voiced frames
  without gross error, over all frames.  Any voiced/unvoiced
  disagreement is inaccurate.
- Undefined ratios (empty denominators, degenerate correlations) are
  returned as None, never as 0: an all-unvoiced fixture must not fake a
  perfect score.

Ratios are fractions in [0, 1]; the report CSV renders them as
percentages with one decimal, absent values as empty fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GROSS_REL_ERROR = 0.20
FINE_REL_ERROR = 0.05

REPORT_COLUMNS = ("dataset", "sex", "gpe", "fpe", "accuracy", "precision",
                  "recall", "accurately_processed", "rho_f0")


def _as_trajectory(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D trajectory")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    p = _as_trajectory("pred", pred)
    t = _as_trajectory("truth", truth)
    if len(p) != len(t):
        raise ValueError(f"length mismatch: pred {len(p)} vs truth {len(t)}")
    return p, t


@dataclass(frozen=True)
class ConfusionCounts:
    """Voiced/unvoiced confusion with voiced as the positive class."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float | None:
        return (self.tp + self.tn) / self.total if self.total else None

    @property
    def precision(self) -> float | None:
        denom = self.tp + self.fp
        return self.tp / denom if denom else None

    @property
    def recall(self) -> float | None:
        denom = self.tp + self.fn
        return self.tp / denom if denom else None

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.tn + other.tn, self.fn + other.fn)


@dataclass(frozen=True)
class PitchErrorCounts:
    """Pooled frame counts behind GPE/FPE/accurately-processed ratios."""

    total: int
    both_voiced: int
    gross: int
    fine_band: int       # both-voiced with relative error <= 20%
    fine_errors: int     # fine_band frames with relative error > 5%
    both_unvoiced: int

    def __add__(self, other: "PitchErrorCounts") -> "PitchErrorCounts":
        return PitchErrorCounts(
            self.total + other.total,
            self.both_voiced + other.both_voiced,
            self.gross + other.gross,
            self.fine_band + other.fine_band,
            self.fine_errors + other.fine_errors,
            self.both_unvoiced + other.both_unvoiced,
        )

    @property
    def gpe(self) -> float | None:
        return self.gross / self.both_voiced if self.both_voiced else None

    @property
    def fpe(self) -> float | None:
        return self.fine_errors / self.fine_band if self.fine_band else None

    @property
    def accurately_processed(self) -> float | None:
        if not self.total:
            return None
        return (self.both_unvoiced + (self.both_voiced - self.gross)) / self.total


def pitch_error_counts(pred, truth) -> PitchErrorCounts:
    """Frame counts for one trajectory pair (the pooling unit)."""
    p, t = _pair(pred, truth)
    voiced_p, voiced_t = p > 0, t > 0
    both = voiced_p & voiced_t
    rel = np.abs(p[both] - t[both]) / t[both]
    gross = rel > GROSS_REL_ERROR
    fine_band = ~gross
    fine_errors = fine_band & (rel > FINE_REL_ERROR)
    return PitchErrorCounts(
        total=len(p),
        both_voiced=int(both.sum()),
        gross=int(gross.sum()),
        fine_band=int(fine_band.sum()),
        fine_errors=int(fine_errors.sum()),
        both_unvoiced=int((~voiced_p & ~voiced_t).sum()),
    )


def vuv_confusion(pred, truth) -> ConfusionCounts:
    """Per-frame voiced/unvoiced confusion (voiced = positive class)."""
    p, t = _pair(pred, truth)
    voiced_p, voiced_t = p > 0, t > 0
    return ConfusionCounts(
        tp=int((voiced_p & voiced_t).sum()),
        fp=int((voiced_p & ~voiced_t).sum()),
        tn=int((~voiced_p & ~voiced_t).sum()),
        fn=int((~voiced_p & voiced_t).sum()),
    )


def gpe(pred, truth) -> float | None:
    """Gross pitch error rate over frames voiced in both; None if no such frame."""
    return pitch_error_counts(pred, truth).gpe


def fpe(pred, truth) -> float | None:
    """Fine pitch error rate over the <=20% band; None if the band is empty."""
    return pitch_error_counts(pred, truth).fpe


def accurately_processed(pred, truth) -> float:
    """Correct unvoiced frames plus non-gross voiced frames, over all frames."""
    counts = pitch_error_counts(pred, truth)
    if counts.total == 0:
        raise ValueError("accurately_processed needs at least one frame")
    return counts.accurately_processed


def pitch_correlation(a, b) -> float | None:
    """Pearson correlation over frames voiced in both trajectories.

    None when fewer than 2 common voiced frames exist or either side has
    zero variance there.
    """
    x, y = _pair(a, b)
    both = (x > 0) & (y > 0)
    if both.sum() < 2:
        return None
    xs, ys = x[both], y[both]
    # A constant side has zero sample variance by definition; test for it
    # exactly, because mean(c, ..., c) need not round back to c and the
    # residuals would then carry spurious variance.
    if (xs == xs[0]).all() or (ys == ys[0]).all():
        return None
    dx, dy = xs - xs.mean(), ys - ys.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        return None
    return float((dx * dy).sum() / (sx * sy))


@dataclass(frozen=True)
class MetricsReport:
    """Pooled evaluation over a set of utterances.

    Count-based rates are micro-averaged (counts pooled across all frames
    of all utterances, ratio taken once); pitch correlation is
    macro-averaged per utterance over defined values only.  Absent
    metrics are None.
    """

    counts: ConfusionCounts
    pitch_counts: PitchErrorCounts
    pitch_correlation: float | None

    @property
    def gpe(self) -> float | None:
        return self.pitch_counts.gpe

    @property
    def fpe(self) -> float | None:
        return self.pitch_counts.fpe

    @property
    def accuracy(self) -> float | None:
        return self.counts.accuracy

    @property
    def precision(self) -> float | None:
        return self.counts.precision

    @property
    def recall(self) -> float | None:
        return self.counts.recall

    @property
    def accurately_processed(self) -> float | None:
        return self.pitch_counts.accurately_processed


def evaluate_utterances(pred: dict, truth: dict) -> MetricsReport:
    """Pool metrics over matching utt_id -> trajectory mappings.

    Counts are summed across utterances before any ratio is taken;
    pitch correlation is averaged over utterances where it is defined.
    """
    if set(pred) != set(truth):
        missing = set(truth) ^ set(pred)
        raise ValueError(f"unmatched utt_ids: {sorted(missing)[:5]}")
    if not truth:
        raise ValueError("no utterances to evaluate")
    confusion = ConfusionCounts(0, 0, 0, 0)
    pooled = PitchErrorCounts(0, 0, 0, 0, 0, 0)
    rhos = []
    for utt_id in sorted(truth):
        p, t = pred[utt_id], truth[utt_id]
        confusion = confusion + vuv_confusion(p, t)
        pooled = pooled + pitch_error_counts(p, t)
        rho = pitch_correlation(p, t)
        if rho is not None:
            rhos.append(rho)
    mean_rho = float(np.mean(rhos)) if rhos else None
    return MetricsReport(confusion, pooled, mean_rho)


def format_percent(value: float | None) -> str:
    """Fraction -> one-decimal percentage string; absent -> empty field."""
    return "" if value is None else f"{100.0 * value:.1f}"


def format_correlation(value: float | None) -> str:
    """Correlation -> three-decimal string (it is not a rate); absent -> empty."""
    return "" if value is None else f"{value:.3f}"


def report_csv_row(dataset: str, sex: str, report: MetricsReport) -> str:
    """One report CSV data row (see REPORT_COLUMNS for the header)."""
    return ",".join([
        dataset,
        sex,
        format_percent(report.gpe),
        format_percent(report.fpe),
        format_percent(report.accuracy),
        format_percent(report.precision),
        format_percent(report.recall),
        format_percent(report.accurately_processed),
        format_correlation(report.pitch_correlation),
    ])
