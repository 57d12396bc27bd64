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
class FrameCounts:
    """Frame counts behind every pitch and voicing rate; they add when pooled.

    ``tp``/``fp``/``tn``/``fn`` are the voiced/unvoiced confusion with
    voiced as the positive class, so ``tp`` frames are voiced in both.
    ``gross`` counts the ``tp`` frames with relative error above 20%;
    ``fine_errors`` counts the other ``tp`` frames with error above 5%.
    """

    tp: int
    fp: int
    tn: int
    fn: int
    gross: int
    fine_errors: int

    def __post_init__(self) -> None:
        # the last term counts the fine-band frames without a fine error
        if min(self.tp, self.fp, self.tn, self.fn, self.gross, self.fine_errors,
               self.tp - self.gross - self.fine_errors) < 0:
            raise ValueError("counts must be non-negative")

    def __add__(self, other: "FrameCounts") -> "FrameCounts":
        return FrameCounts(self.tp + other.tp, self.fp + other.fp,
                           self.tn + other.tn, self.fn + other.fn,
                           self.gross + other.gross,
                           self.fine_errors + other.fine_errors)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def both_voiced(self) -> int:
        return self.tp

    @property
    def both_unvoiced(self) -> int:
        return self.tn

    @property
    def fine_band(self) -> int:
        """Both-voiced frames with relative error <= 20%."""
        return self.tp - self.gross

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


def pitch_error_counts(pred, truth) -> FrameCounts:
    """Frame counts for one trajectory pair (the pooling unit)."""
    p, t = _pair(pred, truth)
    voiced_p, voiced_t = p > 0, t > 0
    both = voiced_p & voiced_t
    rel = np.abs(p[both] - t[both]) / t[both]
    gross = rel > GROSS_REL_ERROR
    tp, n_voiced_p, n_voiced_t = int(both.sum()), int(voiced_p.sum()), int(voiced_t.sum())
    return FrameCounts(
        tp=tp,
        fp=n_voiced_p - tp,
        tn=len(p) - n_voiced_p - n_voiced_t + tp,
        fn=n_voiced_t - tp,
        gross=int(gross.sum()),
        fine_errors=int((~gross & (rel > FINE_REL_ERROR)).sum()),
    )


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
class MetricsReport(FrameCounts):
    """Pooled evaluation over a set of utterances.

    Count-based rates are micro-averaged (counts pooled across all frames
    of all utterances, ratio taken once); pitch correlation is
    macro-averaged per utterance over defined values only.  Absent
    metrics are None.
    """

    pitch_correlation: float | None


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
    pooled = FrameCounts(0, 0, 0, 0, 0, 0)
    rhos = []
    for utt_id in sorted(truth):
        p, t = pred[utt_id], truth[utt_id]
        pooled = pooled + pitch_error_counts(p, t)
        rho = pitch_correlation(p, t)
        if rho is not None:
            rhos.append(rho)
    mean_rho = float(np.mean(rhos)) if rhos else None
    return MetricsReport(**vars(pooled), pitch_correlation=mean_rho)


def format_percent(value: float | None) -> str:
    """Fraction -> one-decimal percentage string; absent -> empty field."""
    return "" if value is None else f"{100.0 * value:.1f}"


def format_correlation(value: float | None) -> str:
    """Correlation -> three-decimal string (it is not a rate); absent -> empty."""
    return "" if value is None else f"{value:.3f}"


def report_csv_row(dataset: str, sex: str, report: MetricsReport) -> list[str]:
    """One report CSV data row's fields, in REPORT_COLUMNS order."""
    rates = (report.gpe, report.fpe, report.accuracy, report.precision,
             report.recall, report.accurately_processed)
    return [dataset, sex, *map(format_percent, rates),
            format_correlation(report.pitch_correlation)]
