"""Composite loss, NAdam optimizer, plateau scheduler, and the epoch loop.

Loss
----
Per batch: ``L = L1 + alpha * BCE`` where the L1 term is the mean
absolute error of normalized log-F0 over frames voiced in truth (0 when
the batch has none), and the BCE term is binary cross-entropy with
logits over all frames, in the numerically stable form

    max(g, 0) - g * v + ln(1 + exp(-|g|)).

The returned output-side gradients are exact partials of this scalar,
so the backward pass only has to sum over rows.

Optimizer
---------
NAdam with the published momentum-decay schedule: beta1 = 0.9,
beta2 = 0.999, eps = 1e-8, psi = 0.004; bias correction through the
running product of schedule values, Nesterov-style lookahead on the
first moment.

Scheduler
---------
Higher metric = better.  One counter tracks epochs without strict
improvement; at ``patience_lr`` it fires a single lr reduction
(by ``lr_factor``, counter keeps running), at ``patience_stop`` it stops.
Only strict improvement resets the counter; stop is absorbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .featureio import Dataset, FrameTable, build_frame_table, compute_norm_stats
from .metrics import pitch_error_counts
from .model import (
    Gradients,
    ModelConfig,
    ModelParams,
    backward,
    forward,
    infer_f0,
    init_params,
    predict_f0,  # noqa: F401  unused here; bench/tracer.py wraps this binding
    sigmoid,
)

NADAM_BETA1 = 0.9
NADAM_BETA2 = 0.999
NADAM_EPS = 1e-8
NADAM_PSI = 0.004
VALIDATION_BLOCK_ROWS = 4096  # rows per forward pass in validation_metric

HISTORY_COLUMNS = ("epoch", "train_loss", "val_metric", "lr", "event")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; defaults match the adopted recipe."""

    alpha: float = 28.112
    lr: float = 0.0003
    batch_size: int = 262144
    patience_lr: int = 5
    lr_factor: float = 0.2
    patience_stop: int = 10
    max_epochs: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("alpha", "lr"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0.0 < self.lr_factor < 1.0:
            raise ValueError("lr_factor must be in (0, 1)")
        if self.patience_lr < 1 or self.patience_stop < 1:
            raise ValueError("patience values must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")


def composite_loss(
    f0hat_norm: np.ndarray,
    g: np.ndarray,
    target_logf0_norm: np.ndarray,
    voiced: np.ndarray,
    alpha: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Masked L1 plus weighted BCE-with-logits; returns exact output gradients.

    The L1 subgradient at 0 is taken as 0.  Unvoiced frames contribute
    nothing to the regression gradient; every frame contributes to the
    voicing gradient.
    """
    f0hat_norm = np.asarray(f0hat_norm, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    target = np.asarray(target_logf0_norm, dtype=np.float64)
    voiced = np.asarray(voiced, dtype=bool)
    n = len(f0hat_norm)
    if not (len(g) == len(target) == len(voiced) == n) or n == 0:
        raise ValueError("loss inputs must be equal-length non-empty vectors")
    if not (np.isfinite(f0hat_norm).all() and np.isfinite(g).all()
            and np.isfinite(target).all()):
        raise ValueError("non-finite loss input")
    v = voiced.astype(np.float64)
    n_voiced = int(voiced.sum())

    diff = f0hat_norm - target
    if n_voiced:
        l1 = float(np.abs(diff[voiced]).sum() / n_voiced)
    else:
        l1 = 0.0
    bce = float((np.maximum(g, 0.0) - g * v + np.log1p(np.exp(-np.abs(g)))).mean())
    loss = l1 + alpha * bce

    dL_df0hat = np.zeros(n)
    if n_voiced:
        dL_df0hat[voiced] = np.sign(diff[voiced]) / n_voiced
    dL_dg = alpha * (sigmoid(g) - v) / n
    return loss, dL_df0hat, dL_dg


@dataclass
class OptimizerState:
    """NAdam accumulators: moments as float64 vectors over the flattened
    ``[*weights, *biases]``, step count, and the running product of
    momentum-schedule values."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    mu_product: float = 1.0


def init_optimizer(params: ModelParams) -> OptimizerState:
    size = sum(p.size for p in (*params.weights, *params.biases))
    return OptimizerState(m=np.zeros(size), v=np.zeros(size))


def _mu(t: int) -> float:
    return NADAM_BETA1 * (1.0 - 0.5 * 0.96 ** (t * NADAM_PSI))


def nadam_step(
    state: OptimizerState,
    params: ModelParams,
    grads: Gradients,
    lr: float,
) -> tuple[ModelParams, OptimizerState]:
    """One NAdam update; returns fresh params and state (inputs untouched).

    It runs once over all parameters as one flat vector, elementwise, so
    the bits are those of a per-array update; the new params are views.
    """
    g = np.concatenate([a.ravel() for a in (*grads.weights, *grads.biases)])
    if not np.isfinite(g).all():
        raise ValueError("non-finite gradient")
    t = state.step + 1
    mu_t = _mu(t)
    mu_next = _mu(t + 1)
    mu_product = state.mu_product * mu_t
    g_scale = lr * (1.0 - mu_t) / (1.0 - mu_product)
    m_scale = lr * mu_next / (1.0 - mu_product * mu_next)
    v_correction = 1.0 - NADAM_BETA2**t

    arrays = (*params.weights, *params.biases)
    m = NADAM_BETA1 * state.m + (1.0 - NADAM_BETA1) * g
    v = NADAM_BETA2 * state.v + (1.0 - NADAM_BETA2) * g * g
    denom = np.sqrt(v / v_correction) + NADAM_EPS
    p = np.concatenate([a.ravel() for a in arrays]) - g_scale * g / denom - m_scale * m / denom
    new_p = [part.reshape(a.shape) for part, a in
             zip(np.split(p, np.cumsum([a.size for a in arrays])[:-1]), arrays)]
    n_layers = len(params.weights)
    new_params = ModelParams(new_p[:n_layers], new_p[n_layers:], params.norm)
    return new_params, OptimizerState(m, v, step=t, mu_product=mu_product)


@dataclass
class SchedulerState:
    """Plateau tracker; ``current_lr`` is the live learning rate, ``config`` the settings."""

    current_lr: float
    config: TrainConfig = TrainConfig()
    best_metric: float = -np.inf
    epochs_since_improve: int = 0
    stopped: bool = False


def scheduler_update(state: SchedulerState, epoch_metric: float) -> str:
    """Feed one epoch's validation metric; returns continue|reduce_lr|stop."""
    if not np.isfinite(epoch_metric):
        raise ValueError("epoch metric must be finite")
    if state.stopped:
        return "stop"
    if epoch_metric > state.best_metric:
        state.best_metric = epoch_metric
        state.epochs_since_improve = 0
        return "continue"
    state.epochs_since_improve += 1
    if state.epochs_since_improve >= state.config.patience_stop:
        state.stopped = True
        return "stop"
    if state.epochs_since_improve == state.config.patience_lr:
        state.current_lr *= state.config.lr_factor
        return "reduce_lr"
    return "continue"


@dataclass(frozen=True)
class EpochRecord:
    epoch: int          # 1-based
    train_loss: float
    val_metric: float
    lr: float           # rate in effect during the epoch's updates
    event: str          # none | reduce_lr | stop


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def best_val_metric(self) -> float | None:
        return max((r.val_metric for r in self.records), default=None)

    def csv_rows(self) -> list[list[str]]:
        """One row of fields per epoch, in HISTORY_COLUMNS order."""
        return [[str(r.epoch), f"{r.train_loss:.10g}", f"{r.val_metric:.10g}",
                 f"{r.lr:.10g}", r.event] for r in self.records]


def validation_metric(params: ModelParams, rows: np.ndarray, truth_f0: np.ndarray) -> float:
    """Accurately-processed fraction pooled over all validation frames.

    ``rows`` holds every frame's raw feature row (float32, as the frame
    table keeps it) and ``truth_f0`` its truth F0 in Hz, both in utterance
    order.  Frames run in blocks of ``VALIDATION_BLOCK_ROWS``, each cast
    to float64 in one reused buffer and normalized with ``params.norm``
    just before its forward pass; normalization is elementwise, so the
    bits are those of normalizing the whole table once.  A row's last bit
    can differ from ``predict_f0`` on its utterance alone (see README).
    The pitch counts are integer sums, so one count over all frames
    equals pooling per-utterance counts.
    """
    buf = np.empty((min(len(rows), VALIDATION_BLOCK_ROWS), rows.shape[1]))
    preds = []
    for start in range(0, len(rows), VALIDATION_BLOCK_ROWS):
        block = rows[start:start + VALIDATION_BLOCK_ROWS]
        normed = buf[:len(block)]
        np.copyto(normed, block)
        preds.append(infer_f0(params, params.norm.normalize_inputs(normed, out=normed))[0])
    return pitch_error_counts(np.concatenate(preds), truth_f0).accurately_processed


def train(
    train_table: FrameTable,
    val_dataset: Dataset,
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> tuple[ModelParams, TrainHistory]:
    """Full training loop; returns the best-validation params and history.

    Per epoch the frame table is re-permuted with seed
    ``config.seed + epoch``, consumed in batches (final partial batch
    included), and validated with the accurately-processed metric; the
    plateau scheduler drives lr reductions and early stopping.  The
    returned parameters are the copy that achieved the best validation
    metric, not the last epoch's.  Both tables stay float32: each training
    batch is gathered with ``np.take``, cast to float64 and normalized in
    place, and ``validation_metric`` normalizes each validation block
    likewise.  ``val_dataset`` is dropped once its frame table is built.
    An epoch whose arithmetic overflows raises ``ValueError`` naming it.
    """
    if train_table.n_rows == 0:
        raise ValueError("empty training table")
    if model_config.input_dim != train_table.rows.shape[1]:
        raise ValueError(
            f"model input_dim {model_config.input_dim} != "
            f"frame width {train_table.rows.shape[1]}")

    params = init_params(model_config, train_config.seed)
    params.norm = compute_norm_stats(train_table)
    targets = np.where(train_table.voiced,
                       params.norm.normalize_logf0(train_table.target_logf0), 0.0)
    if val_dataset.total_frames == 0:
        raise ValueError("validation dataset has no frames")
    if val_dataset.input_width != model_config.input_dim:
        raise ValueError(
            f"validation input width {val_dataset.input_width} != "
            f"model input_dim {model_config.input_dim}")
    val_rows = build_frame_table(val_dataset).rows
    val_f0 = np.concatenate([u.f0.astype(np.float64) for u in val_dataset.utterances])
    del val_dataset

    opt = init_optimizer(params)
    sched = SchedulerState(train_config.lr, train_config)
    history = TrainHistory()
    best_params = params.copy()
    n = train_table.n_rows

    # An overflow raises (a Python float sum does not, so it is checked),
    # named with the epoch and the settings that scale the loss and the steps.
    settings = f"train.alpha {train_config.alpha:g}, train.lr {train_config.lr:g}"
    try:
        with np.errstate(over="raise"):
            for epoch in range(train_config.max_epochs):
                epoch_lr = sched.current_lr
                perm = np.random.default_rng(train_config.seed + epoch).permutation(n)
                loss_sum = 0.0
                for batch_idx, start in enumerate(range(0, n, train_config.batch_size)):
                    idx = perm[start:start + train_config.batch_size]
                    batch = np.take(train_table.rows, idx, axis=0).astype(np.float64)
                    params.norm.normalize_inputs(batch, out=batch)
                    f0hat, g, cache = forward(
                        params, batch, train_mode=True, dropout=model_config.dropout,
                        dropout_seed=[train_config.seed, epoch, batch_idx],
                    )
                    loss, d_f0hat, d_g = composite_loss(
                        f0hat, g, np.take(targets, idx), np.take(train_table.voiced, idx),
                        train_config.alpha)
                    grads = backward(params, cache, d_f0hat, d_g)
                    # Frees this pass's activations before the next forward allocates.
                    del batch, f0hat, g, cache
                    params, opt = nadam_step(opt, params, grads, epoch_lr)
                    loss_sum += loss * len(idx)
                if not np.isfinite(loss_sum):
                    raise ValueError(f"epoch {epoch + 1} ({settings}): "
                                     f"overflow encountered in the train loss sum")
                train_loss = loss_sum / n

                metric = validation_metric(params, val_rows, val_f0)
                action = scheduler_update(sched, metric)
                if sched.epochs_since_improve == 0:
                    best_params = params.copy()
                event = action if action != "continue" else "none"
                history.records.append(EpochRecord(
                    epoch=epoch + 1, train_loss=train_loss, val_metric=metric,
                    lr=epoch_lr, event=event))
                if action == "stop":
                    break
    except FloatingPointError as exc:
        raise ValueError(f"epoch {epoch + 1} ({settings}): {exc}") from None
    return best_params, history
