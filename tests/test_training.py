import dataclasses
import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from f0synth import training
from f0synth.featureio import (
    Dataset,
    FrameTable,
    Gender,
    Utterance,
    build_frame_table,
    compute_norm_stats,
    write_csv,
)
from f0synth.metrics import FrameCounts, pitch_error_counts
from f0synth.model import ModelConfig, backward, forward, infer_f0, init_params, predict_f0
from f0synth.synthgen import SynthSpec, generate_synthetic_dataset
from f0synth.training import (
    HISTORY_COLUMNS,
    EpochRecord,
    Gradients,
    OptimizerState,
    SchedulerState,
    TrainConfig,
    TrainHistory,
    composite_loss,
    init_optimizer,
    nadam_step,
    scheduler_update,
    train,
    validation_metric,
)


class TestCompositeLoss:
    def test_hand_arithmetic_example(self):
        loss, d_f0, d_g = composite_loss(
            f0hat_norm=np.array([1.0, 2.0, 9.9]),
            g=np.zeros(3),
            target_logf0_norm=np.array([1.5, 2.0, 0.0]),
            voiced=np.array([True, True, False]),
            alpha=2.0,
        )
        assert loss == pytest.approx(0.25 + 2.0 * np.log(2.0), abs=1e-12)
        # regression gradient: sign(-0.5)/2, sign(0)/2 (sign(0)=0), unvoiced 0
        assert d_f0.tolist() == [-0.5, 0.0, 0.0]
        # voicing gradient: alpha*(sigmoid(0)-v)/B
        assert d_g.tolist() == pytest.approx([2 * (0.5 - 1) / 3, 2 * (0.5 - 1) / 3,
                                              2 * 0.5 / 3])

    def test_symmetric_logit_gives_ln2(self):
        for v in (True, False):
            loss, _, _ = composite_loss(np.zeros(1), np.zeros(1), np.zeros(1),
                                        np.array([v]), alpha=1.0)
            assert loss == pytest.approx(np.log(2.0), abs=1e-15)

    def test_perfect_prediction_with_confident_logits(self):
        target = np.array([0.3, -0.1, 1.2])
        voiced = np.array([True, False, True])
        g = np.where(voiced, 20.0, -20.0)
        loss, d_f0, _ = composite_loss(target, g, target, voiced, alpha=28.112)
        assert loss == pytest.approx(28.112 * np.log1p(np.exp(-20.0)), rel=1e-9)
        assert not d_f0.any()

    def test_unvoiced_batch_has_no_l1_term(self):
        loss, d_f0, d_g = composite_loss(
            np.array([5.0, -3.0]), np.array([1.0, -1.0]),
            np.array([0.0, 0.0]), np.array([False, False]), alpha=1.0)
        assert not d_f0.any()
        assert np.isfinite(loss)
        # pure BCE with v=0
        expect = np.mean([1.0 + np.log1p(np.exp(-1.0)), np.log1p(np.exp(-1.0))])
        assert loss == pytest.approx(expect)

    def test_extreme_logits_stable(self):
        loss, _, d_g = composite_loss(
            np.zeros(2), np.array([800.0, -800.0]), np.zeros(2),
            np.array([False, True]), alpha=1.0)
        assert np.isfinite(loss) and loss > 0
        assert np.isfinite(d_g).all()

    def test_bce_gradient_sign(self):
        for g_val in (-5.0, 0.0, 7.0):
            _, _, d_g = composite_loss(np.zeros(1), np.array([g_val]), np.zeros(1),
                                       np.array([True]), alpha=3.0)
            assert d_g[0] < 0  # v=1 always pulls the logit up
            _, _, d_g = composite_loss(np.zeros(1), np.array([g_val]), np.zeros(1),
                                       np.array([False]), alpha=3.0)
            assert d_g[0] > 0  # v=0 always pushes it down

    def test_alpha_scales_bce_gradient_linearly(self):
        g = np.array([0.7, -1.3])
        voiced = np.array([True, False])
        _, _, d1 = composite_loss(np.zeros(2), g, np.zeros(2), voiced, alpha=1.5)
        _, _, d2 = composite_loss(np.zeros(2), g, np.zeros(2), voiced, alpha=3.0)
        assert np.allclose(d2, 2.0 * d1, atol=1e-15)

    def test_loss_non_negative_random_scan(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            loss, _, _ = composite_loss(
                rng.normal(size=n), rng.normal(size=n) * 5, rng.normal(size=n),
                rng.random(n) < 0.5, alpha=float(rng.uniform(0.1, 30)))
            assert loss >= 0.0

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            composite_loss(np.zeros(2), np.zeros(3), np.zeros(2),
                           np.zeros(2, dtype=bool), 1.0)
        with pytest.raises(ValueError):
            composite_loss(np.array([np.nan]), np.zeros(1), np.zeros(1),
                           np.array([True]), 1.0)
        with pytest.raises(ValueError):
            composite_loss(np.array([]), np.array([]), np.array([]),
                           np.array([], dtype=bool), 1.0)

    def test_gradients_match_finite_differences_through_network(self):
        # end-to-end: d(composite_loss(forward(params)))/d(params)
        rng = np.random.default_rng(3)
        config = ModelConfig(input_dim=4, hidden_sizes=[6, 5])
        params = init_params(config, 1)
        batch = rng.normal(size=(5, 4))
        target = rng.normal(size=5)
        voiced = np.array([True, False, True, True, False])
        alpha = 28.112
        step = 1e-5

        def loss_at():
            f0hat, g, cache = forward(params, batch)
            loss, d_f0, d_g = composite_loss(f0hat, g, target, voiced, alpha)
            return loss, cache, d_f0, d_g

        loss, cache, d_f0, d_g = loss_at()
        grads = backward(params, cache, d_f0, d_g)
        for li in range(params.n_layers):
            for arrs, analytic in ((params.weights, grads.weights),
                                   (params.biases, grads.biases)):
                arr = arrs[li]
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + step
                    lp, *_ = loss_at()
                    arr[idx] = orig - step
                    lm, *_ = loss_at()
                    arr[idx] = orig
                    fd = (lp - lm) / (2 * step)
                    an = analytic[li][idx]
                    assert abs(an - fd) <= 1e-4 * max(abs(an), abs(fd), 1e-8)


def reference_nadam_scalar(grad_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                           psi=0.004):
    """Straightforward scalar NAdam written independently as an oracle,
    bias correction spelled out with explicit schedule products."""
    w = 0.0
    m = v = 0.0
    mus = []
    for t, g in enumerate(grad_seq, start=1):
        mu_t = beta1 * (1 - 0.5 * 0.96 ** (t * psi))
        mu_next = beta1 * (1 - 0.5 * 0.96 ** ((t + 1) * psi))
        mus.append(mu_t)
        prod_t = 1.0
        for mu in mus:
            prod_t *= mu
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = mu_next * m / (1 - prod_t * mu_next) + (1 - mu_t) * g / (1 - prod_t)
        v_hat = v / (1 - beta2**t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def reference_nadam_per_array(m, v, step, mu_product, arrays, grads, lr):
    """The per-array NAdam loop: one update per parameter array, moments as
    lists of arrays; returns (new arrays, new m, new v, new mu_product)."""
    t = step + 1
    mu_t = training._mu(t)
    mu_next = training._mu(t + 1)
    mu_product = mu_product * mu_t
    g_scale = lr * (1.0 - mu_t) / (1.0 - mu_product)
    m_scale = lr * mu_next / (1.0 - mu_product * mu_next)
    v_correction = 1.0 - training.NADAM_BETA2**t
    new_p, new_m, new_v = [], [], []
    for p, m_i, v_i, g in zip(arrays, m, v, grads):
        m_i = training.NADAM_BETA1 * m_i + (1.0 - training.NADAM_BETA1) * g
        v_i = training.NADAM_BETA2 * v_i + (1.0 - training.NADAM_BETA2) * g * g
        denom = np.sqrt(v_i / v_correction) + training.NADAM_EPS
        new_p.append(p - g_scale * g / denom - m_scale * m_i / denom)
        new_m.append(m_i)
        new_v.append(v_i)
    return new_p, new_m, new_v, mu_product


def scalar_params(w0=0.0):
    # 1-input, single hidden unit chain ending in the 2-unit head is overkill
    # for scalar tests; use a raw 1x1 stack shaped like a real model instead
    from f0synth.featureio import NormStats
    from f0synth.model import ModelParams
    return ModelParams([np.array([[w0]]), np.array([[1.0], [1.0]])],
                       [np.zeros(1), np.zeros(2)], NormStats.identity(1))


class TestNadam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = scalar_params(0.5)
        state = init_optimizer(params)
        zero = Gradients([np.zeros_like(w) for w in params.weights],
                         [np.zeros_like(b) for b in params.biases])
        new_params, new_state = nadam_step(state, params, zero, lr=0.01)
        for a, b in zip(params.weights, new_params.weights):
            assert np.array_equal(a, b)
        assert new_state.step == 1

    def test_zero_lr_step_is_bit_identical(self):
        params = scalar_params(0.25)
        state = init_optimizer(params)
        grads = Gradients([np.ones_like(w) for w in params.weights],
                          [np.ones_like(b) for b in params.biases])
        new_params, _ = nadam_step(state, params, grads, lr=0.0)
        for a, b in zip(params.weights, new_params.weights):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_matches_scalar_reference_one_step(self):
        params = scalar_params(0.0)
        state = init_optimizer(params)
        grads = Gradients([np.array([[1.0]]), np.zeros((2, 1))],
                          [np.zeros(1), np.zeros(2)])
        new_params, _ = nadam_step(state, params, grads, lr=0.001)
        ref = reference_nadam_scalar([1.0], lr=0.001)
        assert new_params.weights[0][0, 0] == pytest.approx(ref, abs=1e-12)

    def test_matches_scalar_reference_many_steps(self):
        rng = np.random.default_rng(14)
        grad_seq = rng.normal(size=40).tolist()
        params = scalar_params(0.0)
        state = init_optimizer(params)
        for g in grad_seq:
            grads = Gradients([np.array([[g]]), np.zeros((2, 1))],
                              [np.zeros(1), np.zeros(2)])
            params, state = nadam_step(state, params, grads, lr=0.002)
        ref = reference_nadam_scalar(grad_seq, lr=0.002)
        assert params.weights[0][0, 0] == pytest.approx(ref, abs=1e-12)

    def test_step_size_bounded_under_constant_gradient(self):
        lr = 0.01
        params = scalar_params(0.0)
        state = init_optimizer(params)
        prev = params.weights[0][0, 0]
        for step in range(1, 1001):
            grads = Gradients([np.array([[1.0]]), np.zeros((2, 1))],
                              [np.zeros(1), np.zeros(2)])
            params, state = nadam_step(state, params, grads, lr=lr)
            delta = abs(params.weights[0][0, 0] - prev)
            prev = params.weights[0][0, 0]
            if step > 10:  # let bias correction settle
                assert delta <= lr * 1.1, f"step {step}: |delta|={delta}"

    def test_inputs_not_mutated(self):
        params = scalar_params(1.0)
        state = init_optimizer(params)
        snapshot = params.weights[0].copy()
        grads = Gradients([np.ones((1, 1)), np.ones((2, 1))],
                          [np.ones(1), np.ones(2)])
        nadam_step(state, params, grads, lr=0.1)
        assert np.array_equal(params.weights[0], snapshot)
        assert state.step == 0
        assert not state.m[0].any()

    def test_flat_update_bits_equal_per_array_loop(self):
        # The quickstart network, (64, 24) ... (2, 8) and the biases, over
        # steps whose gradients hold zeros, tiny and large values.
        params = init_params(ModelConfig(input_dim=24, hidden_sizes=[64, 32, 16, 8]), seed=3)
        rng = np.random.default_rng(21)
        arrays = [*params.weights, *params.biases]
        ref_m = [np.zeros_like(p) for p in arrays]
        ref_v = [np.zeros_like(p) for p in arrays]
        ref_mu = 1.0
        state = init_optimizer(params)
        for step, lr in enumerate((3e-4, 3e-4, 1e-2, 6e-5, 3e-4, 1e-3)):
            grads = [rng.normal(scale=10.0 ** rng.integers(-12, 3), size=p.shape)
                     * (rng.random(p.shape) > 0.2) for p in arrays]
            arrays, ref_m, ref_v, ref_mu = reference_nadam_per_array(
                ref_m, ref_v, step, ref_mu, arrays, grads, lr)
            n = params.n_layers
            params, state = nadam_step(state, params, Gradients(grads[:n], grads[n:]), lr)
            for got, want in zip((*params.weights, *params.biases), arrays):
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            for got, want in ((state.m, ref_m), (state.v, ref_v)):
                want = np.concatenate([a.ravel() for a in want])
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert state.step == step + 1 and state.mu_product == ref_mu

    def test_non_finite_gradient_rejected(self):
        params = scalar_params()
        state = init_optimizer(params)
        grads = Gradients([np.array([[np.inf]]), np.zeros((2, 1))],
                          [np.zeros(1), np.zeros(2)])
        with pytest.raises(ValueError, match="non-finite"):
            nadam_step(state, params, grads, lr=0.1)


class TestScheduler:
    def make(self, lr=1.0):
        return SchedulerState(current_lr=lr)

    def test_monotone_improvement_never_fires(self):
        s = self.make()
        for metric in (0.5, 0.6, 0.7):
            assert scheduler_update(s, metric) == "continue"
        assert s.best_metric == 0.7
        assert s.current_lr == 1.0

    def test_reduce_fires_after_five_flat_epochs(self):
        s = self.make(lr=0.0003)
        actions = [scheduler_update(s, 0.5) for _ in range(6)]
        assert actions == ["continue"] * 5 + ["reduce_lr"]
        assert s.current_lr == pytest.approx(0.0003 * 0.2)

    def test_eleven_flat_epochs_reduce_then_stop(self):
        s = self.make(lr=1.0)
        actions = [scheduler_update(s, 0.5) for _ in range(11)]
        assert actions.count("reduce_lr") == 1
        assert actions[5] == "reduce_lr"   # epoch 6
        assert actions[10] == "stop"       # epoch 11
        assert s.current_lr == pytest.approx(0.2)  # reduced exactly once

    def test_equal_metric_is_not_improvement(self):
        s = self.make()
        scheduler_update(s, 0.5)
        scheduler_update(s, 0.5)
        assert s.epochs_since_improve == 1

    def test_improvement_resets_counter_allowing_second_reduce(self):
        s = self.make(lr=1.0)
        scheduler_update(s, 0.5)
        for _ in range(5):
            scheduler_update(s, 0.5)
        assert s.current_lr == pytest.approx(0.2)
        assert scheduler_update(s, 0.6) == "continue"
        assert s.epochs_since_improve == 0
        actions = [scheduler_update(s, 0.6) for _ in range(5)]
        assert actions[-1] == "reduce_lr"
        assert s.current_lr == pytest.approx(0.04)

    def test_stop_is_absorbing(self):
        s = self.make()
        scheduler_update(s, 0.5)
        for _ in range(10):
            last = scheduler_update(s, 0.5)
        assert last == "stop"
        assert scheduler_update(s, 99.0) == "stop"  # even a huge improvement
        assert s.best_metric == 0.5

    def test_lr_never_increases(self):
        rng = np.random.default_rng(2)
        s = self.make(lr=1.0)
        lr_prev = s.current_lr
        for _ in range(50):
            if scheduler_update(s, float(rng.random())) == "stop":
                break
            assert s.current_lr <= lr_prev
            lr_prev = s.current_lr

    def test_non_finite_metric_rejected(self):
        with pytest.raises(ValueError):
            scheduler_update(self.make(), float("nan"))

    def test_settings_come_from_the_train_config(self):
        s = SchedulerState(1.0, TrainConfig(patience_lr=2, lr_factor=0.5, patience_stop=3))
        actions = [scheduler_update(s, 0.5) for _ in range(4)]
        assert actions == ["continue", "continue", "reduce_lr", "stop"]
        assert s.current_lr == 0.5
        assert {f.name for f in dataclasses.fields(SchedulerState)} == {
            "current_lr", "config", "best_metric", "epochs_since_improve", "stopped"}


def tiny_world(seed=0, **kwargs):
    spec = SynthSpec(n_speakers_per_gender=2, utts_per_speaker=2,
                     frames_per_utt=150, d_bn=4, d_xv=2, seed=seed, **kwargs)
    train_ds, mapping = generate_synthetic_dataset(spec, role="train")
    val_ds, _ = generate_synthetic_dataset(spec, role="validation")
    return train_ds, val_ds, mapping


class TestTrainLoop:
    def run(self, max_epochs=3, seed=0, **cfg):
        train_ds, val_ds, _ = tiny_world()
        table = build_frame_table(train_ds)
        model_config = ModelConfig(input_dim=table.rows.shape[1],
                                   hidden_sizes=[16, 8], dropout=cfg.pop("dropout", 0.0))
        cfg.setdefault("batch_size", 256)
        config = TrainConfig(max_epochs=max_epochs, seed=seed, **cfg)
        return train(table, val_ds, model_config, config)

    def test_determinism_end_to_end(self):
        p1, h1 = self.run(max_epochs=3)
        p2, h2 = self.run(max_epochs=3)
        assert h1.csv_rows() == h2.csv_rows()
        for a, b in zip(p1.weights, p2.weights):
            assert np.array_equal(a, b)

    def test_zero_epochs_returns_initialized_params_empty_history(self):
        params, history = self.run(max_epochs=0)
        assert len(history) == 0
        train_ds, _, _ = tiny_world()
        table = build_frame_table(train_ds)
        fresh = init_params(ModelConfig(input_dim=table.rows.shape[1],
                                        hidden_sizes=[16, 8]), 0)
        for a, b in zip(params.weights, fresh.weights):
            assert np.array_equal(a, b)
        # norm stats still populated so the params are usable
        assert params.norm.logf0_std != 1.0

    def test_history_rows_and_lr_monotone(self):
        _, history = self.run(max_epochs=4)
        assert [r.epoch for r in history.records] == [1, 2, 3, 4]
        lrs = [r.lr for r in history.records]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        assert all(r.event in ("none", "reduce_lr", "stop") for r in history.records)

    def test_returned_params_achieve_best_val_metric(self):
        train_ds, val_ds, _ = tiny_world()
        params, history = self.run(max_epochs=5)
        best = max(r.val_metric for r in history.records)
        metric = validation_metric(params, *validation_arrays(params, val_ds))
        assert metric == pytest.approx(best, abs=1e-12)

    def test_loss_decreases_on_learnable_world(self):
        _, history = self.run(max_epochs=8, lr=0.003)
        losses = [r.train_loss for r in history.records]
        assert losses[-1] < losses[0] * 0.7

    def test_partial_final_batch_included(self):
        # 1200 frames, batch 512 → batches of 512/512/176; train must accept it
        _, history = self.run(max_epochs=1, batch_size=512)
        assert len(history) == 1

    def test_dropout_training_runs_and_stays_deterministic(self):
        # 1200 frames in batches of 256 end on a partial batch
        p1, h1 = self.run(max_epochs=2, dropout=0.2)
        p2, h2 = self.run(max_epochs=2, dropout=0.2)
        assert h1.csv_rows() == h2.csv_rows()
        for a, b in zip((*p1.weights, *p1.biases), (*p2.weights, *p2.biases)):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_bits_equal_normalizing_whole_table_once(self, dropout):
        # 1200 frames in batches of 512 end on a partial batch of 176.
        got_params, got_history = self.run(max_epochs=3, dropout=dropout, batch_size=512)
        train_ds, val_ds, _ = tiny_world()
        model_config = ModelConfig(input_dim=6, hidden_sizes=[16, 8], dropout=dropout)
        want_params, want_history = reference_train(
            build_frame_table(train_ds), val_ds, model_config,
            TrainConfig(max_epochs=3, seed=0, batch_size=512))
        assert got_history.csv_rows() == want_history.csv_rows()
        for a, b in zip((*got_params.weights, *got_params.biases),
                        (*want_params.weights, *want_params.biases)):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_history_csv_shape(self, tmp_path):
        _, history = self.run(max_epochs=2)
        path = write_csv(tmp_path / "history.csv", HISTORY_COLUMNS, history.csv_rows())
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_metric,lr,event"
        assert len(lines) == 3
        assert lines[1].startswith("1,")

    def test_empty_inputs_rejected(self):
        train_ds, val_ds, _ = tiny_world()
        table = build_frame_table(train_ds)
        mc = ModelConfig(input_dim=table.rows.shape[1], hidden_sizes=[8])
        with pytest.raises(ValueError, match="validation"):
            train(table, Dataset([]), mc, TrainConfig(max_epochs=1))

    def test_input_dim_mismatch_rejected(self):
        train_ds, val_ds, _ = tiny_world()
        table = build_frame_table(train_ds)
        mc = ModelConfig(input_dim=99, hidden_sizes=[8])
        with pytest.raises(ValueError, match="input_dim"):
            train(table, val_ds, mc, TrainConfig(max_epochs=1))

    @pytest.mark.filterwarnings("error")
    def test_overflow_names_epoch_and_settings_without_warning(self):
        # alpha 1e308 makes the squared gradient overflow in the first step
        with pytest.raises(ValueError, match=r"^epoch 1 \(train\.alpha 1e\+308, "
                                             r"train\.lr 0\.0003\): overflow encountered"):
            self.run(alpha=1e308)

    def test_train_loss_overflow_names_epoch(self, monkeypatch):
        def huge_loss(f0hat, g, target, voiced, alpha):
            return 1e308, np.zeros(len(f0hat)), np.zeros(len(f0hat))

        monkeypatch.setattr(training, "composite_loss", huge_loss)
        with pytest.raises(ValueError,
                           match=r"^epoch 1 .*: overflow encountered in the train loss sum$"):
            self.run()

    def test_overflow_names_the_configured_lr_after_a_decay(self, monkeypatch):
        # a plateau decays the lr 0.01 -> 0.002 after epoch 2; epoch 4 overflows
        metrics = iter([0.5, 0.5, 0.5])

        def plateau_then_overflow(params, rows, f0):
            for metric in metrics:
                return metric
            raise FloatingPointError("overflow encountered in validation")

        monkeypatch.setattr(training, "validation_metric", plateau_then_overflow)
        with pytest.raises(ValueError, match=r"^epoch 4 \(train\.alpha [^,]+, train\.lr 0\.01\): "
                                             r"overflow encountered in validation$"):
            self.run(max_epochs=5, lr=0.01, patience_lr=1)

    def test_validation_width_mismatch_names_both_widths(self):
        table = build_frame_table(tiny_world()[0])
        wide_spec = SynthSpec(n_speakers_per_gender=2, utts_per_speaker=2,
                              frames_per_utt=150, d_bn=8, d_xv=2)
        val_ds, _ = generate_synthetic_dataset(wide_spec, role="validation")
        mc = ModelConfig(input_dim=table.rows.shape[1], hidden_sizes=[8])
        with pytest.raises(ValueError, match="validation input width 10 != model input_dim 6"):
            train(table, val_ds, mc, TrainConfig(max_epochs=1))


def reference_train(table, val_ds, model_config, config):
    """The training loop with the whole float64 table normalized once.

    Validation runs one utterance at a time through ``predict_f0``.
    """
    table = FrameTable(table.rows.astype(np.float64), table.target_logf0, table.voiced)
    params = init_params(model_config, config.seed)
    params.norm = compute_norm_stats(table)
    inputs = (table.rows - params.norm.input_mean) / params.norm.input_std
    targets = np.where(table.voiced, params.norm.normalize_logf0(table.target_logf0), 0.0)
    opt = init_optimizer(params)
    sched = SchedulerState(current_lr=config.lr)
    history, best = TrainHistory(), params.copy()
    n = table.n_rows
    for epoch in range(config.max_epochs):
        lr = sched.current_lr
        perm = np.random.default_rng(config.seed + epoch).permutation(n)
        loss_sum = 0.0
        for batch_idx, start in enumerate(range(0, n, config.batch_size)):
            idx = perm[start:start + config.batch_size]
            f0hat, g, cache = forward(params, inputs[idx], train_mode=True,
                                      dropout=model_config.dropout,
                                      dropout_seed=[config.seed, epoch, batch_idx])
            loss, d_f0hat, d_g = composite_loss(f0hat, g, targets[idx], table.voiced[idx],
                                                config.alpha)
            params, opt = nadam_step(opt, params, backward(params, cache, d_f0hat, d_g), lr)
            loss_sum += loss * len(idx)
        counts = FrameCounts(0, 0, 0, 0, 0, 0)
        for utt in val_ds.utterances:
            counts = counts + pitch_error_counts(predict_f0(params, utt.features())[0], utt.f0)
        metric = counts.accurately_processed
        action = scheduler_update(sched, metric)
        if sched.epochs_since_improve == 0:
            best = params.copy()
        history.records.append(EpochRecord(epoch + 1, loss_sum / n, metric, lr,
                                           action if action != "continue" else "none"))
        if action == "stop":
            break
    return best, history


def validation_arrays(params, dataset):
    """The normalized rows and truth F0 that train() builds for validation_metric."""
    rows = params.norm.normalize_inputs(build_frame_table(dataset).rows)
    return rows, np.concatenate([u.f0.astype(np.float64) for u in dataset.utterances])


def uneven_validation_world():
    """Validation utterances cut to different lengths, some repeated."""
    _, val_ds, _ = tiny_world()
    cut = [Utterance(f"{u.utt_id}x", u.speaker_id, u.gender, u.f0[:n], u.bn[:n], u.xvec)
           for u, n in zip(val_ds.utterances, (150, 37, 1, 150, 90, 37, 64, 150))]
    return Dataset(cut)


class TestValidationMetric:
    def test_equals_pooled_per_utterance_predict_f0(self, monkeypatch):
        # Blocks of 100 rows cut through utterances of 150, 90 and 64 frames.
        monkeypatch.setattr(training, "VALIDATION_BLOCK_ROWS", 100)
        train_ds, _, _ = tiny_world()
        table = build_frame_table(train_ds)
        val_ds = uneven_validation_world()
        params, _ = train(table, val_ds,
                          ModelConfig(input_dim=table.rows.shape[1], hidden_sizes=[16, 8]),
                          TrainConfig(max_epochs=2, batch_size=256, lr=0.003))
        assert len({u.n_frames for u in val_ds.utterances}) == 5
        pooled = FrameCounts(0, 0, 0, 0, 0, 0)
        preds = []
        for utt in val_ds.utterances:
            pred, _ = predict_f0(params, utt.features())
            preds.append(pred)
            pooled = pooled + pitch_error_counts(pred, utt.f0)
        val_rows, val_f0 = validation_arrays(params, val_ds)
        assert validation_metric(params, val_rows, val_f0) == pooled.accurately_processed
        ends = np.cumsum([u.n_frames for u in val_ds.utterances])
        assert ends[-1] == len(val_rows)
        for rows, pred in zip(np.split(val_rows, ends[:-1]), preds):
            assert np.array_equal(infer_f0(params, rows)[0].view(np.uint64),
                                  pred.view(np.uint64))

    def test_no_frames_rejected(self):
        table = build_frame_table(tiny_world()[0])
        empty = Dataset([Utterance("u0", "s0", Gender.F, np.zeros(0), np.zeros((0, 4)),
                                   np.zeros(2))])
        with pytest.raises(ValueError, match="no frames"):
            train(table, empty, ModelConfig(input_dim=6, hidden_sizes=[4]), TrainConfig())

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="before 3.11 a caller holds its call's arguments until return")
    def test_validation_dataset_freed_before_first_epoch(self, monkeypatch):
        refs = []

        def fresh_validation():
            val_ds = tiny_world()[1]
            refs.append(weakref.ref(val_ds))
            return val_ds

        real_metric = training.validation_metric

        def checked_metric(*args):
            if len(refs) == 1:
                gc.collect()
                assert refs.pop()() is None, "train() still holds the validation Dataset"
            return real_metric(*args)

        monkeypatch.setattr(training, "validation_metric", checked_metric)
        table = build_frame_table(tiny_world()[0])
        train(table, fresh_validation(), ModelConfig(input_dim=6, hidden_sizes=[4]),
              TrainConfig(max_epochs=2, batch_size=256))
        assert not refs


class TestTrainingMemory:
    def test_peak_below_one_and_a_half_float64_tables(self):
        # 4 speakers per gender x 10 utterances x 500 frames = 40,000 frames.
        spec = SynthSpec(n_speakers_per_gender=4, utts_per_speaker=10, frames_per_utt=500,
                         seed=2)
        train_ds, _ = generate_synthetic_dataset(spec, role="train")
        table = build_frame_table(train_ds)
        del train_ds
        assert table.n_rows == 40_000
        val_spec = SynthSpec(n_speakers_per_gender=1, utts_per_speaker=1, frames_per_utt=100)
        val_ds, _ = generate_synthetic_dataset(val_spec, role="validation")
        float64_table = table.n_rows * table.rows.shape[1] * 8
        tracemalloc.start()
        try:
            train(table, val_ds, ModelConfig(input_dim=table.rows.shape[1], hidden_sizes=[16, 8]),
                  TrainConfig(max_epochs=1, batch_size=256))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * float64_table, f"peak {peak / float64_table:.2f} float64 tables"


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0), dict(lr=-1.0), dict(batch_size=0),
        dict(lr_factor=0.0), dict(lr_factor=1.0),
        dict(patience_lr=0), dict(max_epochs=-1),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["alpha", "lr"])
    def test_non_finite_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            TrainConfig(**{name: value})
