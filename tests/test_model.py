import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from f0synth.featureio import FormatError, NormStats, pack_header
from f0synth.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ForwardCache,
    Gradients,
    ModelConfig,
    ModelParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    predict_f0,
    save_checkpoint,
    sigmoid,
)


def naive_forward(params, batch):
    """Per-neuron loop reference: no matrix ops, no shortcuts."""
    outputs = []
    for row in batch:
        a = list(map(float, row))
        for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
            z = []
            for j in range(w.shape[0]):
                acc = float(b[j])
                for i in range(w.shape[1]):
                    acc += float(w[j, i]) * a[i]
                z.append(acc)
            if layer < len(params.weights) - 1:
                a = [max(v, 0.0) for v in z]
            else:
                a = z
        outputs.append(a)
    out = np.array(outputs)
    return out[:, 0], out[:, 1]


def reference_forward(params, batch, train_mode=False, dropout=0.0, dropout_seed=None):
    """Reference: the allocating forward pass, a fresh array per step.

    Returns the outputs, the cache, and every layer's pre-activation.
    """
    drop = train_mode and dropout > 0.0
    rng = np.random.default_rng(dropout_seed) if drop else None
    a = np.asarray(batch, dtype=np.float64)
    pre_acts, post_acts, masks = [], [], []
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w.T + b
        pre_acts.append(z)
        if i == last:
            a, mask = z, None
        else:
            a = np.maximum(z, 0.0)
            if drop:
                mask = (rng.random(a.shape) >= dropout) / (1.0 - dropout)
                a = a * mask
            else:
                mask = None
        post_acts.append(a)
        masks.append(mask)
    return a[:, 0], a[:, 1], ForwardCache(batch, post_acts, masks), pre_acts


def reference_backward(params, cache, pre_acts, dL_df0hat, dL_dg):
    """Reference: the allocating backward pass, the ReLU mask read from the
    pre-activations as a product, the bias sums by ``sum(axis=0)``."""
    d_z = np.column_stack([dL_df0hat, dL_dg])
    d_weights, d_biases = [None] * params.n_layers, [None] * params.n_layers
    for i in range(params.n_layers - 1, -1, -1):
        a_prev = cache.inputs if i == 0 else cache.post_acts[i - 1]
        d_weights[i] = d_z.T @ a_prev
        d_biases[i] = d_z.sum(axis=0)
        if i == 0:
            break
        d_a = d_z @ params.weights[i]
        mask = cache.dropout_masks[i - 1]
        if mask is not None:
            d_a = d_a * mask
        d_z = d_a * (pre_acts[i - 1] > 0.0)
    return Gradients(d_weights, d_biases)


def bits(arr):
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(bits(a), bits(b))


def toy_params(seed=0, input_dim=5, hidden=(4, 3)):
    config = ModelConfig(input_dim=input_dim, hidden_sizes=list(hidden))
    return init_params(config, seed), config


class TestConfig:
    def test_default_hidden_is_four_layer_pyramid(self):
        config = ModelConfig(input_dim=768)
        assert config.hidden_sizes == [512, 256, 128, 64]
        assert config.layer_dims == [(512, 768), (256, 512), (128, 256), (64, 128), (2, 64)]

    @pytest.mark.parametrize("kwargs", [
        dict(input_dim=0),
        dict(input_dim=4, hidden_sizes=[]),
        dict(input_dim=4, hidden_sizes=[8, 0]),
        dict(input_dim=4, dropout=0.6),
        dict(input_dim=4, dropout=-0.1),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)


class TestInit:
    def test_seeded_determinism(self):
        a, _ = toy_params(seed=7)
        b, _ = toy_params(seed=7)
        c, _ = toy_params(seed=8)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_shapes_chain(self):
        params, _ = toy_params(input_dim=768, hidden=(512, 256, 128, 64))
        assert params.weights[0].shape == (512, 768)
        assert params.weights[-1].shape == (2, 64)
        assert all(b.shape == (w.shape[0],) for w, b in zip(params.weights, params.biases))

    def test_fan_based_bound_holds_everywhere(self):
        config = ModelConfig(input_dim=12, hidden_sizes=[8, 6, 5, 4])
        params = init_params(config, 3)
        for w, (out_d, in_d) in zip(params.weights, config.layer_dims):
            s = np.sqrt(6.0 / (in_d + out_d))
            assert np.abs(w).max() <= s

    def test_biases_zero(self):
        params, _ = toy_params()
        assert all(not b.any() for b in params.biases)

    def test_chain_break_rejected(self):
        params, _ = toy_params()
        bad_w = [w.copy() for w in params.weights]
        bad_w[1] = np.zeros((3, 99))
        with pytest.raises(ValueError, match="chain"):
            ModelParams(bad_w, [b.copy() for b in params.biases], params.norm)


class TestForward:
    def test_zero_params_give_zero_outputs(self):
        params, config = toy_params()
        zeroed = ModelParams([np.zeros_like(w) for w in params.weights],
                             [np.zeros_like(b) for b in params.biases], params.norm)
        f0hat, g, _ = forward(zeroed, np.random.default_rng(0).normal(size=(6, 5)))
        assert not f0hat.any() and not g.any()

    def test_matches_per_neuron_oracle(self):
        rng = np.random.default_rng(42)
        for seed in range(5):
            params, _ = toy_params(seed=seed, input_dim=6, hidden=(5, 4, 3))
            batch = rng.normal(size=(4, 6))
            f0hat, g, _ = forward(params, batch)
            ref_f0, ref_g = naive_forward(params, batch)
            assert np.allclose(f0hat, ref_f0, atol=1e-12)
            assert np.allclose(g, ref_g, atol=1e-12)

    def test_row_independence_and_equivariance(self):
        params, _ = toy_params(seed=2)
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(5, 5))
        f0hat, g, _ = forward(params, batch)
        # one row duplicated B times: every output row identical
        dup_f0, dup_g, _ = forward(params, np.tile(batch[2], (4, 1)))
        assert np.array_equal(dup_f0, np.repeat(dup_f0[0], 4))
        assert np.array_equal(dup_g, np.repeat(dup_g[0], 4))
        # single-row call agrees with the batched call (matmul blocking may
        # differ across batch shapes, so compare numerically, not bitwise)
        single_f0, single_g, _ = forward(params, batch[2:3])
        assert abs(f0hat[2] - single_f0[0]) < 1e-12
        assert abs(g[2] - single_g[0]) < 1e-12
        perm = rng.permutation(5)
        pf0, pg, _ = forward(params, batch[perm])
        assert np.allclose(pf0, f0hat[perm], atol=1e-12)
        assert np.allclose(pg, g[perm], atol=1e-12)

    def test_shape_and_finiteness_validation(self):
        params, _ = toy_params()
        with pytest.raises(ValueError):
            forward(params, np.zeros((3, 4)))
        with pytest.raises(ValueError, match="non-finite"):
            forward(params, np.full((2, 5), np.nan))

    def test_dropout_off_train_equals_inference_bitwise(self):
        params, _ = toy_params(seed=5)
        batch = np.random.default_rng(3).normal(size=(4, 5))
        a = forward(params, batch, train_mode=True, dropout=0.0, dropout_seed=1)
        b = forward(params, batch, train_mode=False)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_dropout_masks_scale_by_keep_probability(self):
        params, _ = toy_params(seed=5, hidden=(64, 64))
        batch = np.random.default_rng(3).normal(size=(2, 5))
        delta = 0.25
        _, _, cache = forward(params, batch, train_mode=True, dropout=delta,
                              dropout_seed=11)
        mask = cache.dropout_masks[0]
        assert mask is not None
        vals = np.unique(mask)
        assert set(np.round(vals, 12)) <= {0.0, round(1.0 / (1.0 - delta), 12)}
        # seeded masks reproduce
        _, _, cache2 = forward(params, batch, train_mode=True, dropout=delta,
                               dropout_seed=11)
        assert np.array_equal(mask, cache2.dropout_masks[0])
        # inference never drops
        _, _, cache3 = forward(params, batch, train_mode=False, dropout=delta)
        assert cache3.dropout_masks[0] is None


class TestBackward:
    @staticmethod
    def scalar_loss(params, batch, u, v):
        f0hat, g, cache = forward(params, batch)
        return float(u @ f0hat + v @ g), cache

    def test_zero_upstream_gives_zero_gradients(self):
        params, _ = toy_params()
        batch = np.random.default_rng(0).normal(size=(3, 5))
        _, _, cache = forward(params, batch)
        grads = backward(params, cache, np.zeros(3), np.zeros(3))
        assert all(not gw.any() for gw in grads.weights)
        assert all(not gb.any() for gb in grads.biases)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(100)
        step = 1e-5
        for seed in range(6):
            params, _ = toy_params(seed=seed, input_dim=4, hidden=(5, 4))
            batch = rng.normal(size=(3, 4))
            u, v = rng.normal(size=3), rng.normal(size=3)
            _, cache = self.scalar_loss(params, batch, u, v)
            grads = backward(params, cache, u, v)
            for li in range(params.n_layers):
                for arrs, gref in ((params.weights, grads.weights),
                                   (params.biases, grads.biases)):
                    arr = arrs[li]
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        orig = arr[idx]
                        arr[idx] = orig + step
                        lp, _ = self.scalar_loss(params, batch, u, v)
                        arr[idx] = orig - step
                        lm, _ = self.scalar_loss(params, batch, u, v)
                        arr[idx] = orig
                        fd = (lp - lm) / (2 * step)
                        an = gref[li][idx]
                        assert abs(an - fd) <= 1e-4 * max(abs(an), abs(fd), 1e-8), (
                            f"seed {seed} layer {li} idx {idx}: {an} vs {fd}")

    def test_duplicated_row_doubles_gradient(self):
        params, _ = toy_params(seed=9)
        row = np.random.default_rng(4).normal(size=(1, 5))
        u, v = np.array([0.7]), np.array([-0.3])
        _, _, cache1 = forward(params, row)
        g1 = backward(params, cache1, u, v)
        two = np.vstack([row, row])
        _, _, cache2 = forward(params, two)
        g2 = backward(params, cache2, np.repeat(u, 2), np.repeat(v, 2))
        for a, b in zip(g1.weights, g2.weights):
            assert np.allclose(2.0 * a, b, atol=1e-12)

    def test_gradient_flows_through_dropout_mask(self):
        params, _ = toy_params(seed=1, hidden=(6, 6))
        batch = np.random.default_rng(2).normal(size=(2, 5))
        _, _, cache = forward(params, batch, train_mode=True, dropout=0.5,
                              dropout_seed=7)
        grads = backward(params, cache, np.ones(2), np.ones(2))
        # a fully dropped hidden unit contributes no gradient to its weights
        dropped_units = np.where((cache.dropout_masks[1] == 0).all(axis=0))[0]
        for j in dropped_units:
            assert not grads.weights[1][j].any()

    def test_cache_params_mismatch_rejected(self):
        params, _ = toy_params()
        other, _ = toy_params(input_dim=5, hidden=(7, 3))
        batch = np.zeros((2, 5))
        _, _, cache = forward(params, batch)
        with pytest.raises(ValueError, match="cache"):
            backward(other, cache, np.zeros(2), np.zeros(2))


class TestWorkspaceOracle:
    """In-place forward and backward against the allocating reference, bit for bit."""

    @staticmethod
    def check_step(params, batch, u, v, **drop):
        ref_f0, ref_g, ref_cache, ref_pre_acts = reference_forward(params, batch, **drop)
        ref_grads = reference_backward(params, ref_cache, ref_pre_acts, u, v)
        f0hat, g, cache = forward(params, batch, **drop)
        assert_bits_equal(f0hat, ref_f0)
        assert_bits_equal(g, ref_g)
        assert len(cache.post_acts) == len(ref_cache.post_acts)
        for got, ref in zip(cache.post_acts, ref_cache.post_acts):
            assert_bits_equal(got, ref)
        for mask, ref_mask in zip(cache.dropout_masks, ref_cache.dropout_masks):
            assert (mask is None) == (ref_mask is None)
            if mask is not None:
                assert_bits_equal(mask, ref_mask)
        grads = backward(params, cache, u, v)
        for got, ref in zip((*grads.weights, *grads.biases),
                            (*ref_grads.weights, *ref_grads.biases)):
            assert_bits_equal(got, ref)
        return grads

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_consecutive_calls_across_row_counts(self, dropout):
        params, _ = toy_params(seed=4, input_dim=6, hidden=(9, 7, 5))
        rng = np.random.default_rng(12)
        # full, partial, full again, and every step sees new params, as in
        # the training loop
        for step, rows in enumerate((16, 5, 16, 5)):
            params = ModelParams([w + rng.normal(scale=0.1, size=w.shape) for w in params.weights],
                                 [b + rng.normal(scale=0.1, size=b.shape) for b in params.biases],
                                 params.norm)
            self.check_step(params, rng.normal(size=(rows, 6)), rng.normal(size=rows),
                            rng.normal(size=rows),
                            train_mode=True, dropout=dropout, dropout_seed=[3, step])
        # a batch of the quickstart network, larger than one 4,096-row batch
        params, _ = toy_params(seed=5, input_dim=24, hidden=(64, 32, 16, 8))
        params = ModelParams(params.weights,
                             [rng.normal(scale=0.1, size=b.shape) for b in params.biases],
                             params.norm)
        rows = 4133
        self.check_step(params, rng.normal(size=(rows, 24)), rng.normal(size=rows) / rows,
                        rng.normal(size=rows) / rows,
                        train_mode=True, dropout=dropout, dropout_seed=[3, 4])

    def test_without_cache_matches_reference(self):
        params, _ = toy_params(seed=6, input_dim=5, hidden=(8, 4))
        rng = np.random.default_rng(2)
        for drop in (dict(), dict(train_mode=True, dropout=0.5, dropout_seed=9)):
            self.check_step(params, rng.normal(size=(11, 5)), rng.normal(size=11),
                            rng.normal(size=11), **drop)

    def test_negative_zero_summands_match_reference(self):
        params, _ = toy_params(seed=1, input_dim=5, hidden=(4, 3))
        # Hidden unit 0 of the last hidden layer is dead on every row, and
        # its upstream gradient is negative on every row: every masked
        # product the gradient sums read for it is -0.0, where zeroing by
        # assignment would give +0.0.
        biases = [b.copy() for b in params.biases]
        biases[1][0] = -1e3
        weights = [w.copy() for w in params.weights]
        weights[2][0, 0] = -0.5
        params = ModelParams(weights, biases, params.norm)
        rows = 6
        batch = np.random.default_rng(5).normal(size=(rows, 5))
        u, v = np.ones(rows), np.full(rows, -0.0)
        _, _, _, ref_pre_acts = reference_forward(params, batch)
        masked = (np.column_stack([u, v]) @ weights[2]) * (ref_pre_acts[1] > 0.0)
        assert (masked[:, 0] == 0.0).all() and np.signbit(masked[:, 0]).all()
        self.check_step(params, batch, u, v)

    def test_backward_twice_leaves_cache_unchanged(self):
        params, _ = toy_params(seed=8, input_dim=5, hidden=(6, 4))
        rng = np.random.default_rng(7)
        rows = 9
        _, _, cache = forward(params, rng.normal(size=(rows, 5)), train_mode=True,
                              dropout=0.25, dropout_seed=4)
        snapshot = [a.copy() for a in (cache.inputs, *cache.post_acts,
                                       *cache.dropout_masks[:-1])]
        u, v = rng.normal(size=rows), rng.normal(size=rows)
        first = backward(params, cache, u, v)
        second = backward(params, cache, u, v)
        for a, b in zip((*first.weights, *first.biases), (*second.weights, *second.biases)):
            assert_bits_equal(a, b)
        after = (cache.inputs, *cache.post_acts, *cache.dropout_masks[:-1])
        for a, b in zip(snapshot, after):
            assert_bits_equal(a, b)

    def test_outputs_unchanged_by_a_later_call(self):
        params, _ = toy_params(seed=3, input_dim=5, hidden=(6, 4))
        rng = np.random.default_rng(11)
        first = forward(params, rng.normal(size=(7, 5)), train_mode=True,
                        dropout=0.25, dropout_seed=1)
        f0hat, g, cache = first
        snapshot = [a.copy() for a in (f0hat, g, *cache.post_acts)]
        for rows in (7, 3):
            forward(params, rng.normal(size=(rows, 5)), train_mode=True,
                    dropout=0.25, dropout_seed=2)
        for a, b in zip(snapshot, (f0hat, g, *cache.post_acts)):
            assert_bits_equal(a, b)


class TestForwardMemory:
    def test_one_array_per_layer(self):
        # The activations a forward pass keeps are one array per layer,
        # 64 + 32 + 16 + 8 + 2 = 122 columns, with no second array for the
        # pre-activations.
        params, _ = toy_params(seed=2, input_dim=24, hidden=(64, 32, 16, 8))
        rows = 4096
        batch = np.random.default_rng(3).normal(size=(rows, 24))
        tracemalloc.start()
        try:
            out = forward(params, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del out
        kept = rows * 122 * 8
        assert peak < 1.2 * kept, f"peak {peak / kept:.2f} x the kept activations"


def two_branch_sigmoid(x):
    """Reference: 1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x)) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_bits_equal_two_branch_formula(self):
        rng = np.random.default_rng(20)
        special = [0.0, -0.0, 5e-324, -5e-324, 709.0, -709.0, 745.0, -745.0, 1e308, -1e308]
        x = np.concatenate([special, rng.standard_normal(1000) * 10,
                            rng.uniform(-800.0, 800.0, 1000)])
        for inputs in (x, x.reshape(-1, 2), np.float64(-3.5), np.float64(0.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = sigmoid(inputs)
            want = two_branch_sigmoid(inputs)
            assert_bits_equal(got, want)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_stable_at_extreme_logits(self):
        out = sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert 0.0 < out[0] < 1e-300 or out[0] == 0.0  # underflow acceptable at -800
        assert out[1] == 0.5
        assert out[2] == 1.0
        assert np.isfinite(out).all()

    def test_open_interval_for_moderate_logits(self):
        out = sigmoid(np.linspace(-30, 30, 101))
        assert (out > 0).all() and (out < 1).all()
        assert np.all(np.diff(out) > 0)


class TestPredictF0:
    def make_fixed_output_params(self, f0hat_norm, g, norm):
        """2-input network computing outputs [x0, x1] exactly (identity trick)."""
        w1 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        w2 = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        params = ModelParams([w1, w2], [np.zeros(4), np.zeros(2)], norm)
        return params, np.column_stack([np.asarray(f0hat_norm, dtype=float),
                                        np.asarray(g, dtype=float)])

    def test_mask_and_denormalization(self):
        # identity input stats; logf0 mean ln(140), std 0.3
        norm = NormStats(np.zeros(2), np.ones(2), float(np.log(140.0)), 0.3)
        params, feats = self.make_fixed_output_params(
            f0hat_norm=[0.0, 1.0, 0.5, -0.2], g=[0.0, -3.0, 2.0, -1e-12], norm=norm)
        f0, p_v = predict_f0(params, feats)
        assert f0[0] == pytest.approx(140.0, abs=1e-9)      # g=0 boundary is voiced
        assert f0[1] == 0.0                                  # g<0 masked to exactly 0
        assert f0[2] == pytest.approx(np.exp(0.5 * 0.3 + np.log(140.0)))
        assert f0[3] == 0.0
        assert p_v[0] == 0.5
        assert 0 < p_v[1] < 0.5 < p_v[2] < 1

    def test_input_normalization_applied(self):
        # network returns inputs unchanged; with mean (3,0), std (2,1),
        # raw (5, 4) normalizes to (1, 4): voiced, f0hat_norm = 1
        norm = NormStats(np.array([3.0, 0.0]), np.array([2.0, 1.0]), np.log(100.0), 1.0)
        params, _ = self.make_fixed_output_params([0.0], [0.0], norm)
        f0, _ = predict_f0(params, np.array([[5.0, 4.0]]))
        assert f0[0] == pytest.approx(100.0 * np.e)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        params, config = toy_params(seed=13, input_dim=7, hidden=(6, 5, 4, 3))
        params.norm = NormStats(np.random.default_rng(0).normal(size=7),
                                np.abs(np.random.default_rng(1).normal(size=7)) + 0.5,
                                5.0, 0.25)
        p = tmp_path / "model.f0md"
        save_checkpoint(p, params, dropout=0.2)
        back, back_config = load_checkpoint(p)
        assert back_config.hidden_sizes == [6, 5, 4, 3]
        assert back_config.dropout == 0.2
        for a, b in zip(params.weights, back.weights):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        for a, b in zip(params.biases, back.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(params.norm.input_mean, back.norm.input_mean)
        assert back.norm.logf0_std == params.norm.logf0_std
        # rewrite produces byte-identical file
        p2 = tmp_path / "model2.f0md"
        save_checkpoint(p2, back, dropout=back_config.dropout)
        assert p.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.f0md"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(p)

    def test_truncation_rejected(self, tmp_path):
        params, _ = toy_params()
        p = tmp_path / "m.f0md"
        save_checkpoint(p, params)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(p)

    @pytest.mark.parametrize("offset_of, value, words", [
        (lambda n: 16 + 4 * n, 0.9, "dropout must be in [0, 0.5]"),
        (lambda n: 24 + 4 * n, float("nan"), "normalization stats must be finite"),
    ], ids=["dropout", "nan_input_mean"])
    def test_bad_field_names_checkpoint(self, tmp_path, offset_of, value, words):
        params, _ = toy_params()
        p = tmp_path / "m.f0md"
        save_checkpoint(p, params)
        data = bytearray(p.read_bytes())
        struct.pack_into("<d", data, offset_of(params.n_layers), value)
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=re.escape(f"{p}: {words}")):
            load_checkpoint(p)

    def test_head_of_other_width_names_checkpoint(self, tmp_path):
        # save_checkpoint takes only a valid ModelParams, so the file is built by hand.
        rng = np.random.default_rng(0)
        p = tmp_path / "m.f0md"
        p.write_bytes(pack_header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 1, 4, 3)
                      + struct.pack("<d", 0.0) + np.zeros(4).tobytes() + np.ones(4).tobytes()
                      + struct.pack("<dd", 5.0, 0.25)
                      + rng.normal(size=(3, 4)).tobytes() + np.zeros(3).tobytes())
        with pytest.raises(FormatError,
                           match=re.escape(f"{p}: output layer has 3 units, must have 2")):
            load_checkpoint(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        params, _ = toy_params()
        p = tmp_path / "m.f0md"
        save_checkpoint(p, params)
        p.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(p)
