import os
import threading

import numpy as np
import pytest

from f0synth import synthgen
from f0synth.featureio import Gender, load_manifest, write_dataset
from f0synth.synthgen import (
    DATASET_ROLES,
    LOG_PER_CENT,
    WALK_COEFF,
    SynthSpec,
    generate_synthetic_dataset,
)


def scalar_walk(rng, n_frames, d):
    """Reference: one utterance's AR(1) walk, one frame at a time."""
    innovation_scale = np.sqrt(1.0 - WALK_COEFF**2)
    steps = rng.standard_normal((n_frames, d))
    bn = np.empty((n_frames, d))
    bn[0] = steps[0]
    for t in range(1, n_frames):
        bn[t] = WALK_COEFF * bn[t - 1] + innovation_scale * steps[t]
    return bn


def block_utts(spec):
    """Utterances per walk block, as ``generate_synthetic_dataset`` sizes them."""
    return max(spec.utts_per_speaker,
               synthgen.WALK_BLOCK_VALUES // (spec.frames_per_utt * spec.d_bn))


@pytest.fixture
def walk_calls(monkeypatch):
    """Spy on the walk helper: the number of utterances in each call."""
    calls = []
    walk = synthgen._block_walks

    def spy(rngs, n_frames, d, pool, cpus):
        calls.append(len(rngs))
        return walk(rngs, n_frames, d, pool, cpus)

    monkeypatch.setattr(synthgen, "_block_walks", spy)
    return calls


@pytest.fixture
def draw_parts(monkeypatch):
    """Spy on the step-drawing helper: (utterances, drawn on the calling thread) per part."""
    parts = []
    draw = synthgen._draw_steps

    def spy(rngs, walks):
        parts.append((len(rngs), threading.current_thread() is threading.main_thread()))
        draw(rngs, walks)

    monkeypatch.setattr(synthgen, "_draw_steps", spy)
    return parts


def use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(synthgen, "_usable_cpus", lambda: cpus)


def reference_utterances(spec, role, mapping):
    """Reference (utt_id, bn32, f0) per utterance, each from its own stream."""
    role_stream = 2 + DATASET_ROLES.index(role)  # after the mapping and speaker streams
    noise_log_std = spec.noise_std_cents * LOG_PER_CENT
    for gender_idx, gender in enumerate((Gender.F, Gender.M)):
        for spk_idx in range(spec.n_speakers_per_gender):
            for utt_idx in range(spec.utts_per_speaker):
                rng = np.random.default_rng(
                    [spec.seed, role_stream, gender_idx, spk_idx, utt_idx])
                bn32 = scalar_walk(rng, spec.frames_per_utt, spec.d_bn).astype(np.float32)
                if noise_log_std > 0:
                    logf0 = mapping.logf0(gender, bn32)
                    logf0 += rng.normal(0.0, noise_log_std, size=len(logf0))
                    f0 = np.where(mapping.voiced_mask(bn32), np.exp(logf0), 0.0)
                    f0 = f0.astype(np.float32)
                else:
                    f0 = mapping.f0(gender, bn32)
                utt_id = f"{gender.value}{spk_idx:03d}_{role}{utt_idx:03d}"
                yield utt_id, bn32, f0


class TestSynthSpec:
    def test_defaults_valid(self):
        SynthSpec()

    @pytest.mark.parametrize("kwargs", [
        dict(n_speakers_per_gender=0),
        dict(utts_per_speaker=-1),
        dict(frames_per_utt=0),
        dict(d_bn=1),
        dict(d_xv=0),
        dict(base_f0_male=-1.0),
        dict(noise_std_cents=-0.5),
        dict(base_f0_male=np.nan),
        dict(base_f0_female=np.inf),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SynthSpec(**kwargs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["weight_scale", "voicing_threshold", "noise_std_cents"])
    def test_non_finite_float_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SynthSpec(**{name: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
    @pytest.mark.parametrize("name", ["base_f0_female", "base_f0_male"])
    def test_base_f0_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            SynthSpec(**{name: value})

    def test_base_f0_sets_each_gender_center(self):
        spec = SynthSpec(base_f0_female=220.0, base_f0_male=100.0, d_bn=2, d_xv=1)
        mapping = generate_synthetic_dataset(spec)[1]
        assert mapping.base_logf0 == {Gender.F: np.log(220.0), Gender.M: np.log(100.0)}


class TestGeneration:
    def test_zero_weights_give_exact_base_f0(self):
        spec = SynthSpec(n_speakers_per_gender=1, utts_per_speaker=2,
                         frames_per_utt=300, d_bn=2, d_xv=1,
                         weight_scale=0.0, noise_std_cents=0.0, seed=3)
        ds, _ = generate_synthetic_dataset(spec)
        for utt in ds.utterances:
            base = np.float32(190.0 if utt.gender is Gender.F else 120.0)
            voiced_vals = utt.f0[utt.voiced]
            assert len(voiced_vals) > 0
            assert (voiced_vals == base).all()

    def test_same_spec_twice_bit_identical(self):
        spec = SynthSpec(n_speakers_per_gender=2, utts_per_speaker=2,
                         frames_per_utt=50, seed=11)
        a, _ = generate_synthetic_dataset(spec)
        b, _ = generate_synthetic_dataset(spec)
        assert len(a) == len(b)
        for ua, ub in zip(a.utterances, b.utterances):
            assert ua.utt_id == ub.utt_id
            assert np.array_equal(ua.f0.view(np.uint32), ub.f0.view(np.uint32))
            assert np.array_equal(ua.bn.view(np.uint32), ub.bn.view(np.uint32))
            assert np.array_equal(ua.xvec.view(np.uint32), ub.xvec.view(np.uint32))

    def test_different_seed_differs(self):
        a, _ = generate_synthetic_dataset(SynthSpec(seed=1, n_speakers_per_gender=1,
                                                    utts_per_speaker=1, frames_per_utt=40))
        b, _ = generate_synthetic_dataset(SynthSpec(seed=2, n_speakers_per_gender=1,
                                                    utts_per_speaker=1, frames_per_utt=40))
        assert not np.array_equal(a.utterances[0].bn, b.utterances[0].bn)

    def test_voicing_fraction_near_half_at_zero_threshold(self):
        # symmetric N(0,1) marginal on the voicing coordinate ⇒ P(voiced) = 1/2
        spec = SynthSpec(n_speakers_per_gender=5, utts_per_speaker=5,
                         frames_per_utt=2200, d_bn=4, d_xv=2, seed=0)
        ds, _ = generate_synthetic_dataset(spec)
        assert ds.total_frames >= 100_000
        frac = sum(int(u.voiced.sum()) for u in ds.utterances) / ds.total_frames
        assert frac == pytest.approx(0.5, abs=0.01)

    def test_threshold_shifts_voicing(self):
        lo, _ = generate_synthetic_dataset(SynthSpec(voicing_threshold=-1.0, seed=4))
        hi, _ = generate_synthetic_dataset(SynthSpec(voicing_threshold=1.0, seed=4))
        frac = lambda d: sum(int(u.voiced.sum()) for u in d.utterances) / d.total_frames
        assert frac(lo) > 0.7 > 0.3 > frac(hi)

    def test_gender_encoded_in_first_xvec_coordinate(self):
        ds, _ = generate_synthetic_dataset(SynthSpec(seed=7))
        for utt in ds.utterances:
            expect = 1.0 if utt.gender is Gender.F else -1.0
            assert utt.xvec[0] == np.float32(expect)

    def test_female_mean_voiced_f0_exceeds_male(self):
        ds, _ = generate_synthetic_dataset(SynthSpec(seed=7))
        pooled = lambda g: np.concatenate(
            [u.f0[u.voiced] for u in ds.utterances if u.gender is g])
        assert pooled(Gender.F).mean() > pooled(Gender.M).mean()

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError, match="role"):
            generate_synthetic_dataset(SynthSpec(), role="dev")


WALK_CASES = pytest.mark.parametrize("kwargs", [
    dict(utts_per_speaker=3, frames_per_utt=40, d_bn=5),
    dict(utts_per_speaker=3, frames_per_utt=40, d_bn=5, noise_std_cents=25.0),
    dict(utts_per_speaker=1, frames_per_utt=30, d_bn=2),
    dict(utts_per_speaker=1, frames_per_utt=30, d_bn=2, noise_std_cents=10.0),
    dict(utts_per_speaker=4, frames_per_utt=1, d_bn=2),
    dict(utts_per_speaker=2, frames_per_utt=1, d_bn=3, noise_std_cents=15.0),
], ids=["noiseless", "noisy", "one_utt", "one_utt_noisy", "one_frame", "one_frame_noisy"])


class TestBatchedWalk:
    @pytest.mark.parametrize("role", DATASET_ROLES)
    @WALK_CASES
    def test_bits_equal_scalar_walk(self, kwargs, role, monkeypatch, walk_calls, draw_parts):
        spec = SynthSpec(n_speakers_per_gender=2, d_xv=2, seed=41, **kwargs)
        self.check_bits_equal_scalar_walk(spec, role, monkeypatch, walk_calls, draw_parts)

    @pytest.mark.parametrize("role", DATASET_ROLES)
    @WALK_CASES
    def test_bits_equal_scalar_walk_in_blocks_of_4(self, kwargs, role, monkeypatch,
                                                   walk_calls, draw_parts):
        # With 3 utterances per speaker, blocks of 4 end inside F001 and span
        # F001 -> M000; with 1 per speaker they span 4 speakers.
        spec = SynthSpec(n_speakers_per_gender=2, d_xv=2, seed=41, **kwargs)
        monkeypatch.setattr(synthgen, "WALK_BLOCK_VALUES",
                            4 * spec.frames_per_utt * spec.d_bn)
        assert block_utts(spec) == max(spec.utts_per_speaker, 4)
        self.check_bits_equal_scalar_walk(spec, role, monkeypatch, walk_calls, draw_parts)

    @staticmethod
    def check_bits_equal_scalar_walk(spec, role, monkeypatch, walk_calls, draw_parts):
        # 5 CPUs exceed the 4 utterances of the blocks of 4, so parts are capped.
        for cpus in (1, 2, 5):
            use_cpus(monkeypatch, cpus)
            walk_calls.clear()
            draw_parts.clear()
            ds, mapping = generate_synthetic_dataset(spec, role=role)
            expected = list(reference_utterances(spec, role, mapping))
            assert len(ds) == len(expected)
            for utt, (utt_id, bn32, f0) in zip(ds.utterances, expected):
                assert utt.utt_id == utt_id
                assert np.array_equal(utt.bn.view(np.uint32), bn32.view(np.uint32))
                assert np.array_equal(utt.f0.view(np.uint32), f0.view(np.uint32))
            assert sum(walk_calls) == len(ds)
            assert max(walk_calls) <= block_utts(spec)
            # One non-empty part per CPU, at most one per utterance; the caller
            # draws one part of every block.
            assert len(draw_parts) == sum(min(cpus, n) for n in walk_calls)
            assert all(n > 0 for n, _ in draw_parts)
            assert sum(n for n, _ in draw_parts) == len(ds)
            assert sum(on_caller for _, on_caller in draw_parts) == len(walk_calls)

    @pytest.mark.parametrize("block_values, expected_calls", [
        (1, [3, 3, 3, 3]),  # a block never holds less than one speaker
        (4 * 40 * 5, [4, 4, 4]),  # ends inside F001, spans F001 -> M000
        (5 * 40 * 5 + 7, [5, 5, 2]),  # the value budget rounds down to whole utterances
        (1 << 18, [12]),
    ])
    def test_blocks_are_consecutive_and_bounded(self, block_values, expected_calls,
                                                monkeypatch, walk_calls):
        monkeypatch.setattr(synthgen, "WALK_BLOCK_VALUES", block_values)
        spec = SynthSpec(n_speakers_per_gender=2, utts_per_speaker=3, frames_per_utt=40,
                         d_bn=5, d_xv=2, seed=41)
        generate_synthetic_dataset(spec)
        assert walk_calls == expected_calls
        assert max(walk_calls) <= block_utts(spec)

    def test_quickstart_world_walks_four_blocks_per_role(self, walk_calls):
        # 520 frames x 16 dims: 31 utterances fill a 2 MiB block of float64
        spec = SynthSpec(n_speakers_per_gender=10, utts_per_speaker=5, frames_per_utt=520)
        for role in DATASET_ROLES:
            walk_calls.clear()
            generate_synthetic_dataset(spec, role=role)
            assert walk_calls == [31, 31, 31, 7]
            assert 31 * 520 * 16 <= synthgen.WALK_BLOCK_VALUES


class TestDrawThreads:
    @pytest.mark.parametrize("cpus", [1, 2, 5])
    def test_no_thread_outlives_the_call(self, cpus, monkeypatch, draw_parts):
        use_cpus(monkeypatch, cpus)
        before = threading.active_count()
        generate_synthetic_dataset(SynthSpec(n_speakers_per_gender=2, utts_per_speaker=3,
                                             frames_per_utt=40, d_bn=5, d_xv=2, seed=41))
        assert threading.active_count() == before
        assert any(not on_caller for _, on_caller in draw_parts) == (cpus > 1)

    @pytest.mark.parametrize("raise_on_caller", [False, True], ids=["worker", "caller"])
    def test_draw_error_propagates_and_joins_threads(self, raise_on_caller, monkeypatch):
        use_cpus(monkeypatch, 2)
        draw = synthgen._draw_steps

        def failing(rngs, walks):
            if (threading.current_thread() is threading.main_thread()) == raise_on_caller:
                raise RuntimeError("draw failed")
            draw(rngs, walks)

        monkeypatch.setattr(synthgen, "_draw_steps", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            generate_synthetic_dataset(SynthSpec(n_speakers_per_gender=2, utts_per_speaker=3,
                                                 frames_per_utt=40, d_bn=5, d_xv=2))
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        assert synthgen._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        assert synthgen._usable_cpus() == os.cpu_count()


class TestGroundTruthMapping:
    def test_reproduces_stored_f0_bit_exactly_without_noise(self):
        spec = SynthSpec(n_speakers_per_gender=2, utts_per_speaker=3,
                         frames_per_utt=120, seed=21)
        ds, mapping = generate_synthetic_dataset(spec)
        for utt in ds.utterances:
            truth = mapping.f0(utt.gender, utt.bn)
            assert np.array_equal(truth.view(np.uint32), utt.f0.view(np.uint32))

    def test_exactness_survives_file_roundtrip(self, tmp_path):
        spec = SynthSpec(n_speakers_per_gender=1, utts_per_speaker=2,
                         frames_per_utt=80, seed=22)
        ds, mapping = generate_synthetic_dataset(spec)
        back = load_manifest(write_dataset(ds, tmp_path))
        for utt in back.utterances:
            assert np.array_equal(mapping.f0(utt.gender, utt.bn), utt.f0)

    def test_noise_breaks_exactness_but_stays_small(self):
        spec = SynthSpec(n_speakers_per_gender=1, utts_per_speaker=1,
                         frames_per_utt=400, seed=23, noise_std_cents=20.0)
        ds, mapping = generate_synthetic_dataset(spec)
        utt = ds.utterances[0]
        clean = mapping.f0(utt.gender, utt.bn)
        voiced = utt.voiced
        assert not np.array_equal(clean, utt.f0)
        assert np.array_equal(clean > 0, utt.f0 > 0)  # voicing untouched by noise
        ratio = utt.f0[voiced].astype(np.float64) / clean[voiced]
        cents = 1200.0 * np.log2(ratio)
        assert np.abs(cents).max() < 200.0
        assert 10.0 < cents.std() < 40.0

    def test_logf0_linear_in_active_dims(self):
        _, mapping = generate_synthetic_dataset(SynthSpec(seed=9, d_bn=16))
        assert mapping.n_active_dims == 8
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 16))
        b = rng.standard_normal((5, 16))
        lhs = mapping.logf0(Gender.M, a + b) - mapping.logf0(Gender.M, b)
        rhs = mapping.logf0(Gender.M, a) - mapping.logf0(Gender.M, np.zeros((5, 16)))
        assert np.allclose(lhs, rhs, atol=1e-12)
        # coordinates beyond the active slice are inert
        c = a.copy()
        c[:, 8:] += 100.0
        assert np.array_equal(mapping.logf0(Gender.F, a), mapping.logf0(Gender.F, c))

    def test_roles_share_world_but_not_utterances(self):
        spec = SynthSpec(n_speakers_per_gender=1, utts_per_speaker=1,
                         frames_per_utt=60, seed=31)
        train, m_train = generate_synthetic_dataset(spec, role="train")
        val, m_val = generate_synthetic_dataset(spec, role="validation")
        assert np.array_equal(m_train.weights, m_val.weights)
        assert np.array_equal(train.utterances[0].xvec, val.utterances[0].xvec)
        assert not np.array_equal(train.utterances[0].bn, val.utterances[0].bn)
        assert train.utterances[0].utt_id != val.utterances[0].utt_id
