import numpy as np
import pytest

from f0synth.featureio import (
    FEATURE_MAGIC,
    STD_FLOOR,
    Dataset,
    FormatError,
    FrameTable,
    Gender,
    NormStats,
    Utterance,
    assemble_features,
    build_frame_table,
    compute_norm_stats,
    load_manifest,
    read_feature_file,
    write_dataset,
    write_feature_file,
)


def make_utt(utt_id="u0", speaker_id="s0", gender=Gender.F, f0=None, bn=None, xvec=None):
    if f0 is None:
        f0 = np.array([100.0, 0.0, 150.0], dtype=np.float32)
    n = len(f0)
    if bn is None:
        bn = np.arange(n * 2, dtype=np.float32).reshape(n, 2)
    if xvec is None:
        xvec = np.array([1.0, -1.0], dtype=np.float32)
    return Utterance(utt_id=utt_id, speaker_id=speaker_id, gender=gender,
                     f0=f0, bn=bn, xvec=xvec)


class TestFeatureFile:
    def test_rank1_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(257).astype(np.float32)
        p = tmp_path / "a.f0"
        write_feature_file(p, values)
        back = read_feature_file(p)
        assert back.dtype == np.float32
        assert back.shape == (257,)
        assert np.array_equal(back.view(np.uint32), values.view(np.uint32))

    def test_rank2_roundtrip_row_major(self, tmp_path):
        rng = np.random.default_rng(12)
        values = rng.standard_normal((5, 7)).astype(np.float32)
        p = tmp_path / "a.bn"
        write_feature_file(p, values)
        back = read_feature_file(p)
        assert back.shape == (5, 7)
        assert np.array_equal(back, values)
        # header: magic, version=1, rank=2, dims (5,7), then row-major payload
        raw = p.read_bytes()
        assert raw[:4] == FEATURE_MAGIC
        assert np.frombuffer(raw[4:20], dtype="<u4").tolist() == [1, 2, 5, 7]
        first_row = np.frombuffer(raw[20:20 + 28], dtype="<f4")
        assert np.array_equal(first_row, values[0])

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.f0"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_feature_file(p)

    def test_bad_version_rejected(self, tmp_path):
        p = tmp_path / "bad.f0"
        write_feature_file(p, np.zeros(3, dtype=np.float32))
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_feature_file(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "trunc.f0"
        write_feature_file(p, np.zeros(8, dtype=np.float32))
        raw = p.read_bytes()
        p.write_bytes(raw[:-4])
        with pytest.raises(FormatError):
            read_feature_file(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        p = tmp_path / "over.f0"
        write_feature_file(p, np.zeros(8, dtype=np.float32))
        p.write_bytes(p.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError):
            read_feature_file(p)

    def test_non_finite_payload_rejected(self, tmp_path):
        p = tmp_path / "nan.f0"
        write_feature_file(p, np.array([1.0, 2.0], dtype=np.float32))
        raw = bytearray(p.read_bytes())
        raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_feature_file(p)

    def test_rank3_write_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_feature_file(tmp_path / "x", np.zeros((2, 2, 2)))

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e39])
    def test_non_finite_write_rejected_before_open(self, tmp_path, bad):
        # 1e39 is finite in float64 but overflows the float32 payload
        p = tmp_path / "bad.f0"
        with pytest.raises(ValueError, match="bad.f0"):
            write_feature_file(p, np.array([100.0, bad]))
        assert not p.exists()


class TestUtterance:
    def test_misaligned_frames_rejected(self):
        with pytest.raises(ValueError, match="alignment"):
            make_utt(f0=np.array([100.0, 120.0], dtype=np.float32),
                     bn=np.zeros((3, 2), dtype=np.float32))

    def test_negative_f0_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_utt(f0=np.array([100.0, -1.0, 150.0], dtype=np.float32))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_utt(xvec=np.array([np.nan, 1.0], dtype=np.float32))

    @pytest.mark.parametrize("bad", ["", "../../escaped", "a\\b", "a,b", "a\nb", "a\rb"])
    def test_ids_unfit_for_csv_or_file_name_rejected(self, bad):
        with pytest.raises(ValueError, match="utt_id"):
            make_utt(utt_id=bad)
        with pytest.raises(ValueError, match="speaker_id"):
            make_utt(speaker_id=bad)

    def test_voiced_mask_zero_is_unvoiced(self):
        utt = make_utt(f0=np.array([0.0, 90.0, 0.0], dtype=np.float32))
        assert utt.voiced.tolist() == [False, True, False]

    def test_features_tiles_xvec(self):
        utt = make_utt()
        feats = utt.features()
        assert feats.shape == (3, 4)
        assert feats.dtype == np.float64
        assert np.array_equal(feats[:, :2], np.tile([1.0, -1.0], (3, 1)))
        assert np.array_equal(feats[:, 2:], utt.bn.astype(np.float64))


class TestAssembleFeatures:
    def test_single_frame(self):
        out = assemble_features(np.array([2.0, 3.0]), np.array([[5.0]]))
        assert out.tolist() == [[2.0, 3.0, 5.0]]


class TestDataset:
    def test_duplicate_utt_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dataset([make_utt("u0"), make_utt("u0")])

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError, match="role"):
            Dataset([make_utt()], role="dev")

    def test_by_speaker_groups_in_order(self):
        d = Dataset([make_utt("u0", "s1"), make_utt("u1", "s0"), make_utt("u2", "s1")])
        groups = d.by_speaker()
        assert list(groups) == ["s1", "s0"]
        assert [u.utt_id for u in groups["s1"]] == ["u0", "u2"]


class TestManifest:
    def test_roundtrip(self, tmp_path):
        ds = Dataset([make_utt("u0", "s0", Gender.F),
                      make_utt("u1", "s1", Gender.M,
                               f0=np.array([0.0, 200.0], dtype=np.float32),
                               bn=np.ones((2, 2), dtype=np.float32))])
        manifest = write_dataset(ds, tmp_path)
        back = load_manifest(manifest, role="train")
        assert [u.utt_id for u in back.utterances] == ["u0", "u1"]
        assert back.utterances[1].gender is Gender.M
        assert np.array_equal(back.utterances[0].f0, ds.utterances[0].f0)
        assert np.array_equal(back.utterances[1].bn, ds.utterances[1].bn)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("utt,spk\n")
        with pytest.raises(FormatError, match="header"):
            load_manifest(p)

    def test_missing_file_rejected(self, tmp_path):
        ds = Dataset([make_utt()])
        manifest = write_dataset(ds, tmp_path)
        (tmp_path / "features" / "u0.bn").unlink()
        with pytest.raises(FileNotFoundError):
            load_manifest(manifest)

    def test_dimension_mismatch_rejected(self, tmp_path):
        ds = Dataset([make_utt("u0"), make_utt("u1", bn=np.zeros((3, 5), dtype=np.float32))])
        manifest = write_dataset(ds, tmp_path)
        with pytest.raises(ValueError, match="dimension"):
            load_manifest(manifest)

    def test_bad_gender_rejected(self, tmp_path):
        manifest = write_dataset(Dataset([make_utt()]), tmp_path)
        text = manifest.read_text().replace(",F,", ",X,")
        manifest.write_text(text)
        with pytest.raises(ValueError, match="gender"):
            load_manifest(manifest)


class TestFrameTable:
    def test_stacks_in_order_without_seed(self):
        ds = Dataset([
            make_utt("u0", f0=np.array([100.0, 0.0], dtype=np.float32),
                     bn=np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)),
            make_utt("u1", f0=np.array([150.0], dtype=np.float32),
                     bn=np.array([[5.0, 6.0]], dtype=np.float32),
                     xvec=np.array([0.5, 0.25], dtype=np.float32)),
        ])
        table = build_frame_table(ds)
        assert table.n_rows == 3
        assert table.rows[0].tolist() == [1.0, -1.0, 1.0, 2.0]
        assert table.rows[2].tolist() == [0.5, 0.25, 5.0, 6.0]
        assert table.voiced.tolist() == [True, False, True]
        assert table.target_logf0[0] == pytest.approx(np.log(100.0))
        assert table.target_logf0[1] == 0.0  # unvoiced sentinel

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_frame_table(Dataset([]))


class TestNormStats:
    def test_input_stats_population(self):
        ds = Dataset([make_utt(f0=np.array([100.0, 0.0], dtype=np.float32),
                               bn=np.array([[1.0, 5.0], [3.0, 5.0]], dtype=np.float32))])
        stats = compute_norm_stats(build_frame_table(ds))
        assert stats.input_mean.tolist() == [1.0, -1.0, 2.0, 5.0]
        # population std of {1,3} is 1; constant dims floor at STD_FLOOR
        assert stats.input_std[2] == pytest.approx(1.0)
        assert stats.input_std[0] == STD_FLOOR
        assert stats.input_std[3] == STD_FLOOR

    def test_logf0_stats_voiced_only(self):
        # voiced targets ln(100), ln(400): mean is ln(200), std is ln(2)
        ds = Dataset([make_utt(f0=np.array([100.0, 0.0, 400.0], dtype=np.float32),
                               bn=np.zeros((3, 2), dtype=np.float32))])
        stats = compute_norm_stats(build_frame_table(ds))
        assert stats.logf0_mean == pytest.approx(np.log(200.0), abs=1e-9)
        assert stats.logf0_std == pytest.approx(np.log(2.0), abs=1e-9)

    def test_all_unvoiced_rejected(self):
        ds = Dataset([make_utt(f0=np.zeros(3, dtype=np.float32))])
        with pytest.raises(ValueError, match="voiced"):
            compute_norm_stats(build_frame_table(ds))

    def test_normalize_roundtrip(self):
        stats = NormStats(np.array([1.0, 2.0]), np.array([2.0, 4.0]), 5.0, 0.5)
        raw = np.array([[3.0, 10.0]])
        normed = stats.normalize_inputs(raw)
        assert normed.tolist() == [[1.0, 2.0]]
        assert stats.normalize_logf0(5.25) == pytest.approx(0.5)
        assert stats.denormalize_logf0(0.5) == pytest.approx(5.25)

    def test_small_std_rejected(self):
        with pytest.raises(ValueError):
            NormStats(np.zeros(1), np.zeros(1), 0.0, 1.0)
