import os
import re
from pathlib import Path

import numpy as np
import pytest

from f0synth import featureio
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
    is_csv_field,
    load_manifest,
    pack_header,
    read_csv,
    read_feature_file,
    unpack_header,
    write_csv,
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

    @pytest.mark.parametrize("shape", [(257,), (5, 7)])
    def test_float64_written_as_its_float32_cast(self, tmp_path, shape):
        values = np.random.default_rng(13).standard_normal(shape) * 300.0
        write_feature_file(tmp_path / "wide", values)
        write_feature_file(tmp_path / "cast", values.astype(np.float32))
        assert (tmp_path / "wide").read_bytes() == (tmp_path / "cast").read_bytes()

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

    @pytest.mark.parametrize("case", ["valid", "bad_magic", "bad_rank", "short_header",
                                      "short_payload", "oversized", "non_finite", "missing",
                                      "directory"])
    def test_str_and_path_read_alike(self, tmp_path, case):
        p = tmp_path / "x.bn"
        write_feature_file(p, np.arange(6, dtype=np.float32).reshape(3, 2))
        raw = bytearray(p.read_bytes())
        edits = {
            "bad_magic": lambda: b"XXXX" + raw[4:],
            "bad_rank": lambda: raw[:8] + b"\x03" + raw[9:],
            "short_header": lambda: raw[:16],
            "short_payload": lambda: raw[:-4],
            "oversized": lambda: raw + bytes(4),
            "non_finite": lambda: raw[:-4] + np.array([np.inf], dtype="<f4").tobytes(),
        }
        if case in edits:
            p.write_bytes(bytes(edits[case]()))
        elif case != "valid":
            p.unlink()
            if case == "directory":
                p.mkdir()
        results = []
        for arg in (p, str(p)):
            try:
                results.append(read_feature_file(arg))
            except (FormatError, OSError) as exc:
                results.append((type(exc), str(exc)))
        by_path, by_str = results
        if case == "valid":
            assert np.array_equal(by_path, by_str) and by_str.flags.writeable
            assert by_str.dtype == np.float32 and by_str.shape == (3, 2)
        else:
            assert by_path == by_str and str(p) in by_str[1]

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


LONG = np.arange(35, dtype=np.float32).reshape(5, 7) - 17.5
SHORT = np.array([100.0, 0.0, 150.0], dtype=np.float32)


class TestFeatureFileRewrite:
    """A file is written in place, and a killed write reads as damaged."""

    @staticmethod
    def fresh_bytes(tmp_path, values):
        fresh = tmp_path / "fresh"
        write_feature_file(fresh, values)
        return fresh.read_bytes()

    @pytest.mark.parametrize("old, new", [(LONG, SHORT), (SHORT, LONG)],
                             ids=["over_longer", "over_shorter"])
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, old, new):
        p = tmp_path / "a.bn"
        write_feature_file(p, old)
        write_feature_file(p, new)
        assert p.read_bytes() == self.fresh_bytes(tmp_path, new)
        assert np.array_equal(read_feature_file(p), new)

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        p = tmp_path / "a.bn"
        write_feature_file(p, SHORT)
        pwrite = os.pwrite
        monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: pwrite(fd, data[:3], offset))
        write_feature_file(p, LONG)
        monkeypatch.undo()
        assert p.read_bytes() == self.fresh_bytes(tmp_path, LONG)

    def test_new_file_gets_the_mode_of_write_bytes(self, tmp_path):
        write_feature_file(tmp_path / "a.f0", SHORT)
        (tmp_path / "b.f0").write_bytes(b"")
        assert (tmp_path / "a.f0").stat().st_mode == (tmp_path / "b.f0").stat().st_mode

    @pytest.mark.parametrize("old", [LONG, SHORT, None],
                             ids=["over_longer", "over_shorter", "creation"])
    def test_write_killed_after_magic_is_rejected(self, tmp_path, monkeypatch, old):
        manifest = write_dataset(Dataset([make_utt(f0=SHORT, bn=LONG[:3, :2])]), tmp_path)
        p = tmp_path / "features" / "u0.bn"
        if old is None:
            p.unlink()
        else:
            write_feature_file(p, old)
        writes = []

        def killed_after_magic(fd, data, offset):
            writes.append(offset)
            if len(writes) == 2:  # the payload, once the magic reads as zeros
                raise KeyboardInterrupt
            pwrite_all(fd, data, offset)

        pwrite_all = featureio.pwrite_all
        monkeypatch.setattr(featureio, "pwrite_all", killed_after_magic)
        with pytest.raises(KeyboardInterrupt):
            write_feature_file(p, np.ones((4, 2), dtype=np.float32))
        assert p.read_bytes()[:4] == bytes(4)
        with pytest.raises(FormatError, match=re.escape(f"{p}: bad magic")):
            read_feature_file(p)
        with pytest.raises(FormatError, match=re.escape(f"manifest.csv:2: {p}: bad magic")):
            load_manifest(manifest)

    def test_rewrite_killed_before_the_cut_is_rejected(self, tmp_path, monkeypatch):
        p = tmp_path / "a.bn"
        write_feature_file(p, LONG)

        def killed(fd, length):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "ftruncate", killed)
        with pytest.raises(KeyboardInterrupt):
            write_feature_file(p, SHORT)
        monkeypatch.undo()
        with pytest.raises(FormatError, match=re.escape(f"{p}: truncated or oversized")):
            read_feature_file(p)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e39])
    def test_non_finite_rewrite_leaves_the_file_unchanged(self, tmp_path, bad):
        p = tmp_path / "a.f0"
        write_feature_file(p, SHORT)
        before = p.read_bytes()
        with pytest.raises(ValueError, match="a.f0"):
            write_feature_file(p, np.array([100.0, bad]))
        assert p.read_bytes() == before


class TestCodecs:
    def test_csv_write_read_roundtrip(self, tmp_path):
        rows = [["u0", "", "features/u0.f0"], ["u1", "F", "x;y"]]
        path = write_csv(tmp_path / "t.csv", ("a", "b", "c"), rows)
        assert path.read_text() == "a,b,c\nu0,,features/u0.f0\nu1,F,x;y\n"
        assert [fields for _, fields in read_csv(path, ("a", "b", "c"))] == rows

    @pytest.mark.parametrize("row", [["x"], ["x", "y", "z"], ["x,y", "z"],
                                     ["x\ny", "z"], ["x\ry", "z"], [" x", "z"], ["x", "z\t"]],
                             ids=["short", "long", "comma", "newline", "return", "lead_space",
                                  "trail_tab"])
    def test_csv_bad_row_rejected_before_open(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="bad.csv"):
            write_csv(path, ("a", "b"), [["ok", "ok"], row])
        assert not path.exists()

    @pytest.mark.parametrize("value, fits", [
        ("", True), ("a b", True), ("a\tb", True), ("x;y", True), ("a,b", False),
        (" a", False), ("a\t", False), ("a\nb", False), ("a\x0bb", False), ("a\u2029b", False),
    ])
    def test_csv_field_rule_matches_reader(self, tmp_path, value, fits):
        assert is_csv_field(value) is fits
        path = tmp_path / "t.csv"
        path.write_text(f"a,b\n{value},z\n", encoding="utf-8")
        try:
            back = [fields for _, fields in read_csv(path, ("a", "b"))]
        except FormatError:
            back = None
        assert (back == [[value, "z"]]) is fits

    def test_csv_non_utf8_names_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\nx\xff,z\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: 'utf-8' codec")):
            list(read_csv(path, ("a", "b")))

    def test_header_pack_unpack_inverse(self, tmp_path):
        data = pack_header(b"TEST", 3, 7, 0, 2**32 - 1)
        assert data == b"TEST" + bytes([3, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255])
        assert unpack_header(tmp_path, data, b"TEST", 3, 3, "test file") == [7, 0, 2**32 - 1]


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

    @pytest.mark.parametrize("bad", ["", "../../escaped", "a\\b", "a,b", "a\nb", "a\rb",
                                     " a", "a ", "a\tb\t", "a\x85b", "a\u2028b", "a\x00b",
                                     "x" * 251, "\u00e9" * 126, "F0;02", ";", "a;"])
    def test_ids_unfit_for_csv_or_file_name_rejected(self, bad):
        with pytest.raises(ValueError, match="utt_id"):
            make_utt(utt_id=bad)
        with pytest.raises(ValueError, match="speaker_id .*';'"):
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

    @pytest.mark.parametrize("second, words", [
        (dict(bn=np.zeros((3, 5), dtype=np.float32)), "utterance 'u2': bn dimension 5 != 2"),
        (dict(xvec=np.zeros(3, dtype=np.float32)), "utterance 'u2': xvec dimension 3 != 2"),
    ], ids=["bn", "xvec"])
    def test_mixed_widths_rejected_when_built(self, second, words):
        with pytest.raises(ValueError, match=re.escape(words)):
            Dataset([make_utt("u0"), make_utt("u1"), make_utt("u2", **second)])
        dataset = Dataset([make_utt("u0")])
        with pytest.raises(ValueError, match=re.escape(words)):
            dataset.append(make_utt("u2", **second))
        assert [u.utt_id for u in dataset.utterances] == ["u0"]

    def test_input_width_is_shared_xvec_plus_bn(self):
        assert Dataset([make_utt("u0"), make_utt("u1")]).input_width == 4

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
        back = load_manifest(manifest)
        assert [u.utt_id for u in back.utterances] == ["u0", "u1"]
        assert back.utterances[1].gender is Gender.M
        assert np.array_equal(back.utterances[0].f0, ds.utterances[0].f0)
        assert np.array_equal(back.utterances[1].bn, ds.utterances[1].bn)

    def test_path_fields_joined_to_csv_directory_as_strings(self, tmp_path, monkeypatch):
        columns = ("a", "p", "q")
        path = write_csv(tmp_path / "sub" / "t.csv", columns,
                         [["u0", "features/u0.f0", "/abs//u0.bn"]])
        [(where, fields)] = read_csv(path, columns, ("p", "q"))
        assert where == f"{path}:2"
        assert fields == ["u0", f"{tmp_path}/sub/features/u0.f0", "/abs//u0.bn"]
        assert all(type(field) is str for field in fields)
        monkeypatch.chdir(tmp_path / "sub")
        [(_, fields)] = read_csv(Path("t.csv"), columns, ("p",))
        assert fields == ["u0", "features/u0.f0", "/abs//u0.bn"]

    def test_moved_manifest_with_absolute_paths_loads_same_arrays(self, tmp_path):
        ds = Dataset([make_utt("u0"), make_utt("u1", "s1", Gender.M, bn=np.ones((3, 2)))])
        manifest = write_dataset(ds, tmp_path / "world")
        moved = tmp_path / "elsewhere" / "manifest.csv"
        moved.parent.mkdir()
        text = manifest.read_text().replace(",features/", f",{tmp_path}/world/features/")
        assert text.count(f",{tmp_path}/") == 6
        moved.write_text(text)
        for want, got in zip(load_manifest(manifest).utterances,
                             load_manifest(moved).utterances):
            for name in ("f0", "bn", "xvec"):
                assert np.array_equal(getattr(want, name), getattr(got, name))

    def test_missing_absolute_path_named_as_written(self, tmp_path):
        manifest = write_dataset(Dataset([make_utt()]), tmp_path / "world")
        absent = f"{tmp_path}/gone//u0.bn"
        manifest.write_text(manifest.read_text().replace("features/u0.bn", absent))
        with pytest.raises(FileNotFoundError,
                           match=f"^{re.escape(f'{manifest}:2: missing feature file {absent}')}$"):
            load_manifest(manifest)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("utt,spk\n")
        with pytest.raises(FormatError, match="header"):
            load_manifest(p)

    def test_missing_file_rejected(self, tmp_path):
        self.check_missing_feature(tmp_path, make_directory=False)

    def test_directory_in_place_of_file_rejected(self, tmp_path):
        self.check_missing_feature(tmp_path, make_directory=True)

    def test_path_through_a_file_rejected(self, tmp_path):
        manifest = write_dataset(Dataset([make_utt()]), tmp_path)
        manifest.write_text(manifest.read_text().replace("features/u0.bn", "features/u0.f0/bn"))
        feature = tmp_path / "features" / "u0.f0" / "bn"
        with pytest.raises(FileNotFoundError,
                           match=f"manifest.csv:2: missing feature file {re.escape(str(feature))}"):
            load_manifest(manifest)

    @staticmethod
    def check_missing_feature(tmp_path, make_directory):
        manifest = write_dataset(Dataset([make_utt()]), tmp_path)
        feature = tmp_path / "features" / "u0.bn"
        feature.unlink()
        if make_directory:
            feature.mkdir()
        with pytest.raises(FileNotFoundError,
                           match=f"manifest.csv:2: missing feature file {re.escape(str(feature))}"):
            load_manifest(manifest)

    def test_non_utf8_byte_names_manifest(self, tmp_path):
        manifest = write_dataset(Dataset([make_utt()]), tmp_path)
        data = manifest.read_bytes()
        manifest.write_bytes(data.replace(b",F,", b",\xff,"))
        with pytest.raises(FormatError, match=re.escape(f"{manifest}: 'utf-8' codec")):
            load_manifest(manifest)

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a UTF-8 BOM.
        manifest = write_dataset(Dataset([make_utt()]), tmp_path)
        data = manifest.read_bytes()
        manifest.write_bytes(b"\xef\xbb\xbf" + data)
        (utt,) = load_manifest(manifest).utterances
        assert (utt.utt_id, utt.speaker_id) == ("u0", "s0")
        # Only one is dropped: a second one is part of the header.
        manifest.write_bytes(b"\xef\xbb\xbf" * 2 + data)
        with pytest.raises(FormatError, match="header must be"):
            load_manifest(manifest)

    def test_dimension_mismatch_rejected(self, tmp_path):
        manifest = write_dataset(Dataset([make_utt("u0"), make_utt("u1")]), tmp_path)
        write_feature_file(tmp_path / "features" / "u1.bn", np.zeros((3, 5), dtype=np.float32))
        with pytest.raises(ValueError, match="dimension"):
            load_manifest(manifest)

    def test_bad_gender_rejected(self, tmp_path):
        manifest = write_dataset(Dataset([make_utt()]), tmp_path)
        text = manifest.read_text().replace(",F,", ",X,")
        manifest.write_text(text)
        with pytest.raises(ValueError, match="gender"):
            load_manifest(manifest)

    @pytest.mark.parametrize("second, edit, words", [
        (dict(), ("\nu1,", "\nu/1,"), "utt_id 'u/1'"),
        (dict(), ("\nu1,s0,", "\nu1,s\\0,"), "speaker_id"),
        (dict(bn=np.zeros((3, 5), dtype=np.float32)), None, "bn dimension 5 != 2"),
        (dict(xvec=np.zeros(3, dtype=np.float32)), None, "xvec dimension 3 != 2"),
        (dict(), ("\nu1,s0,F,", "\nu1,s0,X,"), "gender"),
        (dict(), ("\nu1,", "\nu0,"), "duplicate utt_id 'u0'"),
        (dict(), ("features/u1.bn", "features/u1.f0"), "utterance 'u1': bn must be 2-D"),
    ], ids=["utt_id", "speaker_id", "bn_width", "xvec_width", "gender", "duplicate_utt_id",
            "rank"])
    def test_row_error_names_manifest_line(self, tmp_path, second, edit, words):
        manifest = write_dataset(Dataset([make_utt("u0"), make_utt("u1")]), tmp_path)
        for kind, values in second.items():  # a width no Dataset can hold
            write_feature_file(tmp_path / "features" / f"u1.{kind}", values)
        if edit is not None:
            text = manifest.read_text()
            assert edit[0] in text
            manifest.write_text(text.replace(edit[0], edit[1]))
        with pytest.raises(FormatError, match=f"manifest.csv:3: .*{re.escape(words)}"):
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

    def test_rows_are_stored_float32_of_stacked_features(self):
        ds = uneven_dataset()
        rows = build_frame_table(ds).rows
        assert rows.dtype == np.float32
        stacked = np.vstack([u.features() for u in ds.utterances])
        assert np.array_equal(rows.astype(np.float64).view(np.uint64),
                              stacked.view(np.uint64))


def uneven_dataset(seed=3):
    """Utterances of uneven lengths (one of a single frame) with random values."""
    rng = np.random.default_rng(seed)
    utts = []
    for i, n in enumerate((57, 1, 300, 8, 129)):
        f0 = np.where(rng.random(n) < 0.7, rng.uniform(70.0, 400.0, n), 0.0)
        utts.append(make_utt(f"u{i}", f"s{i % 2}", f0=f0.astype(np.float32),
                             bn=rng.normal(0.3, 2.0, (n, 5)).astype(np.float32),
                             xvec=rng.normal(size=3).astype(np.float32)))
    return Dataset(utts)


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

    def test_input_stats_equal_stats_of_float64_table(self):
        ds = uneven_dataset()
        stats = compute_norm_stats(build_frame_table(ds))
        stacked = np.vstack([u.features() for u in ds.utterances])
        want_std = np.maximum(stacked.std(axis=0), STD_FLOOR)
        assert np.array_equal(stats.input_mean.view(np.uint64),
                              stacked.mean(axis=0).view(np.uint64))
        assert np.array_equal(stats.input_std.view(np.uint64), want_std.view(np.uint64))

    def test_normalize_float32_equals_normalize_float64(self):
        ds = uneven_dataset()
        table = build_frame_table(ds)
        stats = compute_norm_stats(table)
        want = (table.rows.astype(np.float64) - stats.input_mean) / stats.input_std
        got = stats.normalize_inputs(table.rows)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

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

    @pytest.mark.parametrize("field", ["input_mean", "input_std", "logf0_mean", "logf0_std"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stats_rejected(self, field, bad):
        values = dict(input_mean=np.zeros(2), input_std=np.ones(2), logf0_mean=5.0,
                      logf0_std=0.5)
        if field.startswith("input"):
            values[field] = np.array([1.0, bad])
        else:
            values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            NormStats(**values)
