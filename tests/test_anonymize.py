import re

import numpy as np
import pytest

from f0synth.anonymize import (
    ContrastiveMode,
    F0Stats,
    PoolEntry,
    PseudoSpeaker,
    SpeakerPool,
    assemble_synthesis_inputs,
    load_pool,
    pool_from_dataset,
    select_pseudo_speaker,
    shift_scale_f0,
    speaker_f0_stats,
    write_pool,
)
from f0synth.featureio import Dataset, FormatError, Gender, Utterance, write_feature_file


def entry(speaker_id, gender, xvec, mean=150.0, std=20.0):
    return PoolEntry(speaker_id=speaker_id, gender=gender,
                     xvec=np.asarray(xvec, dtype=float), f0_mean=mean, f0_std=std)


def toy_pool():
    return SpeakerPool((
        entry("a", Gender.F, [1.0, 0.0], mean=100.0, std=10.0),
        entry("b", Gender.F, [0.0, 1.0], mean=200.0, std=20.0),
        entry("c", Gender.F, [-1.0, 0.0], mean=300.0, std=30.0),
    ))


def random_pool(rng, n_f, n_m, dim=6):
    entries = []
    for i in range(n_f):
        entries.append(entry(f"F{i:03d}", Gender.F, rng.normal(size=dim),
                             mean=float(rng.uniform(150, 250)),
                             std=float(rng.uniform(5, 40))))
    for i in range(n_m):
        entries.append(entry(f"M{i:03d}", Gender.M, rng.normal(size=dim),
                             mean=float(rng.uniform(90, 160)),
                             std=float(rng.uniform(5, 40))))
    return SpeakerPool(tuple(entries))


def make_utt(utt_id, speaker_id, gender, f0, xvec):
    f0 = np.asarray(f0, dtype=np.float32)
    return Utterance(utt_id=utt_id, speaker_id=speaker_id, gender=gender, f0=f0,
                     bn=np.zeros((len(f0), 2), dtype=np.float32),
                     xvec=np.asarray(xvec, dtype=np.float32))


class TestPoolTypes:
    def test_entry_rejects_non_positive_stats(self):
        with pytest.raises(ValueError, match="positive"):
            entry("x", Gender.F, [1.0], std=0.0)
        with pytest.raises(ValueError, match="positive"):
            entry("x", Gender.F, [1.0], mean=-3.0)

    @pytest.mark.parametrize("bad", [" a", "a ", "a,b", "a/b"])
    def test_entry_rejects_id_unfit_for_csv(self, bad):
        with pytest.raises(ValueError, match="speaker_id"):
            entry(bad, Gender.F, [1.0])

    def test_pool_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="unique"):
            SpeakerPool((entry("a", Gender.F, [1.0]), entry("a", Gender.M, [2.0])))

    def test_pool_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            SpeakerPool((entry("a", Gender.F, [1.0]), entry("b", Gender.F, [1.0, 2.0])))

    def test_gender_filter(self):
        pool = toy_pool()
        assert len(pool.of_gender(Gender.F)) == 3
        assert pool.of_gender(Gender.M) == []


class TestSelectPseudoSpeaker:
    def test_toy_pool_brute_force_example(self):
        pseudo = select_pseudo_speaker(toy_pool(), np.array([1.0, 0.0]), Gender.F,
                                       gender_mode="same", n=2, k=2, seed=5)
        # candidates by distance: c (2.0), b (1.0); a (0.0) excluded
        assert sorted(pseudo.chosen_ids) == ["b", "c"]
        assert pseudo.xvec.tolist() == pytest.approx([-0.5, 0.5])
        assert pseudo.stats.mean == pytest.approx(250.0)
        assert pseudo.stats.std == pytest.approx(25.0)

    def test_k_equals_n_whole_subpool_seed_independent(self):
        pool = toy_pool()
        src = np.array([0.3, 0.9])
        a = select_pseudo_speaker(pool, src, Gender.F, n=3, k=3, seed=1)
        b = select_pseudo_speaker(pool, src, Gender.F, n=3, k=3, seed=999)
        assert sorted(a.chosen_ids) == sorted(b.chosen_ids) == ["a", "b", "c"]
        assert np.allclose(a.xvec, b.xvec)
        expect = np.mean([e.xvec for e in pool.entries], axis=0)
        assert np.allclose(a.xvec, expect, atol=1e-15)

    def test_same_seed_reproduces_selection_order(self):
        rng = np.random.default_rng(3)
        pool = random_pool(rng, 20, 0)
        src = rng.normal(size=6)
        a = select_pseudo_speaker(pool, src, Gender.F, n=10, k=4, seed=42)
        b = select_pseudo_speaker(pool, src, Gender.F, n=10, k=4, seed=42)
        c = select_pseudo_speaker(pool, src, Gender.F, n=10, k=4, seed=43)
        assert a.chosen_ids == b.chosen_ids
        assert a.chosen_ids != c.chosen_ids or not np.allclose(a.xvec, c.xvec)

    def test_gender_mode_opposite(self):
        rng = np.random.default_rng(4)
        pool = random_pool(rng, 8, 8)
        pseudo = select_pseudo_speaker(pool, rng.normal(size=6), Gender.M,
                                       gender_mode="opposite", n=5, k=3, seed=0)
        assert all(cid.startswith("F") for cid in pseudo.chosen_ids)

    def test_candidate_set_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            pool = random_pool(rng, int(rng.integers(5, 25)), int(rng.integers(0, 5)))
            src = rng.normal(size=6)
            females = pool.of_gender(Gender.F)
            n = int(rng.integers(1, len(females) + 1))
            pseudo = select_pseudo_speaker(pool, src, Gender.F, n=n, k=n, seed=7)
            dists = {e.speaker_id: 1.0 - float(src @ e.xvec) / float(
                np.sqrt(src @ src) * np.sqrt(e.xvec @ e.xvec)) for e in females}
            brute = sorted(dists, key=lambda sid: (-dists[sid], sid))[:n]
            assert sorted(pseudo.chosen_ids) == sorted(brute)

    def test_ranking_invariant_under_source_rescaling(self):
        rng = np.random.default_rng(11)
        pool = random_pool(rng, 12, 0)
        src = rng.normal(size=6)
        a = select_pseudo_speaker(pool, src, Gender.F, n=6, k=6, seed=1)
        b = select_pseudo_speaker(pool, 250.0 * src, Gender.F, n=6, k=6, seed=1)
        assert sorted(a.chosen_ids) == sorted(b.chosen_ids)

    def test_tie_break_by_ascending_speaker_id(self):
        # b and c are equidistant from the source; a is nearest
        pool = SpeakerPool((
            entry("a", Gender.F, [1.0, 0.0]),
            entry("c", Gender.F, [0.0, 1.0]),
            entry("b", Gender.F, [0.0, -1.0]),
        ))
        pseudo = select_pseudo_speaker(pool, np.array([1.0, 0.0]), Gender.F,
                                       n=1, k=1, seed=0)
        assert pseudo.chosen_ids == ("b",)  # tie at distance 1.0 → lowest id

    def test_multi_way_tie_across_n_boundary_keeps_lowest_ids(self):
        # z is furthest; four entries share one embedding at distance 1.0, and
        # n=3 takes two of them: the two lowest ids, whatever the pool order
        tied = [entry(sid, Gender.F, [0.0, 1.0]) for sid in ("q", "e", "m", "g")]
        pool = SpeakerPool((entry("a", Gender.F, [1.0, 0.0]), tied[0],
                            entry("z", Gender.F, [-1.0, 0.0]), *tied[1:]))
        pseudo = select_pseudo_speaker(pool, np.array([1.0, 0.0]), Gender.F,
                                       n=3, k=3, seed=0)
        assert sorted(pseudo.chosen_ids) == ["e", "g", "z"]

    def test_zero_source_rejected(self):
        with pytest.raises(ValueError, match="zero-norm xvec"):
            select_pseudo_speaker(toy_pool(), np.zeros(2), Gender.F, n=2, k=1)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="xvec width 3 != pool xvec width 2"):
            select_pseudo_speaker(toy_pool(), np.ones(3), Gender.F, n=2, k=1)

    def test_pseudo_in_convex_hull_of_members(self):
        rng = np.random.default_rng(13)
        pool = random_pool(rng, 15, 0)
        pseudo = select_pseudo_speaker(pool, rng.normal(size=6), Gender.F,
                                       n=8, k=4, seed=2)
        by_id = {e.speaker_id: e for e in pool.entries}
        members = np.array([by_id[cid].xvec for cid in pseudo.chosen_ids])
        assert (pseudo.xvec >= members.min(axis=0) - 1e-12).all()
        assert (pseudo.xvec <= members.max(axis=0) + 1e-12).all()

    def test_insufficient_pool_rejected(self):
        with pytest.raises(ValueError, match="need n"):
            select_pseudo_speaker(toy_pool(), np.array([1.0, 0.0]), Gender.F, n=5, k=2)
        with pytest.raises(ValueError, match="need n"):
            select_pseudo_speaker(toy_pool(), np.array([1.0, 0.0]), Gender.F,
                                  gender_mode="opposite", n=1, k=1)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError, match="k must"):
            select_pseudo_speaker(toy_pool(), np.array([1.0, 0.0]), Gender.F, n=2, k=3)
        with pytest.raises(ValueError, match="k must"):
            select_pseudo_speaker(toy_pool(), np.array([1.0, 0.0]), Gender.F, n=2, k=0)


class TestSpeakerStats:
    def test_hand_arithmetic(self):
        ds = Dataset([make_utt("u0", "s0", Gender.F, [100.0, 0.0, 200.0], [1.0, 0.0])])
        stats = speaker_f0_stats(ds)
        assert stats["s0"].mean == 150.0
        assert stats["s0"].std == 50.0  # population std

    def test_pooled_across_utterances_order_invariant(self):
        u1 = make_utt("u1", "s0", Gender.F, [100.0, 120.0], [1.0, 0.0])
        u2 = make_utt("u2", "s0", Gender.F, [0.0, 140.0], [1.0, 0.0])
        a = speaker_f0_stats(Dataset([u1, u2]))
        b = speaker_f0_stats(Dataset([u2, u1]))
        assert a["s0"] == b["s0"]
        assert a["s0"].mean == pytest.approx(120.0)

    def test_too_few_voiced_frames_rejected(self):
        ds = Dataset([make_utt("u0", "s0", Gender.F, [100.0, 0.0, 0.0], [1.0, 0.0])])
        with pytest.raises(ValueError, match="voiced frames"):
            speaker_f0_stats(ds)

    def test_constant_f0_speaker_rejected_by_pool_entry(self):
        ds = Dataset([make_utt("u0", "s0", Gender.F, [150.0, 150.0], [1.0, 0.0])])
        with pytest.raises(ValueError, match="'s0'.*positive"):
            speaker_f0_stats(ds)
        with pytest.raises(ValueError, match="positive"):
            pool_from_dataset(ds)

    def test_pool_from_dataset(self):
        ds = Dataset([
            make_utt("u0", "s0", Gender.F, [100.0, 200.0], [1.0, 1.0]),
            make_utt("u1", "s1", Gender.M, [90.0, 110.0], [-1.0, 0.0]),
        ])
        pool = pool_from_dataset(ds)
        assert len(pool) == 2
        s0, s1 = pool.entries
        assert (s0.speaker_id, s1.speaker_id) == ("s0", "s1")
        assert s0.gender is Gender.F
        assert s0.f0_mean == 150.0
        assert s1.f0_std == 10.0
        assert s1.xvec.tolist() == [-1.0, 0.0]


class TestPseudoTargetStats:
    """The pseudo speaker's target stats average the chosen members' stats."""

    def test_hand_arithmetic(self):
        pool = SpeakerPool((entry("a", Gender.F, [1.0], mean=100.0, std=10.0),
                            entry("b", Gender.F, [2.0], mean=200.0, std=20.0)))
        pseudo = select_pseudo_speaker(pool, np.array([1.0]), Gender.F, n=2, k=2)
        assert pseudo.stats == F0Stats(150.0, 15.0)

    def test_single_member(self):
        # c is the furthest from [1, 0], so n=k=1 picks it alone
        pseudo = select_pseudo_speaker(toy_pool(), np.array([1.0, 0.0]), Gender.F, n=1, k=1)
        assert pseudo.stats == F0Stats(300.0, 30.0)

    def test_order_irrelevant(self):
        pool = toy_pool()
        reverse = SpeakerPool(pool.entries[::-1])
        src = np.array([0.3, 0.9])
        assert (select_pseudo_speaker(pool, src, Gender.F, n=3, k=3).stats
                == select_pseudo_speaker(reverse, src, Gender.F, n=3, k=3).stats)


class TestShiftScale:
    def test_identity_when_tgt_equals_src(self):
        f0 = np.array([0.0, 110.0, 95.0, 0.0, 130.0])
        out = shift_scale_f0(f0, F0Stats(100.0, 10.0), F0Stats(100.0, 10.0))
        assert np.allclose(out, f0, atol=1e-12)

    def test_hand_arithmetic_example(self):
        out = shift_scale_f0(np.array([110.0]), F0Stats(100.0, 10.0),
                             F0Stats(200.0, 20.0))
        assert out[0] == pytest.approx(220.0)

    def test_unvoiced_stays_exactly_zero(self):
        out = shift_scale_f0(np.array([0.0, 100.0, 0.0]), F0Stats(100.0, 10.0),
                             F0Stats(500.0, 90.0))
        assert out[0] == 0.0 and out[2] == 0.0
        assert out[1] > 0

    def test_exact_stats_transfer(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(3, 60))
            raw = rng.uniform(80, 300, size=n)
            src = F0Stats(float(raw.mean()), float(raw.std()))
            if src.std == 0:
                continue
            tgt = F0Stats(float(rng.uniform(100, 250)), float(rng.uniform(5, 40)))
            out = shift_scale_f0(raw, src, tgt)
            assert out.mean() == pytest.approx(tgt.mean, rel=1e-9)
            assert out.std() == pytest.approx(tgt.std, rel=1e-9)

    def test_voiced_mask_preserved(self):
        rng = np.random.default_rng(7)
        f0 = rng.uniform(80, 300, size=30)
        f0[rng.random(30) < 0.5] = 0.0
        out = shift_scale_f0(f0, F0Stats(150.0, 30.0), F0Stats(120.0, 25.0))
        assert np.array_equal(out > 0, f0 > 0)

    def test_floor_keeps_outliers_voiced(self):
        # maps far below zero without the floor
        out = shift_scale_f0(np.array([100.0]), F0Stats(200.0, 1.0), F0Stats(50.0, 1.0))
        assert out[0] == 1.0

    def test_bad_src_std_rejected(self):
        with pytest.raises(ValueError, match="src.std"):
            shift_scale_f0(np.array([100.0]), F0Stats(100.0, 0.0), F0Stats(1.0, 1.0))


class TestContrastiveRouting:
    def setup_method(self):
        self.pseudo = PseudoSpeaker(xvec=np.array([9.0, 9.0]), chosen_ids=("a",),
                                    stats=F0Stats(150.0, 15.0))
        self.source = np.array([1.0, 2.0])

    def test_mode_parse(self):
        assert ContrastiveMode.parse("ours") is ContrastiveMode.OURS
        assert ContrastiveMode.parse("C2") is ContrastiveMode.C2
        with pytest.raises(ValueError, match="mode"):
            ContrastiveMode.parse("C9")

    @pytest.mark.parametrize("mode,synth_is_pseudo,export_is_pseudo", [
        (ContrastiveMode.OURS, True, True),
        (ContrastiveMode.C1, False, False),
        (ContrastiveMode.C2, True, False),
        (ContrastiveMode.C3, False, True),
    ])
    def test_routing_table(self, mode, synth_is_pseudo, export_is_pseudo):
        synth, export = assemble_synthesis_inputs(mode, self.source, self.pseudo)
        assert np.array_equal(synth, self.pseudo.xvec if synth_is_pseudo else self.source)
        assert np.array_equal(export, self.pseudo.xvec if export_is_pseudo else self.source)


class TestPoolFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        pool = random_pool(rng, 3, 2)
        path = write_pool(pool, tmp_path)
        back = load_pool(path)
        assert len(back) == 5
        for e, b in zip(pool.entries, back.entries, strict=True):
            assert b.speaker_id == e.speaker_id
            assert b.gender is e.gender
            assert b.f0_mean == pytest.approx(e.f0_mean, rel=1e-15)
            assert np.allclose(b.xvec, e.xvec, atol=1e-6)  # float32 storage

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(2)
        pool = random_pool(rng, 2, 2)
        p1 = write_pool(pool, tmp_path / "a")
        p2 = write_pool(pool, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "pool.csv"
        p.write_text("speaker,sex\n")
        with pytest.raises(FormatError, match="header"):
            load_pool(p)

    def test_escaping_speaker_id_rejected(self, tmp_path):
        out = tmp_path / "a" / "b"
        path = write_pool(toy_pool(), out)
        path.write_text(path.read_text().replace("\na,", "\n../../escaped,", 1))
        with pytest.raises(ValueError, match="speaker_id"):
            load_pool(path)
        with pytest.raises(ValueError, match="speaker_id"):
            write_pool(SpeakerPool((entry("../../escaped", Gender.F, [1.0]),)), out)
        assert not list(tmp_path.rglob("escaped*"))

    def test_bad_stats_rejected(self, tmp_path):
        pool = toy_pool()
        path = write_pool(pool, tmp_path)
        text = path.read_text().replace("100,", "oops,", 1)
        path.write_text(text)
        with pytest.raises(FormatError, match=f"pool.csv:2: .*'oops'"):
            load_pool(path)

    def test_missing_xvec_names_pool_line(self, tmp_path):
        path = write_pool(toy_pool(), tmp_path)
        xvec = tmp_path / "pool_xvecs" / "b.xvec"
        xvec.unlink()
        with pytest.raises(FileNotFoundError,
                           match=re.escape(f"{path}:3: missing feature file {xvec}")):
            load_pool(path)

    def test_duplicate_speaker_names_pool_file(self, tmp_path):
        path = write_pool(toy_pool(), tmp_path)
        path.write_text(path.read_text().replace("\nb,", "\na,"))
        with pytest.raises(FormatError, match=re.escape(f"{path}: pool speaker_ids must be unique")):
            load_pool(path)

    @pytest.mark.parametrize("edit, words", [
        (("\nb,", "\nb/x,"), "speaker_id 'b/x'"),
        ((",200,20\n", ",0,20\n"), "must be positive"),
        ((",200,20\n", ",200,-20\n"), "must be positive"),
        ((",200,20\n", ",inf,20\n"), "must be positive and finite"),
        (("pool_xvecs/b.xvec", "zero.xvec"), "pool entry 'b': zero-norm xvec"),
        (("pool_xvecs/b.xvec", "rank2.xvec"), "pool entry 'b': xvec must be 1-D"),
    ], ids=["speaker_id", "zero_mean", "negative_std", "infinite_mean", "zero_xvec", "rank"])
    def test_row_error_names_pool_line(self, tmp_path, edit, words):
        path = write_pool(toy_pool(), tmp_path)
        write_feature_file(tmp_path / "zero.xvec", np.zeros(2, dtype=np.float32))
        write_feature_file(tmp_path / "rank2.xvec", np.ones((2, 2), dtype=np.float32))
        text = path.read_text()
        assert edit[0] in text
        path.write_text(text.replace(edit[0], edit[1]))
        with pytest.raises(FormatError, match=f"pool.csv:3: .*{words}"):
            load_pool(path)
