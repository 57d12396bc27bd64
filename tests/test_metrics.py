import re

import numpy as np
import pytest

from f0synth.metrics import (
    FrameCounts,
    evaluate_utterances,
    format_correlation,
    format_percent,
    pitch_correlation,
    pitch_error_counts,
    pool_scores,
    report_csv_row,
    score_utterances,
)


def oracle_counts(pred, truth):
    """Independent per-frame enumeration of every pooled count."""
    tp = fp = tn = fn = gross = fine_band = fine_err = both_unv = 0
    for p, t in zip(pred, truth):
        pv, tv = p > 0, t > 0
        if pv and tv:
            tp += 1
            rel = abs(p - t) / t
            if rel > 0.20:
                gross += 1
            else:
                fine_band += 1
                if rel > 0.05:
                    fine_err += 1
        elif pv and not tv:
            fp += 1
        elif not pv and tv:
            fn += 1
        else:
            tn += 1
            both_unv += 1
    return dict(tp=tp, fp=fp, tn=tn, fn=fn, gross=gross,
                fine_band=fine_band, fine_err=fine_err, both_unv=both_unv)


def random_pair(rng, n):
    def traj():
        f0 = rng.uniform(60.0, 350.0, size=n)
        f0[rng.random(n) < 0.4] = 0.0
        return f0
    return traj(), traj()


class TestConfusion:
    def test_identity_has_no_errors(self):
        t = np.array([100.0, 0.0, 250.0, 0.0])
        c = pitch_error_counts(t, t)
        assert (c.fp, c.fn) == (0, 0)
        assert c.tp == 2 and c.tn == 2

    def test_hand_enumerated_example(self):
        truth = np.array([100.0, 100.0, 0.0, 0.0])
        pred = np.array([100.0, 0.0, 0.0, 100.0])
        c = pitch_error_counts(pred, truth)
        assert (c.tp, c.fn, c.tn, c.fp) == (1, 1, 1, 1)
        assert c.accuracy == 0.5 and c.precision == 0.5 and c.recall == 0.5

    def test_all_unvoiced_precision_absent(self):
        z = np.zeros(5)
        c = pitch_error_counts(z, z)
        assert c.tn == 5
        assert c.precision is None
        assert c.recall is None
        assert c.accuracy == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            pitch_error_counts(np.zeros(3), np.zeros(4))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            FrameCounts(1, -1, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            FrameCounts(1, 0, 0, 0, 1, 1)  # more gross + fine errors than tp


class TestGpe:
    def test_hand_enumerated_example(self):
        truth = np.array([100.0, 200.0, 150.0])
        pred = np.array([130.0, 205.0, 150.0])
        assert pitch_error_counts(pred, truth).gpe == pytest.approx(1.0 / 3.0)

    def test_identity_is_zero(self):
        t = np.array([100.0, 200.0])
        assert pitch_error_counts(t, t).gpe == 0.0

    def test_exact_20_percent_is_not_gross(self):
        assert pitch_error_counts(np.array([120.0]), np.array([100.0])).gpe == 0.0
        assert pitch_error_counts(np.array([120.0 + 1e-9]), np.array([100.0])).gpe == 1.0

    def test_absent_without_common_voiced_frames(self):
        assert pitch_error_counts(np.array([0.0, 100.0]), np.array([100.0, 0.0])).gpe is None

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        pred, truth = random_pair(rng, 40)
        assert (pitch_error_counts(pred, truth).gpe
                == pitch_error_counts(3.7 * pred, 3.7 * truth).gpe)

    def test_denominator_is_both_voiced_only(self):
        # one gross frame among two both-voiced; extra fp/fn frames ignored
        truth = np.array([100.0, 100.0, 0.0, 100.0])
        pred = np.array([150.0, 100.0, 100.0, 0.0])
        assert pitch_error_counts(pred, truth).gpe == 0.5


class TestFpe:
    def test_hand_enumerated_partition(self):
        # both-voiced errors {6%, 2%, 25%}: band {6%, 2%}, errors {6%}
        truth = np.array([100.0, 100.0, 100.0])
        pred = np.array([106.0, 102.0, 125.0])
        c = pitch_error_counts(pred, truth)
        assert (c.gross, c.fine_band, c.fine_errors) == (1, 2, 1)
        assert c.fpe == 0.5

    def test_small_errors_give_zero(self):
        truth = np.array([200.0, 150.0])
        pred = np.array([205.0, 150.0])  # 2.5%, 0%
        assert pitch_error_counts(pred, truth).fpe == 0.0

    def test_identity_is_zero(self):
        t = np.array([99.0, 301.0])
        assert pitch_error_counts(t, t).fpe == 0.0

    def test_absent_when_all_gross(self):
        assert pitch_error_counts(np.array([200.0]), np.array([100.0])).fpe is None

    def test_exact_5_percent_is_not_fine_error(self):
        assert pitch_error_counts(np.array([105.0]), np.array([100.0])).fpe == 0.0


class TestAccuratelyProcessed:
    def test_hand_enumerated_example(self):
        truth = np.array([100.0, 200.0, 0.0, 0.0])
        pred = np.array([110.0, 0.0, 0.0, 130.0])
        assert pitch_error_counts(pred, truth).accurately_processed == 0.5

    def test_identity_is_one(self):
        t = np.array([100.0, 0.0, 300.0])
        assert pitch_error_counts(t, t).accurately_processed == 1.0

    def test_total_miss_is_zero(self):
        truth = np.array([100.0, 200.0])
        assert pitch_error_counts(np.zeros(2), truth).accurately_processed == 0.0

    def test_empty_is_absent(self):
        c = pitch_error_counts(np.array([]), np.array([]))
        assert c.total == 0
        assert c.accurately_processed is None


class TestPitchCorrelation:
    def test_positive_scaling_gives_one(self):
        a = np.array([100.0, 0.0, 150.0, 200.0])
        assert pitch_correlation(a, 2.0 * a) == pytest.approx(1.0, abs=1e-12)

    def test_hand_pearson_example(self):
        assert pitch_correlation(np.array([1.0, 2.0, 3.0]),
                                 np.array([1.0, 3.0, 2.0])) == pytest.approx(0.5)

    def test_constant_side_absent(self):
        a = np.array([100.0, 150.0, 200.0])
        assert pitch_correlation(a, np.full(3, 140.0)) is None

    def test_constant_side_absent_when_mean_does_not_round_trip(self):
        # mean(c, ..., c) can differ from c in floating point (e.g. for
        # c = exp(log(140))); the constant side must still read as
        # zero-variance rather than yield a noise-level correlation.
        c = float(np.exp(np.log(140.0)))
        a = np.linspace(100.0, 200.0, 11)
        assert np.full(11, c).mean() != c  # the hazard this guards against
        assert pitch_correlation(a, np.full(11, c)) is None
        assert pitch_correlation(np.full(11, c), a) is None

    def test_fewer_than_two_common_voiced_absent(self):
        assert pitch_correlation(np.array([100.0, 0.0]), np.array([90.0, 80.0])) is None
        assert pitch_correlation(np.zeros(4), np.zeros(4)) is None

    def test_exactly_two_common_voiced_frames_give_plus_or_minus_one(self):
        a = np.array([100.0, 0.0, 150.0, 120.0])
        assert pitch_correlation(a, np.array([90.0, 80.0, 200.0, 0.0])) == pytest.approx(1.0)
        assert pitch_correlation(a, np.array([200.0, 80.0, 90.0, 0.0])) == pytest.approx(-1.0)

    def test_only_common_voiced_frames_count(self):
        # frames where either side is unvoiced are excluded entirely
        a = np.array([1.0, 2.0, 3.0, 999.0, 0.0])
        b = np.array([1.0, 3.0, 2.0, 0.0, 999.0])
        assert pitch_correlation(a, b) == pytest.approx(0.5)

    def test_anticorrelation(self):
        a = np.array([1.0, 2.0, 3.0])
        assert pitch_correlation(a, a[::-1].copy()) == pytest.approx(-1.0)


class TestOracleEquivalence:
    def test_counts_match_per_frame_enumeration(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            pred, truth = random_pair(rng, int(rng.integers(1, 50)))
            ref = oracle_counts(pred, truth)
            c = pitch_error_counts(pred, truth)
            assert (c.tp, c.fp, c.tn, c.fn) == (ref["tp"], ref["fp"], ref["tn"], ref["fn"])
            assert c.gross == ref["gross"]
            assert c.fine_band == ref["fine_band"]
            assert c.fine_errors == ref["fine_err"]
            assert c.both_unvoiced == ref["both_unv"]
            assert c.both_voiced == ref["tp"]
            assert c.total == len(pred)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pred, truth = random_pair(rng, 60)
        perm = rng.permutation(60)
        assert pitch_error_counts(pred, truth) == pitch_error_counts(pred[perm], truth[perm])


class TestEvaluateUtterances:
    def test_identity_sets(self):
        rng = np.random.default_rng(9)
        truth = {f"u{i}": random_pair(rng, 30)[1] for i in range(4)}
        report = evaluate_utterances(truth, truth)
        assert report.gpe == 0.0
        assert report.fpe == 0.0
        assert report.accuracy == 1.0
        assert report.accurately_processed == 1.0

    def test_pooled_counts_equal_sum_of_per_utterance_counts(self):
        rng = np.random.default_rng(10)
        pred, truth = {}, {}
        per_utt = []
        for i in range(6):
            p, t = random_pair(rng, int(rng.integers(5, 40)))
            pred[f"u{i}"], truth[f"u{i}"] = p, t
            per_utt.append(pitch_error_counts(p, t))
        report = evaluate_utterances(pred, truth)
        for name in ("tp", "fp", "tn", "fn", "gross", "fine_errors"):
            assert getattr(report, name) == sum(getattr(c, name) for c in per_utt)
        assert report.total == sum(c.total for c in per_utt)
        # micro averaging: ratio of pooled counts, not mean of ratios
        assert report.gpe == report.gross / report.both_voiced

    def test_rho_macro_averaged_over_defined_values(self):
        a = np.array([1.0, 2.0, 3.0])
        pred = {"u0": a, "u1": np.array([1.0, 3.0, 2.0]), "u2": np.zeros(3)}
        truth = {"u0": a, "u1": a, "u2": np.array([1.0, 2.0, 3.0])}
        report = evaluate_utterances(pred, truth)
        # u0 rho=1, u1 rho=0.5, u2 absent (no common voiced) → mean 0.75
        assert report.pitch_correlation == pytest.approx(0.75)

    def test_all_rho_absent_gives_none(self):
        pred = {"u0": np.zeros(3)}
        truth = {"u0": np.array([1.0, 2.0, 3.0])}
        assert evaluate_utterances(pred, truth).pitch_correlation is None

    def test_pools_of_one_scoring_match_per_group_evaluation(self):
        rng = np.random.default_rng(11)
        pred, truth = {}, {}
        for i in range(7):
            pred[f"u{i}"], truth[f"u{i}"] = random_pair(rng, int(rng.integers(5, 40)))
        scores = score_utterances(pred, truth)
        assert scores == {k: (pitch_error_counts(pred[k], truth[k]),
                              pitch_correlation(pred[k], truth[k])) for k in truth}
        for ids in (["u0", "u3", "u5"], ["u1", "u2", "u4", "u6"], sorted(truth)):
            alone = evaluate_utterances({k: pred[k] for k in ids}, {k: truth[k] for k in ids})
            assert pool_scores({k: scores[k] for k in ids}) == alone

    def test_unmatched_ids_rejected(self):
        with pytest.raises(ValueError, match="unmatched"):
            evaluate_utterances({"a": np.zeros(1)}, {"b": np.zeros(1)})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_utterances({}, {})

    def test_unmatched_ids_listed_as_missing_and_extra(self):
        truth = {f"u{i}": np.ones(2) for i in range(8)}
        pred = {f"u{i}": np.ones(2) for i in range(1, 7)} | {"x1": np.ones(2), "x0": np.ones(2)}
        with pytest.raises(ValueError, match=re.escape(
                "unmatched utt_ids (missing ['u0', 'u7'], extra ['x0', 'x1'])")):
            score_utterances(pred, truth)
        many = {f"v{i}": np.ones(2) for i in range(9)}
        with pytest.raises(ValueError, match=re.escape(
                "(missing ['u0', 'u1', 'u2', 'u3', 'u4'], "
                "extra ['v0', 'v1', 'v2', 'v3', 'v4'])")):
            score_utterances(many, truth)

    def test_length_mismatch_names_utterance_and_both_counts(self):
        truth = {"u0": np.ones(4), "u1": np.ones(5)}
        pred = {"u0": np.ones(4), "u1": np.ones(3)}
        with pytest.raises(ValueError, match=re.escape(
                "utterance 'u1': length mismatch: pred 3 vs truth 5")):
            score_utterances(pred, truth)


class TestReportFormatting:
    def test_percent_formatting(self):
        assert format_percent(0.316) == "31.6"
        assert format_percent(1.0) == "100.0"
        assert format_percent(None) == ""

    def test_correlation_formatting(self):
        assert format_correlation(0.5) == "0.500"
        assert format_correlation(-0.25) == "-0.250"
        assert format_correlation(None) == ""

    def test_csv_row(self):
        truth = {"u0": np.array([100.0, 0.0, 150.0, 210.0])}
        report = evaluate_utterances(truth, truth)
        row = report_csv_row("test", "F", report)
        assert row == ["test", "F", "0.0", "0.0", "100.0", "100.0", "100.0", "100.0", "1.000"]

    def test_csv_row_absent_fields_empty(self):
        z = {"u0": np.zeros(3)}
        row = report_csv_row("test", "all", evaluate_utterances(z, z))
        assert row == ["test", "all", "", "", "100.0", "", "", "100.0", ""]
