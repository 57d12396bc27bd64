"""What the pitch metrics measure, on hand-built trajectories.

All rates are pooled over frames (micro-averaged): voiced/unvoiced
confusion gives accuracy/precision/recall; among frames voiced in both
trajectories, a relative F0 error above 20% is a gross error (GPE), and
within the 20% band an error above 5% is a fine error (FPE).  The
"accurately processed" fraction counts correct unvoiced frames plus
voiced frames without gross error, over all frames.  Pitch correlation
is the Pearson coefficient over commonly-voiced frames, macro-averaged
per utterance, and is absent (None) for degenerate cases rather than 0.

Run:  python3 demos/03_metrics.py
"""

import numpy as np

from f0synth.metrics import (
    REPORT_COLUMNS,
    evaluate_utterances,
    pitch_correlation,
    pitch_error_counts,
    report_csv_row,
)

print("=== 1. A tiny hand-checkable example ===")
truth = np.array([100.0, 200.0, 0.0, 150.0, 0.0])
pred = np.array([101.0, 250.0, 0.0, 0.0, 80.0])
print(f"truth: {truth}")
print(f"pred:  {pred}")
counts = pitch_error_counts(pred, truth)   # one record holds every count
print(f"voicing confusion: tp={counts.tp} fp={counts.fp} tn={counts.tn} fn={counts.fn}")
print("  frame 4 is a miss (fn), frame 5 a false alarm (fp)")
print(f"GPE over the {counts.tp} commonly-voiced frames: {counts.gpe:.3f} "
      f"(gross={counts.gross})")
print("  100->101 is a 1% error (fine); 200->250 is 25% (gross)")
print(f"accuracy {counts.accuracy:.3f}  "
      f"accurately_processed {counts.accurately_processed:.3f}")

print("\n=== 2. Errors in cents ===")
for ratio in (1.05, 1.20):
    print(f"a factor-{ratio:.2f} pitch error = "
          f"{1200.0 * np.log2(ratio):.1f} cents")

print("\n=== 3. Correlation needs common voiced frames and real variance ===")
base = np.array([110.0, 130.0, 0.0, 170.0, 160.0])
print(f"rho(traj, 2x traj)       = {pitch_correlation(base, 2.0 * base)}")
print(f"rho(traj, reversed vals) = "
      f"{pitch_correlation(base, np.array([170.0, 160.0, 0.0, 130.0, 110.0])):.3f}")
print(f"rho(traj, constant)      = "
      f"{pitch_correlation(base, np.full(5, 140.0))}  (absent, not 0)")

print("\n=== 4. Pooled evaluation over a set of utterances ===")
rng = np.random.default_rng(3)
truth_set, pred_set = {}, {}
for i in range(4):
    n = 80
    t = np.zeros(n)
    voiced = rng.random(n) < 0.6
    t[voiced] = rng.uniform(90, 260, voiced.sum())
    p = t * (1.0 + 0.03 * rng.standard_normal(n))   # mostly small errors
    p[rng.random(n) < 0.05] = 0.0                   # a few voicing misses
    truth_set[f"utt{i}"] = t
    pred_set[f"utt{i}"] = np.abs(p)
report = evaluate_utterances(pred_set, truth_set)
print(f"pooled counts: tp={report.tp} fp={report.fp} tn={report.tn} "
      f"fn={report.fn} gross={report.gross} fine_errors={report.fine_errors}")
print(f"gpe {report.gpe:.3f}  fpe {report.fpe:.3f}  "
      f"accuracy {report.accuracy:.3f}  "
      f"accurately_processed {report.accurately_processed:.3f}  "
      f"rho {report.pitch_correlation:.3f}")

print("\n=== 5. The CSV row the eval command writes ===")
print(",".join(REPORT_COLUMNS))
print(",".join(report_csv_row("demo", "all", report)))
