"""Training the F0 synthesis network, start to finish.

The model is a small fully-connected ReLU network with two outputs per
frame: a normalized log-F0 regression and a voiced/unvoiced logit.  The
loss is an L1 term over frames that are truly voiced plus a weighted
cross-entropy over all frames.  Training uses a from-scratch NAdam
optimizer and a plateau scheduler that first reduces the learning rate
and then stops early when the validation metric (fraction of accurately
processed frames) stalls.

Run:  python3 demos/02_training.py        (~15 s)
"""

import tempfile
from pathlib import Path

import numpy as np

from f0synth.featureio import build_frame_table
from f0synth.model import ModelConfig, load_checkpoint, predict_f0, save_checkpoint
from f0synth.synthgen import SynthSpec, generate_synthetic_dataset
from f0synth.training import TrainConfig, train

print("=== 1. Data: a learnable world ===")
spec = SynthSpec(n_speakers_per_gender=6, utts_per_speaker=4,
                 frames_per_utt=300, d_bn=16, d_xv=8, seed=7)
train_ds, _ = generate_synthetic_dataset(spec, role="train")
val_ds, _ = generate_synthetic_dataset(spec, role="validation")
table = build_frame_table(train_ds)
print(f"train: {table.rows.shape[0]} frames x {table.rows.shape[1]} features; "
      f"val: {val_ds.total_frames} frames")

print("\n=== 2. Configure and train ===")
model_config = ModelConfig(input_dim=table.rows.shape[1],
                           hidden_sizes=[64, 32, 16, 8], dropout=0.0)
train_config = TrainConfig(lr=0.001, batch_size=4096, max_epochs=40, seed=7)
print(f"hidden sizes {model_config.hidden_sizes}, lr {train_config.lr}, "
      f"batch {train_config.batch_size}, alpha {train_config.alpha}")
params, history = train(table, val_ds, model_config, train_config)

print("\n=== 3. The history records one row per epoch ===")
print("epoch  train_loss  val_metric  lr        event")
for rec in history.records:
    if rec.epoch <= 3 or rec.event != "none" or rec.epoch == len(history):
        print(f"{rec.epoch:5d}  {rec.train_loss:10.4f}  {rec.val_metric:10.4f}"
              f"  {rec.lr:.2e}  {rec.event}")
print(f"... ({len(history)} epochs, best val metric "
      f"{history.best_val_metric:.4f})")
print("events: 'reduce_lr' marks a plateau-triggered lr cut (x0.2), "
      "'stop' ends training after a longer plateau")

print("\n=== 4. Predict on a held-out utterance ===")
utt = val_ds.utterances[0]
pred_f0, p_voiced = predict_f0(params, utt.features())
voiced = (utt.f0 > 0) & (pred_f0 > 0)
rel = np.abs(pred_f0[voiced] - utt.f0[voiced]) / utt.f0[voiced]
print(f"{utt.utt_id}: voicing agreement "
      f"{np.mean((pred_f0 > 0) == (utt.f0 > 0)):.3f}, "
      f"median relative F0 error {np.median(rel):.4f}")

print("\n=== 5. Checkpoints round-trip exactly ===")
with tempfile.TemporaryDirectory(prefix="f0synth_demo_") as tmp:
    ckpt = Path(tmp) / "model.f0md"
    save_checkpoint(ckpt, params, dropout=model_config.dropout)
    loaded, loaded_config = load_checkpoint(ckpt)
    same = all(np.array_equal(a, b)
               for a, b in zip(params.weights, loaded.weights))
    print(f"wrote {ckpt} ({ckpt.stat().st_size} bytes); "
          f"weights bit-identical after reload: {same}")
re_pred, _ = predict_f0(loaded, utt.features())
print(f"reloaded model reproduces predictions exactly: "
      f"{np.array_equal(pred_f0, re_pred)}")
