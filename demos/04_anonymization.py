"""Speaker anonymization: pseudo-speakers, routing, and the two F0 methods.

A pseudo-speaker is built from a pool of real speaker embeddings: take
the N pool members of the matching gender furthest from the source (by
cosine distance), sample K of them, and average their embeddings and F0
statistics.  The F0 trajectory is then replaced either by running the
synthesis network on the pseudo embedding, or by shift-and-scale: an
affine map taking the source speaker's voiced mean/std onto the pseudo
target's.  Contrastive modes route the pseudo vs. original embedding
independently into the synthesizer and the exported identity, and a
pitch-correlation floor of 0.3 flags outputs that lost the melody.

Run:  python3 demos/04_anonymization.py   (~15 s; trains a small model)
"""

import numpy as np

from f0synth.anonymize import (
    ContrastiveMode,
    assemble_synthesis_inputs,
    pool_from_dataset,
    select_pseudo_speaker,
    shift_scale_f0,
    speaker_f0_stats,
)
from f0synth.featureio import Gender, assemble_features, build_frame_table
from f0synth.metrics import pitch_correlation
from f0synth.model import ModelConfig, predict_f0
from f0synth.synthgen import SynthSpec, generate_synthetic_dataset
from f0synth.training import TrainConfig, train

print("=== 1. A pool of speakers ===")
spec = SynthSpec(n_speakers_per_gender=6, utts_per_speaker=4,
                 frames_per_utt=300, d_bn=16, d_xv=8, seed=7)
train_ds, _ = generate_synthetic_dataset(spec, role="train")
test_ds, _ = generate_synthetic_dataset(spec, role="test")
pool = pool_from_dataset(train_ds)
print(f"pool: {len(pool)} speakers, embedding dim "
      f"{len(pool.entries[0].xvec)}")

print("\n=== 2. Furthest-N, sample-K, average ===")
source = test_ds.utterances[0]
pseudo = select_pseudo_speaker(pool, source.xvec, source.gender,
                               gender_mode="same", n=4, k=2, seed=0)
print(f"source {source.speaker_id} ({source.gender.value}) -> "
      f"chose {pseudo.chosen_ids} from the 4 furthest same-gender members")
print(f"pseudo F0 target: mean {pseudo.stats.mean:.1f} Hz, "
      f"std {pseudo.stats.std:.1f} Hz (averages of the chosen members)")
again = select_pseudo_speaker(pool, source.xvec, source.gender,
                              gender_mode="same", n=4, k=2, seed=0)
print(f"same seed, same choice: {again.chosen_ids == pseudo.chosen_ids}")

print("\n=== 3. Shift-and-scale: exact statistics transfer ===")
stats = speaker_f0_stats(test_ds)[source.speaker_id]
target = pseudo.stats
outputs = [shift_scale_f0(u.f0, stats, target)
           for u in test_ds.utterances if u.speaker_id == source.speaker_id]
pooled = np.concatenate([o[o > 0] for o in outputs])
print(f"speaker stats ({stats.mean:.1f}, {stats.std:.1f}) Hz mapped onto "
      f"target ({target.mean:.1f}, {target.std:.1f}) Hz")
print(f"pooled over the speaker's utterances the output reads "
      f"({pooled.mean():.1f}, {pooled.std():.1f}) Hz - exact transfer")
out = outputs[0]
print(f"voiced mask untouched: {np.array_equal(out > 0, source.f0 > 0)}")
print(f"melody preserved: rho = {pitch_correlation(source.f0, out):.3f}")

print("\n=== 4. Synthesis with a trained network ===")
# This miniature world needs extra scheduler patience: the validation
# metric saturates on voicing long before the embedding dependence of the
# pitch register has sharpened, and the default early stop would fire.
table = build_frame_table(train_ds)
params, _ = train(table, test_ds,
                  ModelConfig(input_dim=table.rows.shape[1],
                              hidden_sizes=[64, 32, 16, 8], dropout=0.0),
                  TrainConfig(lr=0.001, batch_size=4096, max_epochs=150,
                              patience_lr=10, patience_stop=30, seed=7))

def mean_voiced(f0):
    return f0[f0 > 0].mean()

own, _ = predict_f0(params, source.features())
opposite = select_pseudo_speaker(pool, source.xvec, source.gender,
                                 gender_mode="opposite", n=4, k=2, seed=0)
swapped, _ = predict_f0(params, assemble_features(opposite.xvec, source.bn))
print(f"{source.utt_id} is {'female' if source.gender is Gender.F else 'male'}: "
      f"own-embedding mean voiced F0 {mean_voiced(own):.1f} Hz, "
      f"opposite-gender pseudo {mean_voiced(swapped):.1f} Hz")
print("the embedding alone moves the whole register; the frame-level "
      "melody still follows the linguistic features")

print("\n=== 5. Contrastive routing ===")
for mode in ContrastiveMode:
    synth, export = assemble_synthesis_inputs(mode, source.xvec, pseudo)
    synth_kind = "pseudo" if np.array_equal(synth, pseudo.xvec) else "source"
    export_kind = "pseudo" if np.array_equal(export, pseudo.xvec) else "source"
    print(f"mode {mode.value:4s}: synthesize with {synth_kind} embedding, "
          f"export {export_kind} identity")

print("\n=== 6. The correlation flag ===")
rho_good = pitch_correlation(source.f0, out)
constant = np.where(source.f0 > 0, 140.0, 0.0)
rho_bad = pitch_correlation(source.f0, constant)
print(f"shift-and-scale output: rho {rho_good:.3f} -> above the 0.3 floor")
print(f"flat 140 Hz output: rho {rho_bad} -> absent, flagged")
