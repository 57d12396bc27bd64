"""A tour of the synthetic corpus generator.

The generator builds a deterministic miniature speech world: each speaker
gets an identity embedding whose first component encodes gender exactly,
each utterance gets per-frame feature rows from a smooth random walk, and
the F0 trajectory follows a closed-form rule — log-F0 is a gender base
plus a fixed linear read-out of the first feature dimensions, and a frame
is voiced exactly when feature column 1 exceeds a threshold.  Because the
rule ships alongside the data, models trained on this world can be judged
against exact ground truth.

Run:  python3 demos/01_synthetic_world.py
"""

import tempfile

import numpy as np

from f0synth.featureio import load_manifest, write_dataset
from f0synth.synthgen import SynthSpec, generate_synthetic_dataset

print("=== 1. Describe a world ===")
spec = SynthSpec(
    n_speakers_per_gender=3,
    utts_per_speaker=2,
    frames_per_utt=150,
    d_bn=16,
    d_xv=8,
    seed=42,
)
print(f"base F0: female {spec.base_f0_female:.0f} Hz, "
      f"male {spec.base_f0_male:.0f} Hz")
print(f"{spec.n_speakers_per_gender} speakers per gender, "
      f"{spec.utts_per_speaker} utterances each, "
      f"{spec.frames_per_utt} frames per utterance")

print("\n=== 2. Generate the train split ===")
dataset, mapping = generate_synthetic_dataset(spec, role="train")
print(f"{len(dataset)} utterances, {dataset.total_frames} frames total")
utt = dataset.utterances[0]
print(f"first utterance: {utt.utt_id} (speaker {utt.speaker_id}, "
      f"gender {utt.gender.value})")
print(f"  f0 shape {utt.f0.shape}, bn shape {utt.bn.shape}, "
      f"xvec shape {utt.xvec.shape}")
print(f"  xvec[0] = {utt.xvec[0]:+.1f}  (gender marker: +1 female, -1 male)")
print(f"  voiced fraction: {utt.voiced.mean():.2f}")

print("\n=== 3. The closed-form rule reproduces the data bit-for-bit ===")
recomputed = mapping.f0(utt.gender, utt.bn)
print(f"mapping.f0(gender, bn) == stored trajectory: "
      f"{np.array_equal(recomputed, utt.f0)}")
print(f"active feature dims in the log-F0 read-out: {mapping.n_active_dims}")
print(f"voicing rule: frame voiced iff bn[:, 1] > {mapping.voicing_threshold}")

print("\n=== 4. Same spec, same bits; different role, fresh utterances ===")
again, _ = generate_synthetic_dataset(spec, role="train")
print(f"regenerated train split identical: "
      f"{all(np.array_equal(a.f0, b.f0) for a, b in zip(dataset.utterances, again.utterances))}")
val, _ = generate_synthetic_dataset(spec, role="validation")
print(f"validation split shares speakers but not frames: first val utt "
      f"{val.utterances[0].utt_id}, overlap with train f0: "
      f"{np.array_equal(val.utterances[0].f0, dataset.utterances[0].f0)}")

print("\n=== 5. Write to disk and read back ===")
with tempfile.TemporaryDirectory(prefix="f0synth_demo_") as out_dir:
    manifest = write_dataset(dataset, out_dir)
    print(f"wrote {manifest}")
    loaded = load_manifest(manifest)  # every row must share the first row's widths
print(f"round-trip intact: "
      f"{all(np.array_equal(a.f0, b.f0) and np.array_equal(a.bn, b.bn) for a, b in zip(dataset.utterances, loaded.utterances))}")
