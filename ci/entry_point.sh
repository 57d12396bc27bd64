#!/usr/bin/env bash
# End-to-end checks of the f0synth command line: reproducible outputs,
# failures that leave no output behind, and a thread-count-independent
# checkpoint.  Runs the installed entry point by default; from a source
# checkout:
#
#   F0SYNTH="python -m f0synth.cli" PYTHONPATH=src bash ci/entry_point.sh
set -euo pipefail

F0SYNTH=${F0SYNTH:-f0synth}
# Outputs go under $RUNNER_TEMP when it is set; otherwise under a new
# temporary directory, removed on exit.
if [ -n "${RUNNER_TEMP:-}" ]; then
  TMP=$RUNNER_TEMP
else
  TMP=$(mktemp -d)
  trap 'rm -rf "$TMP"' EXIT
fi

$F0SYNTH --version
$F0SYNTH --help

# world_b reads world_a's settings from a config file that starts with a
# UTF-8 byte-order mark and a comment line: it must give the same bytes.
$F0SYNTH synthgen --seed 1 --out-dir "$TMP/world_a" \
  --set synth.n_speakers_per_gender=3 --set synth.utts_per_speaker=2 \
  --set synth.frames_per_utt=40 --set synth.d_bn=2 --set synth.d_xv=2
printf '\xef\xbb\xbf# world_a, as a config file\n' > "$TMP/world_b.cfg"
cat >> "$TMP/world_b.cfg" <<CFG
seed = 1
out_dir = $TMP/world_b
synth.n_speakers_per_gender = 3
synth.utts_per_speaker = 2
synth.frames_per_utt = 40
synth.d_bn = 2
synth.d_xv = 2
CFG
$F0SYNTH synthgen --config "$TMP/world_b.cfg"
diff -r "$TMP/world_a" "$TMP/world_b"
for run in run_a run_b; do
  $F0SYNTH train --seed 1 --out-dir "$TMP/$run" \
    --set train.manifest="$TMP/world_a/train/manifest.csv" \
    --set train.val_manifest="$TMP/world_a/validation/manifest.csv" \
    --set model.hidden_sizes=8,4 --set train.batch_size=48 \
    --set train.max_epochs=3
done
cmp "$TMP/run_a/checkpoint.f0md" "$TMP/run_b/checkpoint.f0md"
cmp "$TMP/run_a/history.csv" "$TMP/run_b/history.csv"
for i in a b; do
  $F0SYNTH eval --out-dir "$TMP/eval_$i" \
    --set eval.manifest="$TMP/world_a/test/manifest.csv" \
    --set eval.checkpoint="$TMP/run_a/checkpoint.f0md"
  for method in synthesis shift_scale; do
    $F0SYNTH anonymize --seed 1 --out-dir "$TMP/anon_${method}_$i" \
      --set anonymize.method=$method \
      --set anonymize.manifest="$TMP/world_a/test/manifest.csv" \
      --set anonymize.pool="$TMP/world_a/pool.csv" \
      --set anonymize.checkpoint="$TMP/run_a/checkpoint.f0md" \
      --set anonymize.n=2 --set anonymize.k=1
  done
done
cmp "$TMP/eval_a/metrics.csv" "$TMP/eval_b/metrics.csv"
diff -r "$TMP/anon_synthesis_a" "$TMP/anon_synthesis_b"
diff -r "$TMP/anon_shift_scale_a" "$TMP/anon_shift_scale_b"

# The test manifest copied to another directory, its three path columns
# rewritten as absolute paths: eval and anonymize give the same bytes.
mkdir "$TMP/abs_manifest"
sed "s|,features/|,$TMP/world_a/test/features/|g" \
  "$TMP/world_a/test/manifest.csv" > "$TMP/abs_manifest/manifest.csv"
if grep -q ",features/" "$TMP/abs_manifest/manifest.csv"; then
  echo "a relative path is left in $TMP/abs_manifest/manifest.csv"; exit 1
fi
$F0SYNTH eval --out-dir "$TMP/eval_abs" \
  --set eval.manifest="$TMP/abs_manifest/manifest.csv" \
  --set eval.checkpoint="$TMP/run_a/checkpoint.f0md"
cmp "$TMP/eval_a/metrics.csv" "$TMP/eval_abs/metrics.csv"
$F0SYNTH anonymize --seed 1 --out-dir "$TMP/anon_shift_scale_abs" \
  --set anonymize.method=shift_scale \
  --set anonymize.manifest="$TMP/abs_manifest/manifest.csv" \
  --set anonymize.pool="$TMP/world_a/pool.csv" \
  --set anonymize.n=2 --set anonymize.k=1
diff -r "$TMP/anon_shift_scale_a" "$TMP/anon_shift_scale_abs"

# A negative seed or an n larger than the pool fails before out_dir is made.
for bad in "--seed -1" "--seed 1 --set anonymize.n=99"; do
  # $bad is split into its options on purpose.
  # shellcheck disable=SC2086
  if $F0SYNTH anonymize --out-dir "$TMP/anon_bad" \
      --set anonymize.method=shift_scale \
      --set anonymize.manifest="$TMP/world_a/test/manifest.csv" \
      --set anonymize.pool="$TMP/world_a/pool.csv" \
      --set anonymize.n=2 --set anonymize.k=1 $bad; then
    echo "anonymize $bad succeeded"; exit 1
  fi
  test ! -e "$TMP/anon_bad"
done

# A checkpoint whose dropout field is out of range: eval exits 1, names
# the checkpoint on stderr and writes nothing.
bad_ckpt="$TMP/bad_dropout.f0md"
cp "$TMP/run_a/checkpoint.f0md" "$bad_ckpt"
python - "$bad_ckpt" <<'PY'
import struct
import sys

data = bytearray(open(sys.argv[1], "rb").read())
(n_layers,) = struct.unpack_from("<I", data, 8)
struct.pack_into("<d", data, 16 + 4 * n_layers, 0.9)
open(sys.argv[1], "wb").write(data)
PY
status=0
$F0SYNTH eval --out-dir "$TMP/eval_bad" \
  --set eval.manifest="$TMP/world_a/test/manifest.csv" \
  --set eval.checkpoint="$bad_ckpt" 2> "$TMP/eval_bad.err" || status=$?
cat "$TMP/eval_bad.err"
if [ "$status" != 1 ]; then
  echo "eval on $bad_ckpt exited $status, not 1"; exit 1
fi
grep -qF "$bad_ckpt" "$TMP/eval_bad.err"
test ! -e "$TMP/eval_bad"

# A validation manifest that does not exist, or one whose utterances hold
# 0 frames: train exits 1, names it on stderr and makes no out_dir.
python - "$TMP/world_a/validation/manifest.csv" "$TMP/val_empty" <<'PY'
import dataclasses
import sys

from f0synth.featureio import Dataset, load_manifest, write_dataset

utts = load_manifest(sys.argv[1]).utterances
write_dataset(Dataset([dataclasses.replace(u, f0=u.f0[:0], bn=u.bn[:0]) for u in utts]),
              sys.argv[2])
PY
for val in "$TMP/nope/manifest.csv" "$TMP/val_empty/manifest.csv"; do
  status=0
  $F0SYNTH train --out-dir "$TMP/run_bad" \
    --set train.manifest="$TMP/world_a/train/manifest.csv" \
    --set train.val_manifest="$val" 2> "$TMP/run_bad.err" || status=$?
  cat "$TMP/run_bad.err"
  if [ "$status" != 1 ]; then
    echo "train with validation manifest $val exited $status, not 1"; exit 1
  fi
  grep -qF "$val" "$TMP/run_bad.err"
  test ! -e "$TMP/run_bad"
done

# A quickstart-sized world.  synthgen draws on every CPU it may run on,
# so the world built on one CPU must be the same bytes.  Its GEMMs are
# large enough for OpenBLAS to thread, so the checkpoint must not depend
# on the thread count.
qs_world=(--seed 11 --set synth.n_speakers_per_gender=10
          --set synth.utts_per_speaker=5 --set synth.frames_per_utt=520)
$F0SYNTH synthgen --out-dir "$TMP/world_qs" "${qs_world[@]}"
taskset -c 0 $F0SYNTH synthgen --out-dir "$TMP/world_qs_cpu0" "${qs_world[@]}"
diff -r "$TMP/world_qs" "$TMP/world_qs_cpu0"
for threads in 1 2; do
  OPENBLAS_NUM_THREADS=$threads $F0SYNTH train --seed 11 \
    --out-dir "$TMP/run_qs_$threads" \
    --set train.manifest="$TMP/world_qs/train/manifest.csv" \
    --set train.val_manifest="$TMP/world_qs/validation/manifest.csv" \
    --set model.hidden_sizes=64,32,16,8 --set train.batch_size=4096 \
    --set train.max_epochs=3
done
cmp "$TMP/run_qs_1/checkpoint.f0md" "$TMP/run_qs_2/checkpoint.f0md"
cmp "$TMP/run_qs_1/history.csv" "$TMP/run_qs_2/history.csv"
echo "entry point checks ok"
