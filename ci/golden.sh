#!/usr/bin/env bash
# End-to-end check of the command line: runs the README quickstart once
# (synthgen, train, eval, anonymize with both methods at n=5, k=3, and a
# 3-epoch training at dropout 0.2 into dropout/), with one BLAS thread, in
# a temporary directory.  Then, on every machine, it compares the run with
# itself, each comparison writing outside world/ and run/:
#   1. --version and --help run;
#   2. the world rebuilt on one CPU (taskset -c 0) is the same tree;
#   3. the dropout run at 2 BLAS threads gives the same checkpoint and history;
#   4. a config file that starts with a UTF-8 byte-order mark and a comment
#      line gives the world of --set;
#   5. the test manifest copied elsewhere with absolute feature paths gives
#      eval and shift_scale anonymize the same bytes;
#   6. eval on a checkpoint whose dropout field is 0.9 exits 1, names the
#      file and writes nothing.
#   7. eval on the test manifest with its rows reversed gives the same
#      metrics.csv bytes.
# Last it compares the outputs with ci/golden/quickstart.json: the digest of
# the sha256sum listing of every file under world/ and run/, and the hashes
# of both checkpoints and histories.  That record names the machine it was
# made on (numpy, BLAS, CPU model).  There a mismatch fails; on another
# machine, whose BLAS may round differently, the script prints both records
# and exits 0.  A change that moves the outputs on purpose commits the
# "this run" record it prints in place of ci/golden/quickstart.json.
#
# Runs the command in $F0SYNTH when it is set, adding nothing to PYTHONPATH,
# else the source tree; from any directory of a checkout:
#
#   bash ci/golden.sh
#   F0SYNTH=f0synth bash ci/golden.sh    # the installed entry point
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
if [ -z "${F0SYNTH:-}" ]; then
  F0SYNTH="python -m f0synth.cli"
  export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
fi
read -ra cmd <<< "$F0SYNTH"
f0synth() { command "${cmd[@]}" "$@"; }
export OPENBLAS_NUM_THREADS=1 LC_ALL=C
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

world=(--seed 11 --set synth.n_speakers_per_gender=10
       --set synth.utts_per_speaker=5 --set synth.frames_per_utt=520)
train=(--seed 11 --set train.manifest=world/train/manifest.csv
       --set train.val_manifest=world/validation/manifest.csv
       --set model.hidden_sizes=64,32,16,8
       --set train.batch_size=4096 --set train.lr=0.0003)
dropout=(--set model.dropout=0.2 --set train.max_epochs=3)
anonymize=(--seed 0 --set anonymize.pool=world/pool.csv
           --set anonymize.checkpoint=run/checkpoint.f0md
           --set anonymize.n=5 --set anonymize.k=3)

f0synth synthgen --out-dir world "${world[@]}" > /dev/null
f0synth train --out-dir run "${train[@]}" > /dev/null
f0synth train --out-dir dropout "${train[@]}" "${dropout[@]}" > /dev/null
f0synth eval --out-dir run/eval \
  --set eval.manifest=world/test/manifest.csv \
  --set eval.checkpoint=run/checkpoint.f0md > /dev/null
for method in synthesis shift_scale; do
  f0synth anonymize --out-dir "run/anon_$method" "${anonymize[@]}" \
    --set anonymize.method=$method \
    --set anonymize.manifest=world/test/manifest.csv > /dev/null
done

# 1.
f0synth --version
f0synth --help > /dev/null

# 2. synthgen draws on every CPU it may run on.
taskset -c 0 "${cmd[@]}" synthgen --out-dir world_cpu0 "${world[@]}" > /dev/null
diff -r world world_cpu0

# 3. The quickstart's GEMMs are large enough for OpenBLAS to thread.
OPENBLAS_NUM_THREADS=2 f0synth train --out-dir dropout_2threads \
  "${train[@]}" "${dropout[@]}" > /dev/null
cmp dropout/checkpoint.f0md dropout_2threads/checkpoint.f0md
cmp dropout/history.csv dropout_2threads/history.csv

# 4.
{
  printf '\xef\xbb\xbf# the quickstart world, as a config file\n'
  printf '%s\n' "seed = 11" "out_dir = world_cfg" "synth.n_speakers_per_gender = 10" \
    "synth.utts_per_speaker = 5" "synth.frames_per_utt = 520"
} > world.cfg
f0synth synthgen --config world.cfg > /dev/null
diff -r world world_cfg

# 5. Every row's three feature paths must come out absolute.
mkdir abs
sed "s|,features/|,$work/world/test/features/|g" world/test/manifest.csv > abs/manifest.csv
if ! awk -F, 'NR > 1 && !($4 ~ /^\// && $5 ~ /^\// && $6 ~ /^\//) { exit 1 }' \
    abs/manifest.csv; then
  echo "a relative path is left in abs/manifest.csv"; exit 1
fi
f0synth eval --out-dir eval_abs \
  --set eval.manifest=abs/manifest.csv \
  --set eval.checkpoint=run/checkpoint.f0md > /dev/null
diff -r run/eval eval_abs
f0synth anonymize --out-dir anon_abs "${anonymize[@]}" \
  --set anonymize.method=shift_scale \
  --set anonymize.manifest=abs/manifest.csv > /dev/null
diff -r run/anon_shift_scale anon_abs

# 6. The dropout field follows the layer widths; 0.9 as a little-endian double.
cp run/checkpoint.f0md bad_dropout.f0md
n_layers=$(od -An -tu4 -j8 -N4 bad_dropout.f0md)
printf '\xcd\xcc\xcc\xcc\xcc\xcc\xec\x3f' |
  dd of=bad_dropout.f0md bs=1 seek=$((16 + 4 * n_layers)) conv=notrunc status=none
status=0
f0synth eval --out-dir eval_bad --set eval.manifest=world/test/manifest.csv \
  --set eval.checkpoint=bad_dropout.f0md 2> eval_bad.err || status=$?
if [ "$status" != 1 ] || [ -e eval_bad ] \
    || ! grep -qF "error: bad_dropout.f0md: dropout must be in" eval_bad.err; then
  cat eval_bad.err
  echo "eval on bad_dropout.f0md exited $status: it must exit 1, name the file and write nothing"
  exit 1
fi

# 7. eval pools its records in sorted-id order: the row order is not seen.
mkdir rev
{ head -n 1 abs/manifest.csv; tail -n +2 abs/manifest.csv | tac; } > rev/manifest.csv
if cmp -s abs/manifest.csv rev/manifest.csv; then
  echo "rev/manifest.csv holds the rows in their first order"; exit 1
fi
f0synth eval --out-dir eval_rev --set eval.manifest=rev/manifest.csv \
  --set eval.checkpoint=run/checkpoint.f0md > /dev/null
cmp run/eval/metrics.csv eval_rev/metrics.csv

find world run -type f | sort | xargs sha256sum > listing.txt
sha256sum {run,dropout}/checkpoint.f0md {run,dropout}/history.csv > files.txt

python - "$repo/ci/golden/quickstart.json" listing.txt files.txt <<'PY'
import hashlib
import json
import platform
import sys

import numpy as np

golden_path, listing_path, files_path = sys.argv[1:]
listing = open(listing_path, "rb").read()


def cpu_model() -> str:
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
run = {
    "listing_sha256": hashlib.sha256(listing).hexdigest(),
    "files": {name: digest for digest, name in map(str.split, open(files_path))},
    "machine": {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
                "cpu": cpu_model()},
}
golden = json.load(open(golden_path))
same_outputs = all(run[key] == golden[key] for key in ("listing_sha256", "files"))
same_machine = run["machine"] == golden["machine"]
print(f"{len(listing.splitlines())} files, listing digest {run['listing_sha256']}")
if same_outputs:
    print("golden ok" + ("" if same_machine else " (on another machine)"))
    sys.exit(0)
print("recorded:", json.dumps(golden, indent=2), sep="\n")
print("this run:", json.dumps(run, indent=2), sep="\n")
if same_machine:
    print(f"outputs differ from {golden_path} on the machine it was recorded on")
    sys.exit(1)
print("outputs differ on another machine than the recorded one: not checked")
PY
