#!/usr/bin/env bash
# Runs the README quickstart (synthgen, train, eval, and anonymize with
# both methods, n=5, k=3) with one BLAS thread into a temporary directory
# and compares its outputs with ci/golden/quickstart.json: the digest of
# the sha256sum listing of every file written, and the hashes of
# run/checkpoint.f0md and run/history.csv.  The record also names the
# machine it was made on (numpy, BLAS, CPU model).  On that machine a
# mismatch fails the script; on another one the script prints both
# records and exits 0, since BLAS kernels may round differently there, so
# off that machine it checks only that every command of the recipe runs.
# Runs the source tree; from any directory of a checkout:
#
#   bash ci/golden.sh
#
# A change that moves the outputs on purpose commits the "this run"
# record it prints in place of ci/golden/quickstart.json.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
export OPENBLAS_NUM_THREADS=1 LC_ALL=C
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

f0synth() { python -m f0synth.cli "$@"; }

f0synth synthgen --seed 11 --out-dir world \
  --set synth.n_speakers_per_gender=10 --set synth.utts_per_speaker=5 \
  --set synth.frames_per_utt=520 > /dev/null
f0synth train --seed 11 --out-dir run \
  --set train.manifest=world/train/manifest.csv \
  --set train.val_manifest=world/validation/manifest.csv \
  --set model.hidden_sizes=64,32,16,8 \
  --set train.batch_size=4096 --set train.lr=0.0003 > /dev/null
f0synth eval --out-dir run/eval \
  --set eval.manifest=world/test/manifest.csv \
  --set eval.checkpoint=run/checkpoint.f0md > /dev/null
for method in synthesis shift_scale; do
  f0synth anonymize --seed 0 --out-dir "run/anon_$method" \
    --set anonymize.method=$method \
    --set anonymize.manifest=world/test/manifest.csv \
    --set anonymize.pool=world/pool.csv \
    --set anonymize.checkpoint=run/checkpoint.f0md \
    --set anonymize.n=5 --set anonymize.k=3 > /dev/null
done
find world run -type f | sort | xargs sha256sum > listing.txt

python - "$repo/ci/golden/quickstart.json" listing.txt <<'PY'
import hashlib
import json
import platform
import sys

import numpy as np

golden_path, listing_path = sys.argv[1:]
listing = open(listing_path, "rb").read()
hashes = {name: digest for digest, name in map(str.split, listing.decode().splitlines())}


def cpu_model() -> str:
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
run = {
    "listing_sha256": hashlib.sha256(listing).hexdigest(),
    "files": {name: hashes[name] for name in ("run/checkpoint.f0md", "run/history.csv")},
    "machine": {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
                "cpu": cpu_model()},
}
golden = json.load(open(golden_path))
same_outputs = all(run[key] == golden[key] for key in ("listing_sha256", "files"))
same_machine = run["machine"] == golden["machine"]
print(f"{len(hashes)} files, listing digest {run['listing_sha256']}")
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
