#!/usr/bin/env bash
# Runs every walkthrough under demos/, then the README's "Library usage"
# block, against the source tree, with numpy's RuntimeWarnings (overflow,
# invalid value, division by zero) as errors.  They run under a fresh,
# empty TMPDIR, and the script fails if they leave anything in it.
# From any directory of a checkout:
#
#   bash ci/demos.sh
set -euo pipefail

cd "$(dirname "$0")/.."
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
mkdir "$scratch/tmp"
readme_block="$scratch/readme_library_usage.py"
sed -n '/^## Library usage/,/^## /p' README.md \
  | sed -n '/^```python$/,/^```$/{/^```/d;p;}' > "$readme_block"
test -s "$readme_block"

for script in demos/*.py "$readme_block"; do
  echo "== $script"
  TMPDIR="$scratch/tmp" PYTHONPATH=src python -W error::RuntimeWarning "$script"
done
left=$(ls -A "$scratch/tmp")
if [ -n "$left" ]; then
  echo "left behind in TMPDIR: $left"; exit 1
fi
echo "demos ok"
