#!/usr/bin/env bash
# Runs every walkthrough under demos/ against the source tree, with numpy's
# RuntimeWarnings (overflow, invalid value, division by zero) as errors.
# From any directory of a checkout:
#
#   bash ci/demos.sh
set -euo pipefail

cd "$(dirname "$0")/.."
for demo in demos/*.py; do
  echo "== $demo"
  PYTHONPATH=src python -W error::RuntimeWarning "$demo"
done
echo "demos ok"
