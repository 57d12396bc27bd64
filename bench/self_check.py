"""Fast check of the benchmark harness itself, from the root of a checkout.

    python3 bench/self_check.py

Runs every workload at ``--size tiny`` with tracing off and on, and fails
unless each run exits 0 with a correct result, its last line carries
exactly the metrics BENCHMARK.json lists with their units, and its report
names every end-to-end figure of the workload with its unit.
It takes seconds, not the full run length.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMON = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio",
          "warmup_s": "s"}
REPORTED = {
    "quickstart-train": {"train_s": "s"},
    "anon-bigpool": {"anonymize_shift_scale_frames_per_s": "frames/s"},
    "bulk-io": {"synthgen_frames_per_s": "frames/s", "eval_frames_per_s": "frames/s",
                "anonymize_synthesis_frames_per_s": "frames/s",
                "anonymize_shift_scale_frames_per_s": "frames/s"},
}


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        errors.append(f"{where}: result is not a correct run: {lines[-1][:300]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}, "
                      f"unit mismatches {sorted(k for k in got if expected.get(k, got[k]) != got[k])}")
    if trace == 0:
        report = {}
        for line in lines[:-1]:
            tokens = line.split()
            if len(tokens) > 2 and tokens[0] == "#":
                report[tokens[1]] = tokens[2]
        for name, unit in {**COMMON, **REPORTED[workload]}.items():
            if report.get(name) != unit:
                errors.append(f"{where}: report lacks {name} in {unit}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for workload in REPORTED:
        for trace in (0, 1):
            errors += check_run(workload, trace, expected[trace])
    for error in errors:
        print(f"FAIL {error}")
    print("self-check " + ("failed" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
