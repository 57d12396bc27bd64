"""Benchmark of the f0synth commands, run from the root of a source checkout.

    python3 bench/run.py --workload quickstart-train --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` (it need not be installed).  One run:

1. builds the workload's inputs three to ten times (until the builds add
   up to five seconds) in a child process and reports the median build
   time as ``setup_s``;
2. runs one untimed warm-up, reported apart as ``warmup_s``;
3. repeats timed passes of the workload's commands for ``--seconds``;
4. checks every pass's outputs (see ``workloads.py``).

With ``--trace 0`` the passes are untraced and the last stdout line holds
the end-to-end metrics.  With ``--trace 1`` passes alternate untraced and
traced, and the last line holds per-layer metrics from the traced passes,
including the tracing overhead (traced minus untraced pass time).  Lines
before it are a report for people: every metric with median, quartiles
and sample count, and the machine it ran on.  The full record, spans
included, is written under ``.bench_out/``.

The exit status is non-zero if any command fails or any output check
fails.  ``--size tiny`` shrinks every input so a run takes seconds;
``bench/self_check.py`` uses it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = (3, 10)  # fewest and most input builds in a run
SETUP_MIN_S = 5.0  # builds repeat, within SETUP_REPS, until they take this long
SETUP_TIMEOUT_S = 170
MIN_PASSES = 2
GATED = ("setup_s", "pass_s", "peak_rss_mb")  # the end_to_end list of BENCHMARK.json


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    # Internal: build the inputs under this directory, print the build times, exit.
    parser.add_argument("--build-inputs", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    """Versions, BLAS build and thread settings, and the machine's state."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_at_start": os.getloadavg(),
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles, extremes, sample count, and the tail percentile.

    The tail is the highest percentile with at least ten samples beyond
    it, so it exists only from 11 samples on.
    """
    ordered = sorted(values)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else ordered * 3
    out = {"median": statistics.median(ordered), "q1": q1, "q3": q3,
           "min": ordered[0], "max": ordered[-1], "n": n}
    if n > 10:
        pct = int(100 * (n - 10) / n)
        rank = max(1, -(-n * pct // 100))
        out[f"p{pct}"] = ordered[rank - 1]
    return out


def host_reference_ms() -> float:
    """Milliseconds of a fixed pure-Python loop: the host's speed right now.

    Not a metric of the program.  On a shared host the speed of Python code
    drifts over minutes; this lets a reader tell such a drift from a change
    in the program.
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return 1e3 * (time.perf_counter() - start)


class Run:
    """State of one benchmark run: passes, checks, failures."""

    def __init__(self, workload, work: Path, seed: int, size: str):
        self.workload = workload
        self.work = work
        self.out = work / "out"  # written by the warm-up and by every pass
        self.seed = seed
        self.size = size
        self.passes: list[dict] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reference: dict | None = None

    def warm_up(self) -> float | None:
        """Seconds of the workload's untimed warm-up; None if it raised.

        The warm-up writes into the passes' output directory, so it also
        creates every file that the timed passes then overwrite.
        """
        start = time.perf_counter()
        try:
            self.workload.warmup(self.work / "inputs", self.out, self.seed, self.size)
        except Exception as exc:  # reported as a failure of the run
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"warm-up: {type(exc).__name__}: {exc}")
            return None
        return time.perf_counter() - start

    def one_pass(self, tracer=None) -> dict | None:
        """Run and check one timed pass; None if a command raised.

        Every pass writes into the same directory and overwrites the files
        of the warm-up and of the pass before it: on the machine measured,
        the kernel's cost of creating a file drifted tenfold (30 to 400 us)
        over minutes, which swung the time of a pass into an empty
        directory by 2x, while overwriting stayed steady.  Any output file
        that the pass did not rewrite fails the check.  The pass's writes
        are flushed before the next pass starts.
        """
        inputs, out = self.work / "inputs", self.out
        since_ns = marker_mtime_ns(self.work)
        gc.collect()
        host_ms = host_reference_ms()
        if tracer is not None:
            tracer.pass_id = len(self.passes)
            tracer.install()
        start = time.perf_counter()
        try:
            runs = self.workload.run_pass(inputs, out, self.seed, self.size, tracer)
        except Exception as exc:  # a failed command is counted, not fatal
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"pass {len(self.passes)}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        seconds = time.perf_counter() - start
        self.attempted += len(runs)
        try:
            digests, errors = self.workload.check_pass(
                inputs, out, runs, self.seed, self.size, first=self.reference is None)
        except Exception as exc:  # an output the check cannot read is a failure
            digests, errors = {}, [f"check: {type(exc).__name__}: {exc}"]
        errors += [f"{path.relative_to(out)} was not rewritten by this pass"
                   for path in stale_files(out, since_ns)]
        if self.reference is None:
            self.reference = digests
        errors += [f"{name} differs from the first pass"
                   for name, value in digests.items() if self.reference.get(name) != value]
        self.failed += min(len(errors), len(runs))
        self.errors += [f"pass {len(self.passes)}: {e}" for e in errors]
        os.sync()
        return {"seconds": seconds, "traced": tracer is not None, "host_ref_ms": host_ms,
                "commands": [(r.label, r.seconds, r.frames) for r in runs]}


def marker_mtime_ns(work: Path) -> int:
    """Rewrite a marker file and return its mtime, in the filesystem's clock."""
    marker = work / "pass_start"
    marker.write_bytes(b"")
    return marker.stat().st_mtime_ns


def stale_files(out: Path, since_ns: int) -> list[Path]:
    """Files under ``out`` last modified before ``since_ns``."""
    return sorted(p for p in out.rglob("*")
                  if p.is_file() and p.stat().st_mtime_ns < since_ns)


def measure(run: Run, seconds: float, tracer=None) -> None:
    """Timed passes until the next would end over half a pass past ``seconds``.

    At least MIN_PASSES run.  With a tracer, passes alternate untraced and
    traced, starting untraced.
    """
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(run.passes) % 2 == 1
        result = run.one_pass(tracer if traced else None)
        if result is None:
            return
        run.passes.append(result)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["seconds"] for p in run.passes)
        if len(run.passes) >= MIN_PASSES and elapsed + typical / 2 > seconds:
            return


def command_metrics(passes: list[dict]) -> dict[str, tuple[list[float], str]]:
    """Per-pass samples of every end-to-end command figure of the workload."""
    samples: dict[str, tuple[list[float], str]] = {}

    def add(name, value, unit):
        samples.setdefault(name, ([], unit))[0].append(value)

    for p in passes:
        add("pass_s", p["seconds"], "s")
        add("host_ref_ms", p["host_ref_ms"], "ms")
        for label, seconds, frames in p["commands"]:
            if label == "cmd_train":
                add("train_s", seconds, "s")
            else:
                name = label.removeprefix("cmd_")
                add(f"{name}_frames_per_s", frames / seconds, "frames/s")
    return samples


def print_table(title: str, rows: dict[str, tuple[dict, str]]) -> None:
    print(f"# {title}")
    print(f"# {'metric':<42} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'max':>12} {'n':>4}  tail")
    for name, (stats, unit) in rows.items():
        tail = next((f"{k}={v:.6g}" for k, v in stats.items() if k.startswith("p")), "-")
        print(f"# {name:<42} {unit:<9} {stats['median']:>12.6g} {stats['q1']:>12.6g} "
              f"{stats['q3']:>12.6g} {stats['max']:>12.6g} {stats['n']:>4}  {tail}")


def build_inputs(args, work: Path) -> list[float]:
    """Seconds of each input build (see SETUP_REPS), made in a child process.

    The child keeps the parent's peak resident set to the timed commands.
    ``subprocess.run`` waits for it to end, and kills it first on a timeout
    or an interrupt, so no process outlives the run.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
         "--build-inputs", str(work)],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"input build exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "f0synth" / "__init__.py").is_file():
        print(f"error: no f0synth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.build_inputs:
        print(json.dumps(workloads.setup_inputs(args.workload, args.build_inputs,
                                                args.seed, args.size, *SETUP_REPS,
                                                SETUP_MIN_S)))
        return 0
    env = environment()
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    run = Run(workload, work, args.seed, args.size)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_seconds = build_inputs(args, work)
        warmup_seconds = run.warm_up()
        os.sync()
        if warmup_seconds is not None:
            measure(run, args.seconds, tracer)
    finally:
        # Flushed now, the deletion does not slow whatever runs next.
        shutil.rmtree(work, ignore_errors=True)
        os.sync()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples = command_metrics([p for p in run.passes if not p["traced"]])
    samples["setup_s"] = (setup_seconds, "s")
    samples["peak_rss_mb"] = ([peak_rss_mb], "MB")
    samples["error_rate"] = ([run.failed / max(run.attempted, 1)], "ratio")
    if warmup_seconds is not None:
        samples["warmup_s"] = ([warmup_seconds], "s")
    rows = {name: (summary(values), unit) for name, (values, unit) in samples.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": env,
              "end_to_end": {k: {"unit": u, **s} for k, (s, u) in rows.items()},
              "passes": run.passes, "errors": run.errors}
    print(f"# environment {json.dumps(env)}")
    print_table(f"{args.workload} seed {args.seed} size {args.size}: end-to-end, "
                "untraced passes (warm-up excluded)", rows)
    if args.trace:
        traced = [p for p in run.passes if p["traced"]]
        untraced = [p for p in run.passes if not p["traced"]]
        layers = tracing.layer_metrics(tracer.spans, len(traced))
        overhead = (statistics.median(p["seconds"] for p in traced)
                    - statistics.median(p["seconds"] for p in untraced)
                    ) if traced and untraced else 0.0
        layers["trace.overhead_s"] = (overhead, "s")
        layers["trace.spans_per_pass"] = (len(tracer.spans) / max(len(traced), 1), "count")
        metrics = layers
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["spans"] = tracer.to_json()
        print(f"# {args.workload}: per-layer metrics per traced pass "
              f"({len(traced)} traced, {len(untraced)} untraced)")
        for name, (value, unit) in layers.items():
            print(f"# {name:<48} {value:>14.6g} {unit}")
    else:
        metrics = {name: (rows[name][0]["median"], rows[name][1])
                   for name in GATED if name in rows}
    for error in run.errors:
        print(f"# FAILED {error}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
     ).write_text(json.dumps(record), encoding="utf-8")

    correct = not run.errors and bool(run.passes)
    print(json.dumps({
        "correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
