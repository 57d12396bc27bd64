"""Spans around calls into f0synth's modules, recorded from outside the package.

A span is (name, start, end, parent, pass id, counts).  Spans are kept in
memory and written out once, when the benchmark ends.

Each function is wrapped where its caller looks it up.  The package binds
names with ``from .model import ...``, so replacing ``f0synth.model.forward``
alone would miss the calls ``training`` makes through its own binding;
every lookup site is therefore listed in ``targets()``.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    pass_id: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _layer_macs(params) -> int:
    """Multiply-accumulates per row of one pass through every weight matrix."""
    return sum(w.shape[0] * w.shape[1] for w in params.weights)


def _file_bytes(args, kwargs, result):
    return {"files": 1, "bytes": os.path.getsize(args[0])}


def _rows_of_result(args, kwargs, result):
    return {"rows": result.shape[0]}


def _forward_counts(args, kwargs, result):
    # Computed, not measured: 2 FLOPs per multiply-accumulate of each matmul.
    rows = args[1].shape[0]
    return {"rows": rows, "flop": 2 * rows * _layer_macs(args[0])}


def _backward_counts(args, kwargs, result):
    # Weight gradients for every layer, input gradients for all but the first.
    params, cache = args[0], args[1]
    rows = cache.inputs.shape[0]
    first = params.weights[0].shape[0] * params.weights[0].shape[1]
    macs = 2 * _layer_macs(params) - first
    return {"rows": rows, "flop": 2 * rows * macs}


def _predict_counts(args, kwargs, result):
    return {"rows": len(result[0])}


def _frames_generated(args, kwargs, result):
    return {"frames": result[0].total_frames}


def _validation_frames(args, kwargs, result):
    return {"val_frames": args[1].total_frames}


class _CandidateCounter:
    """Candidates scanned per selection: pool entries of the target gender.

    Counts are cached for the most recent pool, so that the traced run does
    not add a pool scan per call to the one being measured.
    """

    def __init__(self):
        self._pool = None
        self._per_gender = {}

    def __call__(self, args, kwargs, result):
        pool, _, gender = args[:3]
        if kwargs.get("gender_mode", "same") != "same":
            gender = gender.opposite
        if pool is not self._pool:
            self._pool, self._per_gender = pool, {}
        if gender not in self._per_gender:
            self._per_gender[gender] = len(pool.of_gender(gender))
        return {"candidates": self._per_gender[gender], "n": kwargs["n"]}


def targets():
    """(module, attribute, span name, counter) for every traced lookup site."""
    candidates = _CandidateCounter()
    return [
        ("f0synth.cli", "load_manifest", "featureio.load_manifest", None),
        ("f0synth.featureio", "read_feature_file", "featureio.read_feature_file", _file_bytes),
        ("f0synth.anonymize", "read_feature_file", "featureio.read_feature_file", _file_bytes),
        ("f0synth.featureio", "write_feature_file", "featureio.write_feature_file", _file_bytes),
        ("f0synth.cli", "write_feature_file", "featureio.write_feature_file", _file_bytes),
        ("f0synth.anonymize", "write_feature_file", "featureio.write_feature_file", _file_bytes),
        ("f0synth.cli", "write_dataset", "featureio.write_dataset", None),
        ("f0synth.cli", "build_frame_table", "featureio.build_frame_table", None),
        ("f0synth.cli", "assemble_features", "featureio.assemble_features", _rows_of_result),
        ("f0synth.featureio", "assemble_features", "featureio.assemble_features", _rows_of_result),
        ("f0synth.cli", "generate_synthetic_dataset", "synthgen.generate_synthetic_dataset",
         _frames_generated),
        ("f0synth.training", "forward", "model.forward", _forward_counts),
        ("f0synth.training", "backward", "model.backward", _backward_counts),
        ("f0synth.training", "predict_f0", "model.predict_f0", _predict_counts),
        ("f0synth.cli", "predict_f0", "model.predict_f0", _predict_counts),
        ("f0synth.cli", "load_checkpoint", "model.load_checkpoint", None),
        ("f0synth.cli", "save_checkpoint", "model.save_checkpoint", None),
        ("f0synth.cli", "train", "training.train", _validation_frames),
        ("f0synth.training", "composite_loss", "training.composite_loss", None),
        ("f0synth.training", "nadam_step", "training.nadam_step", None),
        ("f0synth.training", "validation_metric", "training.validation_metric", None),
        ("f0synth.training", "pitch_error_counts", "metrics.pitch_error_counts", None),
        ("f0synth.metrics", "pitch_error_counts", "metrics.pitch_error_counts", None),
        ("f0synth.cli", "pitch_correlation", "metrics.pitch_correlation", None),
        ("f0synth.metrics", "pitch_correlation", "metrics.pitch_correlation", None),
        ("f0synth.cli", "evaluate_utterances", "metrics.evaluate_utterances", None),
        ("f0synth.anonymize", "select_pseudo_speaker", "anonymize.select_pseudo_speaker",
         candidates),
        ("f0synth.anonymize", "load_pool", "anonymize.load_pool", None),
        ("f0synth.anonymize", "speaker_f0_stats", "anonymize.speaker_f0_stats", None),
        ("f0synth.anonymize", "shift_scale_f0", "anonymize.shift_scale_f0", None),
    ]


class Tracer:
    """Single-threaded span recorder with install/uninstall of wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.pass_id = -1

    def _open(self, name: str) -> tuple[int, float]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.pass_id))
        self._stack.append(index)
        return index, time.perf_counter()

    def _close(self, index: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[index]
        span.start, span.end = start, end

    @contextmanager
    def span(self, name: str):
        index, start = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index, start)

    def _wrap(self, original, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            index, start = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index, start)
            if counter is not None:
                tracer.spans[index].counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in targets():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "pass": s.pass_id, "counts": s.counts}
                for s in self.spans]


# ---------------------------------------------------------------------------
# per-layer metrics from recorded spans
# ---------------------------------------------------------------------------

COMMANDS = ("cmd_synthgen", "cmd_train", "cmd_eval",
            "cmd_anonymize_synthesis", "cmd_anonymize_shift_scale")


def _quantile_ms(seconds: list[float], q: float) -> float:
    """Nearest-rank quantile in milliseconds; 0 when there are no calls."""
    if not seconds:
        return 0.0
    ordered = sorted(seconds)
    rank = max(1, -(-len(ordered) * q // 1))  # ceil(n * q), at least 1
    return 1e3 * ordered[int(rank) - 1]


def layer_metrics(spans: list[Span], n_passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass totals and per-call quantiles of every traced layer.

    Totals (seconds, calls, bytes, ...) are divided by ``n_passes`` so they
    read per pass of the workload; quantiles are over all traced calls.
    """
    by_name: dict[str, list[int]] = {}
    child_seconds = [0.0] * len(spans)
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)
        if span.parent >= 0:
            child_seconds[span.parent] += span.seconds
    per = 1.0 / max(n_passes, 1)

    def of(name):
        return [spans[i] for i in by_name.get(name, [])]

    def total(name):
        return per * sum(s.seconds for s in of(name))

    def calls(name):
        return per * len(by_name.get(name, []))

    def count(name, key):
        return per * sum(s.counts.get(key, 0) for s in of(name))

    def durations(name):
        return [s.seconds for s in of(name)]

    def self_total(name):
        return per * sum(spans[i].seconds - child_seconds[i]
                         for i in by_name.get(name, []))

    def under(span: Span, ancestor: str) -> bool:
        parent = span.parent
        while parent >= 0:
            if spans[parent].name == ancestor:
                return True
            parent = spans[parent].parent
        return False

    m: dict[str, tuple[float, str]] = {}
    m["featureio.load_manifest.s"] = (total("featureio.load_manifest"), "s")
    m["featureio.load_manifest.calls"] = (calls("featureio.load_manifest"), "count")
    for op in ("read_feature_file", "write_feature_file"):
        name = f"featureio.{op}"
        m[f"{name}.s"] = (total(name), "s")
        m[f"{name}.files"] = (count(name, "files"), "count")
        m[f"{name}.bytes"] = (count(name, "bytes"), "bytes")
    for op in ("write_dataset", "build_frame_table"):
        m[f"featureio.{op}.s"] = (total(f"featureio.{op}"), "s")
    m["featureio.assemble_features.s"] = (total("featureio.assemble_features"), "s")
    m["featureio.assemble_features.calls"] = (calls("featureio.assemble_features"), "count")

    m["synthgen.generate_synthetic_dataset.s"] = (
        total("synthgen.generate_synthetic_dataset"), "s")
    m["synthgen.generate_synthetic_dataset.frames"] = (
        count("synthgen.generate_synthetic_dataset", "frames"), "frames")

    for op in ("forward", "backward"):
        name = f"model.{op}"
        m[f"{name}.s"] = (total(name), "s")
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.p50_ms"] = (_quantile_ms(durations(name), 0.5), "ms")
        m[f"{name}.max_ms"] = (_quantile_ms(durations(name), 1.0), "ms")
        m[f"{name}.computed_gflop"] = (1e-9 * count(name, "flop"), "GFLOP")
    name = "model.predict_f0"
    m[f"{name}.s"] = (total(name), "s")
    m[f"{name}.calls"] = (calls(name), "count")
    m[f"{name}.p50_ms"] = (_quantile_ms(durations(name), 0.5), "ms")
    m[f"{name}.p99_ms"] = (_quantile_ms(durations(name), 0.99), "ms")
    m[f"{name}.max_ms"] = (_quantile_ms(durations(name), 1.0), "ms")
    m["model.load_checkpoint.s"] = (total("model.load_checkpoint"), "s")
    m["model.save_checkpoint.s"] = (total("model.save_checkpoint"), "s")

    m["training.train.self_s"] = (self_total("training.train"), "s")
    for op in ("composite_loss", "nadam_step", "validation_metric"):
        name = f"training.{op}"
        m[f"{name}.s"] = (total(name), "s")
        m[f"{name}.calls"] = (calls(name), "count")
    m["training.batches"] = (calls("model.forward"), "count")
    m["training.epochs"] = (calls("training.validation_metric"), "count")
    unique_val = count("training.train", "val_frames")
    retiled = per * sum(s.counts.get("rows", 0)
                        for s in of("featureio.assemble_features")
                        if under(s, "training.validation_metric"))
    m["training.val_frames_reprocessed_ratio"] = (
        retiled / unique_val if unique_val else 0.0, "ratio")

    for op in ("pitch_error_counts", "pitch_correlation", "evaluate_utterances"):
        name = f"metrics.{op}"
        m[f"{name}.s"] = (total(name), "s")
        m[f"{name}.calls"] = (calls(name), "count")

    name = "anonymize.select_pseudo_speaker"
    m[f"{name}.s"] = (total(name), "s")
    m[f"{name}.calls"] = (calls(name), "count")
    m[f"{name}.p50_ms"] = (_quantile_ms(durations(name), 0.5), "ms")
    scanned = count(name, "candidates")
    m["anonymize.distances_computed"] = (scanned, "count")
    m["anonymize.candidate_use_ratio"] = (
        count(name, "n") / scanned if scanned else 0.0, "ratio")
    for op in ("load_pool", "speaker_f0_stats", "shift_scale_f0"):
        m[f"anonymize.{op}.s"] = (total(f"anonymize.{op}"), "s")

    for command in COMMANDS:
        m[f"cli.{command}.s"] = (total(f"cli.{command}"), "s")
        m[f"cli.{command}.self_s"] = (self_total(f"cli.{command}"), "s")
    return m
