"""The three benchmark workloads: inputs, one timed pass, and output checks.

Each workload is a closed loop with one client: a pass runs its commands
one after another through ``f0synth.cli.cmd_*``, each starting when the
previous one has returned.  The program sees only the manifests, pool and
checkpoint that ``setup`` writes.

quickstart-train
    The README quickstart world and training recipe, trained to its own
    early stop.  ``training`` and ``model`` do almost all the work;
    ``anonymize`` is not used.  The world and training seed stay at the
    README's 11 whatever ``--seed`` is: the epoch count to early stop
    depends on both (96 to 181 epochs over seven seeds tried), so a
    seed-dependent world would make run-to-run spread measure work, not
    speed.
anon-bigpool
    Shift-and-scale anonymization against a VoicePrivacy-sized pool
    (1000 speakers per gender, 512-d embeddings) with the paper's
    defaults n=200, k=100.  Pseudo-speaker selection dominates; ``model``
    is never called.  Pool and sources are drawn from ``--seed``.
bulk-io
    A 50-utterance-per-speaker world written by ``synthgen``, then read by
    ``eval`` and by ``anonymize`` with both methods against a 20-speaker
    pool.  Feature-file encode/decode, large-batch ``predict_f0`` and the
    metrics dominate; selection is a few percent.  The world is the
    seed-11 quickstart world extended to 50 utterances, so its first five
    utterances per speaker are the ones the setup checkpoint was trained
    on; ``--seed`` drives pseudo-speaker sampling.
"""

from __future__ import annotations

import hashlib
import io
import os
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from f0synth import anonymize as anon
from f0synth import cli
from f0synth.featureio import load_manifest, read_feature_file, write_dataset
from f0synth.synthgen import SynthSpec, generate_synthetic_dataset

QUICKSTART_SEED = 11
HIDDEN = "64,32,16,8"
LR = 0.0003


@dataclass
class CommandRun:
    """One command call of a pass: label, wall seconds, frames it covered."""

    label: str
    seconds: float
    frames: int
    result: dict


def config(values: dict) -> cli.RunConfig:
    return cli.RunConfig({key: str(value) for key, value in values.items()})


def run_command(label: str, body, values: dict, frames: int, tracer=None) -> CommandRun:
    """Call one ``cli.cmd_*`` body on a flat config; its console output is dropped."""
    span = tracer.span(f"cli.{label}") if tracer is not None else nullcontext()
    with redirect_stdout(io.StringIO()):
        with span:
            start = time.perf_counter()
            result = body(config(values))
            seconds = time.perf_counter() - start
    return CommandRun(label, seconds, frames, result)


def digest(path: Path) -> str:
    """SHA-256 of a file, or of a directory's sorted relative names and bytes."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for p in files:
        h.update(str(p.relative_to(path) if path.is_dir() else p.name).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def world_frames(spk: int, utts: int, frames: int) -> int:
    """Frames in one split of a synthgen world."""
    return 2 * spk * utts * frames


def synthgen_values(out_dir: Path, seed: int, spk: int, utts: int, frames: int,
                    d_xv: int = 8) -> dict:
    return {"out_dir": out_dir, "seed": seed,
            "synth.n_speakers_per_gender": spk, "synth.utts_per_speaker": utts,
            "synth.frames_per_utt": frames, "synth.d_xv": d_xv}


def train_values(world: Path, out_dir: Path, batch: int, lr: float = LR,
                 max_epochs: int | None = None) -> dict:
    values = {"out_dir": out_dir, "seed": QUICKSTART_SEED,
              "train.manifest": world / "train" / "manifest.csv",
              "train.val_manifest": world / "validation" / "manifest.csv",
              "model.hidden_sizes": HIDDEN, "train.batch_size": batch, "train.lr": lr}
    if max_epochs is not None:
        values["train.max_epochs"] = max_epochs
    return values


# ---------------------------------------------------------------------------
# independent check of anonymize outputs
# ---------------------------------------------------------------------------

def verify_anonymized(manifest: Path, pool_csv: Path, out_dir: Path, n: int, k: int,
                      method: str) -> list[str]:
    """Recompute what ``anonymize`` must have written and compare.

    Checks, per source utterance: the log row, that the k chosen speakers
    are distinct, of the source's gender and among its n cosine-furthest
    (recomputed here with one matrix product), the logged target stats,
    the exported embedding, and for shift_scale the output trajectory.
    """
    sources = load_manifest(manifest)
    pool = anon.load_pool(pool_csv)
    entries = {e.speaker_id: e for e in pool.entries}
    lines = (out_dir / "anon_log.csv").read_text(encoding="utf-8").splitlines()
    errors: list[str] = []
    if lines[0] != ",".join(cli.ANON_LOG_COLUMNS) or len(lines) != len(sources) + 1:
        return [f"{out_dir}: anon_log.csv header or row count is wrong"]

    by_gender = {}
    for gender in {u.gender for u in sources.utterances}:
        members = [e for e in pool.entries if e.gender is gender]
        matrix = np.array([e.xvec for e in members])
        by_gender[gender] = (members, matrix / np.linalg.norm(matrix, axis=1, keepdims=True))

    src_stats = {}
    for speaker_id, utts in sources.by_speaker().items():
        voiced = np.concatenate([u.f0[u.voiced] for u in utts]).astype(np.float64)
        src_stats[speaker_id] = (voiced.mean(), voiced.std())

    for utt, line in zip(sources.utterances, lines[1:]):
        utt_id, mode, chosen_tok, mean_tok, std_tok = line.split(",")
        chosen = chosen_tok.split(";")
        members, unit = by_gender[utt.gender]
        source = utt.xvec.astype(np.float64)
        dist = 1.0 - unit @ (source / np.linalg.norm(source))
        threshold = np.sort(dist)[-n]
        far = {e.speaker_id for e, d in zip(members, dist) if d >= threshold - 1e-9}
        if (utt_id != utt.utt_id or mode != "Ours" or len(chosen) != k
                or len(set(chosen)) != k or not set(chosen) <= far):
            errors.append(f"{utt.utt_id}: selection {chosen_tok} is not k of the n furthest")
            continue
        picked = [entries[c] for c in chosen]
        tgt_mean = float(np.mean([e.f0_mean for e in picked]))
        tgt_std = float(np.mean([e.f0_std for e in picked]))
        if not (np.isclose(float(mean_tok), tgt_mean, rtol=1e-8)
                and np.isclose(float(std_tok), tgt_std, rtol=1e-8)):
            errors.append(f"{utt.utt_id}: logged target stats disagree")
        xvec = read_feature_file(out_dir / "xvec_out" / f"{utt.utt_id}.xvec")
        expected_xvec = np.mean([e.xvec for e in picked], axis=0).astype(np.float32)
        if not np.allclose(xvec, expected_xvec, rtol=0, atol=1e-6):
            errors.append(f"{utt.utt_id}: exported embedding is not the pseudo mean")
        f0 = read_feature_file(out_dir / "f0_out" / f"{utt.utt_id}.f0")
        if method == "shift_scale":
            mean, std = src_stats[utt.speaker_id]
            src = utt.f0.astype(np.float64)
            voiced = src > 0
            expected = np.zeros_like(src)
            expected[voiced] = np.maximum(
                (src[voiced] - mean) / std * tgt_std + tgt_mean, 1.0)
            if not np.allclose(f0, expected.astype(np.float32), rtol=1e-5, atol=0):
                errors.append(f"{utt.utt_id}: shift_scale output is not the affine map")
        elif f0.shape != utt.f0.shape:
            errors.append(f"{utt.utt_id}: synthesized trajectory has the wrong length")
    return errors


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Setup, one timed pass, the pass's output checks, and a warm-up.

    ``sizes["tiny"]`` shrinks every input so that a whole run takes seconds.
    """

    name = ""
    sizes: dict = {}

    def setup(self, inputs: Path, seed: int, size: str) -> None:
        raise NotImplementedError

    def run_pass(self, inputs: Path, out: Path, seed: int, size: str,
                 tracer=None) -> list[CommandRun]:
        raise NotImplementedError

    def warmup(self, inputs: Path, out: Path, seed: int, size: str) -> list[CommandRun]:
        """An untimed pass, so that the first timed one pays no first-touch costs."""
        return self.run_pass(inputs, out, seed, size)

    def check_pass(self, inputs: Path, out: Path, runs: list[CommandRun], seed: int,
                   size: str, first: bool) -> tuple[dict, list[str]]:
        """(digests of outputs that must repeat across passes, errors)."""
        raise NotImplementedError


class QuickstartTrain(Workload):
    name = "quickstart-train"
    sizes = {
        "full": dict(spk=10, utts=5, frames=520, batch=4096, min_val_metric=0.95),
        # Too few frames to reach the full world's 0.95 (0.935 at early stop).
        "tiny": dict(spk=3, utts=2, frames=100, batch=64, min_val_metric=0.9),
    }

    def setup(self, inputs, seed, size):
        s = self.sizes[size]
        cli.cmd_synthgen(config(synthgen_values(
            inputs, QUICKSTART_SEED, s["spk"], s["utts"], s["frames"])))

    def run_pass(self, inputs, out, seed, size, tracer=None):
        s = self.sizes[size]
        frames = world_frames(s["spk"], s["utts"], s["frames"])
        return [run_command("cmd_train", cli.cmd_train,
                            train_values(inputs, out, s["batch"]), frames, tracer)]

    def warmup(self, inputs, out, seed, size):
        # Two epochs run every code path of a pass; a whole pass costs 13 s.
        s = self.sizes[size]
        return [run_command("cmd_train", cli.cmd_train,
                            train_values(inputs, out, s["batch"], max_epochs=2), 0)]

    def check_pass(self, inputs, out, runs, seed, size, first):
        best = runs[0].result["best_val_metric"]
        errors = []
        floor = self.sizes[size]["min_val_metric"]
        if best is None or best < floor:
            errors.append(f"best val_metric {best} below {floor}")
        return {"history.csv": digest(out / "history.csv"),
                "checkpoint.f0md": digest(out / "checkpoint.f0md")}, errors


class AnonBigPool(Workload):
    name = "anon-bigpool"
    sizes = {
        "full": dict(pool_spk=1000, pool_utts=2, pool_frames=200, d_xv=512,
                     src_spk=15, src_utts=10, src_frames=300, n=200, k=100),
        "tiny": dict(pool_spk=30, pool_utts=2, pool_frames=60, d_xv=32,
                     src_spk=2, src_utts=3, src_frames=80, n=10, k=5),
    }
    SOURCE_SEED_OFFSET = 1_000_000  # sources are speakers the pool does not hold

    def setup(self, inputs, seed, size):
        s = self.sizes[size]
        pool_spec = SynthSpec(n_speakers_per_gender=s["pool_spk"],
                              utts_per_speaker=s["pool_utts"],
                              frames_per_utt=s["pool_frames"], d_xv=s["d_xv"], seed=seed)
        pool_world, _ = generate_synthetic_dataset(pool_spec, role="train")
        anon.write_pool(anon.pool_from_dataset(pool_world), inputs / "pool")
        src_spec = SynthSpec(n_speakers_per_gender=s["src_spk"],
                             utts_per_speaker=s["src_utts"],
                             frames_per_utt=s["src_frames"], d_xv=s["d_xv"],
                             seed=self.SOURCE_SEED_OFFSET + seed)
        sources, _ = generate_synthetic_dataset(src_spec, role="test")
        write_dataset(sources, inputs / "sources")

    def run_pass(self, inputs, out, seed, size, tracer=None):
        s = self.sizes[size]
        values = {"out_dir": out, "seed": seed,
                  "anonymize.manifest": inputs / "sources" / "manifest.csv",
                  "anonymize.pool": inputs / "pool" / "pool.csv",
                  "anonymize.method": "shift_scale", "anonymize.n": s["n"],
                  "anonymize.k": s["k"]}
        frames = world_frames(s["src_spk"], s["src_utts"], s["src_frames"])
        return [run_command("cmd_anonymize_shift_scale", cli.cmd_anonymize, values,
                            frames, tracer)]

    def check_pass(self, inputs, out, runs, seed, size, first):
        s = self.sizes[size]
        errors = [f"{len(runs[0].result['flagged'])} utterances FLAGGED"
                  ] if runs[0].result["flagged"] else []
        if first:
            errors += verify_anonymized(inputs / "sources" / "manifest.csv",
                                        inputs / "pool" / "pool.csv", out,
                                        s["n"], s["k"], "shift_scale")
        return {name: digest(out / name)
                for name in ("anon_log.csv", "f0_out", "xvec_out")}, errors


class BulkIO(Workload):
    name = "bulk-io"
    sizes = {
        # The setup checkpoint trains at 10x the README rate so that three
        # builds fit a run: 12 epochs reach val_metric 0.977, and over four
        # anonymize seeds the lowest rho_f0 was 0.78 against the 0.3 floor.
        "full": dict(spk=10, utts=50, frames=520, ckpt_utts=5, ckpt_epochs=12,
                     ckpt_lr=0.003, ckpt_batch=4096, n=5, k=3),
        "tiny": dict(spk=3, utts=4, frames=100, ckpt_utts=2, ckpt_epochs=20,
                     ckpt_lr=0.003, ckpt_batch=64, n=2, k=1),
    }

    def setup(self, inputs, seed, size):
        s = self.sizes[size]
        world = inputs / "ckpt_world"
        cli.cmd_synthgen(config(synthgen_values(
            world, QUICKSTART_SEED, s["spk"], s["ckpt_utts"], s["frames"])))
        cli.cmd_train(config(train_values(world, inputs / "ckpt", s["ckpt_batch"],
                                          s["ckpt_lr"], s["ckpt_epochs"])))

    def run_pass(self, inputs, out, seed, size, tracer=None):
        s = self.sizes[size]
        split = world_frames(s["spk"], s["utts"], s["frames"])
        world = out / "world"
        test = world / "test" / "manifest.csv"
        checkpoint = inputs / "ckpt" / "checkpoint.f0md"
        runs = [run_command("cmd_synthgen", cli.cmd_synthgen, synthgen_values(
            world, QUICKSTART_SEED, s["spk"], s["utts"], s["frames"]), 3 * split, tracer)]
        runs.append(run_command("cmd_eval", cli.cmd_eval, {
            "out_dir": out / "eval", "eval.manifest": test,
            "eval.checkpoint": checkpoint}, split, tracer))
        for method in ("synthesis", "shift_scale"):
            runs.append(run_command(f"cmd_anonymize_{method}", cli.cmd_anonymize, {
                "out_dir": out / f"anon_{method}", "seed": seed,
                "anonymize.manifest": test, "anonymize.pool": world / "pool.csv",
                "anonymize.checkpoint": checkpoint, "anonymize.method": method,
                "anonymize.n": s["n"], "anonymize.k": s["k"]}, split, tracer))
        return runs

    def check_pass(self, inputs, out, runs, seed, size, first):
        s = self.sizes[size]
        errors = []
        for run in runs[2:]:
            if run.result["flagged"]:
                errors.append(f"{run.label}: {len(run.result['flagged'])} utterances FLAGGED")
        rows = (out / "eval" / "metrics.csv").read_text(encoding="utf-8").splitlines()
        if [row.split(",")[1] for row in rows[1:]] != ["F", "M", "all"]:
            errors.append("metrics.csv does not hold the F, M and all rows")
        # synthgen streams are per utterance index, so the first ckpt_utts
        # utterances of every speaker must equal the checkpoint world's files.
        for role in ("train", "validation", "test"):
            small = inputs / "ckpt_world" / role / "features"
            for path in small.iterdir():
                if path.read_bytes() != (out / "world" / role / "features" / path.name
                                         ).read_bytes():
                    errors.append(f"synthgen {role}/{path.name} differs from the "
                                  "smaller world's file")
                    break
        if first:
            for method in ("synthesis", "shift_scale"):
                errors += verify_anonymized(out / "world" / "test" / "manifest.csv",
                                            out / "world" / "pool.csv",
                                            out / f"anon_{method}", s["n"], s["k"], method)
        digests = {"metrics.csv": digest(out / "eval" / "metrics.csv")}
        for method in ("synthesis", "shift_scale"):
            for name in ("anon_log.csv", "f0_out", "xvec_out"):
                digests[f"anon_{method}/{name}"] = digest(out / f"anon_{method}" / name)
        return digests, errors


WORKLOADS = {w.name: w for w in (QuickstartTrain(), AnonBigPool(), BulkIO())}


def setup_inputs(name: str, work: str, seed: int, size: str, min_reps: int,
                 max_reps: int, min_seconds: float) -> list[float]:
    """Build a workload's inputs repeatedly; returns each build's seconds.

    At least ``min_reps`` builds run, and more, up to ``max_reps``, until
    they add up to ``min_seconds``: a one-second build drifted by 1.5x
    within a run, so short builds are repeated more for a steady median.

    The first build creates the files and later builds overwrite them, as
    the timed passes do (see ``Run.one_pass`` in ``run.py``): creating a
    file cost from 30 to 400 us over minutes on the machine measured.
    This runs in a child process, so the parent's peak resident set counts
    only the timed commands.  Each build's writes are flushed before the
    next starts, so that none is timed while the last one's are written out.
    """
    workload = WORKLOADS[name]
    inputs = Path(work) / "inputs"
    seconds = []
    while len(seconds) < min_reps or (len(seconds) < max_reps
                                      and sum(seconds) < min_seconds):
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            workload.setup(inputs, seed, size)
        seconds.append(time.perf_counter() - start)
        os.sync()
    return seconds
