"""Pseudo-speaker selection, per-speaker F0 statistics, and F0 modification.

The anonymization block replaces a source speaker's identity embedding
with a pseudo embedding built from a pool: take the N pool entries of
the target gender furthest from the source (cosine distance, ties broken
by ascending speaker_id), sample K of them without replacement with a
seeded generator, and average their embeddings and F0 statistics.

The shift-and-scale path is the comparator: an affine map in linear Hz
taking voiced frames from source (mean, std) to target (mean, std),
with unvoiced frames untouched and outputs floored at 1 Hz.  Contrastive
routing decides which embedding feeds the synthesizer versus which is
exported for downstream use.

Pool file format: CSV with header
``speaker_id,gender,xvec_path,f0_mean,f0_std``; relative xvec paths
resolve against the CSV's directory.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .featureio import (Gender, at_row, check_id, group_by_speaker, read_csv,
                        read_feature_file, removed_on_failure, write_csv, write_feature_file)

POOL_COLUMNS = ("speaker_id", "gender", "xvec_path", "f0_mean", "f0_std")
DEFAULT_N_FURTHEST = 200
DEFAULT_K_AVERAGED = 100
F0_FLOOR_HZ = 1.0
GENDER_MODES = ("same", "opposite")
DEFAULT_GENDER_MODE = "same"


@dataclass(frozen=True)
class F0Stats:
    """Voiced-F0 mean and standard deviation of one speaker, in Hz."""

    mean: float
    std: float


@dataclass(frozen=True)
class PoolEntry:
    """One pool speaker: identity embedding plus voiced-F0 statistics."""

    speaker_id: str
    gender: Gender
    xvec: np.ndarray
    f0_mean: float
    f0_std: float

    def __post_init__(self) -> None:
        check_id("speaker_id", self.speaker_id)
        object.__setattr__(self, "xvec",
                           np.ascontiguousarray(self.xvec, dtype=np.float64))
        if self.xvec.ndim != 1:
            raise ValueError(f"pool entry {self.speaker_id!r}: xvec must be 1-D")
        if not np.isfinite(self.xvec).all():
            raise ValueError(f"pool entry {self.speaker_id!r}: non-finite xvec")
        if np.linalg.norm(self.xvec) == 0.0:
            raise ValueError(f"pool entry {self.speaker_id!r}: zero-norm xvec")
        if not (0 < self.f0_mean < np.inf and 0 < self.f0_std < np.inf):
            raise ValueError(
                f"pool entry {self.speaker_id!r}: f0 stats must be positive and finite "
                f"(got mean={self.f0_mean}, std={self.f0_std})")


@dataclass(frozen=True)
class SpeakerPool:
    entries: tuple[PoolEntry, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if len({e.speaker_id for e in entries}) != len(entries):
            raise ValueError("pool speaker_ids must be unique")
        dims = {len(e.xvec) for e in entries}
        if len(dims) > 1:
            raise ValueError(f"pool xvec dimensions disagree: {sorted(dims)}")

    def __len__(self) -> int:
        return len(self.entries)

    def of_gender(self, gender: Gender) -> list[PoolEntry]:
        return [e for e in self.entries if e.gender is gender]

    @cached_property
    def _units(self) -> dict[Gender, tuple[np.ndarray, np.ndarray]]:
        """Per gender present: ids and unit-norm embeddings, rows in ``of_gender`` order."""
        units = {}
        for gender in {e.gender for e in self.entries}:
            members = self.of_gender(gender)
            xvecs = np.array([e.xvec for e in members])
            units[gender] = (np.array([e.speaker_id for e in members]),
                             xvecs / np.linalg.norm(xvecs, axis=1, keepdims=True))
        return units


@dataclass(frozen=True)
class PseudoSpeaker:
    """Averaged identity: mean embedding and mean F0 stats of K pool members."""

    xvec: np.ndarray
    chosen_ids: tuple[str, ...]
    stats: F0Stats


class ContrastiveMode(Enum):
    """Input routing: which embedding is synthesized from vs. exported."""

    OURS = "Ours"
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"

    @classmethod
    def parse(cls, token: str) -> "ContrastiveMode":
        for mode in cls:
            if token.lower() == mode.value.lower():
                return mode
        raise ValueError(f"unknown contrastive mode {token!r} "
                         f"(expected one of {[m.value for m in cls]})")


def select_pseudo_speaker(
    pool: SpeakerPool,
    source_xvec: np.ndarray,
    source_gender: Gender,
    gender_mode: str = DEFAULT_GENDER_MODE,
    n: int = DEFAULT_N_FURTHEST,
    k: int = DEFAULT_K_AVERAGED,
    seed=0,
) -> PseudoSpeaker:
    """Furthest-N, sample-K, average.

    The candidate set is the ``n`` target-gender entries with the largest
    cosine distance from the source embedding (ties by ascending speaker_id),
    all distances taken in one product with the pool's unit embeddings;
    ``k`` are drawn from it uniformly without replacement using the
    seeded generator, and their embeddings and F0 statistics are
    arithmetically averaged.
    """
    if gender_mode not in GENDER_MODES:
        raise ValueError(f"gender_mode must be 'same' or 'opposite', got {gender_mode!r}")
    target = source_gender if gender_mode == "same" else source_gender.opposite
    candidates = pool.of_gender(target)
    if len(candidates) < n:
        raise ValueError(
            f"pool has {len(candidates)} {target.value} entries, need n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    ids, units = pool._units[target]
    source = np.asarray(source_xvec, dtype=np.float64)
    if len(source) != units.shape[1]:
        raise ValueError(f"xvec width {len(source)} != pool xvec width {units.shape[1]}")
    norm = np.linalg.norm(source)
    if norm == 0.0:
        raise ValueError("zero-norm xvec")
    dists = 1.0 - units @ (source / norm)
    furthest = [candidates[i] for i in np.lexsort((ids, -dists))[:n]]
    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=k, replace=False)
    chosen = [furthest[int(i)] for i in picks]
    xvec = np.mean([e.xvec for e in chosen], axis=0)
    return PseudoSpeaker(
        xvec=xvec,
        chosen_ids=tuple(e.speaker_id for e in chosen),
        stats=F0Stats(float(np.mean([e.f0_mean for e in chosen])),
                      float(np.mean([e.f0_std for e in chosen]))),
    )


def speaker_f0_stats(utterances: Iterable) -> dict[str, F0Stats]:
    """Voiced-F0 mean and population std per speaker, pooled over utterances.

    ``utterances`` is a ``Dataset`` or a list of ``UtteranceF0`` records.
    """
    stats: dict[str, F0Stats] = {}
    for speaker_id, utts in group_by_speaker(utterances).items():
        voiced_f0 = np.concatenate([u.f0[u.voiced] for u in utts]).astype(np.float64)
        if len(voiced_f0) < 2:
            raise ValueError(
                f"speaker {speaker_id!r} has {len(voiced_f0)} voiced frames, need >= 2")
        stats[speaker_id] = F0Stats(float(voiced_f0.mean()), float(voiced_f0.std()))
        if stats[speaker_id].std == 0:
            raise ValueError(f"speaker {speaker_id!r}: voiced F0 std must be positive, got 0")
    return stats


def pool_from_dataset(utterances: Iterable) -> SpeakerPool:
    """Build a pool: per-speaker mean embedding + F0 stats.

    ``utterances`` is a ``Dataset`` or a list of ``UtteranceF0``
    records; only their voiced frames count, so these may hold only those.
    """
    stats = speaker_f0_stats(utterances)
    entries = []
    for speaker_id, utts in group_by_speaker(utterances).items():
        xvec = np.mean([u.xvec.astype(np.float64) for u in utts], axis=0)
        entries.append(PoolEntry(
            speaker_id=speaker_id,
            gender=utts[0].gender,
            xvec=xvec,
            f0_mean=stats[speaker_id].mean,
            f0_std=stats[speaker_id].std,
        ))
    return SpeakerPool(tuple(entries))


def shift_scale_f0(f0, src: F0Stats, tgt: F0Stats) -> np.ndarray:
    """Affine F0 modification in linear Hz from source stats to target stats.

    Voiced frames map x -> (x - src.mean)/src.std * tgt.std + tgt.mean;
    unvoiced frames stay exactly 0; mapped values are floored at 1 Hz so
    outliers cannot corrupt the voiced mask.  Both stats are voiced-F0
    mean and std in Hz, as ``speaker_f0_stats`` and pool files give them.
    """
    if src.std <= 0:
        raise ValueError(f"src.std must be positive, got {src.std}")
    f0 = np.asarray(f0, dtype=np.float64)
    voiced = f0 > 0
    out = np.zeros_like(f0)
    mapped = (f0[voiced] - src.mean) / src.std * tgt.std + tgt.mean
    out[voiced] = np.maximum(mapped, F0_FLOOR_HZ)
    return out


def assemble_synthesis_inputs(
    mode: ContrastiveMode,
    source_xvec: np.ndarray,
    pseudo: PseudoSpeaker,
) -> tuple[np.ndarray, np.ndarray]:
    """Route embeddings per contrastive mode.

    Returns (synth_xvec, export_xvec): the embedding the F0 synthesizer
    conditions on, and the identity embedding written alongside outputs.
    OURS uses the pseudo embedding for both; C1 the source for both;
    C2 synthesizes from pseudo but exports source; C3 the reverse.
    """
    source_xvec = np.asarray(source_xvec, dtype=np.float64)
    pseudo_synth = mode in (ContrastiveMode.OURS, ContrastiveMode.C2)
    pseudo_export = mode in (ContrastiveMode.OURS, ContrastiveMode.C3)
    return (pseudo.xvec if pseudo_synth else source_xvec,
            pseudo.xvec if pseudo_export else source_xvec)


# ---------------------------------------------------------------------------
# pool files
# ---------------------------------------------------------------------------

def write_pool(pool: SpeakerPool, out_dir: str | Path, written: list | None = None) -> Path:
    """Write a pool CSV plus per-speaker embedding files under ``out_dir``.

    A write that raises leaves none of them, as in ``featureio.write_dataset``.
    """
    out_dir = Path(out_dir)
    rows = []
    with removed_on_failure([out_dir / "pool_xvecs"], written) as written:
        (out_dir / "pool_xvecs").mkdir(parents=True, exist_ok=True)
        for e in pool.entries:
            rel = f"pool_xvecs/{e.speaker_id}.xvec"
            written.append(f"{out_dir}/{rel}")
            write_feature_file(written[-1], e.xvec)
            rows.append([e.speaker_id, e.gender.value, rel, f"{e.f0_mean:.17g}",
                         f"{e.f0_std:.17g}"])
        written.append(out_dir / "pool.csv")
        return write_csv(out_dir / "pool.csv", POOL_COLUMNS, rows)


def load_pool(path: str | Path) -> SpeakerPool:
    """Read a pool CSV; relative xvec paths resolve against its directory.

    An error names its row as ``path:lineno``, or ``path`` if it spans rows.
    """
    entries = []
    rows = read_csv(Path(path), POOL_COLUMNS, ("xvec_path",))
    for where, (speaker_id, gender_tok, xvec_path, mean_tok, std_tok) in rows:
        with at_row(where):
            entries.append(PoolEntry(speaker_id, Gender.parse(gender_tok),
                                     read_feature_file(xvec_path),
                                     float(mean_tok), float(std_tok)))
    with at_row(path):
        return SpeakerPool(tuple(entries))
