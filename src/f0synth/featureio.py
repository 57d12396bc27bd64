"""Per-utterance feature files, manifests, and training frame tables.

Conventions
-----------
An utterance is described by three aligned features: an F0 trajectory
(one value per 10 ms frame, 0 Hz meaning unvoiced), a per-frame feature
matrix ("bn", one row per frame), and a single utterance-level speaker
embedding ("xvec").  Features live in one binary file each (format below)
and a CSV manifest ties them together.

Feature file format (bit-exact, little-endian):

    magic   4 bytes  b"F0FT"
    version u32      1
    rank    u32      1 or 2
    dims    u32 * rank   (rows, cols) for rank 2, row-major
    payload IEEE-754 binary32 * prod(dims), row-major

Manifest format: CSV with header
``utt_id,speaker_id,gender,f0_path,bn_path,xvec_path``; relative paths
are resolved against the manifest's directory.  Ids must pass ``check_id``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"F0FT"
FEATURE_VERSION = 1
MANIFEST_COLUMNS = ("utt_id", "speaker_id", "gender", "f0_path", "bn_path", "xvec_path")

# Floor applied to every standard deviation before it is used as a divisor,
# so constant feature dimensions normalize to 0 instead of Inf.
STD_FLOOR = 1e-8

DATASET_ROLES = ("train", "validation", "test")


class FormatError(ValueError):
    """A feature file, manifest, or checkpoint does not decode cleanly."""


def check_id(kind: str, value: str) -> None:
    """Reject an id that cannot be one CSV field and one file name."""
    if not value or any(c in value for c in "/\\,\n\r"):
        raise ValueError(f"{kind} {value!r} must be non-empty and contain no "
                         f"'/', '\\', ',' or line break")


class Gender(Enum):
    F = "F"
    M = "M"

    @classmethod
    def parse(cls, token: str) -> "Gender":
        try:
            return cls(token)
        except ValueError:
            raise ValueError(f"unknown gender token {token!r} (expected 'F' or 'M')") from None

    @property
    def opposite(self) -> "Gender":
        return Gender.M if self is Gender.F else Gender.F


@dataclass
class Utterance:
    """One recording's aligned features plus speaker metadata.

    ``f0`` is non-negative Hz with 0 marking unvoiced frames; ``bn`` has one
    row per frame and must match ``f0`` in length; ``xvec`` is a single
    utterance-level embedding.  Arrays are stored as float32, matching the
    on-disk payload; training math promotes to float64.
    """

    utt_id: str
    speaker_id: str
    gender: Gender
    f0: np.ndarray
    bn: np.ndarray
    xvec: np.ndarray

    def __post_init__(self) -> None:
        check_id("utt_id", self.utt_id)
        check_id("speaker_id", self.speaker_id)
        self.f0 = np.ascontiguousarray(self.f0, dtype=np.float32)
        self.bn = np.ascontiguousarray(self.bn, dtype=np.float32)
        self.xvec = np.ascontiguousarray(self.xvec, dtype=np.float32)
        if self.f0.ndim != 1:
            raise ValueError(f"utterance {self.utt_id!r}: f0 must be 1-D")
        if self.bn.ndim != 2:
            raise ValueError(f"utterance {self.utt_id!r}: bn must be 2-D")
        if self.xvec.ndim != 1:
            raise ValueError(f"utterance {self.utt_id!r}: xvec must be 1-D")
        if len(self.f0) != self.bn.shape[0]:
            raise ValueError(
                f"utterance {self.utt_id!r}: frame-alignment error, "
                f"f0 has {len(self.f0)} frames but bn has {self.bn.shape[0]} rows"
            )
        for name, arr in (("f0", self.f0), ("bn", self.bn), ("xvec", self.xvec)):
            if not np.isfinite(arr).all():
                raise ValueError(f"utterance {self.utt_id!r}: non-finite value in {name}")
        if (self.f0 < 0).any():
            raise ValueError(f"utterance {self.utt_id!r}: negative F0 value")

    @property
    def n_frames(self) -> int:
        return len(self.f0)

    @property
    def voiced(self) -> np.ndarray:
        return self.f0 > 0

    def features(self) -> np.ndarray:
        """Per-frame model input rows ``[xvec, bn-row]``, float64, N x (d_xv + d_bn)."""
        return assemble_features(self.xvec, self.bn)


def assemble_features(xvec: np.ndarray, bn: np.ndarray) -> np.ndarray:
    """Tile an utterance-level embedding against per-frame rows.

    Returns a float64 matrix of shape (n_frames, len(xvec) + bn.shape[1])
    whose rows are the embedding followed by the frame's bn row.
    """
    xvec = np.asarray(xvec, dtype=np.float64)
    bn = np.asarray(bn, dtype=np.float64)
    tiled = np.broadcast_to(xvec, (bn.shape[0], len(xvec)))
    return np.hstack([tiled, bn])


@dataclass
class Dataset:
    """An ordered collection of utterances with a corpus role."""

    utterances: list[Utterance]
    role: str = "train"

    def __post_init__(self) -> None:
        if self.role not in DATASET_ROLES:
            raise ValueError(f"dataset role must be one of {DATASET_ROLES}, got {self.role!r}")
        seen: set[str] = set()
        for utt in self.utterances:
            if utt.utt_id in seen:
                raise ValueError(f"duplicate utt_id {utt.utt_id!r} in dataset")
            seen.add(utt.utt_id)

    def __len__(self) -> int:
        return len(self.utterances)

    def by_speaker(self) -> dict[str, list[Utterance]]:
        groups: dict[str, list[Utterance]] = {}
        for utt in self.utterances:
            groups.setdefault(utt.speaker_id, []).append(utt)
        return groups

    @property
    def total_frames(self) -> int:
        return sum(u.n_frames for u in self.utterances)


# ---------------------------------------------------------------------------
# binary feature files
# ---------------------------------------------------------------------------

def unpack_header(path: Path, data: bytes, magic: bytes, version: int,
                  n_fields: int, kind: str) -> list[int]:
    """Check a binary file's magic and u32 version; return the u32 fields after them."""
    if len(data) < 8 + 4 * n_fields or data[:4] != magic:
        raise FormatError(f"{path}: bad magic, not a {kind}")
    found, *fields = struct.unpack_from(f"<{n_fields + 1}I", data, 4)
    if found != version:
        raise FormatError(f"{path}: unsupported {kind} version {found}")
    return fields


def require_bytes(path: Path, data: bytes, end: int, part: str) -> None:
    if len(data) < end:
        raise FormatError(f"{path}: truncated {part}")


def write_feature_file(path: str | Path, values: np.ndarray) -> None:
    """Write a rank-1 or rank-2 finite float array in the binary feature format."""
    arr = np.ascontiguousarray(values, dtype="<f4")
    if arr.ndim not in (1, 2):
        raise ValueError(f"feature rank must be 1 or 2, got {arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: non-finite value, not written")
    header = FEATURE_MAGIC + struct.pack("<II", FEATURE_VERSION, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    Path(path).write_bytes(header + arr.tobytes(order="C"))


def read_feature_file(path: str | Path) -> np.ndarray:
    """Read a binary feature file, validating header and payload.

    Returns a writable float32 array of the stored rank (1 or 2).
    """
    path = Path(path)
    data = path.read_bytes()
    (rank,) = unpack_header(path, data, FEATURE_MAGIC, FEATURE_VERSION, 1, "feature file")
    if rank not in (1, 2):
        raise FormatError(f"{path}: bad rank {rank}")
    offset = 12 + 4 * rank
    require_bytes(path, data, offset, "header")
    dims = struct.unpack_from(f"<{rank}I", data, 12)
    count = int(math.prod(dims))
    expected = offset + 4 * count
    if len(data) != expected:
        raise FormatError(
            f"{path}: truncated or oversized payload "
            f"({len(data)} bytes, header implies {expected})"
        )
    arr = np.frombuffer(data, dtype="<f4", count=count, offset=offset).reshape(dims)
    if not np.isfinite(arr).all():
        raise FormatError(f"{path}: non-finite value in payload")
    return arr.copy()


def read_utterance(
    f0_path: str | Path,
    bn_path: str | Path,
    xvec_path: str | Path,
    *,
    utt_id: str,
    speaker_id: str,
    gender: Gender,
) -> Utterance:
    """Load one utterance's three feature files and validate all invariants."""
    f0 = read_feature_file(f0_path)
    if f0.ndim != 1:
        raise FormatError(f"{f0_path}: expected rank-1 F0 trajectory")
    bn = read_feature_file(bn_path)
    if bn.ndim != 2:
        raise FormatError(f"{bn_path}: expected rank-2 feature matrix")
    xvec = read_feature_file(xvec_path)
    if xvec.ndim != 1:
        raise FormatError(f"{xvec_path}: expected rank-1 embedding")
    return Utterance(utt_id=utt_id, speaker_id=speaker_id, gender=gender,
                     f0=f0, bn=bn, xvec=xvec)


def write_utterance(
    utt: Utterance,
    f0_path: str | Path,
    bn_path: str | Path,
    xvec_path: str | Path,
) -> None:
    """Write an utterance's features to three binary files (read_utterance inverse)."""
    write_feature_file(f0_path, utt.f0)
    write_feature_file(bn_path, utt.bn)
    write_feature_file(xvec_path, utt.xvec)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def read_csv(path: Path, columns: tuple[str, ...],
             path_columns: tuple[str, ...] = ()):
    """Yield ``(location, fields)`` for each non-blank row of an unquoted CSV.

    The first line must be exactly ``columns``.  Fields are stripped; the
    ones named in ``path_columns`` become Paths, relative ones resolved
    against the CSV's directory.  ``location`` is ``path:lineno``.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or tuple(lines[0].strip().split(",")) != columns:
        raise FormatError(f"{path}: header must be {','.join(columns)}")
    path_index = [columns.index(c) for c in path_columns]
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(columns):
            raise FormatError(f"{path}:{lineno}: expected {len(columns)} fields")
        for i in path_index:
            p = Path(fields[i])
            fields[i] = p if p.is_absolute() else path.parent / p
        yield f"{path}:{lineno}", fields


def load_manifest(
    path: str | Path,
    *,
    role: str = "train",
    d_bn: int | None = None,
    d_xv: int | None = None,
) -> Dataset:
    """Load every utterance referenced by a manifest, in manifest order.

    Parameters
    ----------
    path : manifest CSV path; relative feature paths resolve against its
        directory.
    role : corpus role recorded on the returned Dataset.
    d_bn, d_xv : expected feature dimensions.  When omitted they are taken
        from the first utterance; every utterance must agree.
    """
    utterances: list[Utterance] = []
    rows = read_csv(Path(path), MANIFEST_COLUMNS, ("f0_path", "bn_path", "xvec_path"))
    for where, (utt_id, speaker_id, gender_tok, *paths) in rows:
        gender = Gender.parse(gender_tok)
        for p in paths:
            if not p.is_file():
                raise FileNotFoundError(f"{where}: missing feature file {p}")
        utt = read_utterance(*paths, utt_id=utt_id, speaker_id=speaker_id, gender=gender)
        if d_bn is None:
            d_bn = utt.bn.shape[1]
        if d_xv is None:
            d_xv = len(utt.xvec)
        if utt.bn.shape[1] != d_bn:
            raise ValueError(
                f"utterance {utt_id!r}: bn dimension {utt.bn.shape[1]} != expected {d_bn}")
        if len(utt.xvec) != d_xv:
            raise ValueError(
                f"utterance {utt_id!r}: xvec dimension {len(utt.xvec)} != expected {d_xv}")
        utterances.append(utt)
    return Dataset(utterances, role=role)


def write_dataset(dataset: Dataset, out_dir: str | Path,
                  manifest_name: str = "manifest.csv") -> Path:
    """Write every utterance's feature files plus a manifest under ``out_dir``.

    Returns the manifest path.  Feature files land in ``out_dir/features/``
    and the manifest references them relatively, so the tree is relocatable.
    """
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    rows = [",".join(MANIFEST_COLUMNS)]
    for utt in dataset.utterances:
        rel = {kind: f"features/{utt.utt_id}.{kind}" for kind in ("f0", "bn", "xvec")}
        write_utterance(utt, out_dir / rel["f0"], out_dir / rel["bn"], out_dir / rel["xvec"])
        rows.append(",".join([utt.utt_id, utt.speaker_id, utt.gender.value,
                              rel["f0"], rel["bn"], rel["xvec"]]))
    manifest_path = out_dir / manifest_name
    manifest_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return manifest_path


# ---------------------------------------------------------------------------
# frame tables and normalization statistics
# ---------------------------------------------------------------------------

@dataclass
class FrameTable:
    """All frames of a dataset stacked into one tall training matrix.

    ``rows[r]`` is ``[xvec, bn-row]`` for one frame; ``target_logf0[r]`` is
    ln(F0 Hz) where voiced and a 0.0 sentinel where unvoiced (the ``voiced``
    mask is authoritative, regression must never read unvoiced targets).
    """

    rows: np.ndarray
    target_logf0: np.ndarray
    voiced: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


def build_frame_table(dataset: Dataset) -> FrameTable:
    """Concatenate all utterance frames into a FrameTable.

    Rows keep utterance order, frames in order within each utterance.
    """
    if not dataset.utterances:
        raise ValueError("cannot build a frame table from an empty dataset")
    blocks, targets, masks = [], [], []
    for utt in dataset.utterances:
        blocks.append(utt.features())
        f0 = utt.f0.astype(np.float64)
        voiced = f0 > 0
        targets.append(np.where(voiced, np.log(np.where(voiced, f0, 1.0)), 0.0))
        masks.append(voiced)
    return FrameTable(
        rows=np.vstack(blocks),
        target_logf0=np.concatenate(targets),
        voiced=np.concatenate(masks),
    )


@dataclass
class NormStats:
    """Input and log-F0 normalization statistics.

    Input statistics are computed over all rows; log-F0 statistics over
    voiced rows only.  Standard deviations are floored at ``STD_FLOOR``
    so they are always safe divisors.
    """

    input_mean: np.ndarray
    input_std: np.ndarray
    logf0_mean: float
    logf0_std: float

    def __post_init__(self) -> None:
        self.input_mean = np.asarray(self.input_mean, dtype=np.float64)
        self.input_std = np.asarray(self.input_std, dtype=np.float64)
        if (self.input_std < STD_FLOOR).any() or self.logf0_std < STD_FLOOR:
            raise ValueError(f"normalization stds must be >= {STD_FLOOR}")

    @classmethod
    def identity(cls, dim: int) -> "NormStats":
        return cls(np.zeros(dim), np.ones(dim), 0.0, 1.0)

    def normalize_inputs(self, raw: np.ndarray) -> np.ndarray:
        return (np.asarray(raw, dtype=np.float64) - self.input_mean) / self.input_std

    def normalize_logf0(self, logf0):
        return (logf0 - self.logf0_mean) / self.logf0_std

    def denormalize_logf0(self, normed):
        return normed * self.logf0_std + self.logf0_mean


def compute_norm_stats(table: FrameTable) -> NormStats:
    """Population mean/std of inputs (all rows) and log-F0 (voiced rows only)."""
    if not table.voiced.any():
        raise ValueError("frame table has no voiced frames")
    input_mean = table.rows.mean(axis=0)
    input_std = np.maximum(table.rows.std(axis=0), STD_FLOOR)
    voiced_targets = table.target_logf0[table.voiced]
    logf0_mean = float(voiced_targets.mean())
    logf0_std = float(max(voiced_targets.std(), STD_FLOOR))
    return NormStats(input_mean, input_std, logf0_mean, logf0_std)
