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
``utt_id,speaker_id,gender,f0_path,bn_path,xvec_path``; a relative path
is joined to the manifest's directory as a string, an absolute one is
kept as written.  Ids must pass ``check_id``.
Every CSV the package writes goes through ``write_csv`` and reads back
through ``read_csv``; neither quotes, and the reader strips fields, so every
field passes ``is_csv_field``.  A reader's error names its file, and the
line for a CSV (``at_row``).
"""

from __future__ import annotations

import math
import os
import shutil
import struct
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"F0FT"
FEATURE_VERSION = 1
MANIFEST_COLUMNS = ("utt_id", "speaker_id", "gender", "f0_path", "bn_path", "xvec_path")

# Floor applied to every standard deviation before it is used as a divisor,
# so constant feature dimensions normalize to 0 instead of Inf.
STD_FLOOR = 1e-8


class FormatError(ValueError):
    """A feature file, manifest, or checkpoint does not decode cleanly."""


@contextmanager
def at_row(where: str | Path):
    """Name ``where`` (a file, or ``file:line``) in a reader's failure: a ValueError
    becomes a FormatError, and a missing file that it refers to a FileNotFoundError."""
    try:
        yield
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise FileNotFoundError(f"{where}: missing feature file {exc.filename}") from exc
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def is_csv_field(value: str) -> bool:
    """True if ``read_csv``, which splits lines and strips fields, reads ``value`` back."""
    return "," not in value and value == value.strip() and len(value.splitlines()) <= 1


def check_id(kind: str, value: str) -> None:
    """Reject an id unfit for a CSV field, an item of a ``;``-joined list or ``<id>.xvec``."""
    if (not value or "/" in value or "\\" in value or ";" in value or "\0" in value
            or not is_csv_field(value) or len(f"{value}.xvec".encode()) > 255):
        raise ValueError(f"{kind} {value!r} must be non-empty, contain no '/', '\\', ',', ';', "
                         f"NUL, line break or outer space, and fit a 255-byte '<id>.xvec'")


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

    @property
    def input_width(self) -> int:
        """The model input width d_xv + d_bn."""
        return len(self.xvec) + self.bn.shape[1]

    def features(self) -> np.ndarray:
        """Per-frame model input rows ``[xvec, bn-row]``, float64, N x (d_xv + d_bn)."""
        return assemble_features(self.xvec, self.bn)

    def without_bn(self) -> "UtteranceF0":
        """This utterance's ids, gender, xvec and F0, sharing its arrays."""
        return UtteranceF0(self.utt_id, self.speaker_id, self.gender, self.xvec, self.f0)


@dataclass(frozen=True)
class UtteranceF0:
    """An utterance less its bn: ids, gender, embedding and F0, about 4
    bytes a frame.  Speaker statistics and pools read only these fields."""

    utt_id: str
    speaker_id: str
    gender: Gender
    xvec: np.ndarray
    f0: np.ndarray

    @property
    def n_frames(self) -> int:
        return len(self.f0)

    @property
    def voiced(self) -> np.ndarray:
        return self.f0 > 0


def assemble_features(xvec: np.ndarray, bn: np.ndarray) -> np.ndarray:
    """Tile an utterance-level embedding against per-frame rows.

    Returns a float64 matrix of shape (n_frames, len(xvec) + bn.shape[1])
    whose rows are the embedding followed by the frame's bn row.
    """
    xvec = np.asarray(xvec, dtype=np.float64)
    bn = np.asarray(bn, dtype=np.float64)
    tiled = np.broadcast_to(xvec, (bn.shape[0], len(xvec)))
    return np.hstack([tiled, bn])


class DatasetRules:
    """A dataset's rules, checked one utterance at a time: unique ids, one bn
    width and one xvec width.  Only the ids and the first widths are kept."""

    def __init__(self) -> None:
        self.ids: set[str] = set()
        self.widths: tuple[int, int] | None = None

    def check(self, utt: Utterance) -> None:
        if utt.utt_id in self.ids:
            raise ValueError(f"duplicate utt_id {utt.utt_id!r} in dataset")
        widths = (utt.bn.shape[1], len(utt.xvec))
        for name, got, want in zip(("bn", "xvec"), widths, self.widths or widths):
            if got != want:
                raise ValueError(f"utterance {utt.utt_id!r}: {name} dimension "
                                 f"{got} != {want} of the first utterance")
        self.ids.add(utt.utt_id)
        self.widths = widths


@dataclass
class Dataset:
    """An ordered collection of utterances with unique ids, one bn width and
    one xvec width; ``append`` checks each utterance against them."""

    utterances: list[Utterance]

    def __post_init__(self) -> None:
        utterances, self.utterances, self._rules = self.utterances, [], DatasetRules()
        for utt in utterances:
            self.append(utt)

    def append(self, utt: Utterance) -> None:
        self._rules.check(utt)
        self.utterances.append(utt)

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self) -> Iterator[Utterance]:
        return iter(self.utterances)

    def by_speaker(self) -> dict[str, list[Utterance]]:
        return group_by_speaker(self.utterances)

    @property
    def total_frames(self) -> int:
        return sum(u.n_frames for u in self.utterances)

    @property
    def input_width(self) -> int:
        """The model input width d_xv + d_bn that every utterance shares."""
        return self.utterances[0].input_width


def group_by_speaker(utterances: Iterable) -> dict[str, list]:
    """Utterances (or records with a ``speaker_id``) per speaker, in first-seen order."""
    groups: dict[str, list] = {}
    for utt in utterances:
        groups.setdefault(utt.speaker_id, []).append(utt)
    return groups


# ---------------------------------------------------------------------------
# binary feature files
# ---------------------------------------------------------------------------

def pack_header(magic: bytes, version: int, *fields: int) -> bytes:
    """Magic, u32 version and u32 fields: the header ``unpack_header`` checks."""
    return magic + struct.pack(f"<{len(fields) + 1}I", version, *fields)


def unpack_header(path: str | Path, data: bytes, magic: bytes, version: int,
                  n_fields: int, kind: str) -> list[int]:
    """Check a binary file's magic and u32 version; return the u32 fields after them."""
    if len(data) < 8 + 4 * n_fields or data[:4] != magic:
        raise FormatError(f"{path}: bad magic, not a {kind}")
    found, *fields = struct.unpack_from(f"<{n_fields + 1}I", data, 4)
    if found != version:
        raise FormatError(f"{path}: unsupported {kind} version {found}")
    return fields


def require_bytes(path: str | Path, data: bytes, end: int, part: str) -> None:
    if len(data) < end:
        raise FormatError(f"{path}: truncated {part}")


def write_feature_file(path: str | Path, values: np.ndarray) -> None:
    """Write a rank-1 or rank-2 finite float array in the binary feature format.

    The file is opened without truncation (ext4 frees and reallocates a
    truncated file's blocks) and written in place: its magic is zeroed, the
    payload and then the header are written, and the file is cut to its new
    length.  A killed write leaves a file that ``read_feature_file`` rejects,
    for a bad magic or an oversized payload.
    """
    arr = np.ascontiguousarray(values, dtype="<f4")
    if arr.ndim not in (1, 2):
        raise ValueError(f"feature rank must be 1 or 2, got {arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: non-finite value, not written")
    header = pack_header(FEATURE_MAGIC, FEATURE_VERSION, arr.ndim, *arr.shape)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        pwrite_all(fd, bytes(len(FEATURE_MAGIC)), 0)
        pwrite_all(fd, arr.reshape(-1), len(header))
        pwrite_all(fd, header, 0)
        os.ftruncate(fd, len(header) + arr.nbytes)
    finally:
        os.close(fd)


def pwrite_all(fd: int, data, offset: int) -> None:
    """Write every byte of ``data`` at ``offset``, repeating after a short write."""
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def read_feature_file(path: str | Path) -> np.ndarray:
    """Read a binary feature file, validating header and payload.

    Returns a writable float32 array of the stored rank (1 or 2).  The file
    is taken in one unbuffered read.
    """
    with open(path, "rb", buffering=0) as file:
        data = file.readall()
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


# ---------------------------------------------------------------------------
# CSV files and manifests
# ---------------------------------------------------------------------------

def read_text(path: Path) -> str:
    """UTF-8 text less one leading BOM; a byte that does not decode names the file."""
    data = path.read_bytes()
    with at_row(path):
        return data.decode("utf-8-sig")


def read_csv(path: Path, columns: tuple[str, ...],
             path_columns: tuple[str, ...] = ()):
    """Yield ``(location, fields)`` for each non-blank row of an unquoted CSV.

    The first line must be exactly ``columns``.  Fields are stripped; a
    relative field named in ``path_columns`` is joined to the CSV's
    directory as a string, an absolute one is kept as written.
    ``location`` is ``path:lineno``.
    """
    lines = read_text(path).splitlines()
    if not lines or tuple(lines[0].strip().split(",")) != columns:
        raise FormatError(f"{path}: header must be {','.join(columns)}")
    path_index = [columns.index(c) for c in path_columns]
    prefix = os.path.join(os.path.dirname(path), "")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(columns):
            raise FormatError(f"{path}:{lineno}: expected {len(columns)} fields")
        for i in path_index:
            if not os.path.isabs(fields[i]):
                fields[i] = prefix + fields[i]
        yield f"{path}:{lineno}", fields


def write_csv(path: str | Path, columns: tuple[str, ...], rows) -> Path:
    """Write the header and one comma-joined line per row; ``read_csv`` inverse.

    A row of the wrong width, a field that fails ``is_csv_field``, or a
    row that would be a blank line (one empty field), raises before the
    file or its directory is made.  Returns ``path``.
    """
    path = Path(path)
    lines = [",".join(columns)]
    for row in rows:
        line = ",".join(row)
        if not line or len(row) != len(columns) or not all(map(is_csv_field, row)):
            raise ValueError(f"{path}: row {row} is not a non-blank line of {len(columns)} "
                             f"fields free of ',', line breaks and outer spaces, not written")
        lines.append(line)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def manifest_rows(path: str | Path):
    """Yield ``(path:lineno, fields)`` per manifest row, feature paths resolved."""
    return read_csv(Path(path), MANIFEST_COLUMNS, MANIFEST_COLUMNS[3:])


def iter_manifest(path: str | Path) -> Iterator[Utterance]:
    """Yield each utterance of a manifest, checked, in manifest order.

    Relative feature paths resolve against the manifest's directory.  An
    error in a row, the ``Dataset`` rules included, names it as
    ``path:lineno`` when that row is reached.  A manifest without rows
    raises on the first ``next``.
    """
    rules = DatasetRules()
    for where, (utt_id, speaker_id, gender_tok, *paths) in manifest_rows(path):
        with at_row(where):
            utt = Utterance(utt_id, speaker_id, Gender.parse(gender_tok),
                            *(read_feature_file(p) for p in paths))
            rules.check(utt)
        yield utt
    if not rules.ids:
        raise FormatError(f"{path}: empty dataset, the manifest has no rows")


def reread_bn(path: str | Path, utterances: list[UtteranceF0], d_bn: int) -> Iterator[np.ndarray]:
    """Yield each utterance's bn, read again from the manifest at ``path``.

    ``utterances`` are the manifest's rows as ``iter_manifest`` gave them.
    A row whose id, or bn shape (frames, ``d_bn``), is not the one read
    before raises, naming the row.
    """
    rows = manifest_rows(path)
    for utt in utterances:
        where, fields = next(rows, (path, None))
        with at_row(where):
            bn = read_feature_file(fields[4]) if fields and fields[0] == utt.utt_id else None
            if bn is None or bn.shape != (utt.n_frames, d_bn):
                raise ValueError(f"utterance {utt.utt_id!r} changed since it was first read")
        yield bn


def load_manifest(path: str | Path) -> Dataset:
    """Load every utterance of a manifest into a ``Dataset`` (see ``iter_manifest``)."""
    return Dataset(list(iter_manifest(path)))


@contextmanager
def removed_on_failure(directories: Iterable[Path], written: list | None = None):
    """Yield ``written`` (a new list if None), to which the body adds each file
    just before writing it.  If the body raises (any ``BaseException``), the
    listed files are removed, ignoring those never made, then the outermost
    directory on the way to each of ``directories`` that did not exist on
    entry, and the error goes on.  An existing directory keeps every file not
    listed; an inner guard given an outer one's list also removes its files.
    """
    made = {new[-1] for directory in directories
            if (new := [d for d in (directory, *directory.parents) if not d.exists()])}
    written = [] if written is None else written
    try:
        yield written
    except BaseException:
        for path in written:
            with suppress(OSError):  # never made, or through a file: the body's error wins
                os.remove(path)
        for directory in made:
            shutil.rmtree(directory, ignore_errors=True)
        raise


def write_dataset(utterances: Iterable[Utterance], out_dir: str | Path,
                  written: list | None = None) -> Path:
    """Write each utterance's feature files as it comes, then a manifest, under ``out_dir``.

    ``utterances`` is a ``Dataset`` or any iterable of utterances, checked
    against the ``Dataset`` rules as they come.  Returns the manifest path.
    Feature files land in ``out_dir/features/`` and the manifest references
    them relatively, so the tree is relocatable.  If the iterable or a write
    raises, ``removed_on_failure`` over ``features/`` removes the files on
    ``written`` (the caller's guard's list when given, else this call's) and
    the directories this call made.
    """
    out_dir = Path(out_dir)
    rules = DatasetRules()
    rows = []
    with removed_on_failure([out_dir / "features"], written) as written:
        (out_dir / "features").mkdir(parents=True, exist_ok=True)
        for utt in utterances:
            rules.check(utt)
            rel = [f"features/{utt.utt_id}.{kind}" for kind in ("f0", "bn", "xvec")]
            rows.append([utt.utt_id, utt.speaker_id, utt.gender.value, *rel])
            for name, values in zip(rel, (utt.f0, utt.bn, utt.xvec)):
                written.append(f"{out_dir}/{name}")
                write_feature_file(written[-1], values)
        written.append(out_dir / "manifest.csv")
        return write_csv(out_dir / "manifest.csv", MANIFEST_COLUMNS, rows)

# ---------------------------------------------------------------------------
# frame tables and normalization statistics
# ---------------------------------------------------------------------------

@dataclass
class FrameTable:
    """All frames of a dataset stacked into one tall training matrix.

    ``rows[r]`` is ``[xvec, bn-row]`` for one frame, float32 as the feature
    files store it; ``target_logf0[r]`` is ln(F0 Hz) where voiced and a 0.0
    sentinel where unvoiced (the ``voiced`` mask is authoritative).
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
    d_xv = len(dataset.utterances[0].xvec)
    rows = np.empty((dataset.total_frames, dataset.input_width), dtype=np.float32)
    end = 0
    for utt in dataset.utterances:
        end += utt.n_frames
        rows[end - utt.n_frames:end, :d_xv] = utt.xvec
        rows[end - utt.n_frames:end, d_xv:] = utt.bn
    f0 = np.concatenate([u.f0 for u in dataset.utterances]).astype(np.float64)
    voiced = f0 > 0
    return FrameTable(rows, np.where(voiced, np.log(np.where(voiced, f0, 1.0)), 0.0), voiced)


@dataclass
class NormStats:
    """Input and log-F0 normalization statistics.

    Input statistics are computed over all rows; log-F0 statistics over
    voiced rows only.  All are finite, and standard deviations are floored
    at ``STD_FLOOR`` so they are always safe divisors.
    """

    input_mean: np.ndarray
    input_std: np.ndarray
    logf0_mean: float
    logf0_std: float

    def __post_init__(self) -> None:
        self.input_mean = np.asarray(self.input_mean, dtype=np.float64)
        self.input_std = np.asarray(self.input_std, dtype=np.float64)
        stds = np.append(self.input_std, self.logf0_std)
        if not (np.isfinite(np.append(self.input_mean, self.logf0_mean)).all()
                and ((STD_FLOOR <= stds) & (stds < np.inf)).all()):
            raise ValueError(f"normalization stats must be finite, with stds >= {STD_FLOOR}")

    @classmethod
    def identity(cls, dim: int) -> "NormStats":
        return cls(np.zeros(dim), np.ones(dim), 0.0, 1.0)

    def normalize_inputs(self, raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(raw - mean) / std in float64, into ``out`` when given (``raw`` itself may be it)."""
        normed = np.subtract(raw, self.input_mean, dtype=np.float64, out=out)
        return np.divide(normed, self.input_std, out=normed)

    def normalize_logf0(self, logf0):
        return (logf0 - self.logf0_mean) / self.logf0_std

    def denormalize_logf0(self, normed):
        return normed * self.logf0_std + self.logf0_mean


def compute_norm_stats(table: FrameTable) -> NormStats:
    """Population mean/std of inputs (all rows) and log-F0 (voiced rows only)."""
    if not table.voiced.any():
        raise ValueError("frame table has no voiced frames")
    input_mean = table.rows.mean(axis=0, dtype=np.float64)
    input_std = np.maximum(table.rows.std(axis=0, dtype=np.float64), STD_FLOOR)
    voiced_targets = table.target_logf0[table.voiced]
    logf0_mean = float(voiced_targets.mean())
    logf0_std = float(max(voiced_targets.std(), STD_FLOOR))
    return NormStats(input_mean, input_std, logf0_mean, logf0_std)
