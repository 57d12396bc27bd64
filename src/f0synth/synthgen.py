"""Synthetic corpus generator with a closed-form feature-to-F0 mapping.

The generated world is deliberately simple: log-F0 is exactly linear in
the model's input features, so a trained network can in principle match
the ground truth, and evaluation code can be checked against exact
targets instead of a speech corpus.

World construction
------------------
Each speaker gets a random embedding whose first coordinate is exactly
+1.0 (female) or -1.0 (male).  Per-frame features follow a smooth
first-order autoregressive walk with N(0,1) marginal, so neighboring
frames are correlated like real acoustic features.  Each utterance draws
from its own seeded stream; one recursion over time walks a block of a
role's utterances at once.  A block holds up to ``WALK_BLOCK_VALUES``
walk values, never fewer than one speaker's utterances, and may span
speakers and genders.  A block's draws are split into one contiguous part
of utterances per CPU the process may run on; the calling thread draws
one part and a thread pool, alive only during the call, the rest.  Each
utterance's stream fills its own slot, so the bits do not depend on the
CPU count.  Ground truth:

    ln F0[t] = ln(base_f0_<gender>) + weights . bn[t, :k]
    voiced[t] = bn[t, 1] > voicing_threshold

with ``weights`` a seeded random vector scaled by ``weight_scale`` and
k = min(8, d_bn).  Optional noise perturbs voiced log-F0 by a seeded
normal draw expressed in cents.  Features are cast to float32 *before*
the ground truth is computed, so the returned mapping reproduces stored
F0 files bit-exactly when noise is zero.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .featureio import Dataset, Gender, Utterance

if TYPE_CHECKING:
    from concurrent.futures import Executor

# AR(1) coefficient of the feature walk; marginal stays N(0,1).
WALK_COEFF = 0.9
# Number of bn coordinates that feed the ground-truth mapping.
MAX_ACTIVE_DIMS = 8
# Cents-to-natural-log conversion: one cent is a 2**(1/1200) ratio.
LOG_PER_CENT = np.log(2.0) / 1200.0
# Walk values (float64, 2 MiB) per block; a block still holds a whole speaker.
WALK_BLOCK_VALUES = 1 << 18

# Seed-stream tags (first element after the user seed).
_STREAM_MAPPING = 0
_STREAM_SPEAKER = 1
_STREAM_UTT_BASE = 2  # + role index

DATASET_ROLES = ("train", "validation", "test")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic world.

    ``base_f0_female``/``base_f0_male`` are each gender's center F0 in Hz;
    ``weight_scale`` sets the log-F0 spread contributed by the content
    features; ``noise_std_cents`` adds observation noise to voiced
    frames (0 keeps the world exactly closed-form).
    """

    n_speakers_per_gender: int = 4
    utts_per_speaker: int = 5
    frames_per_utt: int = 200
    d_bn: int = 16
    d_xv: int = 8
    base_f0_female: float = 190.0
    base_f0_male: float = 120.0
    weight_scale: float = 0.25
    voicing_threshold: float = 0.0
    noise_std_cents: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_speakers_per_gender", "utts_per_speaker", "frames_per_utt"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.d_bn < 2:
            raise ValueError("d_bn must be >= 2 (voicing reads coordinate 1)")
        if self.d_xv < 1:
            raise ValueError("d_xv must be >= 1 (gender reads coordinate 0)")
        for name in ("weight_scale", "voicing_threshold", "noise_std_cents"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("base_f0_female", "base_f0_male"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.noise_std_cents < 0:
            raise ValueError("noise_std_cents must be non-negative")


@dataclass(frozen=True)
class GroundTruthMapping:
    """Closed-form feature-to-F0 mapping of a generated world.

    ``logf0``/``voiced_mask``/``f0`` evaluate the exact rule used during
    generation, so ``f0(gender, utt.bn)`` equals the stored trajectory
    bit-for-bit on noiseless worlds.
    """

    base_logf0: dict[Gender, float]
    weights: np.ndarray  # float64, length k, weight_scale folded in
    voicing_threshold: float

    @property
    def n_active_dims(self) -> int:
        return len(self.weights)

    def logf0(self, gender: Gender, bn: np.ndarray) -> np.ndarray:
        """True ln(F0 Hz) for every frame, float64, ignoring voicing."""
        bn = np.asarray(bn, dtype=np.float64)
        k = self.n_active_dims
        return self.base_logf0[gender] + bn[:, :k] @ self.weights

    def voiced_mask(self, bn: np.ndarray) -> np.ndarray:
        bn = np.asarray(bn, dtype=np.float64)
        return bn[:, 1] > self.voicing_threshold

    def f0(self, gender: Gender, bn: np.ndarray) -> np.ndarray:
        """Ground-truth trajectory (float32 Hz, unvoiced frames 0)."""
        voiced = self.voiced_mask(bn)
        hz = np.exp(self.logf0(gender, bn))
        return np.where(voiced, hz, 0.0).astype(np.float32)


def _make_mapping(spec: SynthSpec) -> GroundTruthMapping:
    rng = np.random.default_rng([spec.seed, _STREAM_MAPPING])
    k = min(MAX_ACTIVE_DIMS, spec.d_bn)
    raw = rng.standard_normal(k)
    weights = spec.weight_scale * raw / np.sqrt(k)
    base = {Gender.F: float(np.log(spec.base_f0_female)),
            Gender.M: float(np.log(spec.base_f0_male))}
    return GroundTruthMapping(base_logf0=base, weights=weights,
                              voicing_threshold=spec.voicing_threshold)


def _speaker_xvec(spec: SynthSpec, gender_idx: int, spk_idx: int) -> np.ndarray:
    rng = np.random.default_rng([spec.seed, _STREAM_SPEAKER, gender_idx, spk_idx])
    xvec = rng.standard_normal(spec.d_xv)
    xvec[0] = 1.0 if gender_idx == 0 else -1.0
    return xvec.astype(np.float32)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _draw_steps(rngs: list[np.random.Generator], walks: np.ndarray) -> None:
    """Fill each slot ``walks[:, i]`` (time-major) with stream i's N(0,1) steps."""
    steps = np.empty((walks.shape[0], walks.shape[2]))
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=steps)
        walks[:, i] = steps


def _block_walks(rngs: list[np.random.Generator], n_frames: int, d: int,
                 pool: Executor, cpus: int) -> np.ndarray:
    """AR(1) walks, N(0,1) marginal, of one block of utterances: (utts, frames, d).

    Steps come from each utterance's own stream, drawn in ``min(cpus, utts)``
    contiguous parts: the calling thread draws the first, ``pool`` the rest.
    IEEE + and * commute, so the in-place ``scale*step[t] + bn[t-1]*c`` has
    the scalar walk's bits.  The buffer is time-major, so each frame's update
    is one contiguous (utts, d) slab; the result is a view of it.
    """
    innovation_scale = np.sqrt(1.0 - WALK_COEFF**2)
    walks = np.empty((n_frames, len(rngs), d))
    parts = min(cpus, len(rngs))
    bounds = [k * len(rngs) // parts for k in range(parts + 1)]
    futures = [pool.submit(_draw_steps, rngs[lo:hi], walks[:, lo:hi])
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    _draw_steps(rngs[:bounds[1]], walks[:, :bounds[1]])
    for future in futures:
        future.result()
    walks[1:] *= innovation_scale
    carry = np.empty((len(rngs), d))
    for t in range(1, n_frames):
        walks[t] += np.multiply(walks[t - 1], WALK_COEFF, out=carry)
    return walks.swapaxes(0, 1)


def generate_synthetic_dataset(
    spec: SynthSpec, role: str = "train"
) -> tuple[Dataset, GroundTruthMapping]:
    """Generate one corpus role of the world described by ``spec``.

    The same spec shares ground-truth mapping and speakers across roles
    but draws fresh utterances per role, so train/validation/test splits
    come from one world without frame overlap.  Same (spec, role) twice
    yields bit-identical datasets, on any number of CPUs.
    """
    if role not in DATASET_ROLES:
        raise ValueError(f"role must be one of {DATASET_ROLES}, got {role!r}")
    mapping = _make_mapping(spec)
    role_stream = _STREAM_UTT_BASE + DATASET_ROLES.index(role)
    noise_log_std = spec.noise_std_cents * LOG_PER_CENT
    speakers = [(gender_idx, gender, spk_idx, _speaker_xvec(spec, gender_idx, spk_idx))
                for gender_idx, gender in enumerate((Gender.F, Gender.M))
                for spk_idx in range(spec.n_speakers_per_gender)]
    keys = [(speaker, utt_idx) for speaker in speakers
            for utt_idx in range(spec.utts_per_speaker)]
    block = max(spec.utts_per_speaker,
                WALK_BLOCK_VALUES // (spec.frames_per_utt * spec.d_bn))
    utterances = []
    # Imported here: commands that never generate (train, eval, anonymize)
    # then load neither the pool nor the logging module it imports.
    from concurrent.futures import ThreadPoolExecutor

    cpus = _usable_cpus()
    # Threads start on the first submit, so one CPU starts none.
    with ThreadPoolExecutor(max_workers=max(1, cpus - 1)) as pool:
        for start in range(0, len(keys), block):
            chunk = keys[start:start + block]
            rngs = [np.random.default_rng([spec.seed, role_stream, g_idx, spk_idx, utt_idx])
                    for (g_idx, _, spk_idx, _), utt_idx in chunk]
            walks = _block_walks(rngs, spec.frames_per_utt, spec.d_bn, pool, cpus)
            for ((_, gender, spk_idx, xvec), utt_idx), rng, bn in zip(chunk, rngs, walks):
                speaker_id = f"{gender.value}{spk_idx:03d}"
                bn32 = bn.astype(np.float32)
                logf0 = mapping.logf0(gender, bn32)
                if noise_log_std > 0:
                    logf0 += rng.normal(0.0, noise_log_std, size=len(logf0))
                f0 = np.where(mapping.voiced_mask(bn32), np.exp(logf0), 0.0).astype(np.float32)
                utterances.append(Utterance(
                    utt_id=f"{speaker_id}_{role}{utt_idx:03d}",
                    speaker_id=speaker_id,
                    gender=gender,
                    f0=f0,
                    bn=bn32,
                    xvec=xvec,
                ))
    return Dataset(utterances), mapping
