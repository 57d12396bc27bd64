"""Reader contract: every read of a damaged file returns or names the file.

Each kind of file the pipeline reads back (a feature file, a checkpoint, a
manifest and ``pool.csv``) comes from a tiny ``synthgen`` world and a
1-epoch ``train``.  Its mutants are every prefix of its first 64 bytes,
sampled cut points, and single-byte substitutions: five fixed bit flips
at each of the first 64 bytes and seeded random bytes at sampled
positions.  Each mutant, written beside the original so relative paths
still resolve, is read with the package's reader.  The read must return,
or raise a FormatError, or a FileNotFoundError for a file a CSV row
refers to; an error must name the mutant's path.
"""

import random

import pytest

from f0synth.anonymize import load_pool
from f0synth.cli import RunConfig, cmd_synthgen, cmd_train
from f0synth.featureio import FormatError, load_manifest, read_feature_file
from f0synth.model import load_checkpoint

HEAD_BYTES = 64
HEAD_FLIPS = (0x01, 0x20, 0x40, 0x80, 0xFF)
SAMPLED_CUTS = 64
SAMPLED_SUBSTITUTIONS = 256

READERS = {
    "feature_file": read_feature_file,
    "checkpoint": load_checkpoint,
    "manifest": load_manifest,
    "pool": load_pool,
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    world = tmp_path_factory.mktemp("world")
    run = tmp_path_factory.mktemp("run")
    cmd_synthgen(RunConfig({
        "seed": "3", "out_dir": str(world),
        "synth.n_speakers_per_gender": "3", "synth.utts_per_speaker": "2",
        "synth.frames_per_utt": "40", "synth.d_bn": "2", "synth.d_xv": "2"}))
    cmd_train(RunConfig({
        "seed": "3", "out_dir": str(run),
        "train.manifest": str(world / "train" / "manifest.csv"),
        "train.val_manifest": str(world / "validation" / "manifest.csv"),
        "model.hidden_sizes": "8,4", "train.batch_size": "48", "train.max_epochs": "1"}))
    return {
        "feature_file": sorted((world / "test" / "features").glob("*.bn"))[0],
        "checkpoint": run / "checkpoint.f0md",
        "manifest": world / "test" / "manifest.csv",
        "pool": world / "pool.csv",
    }


def mutants(data: bytes, rng: random.Random):
    """Yield ``(description, bytes)`` for each mutant of ``data``."""
    head = min(len(data), HEAD_BYTES)
    for end in range(head):
        yield f"prefix {end}", data[:end]
    for end in sorted(rng.sample(range(len(data)), min(len(data), SAMPLED_CUTS))):
        yield f"cut {end}", data[:end]
    substitutions = [(pos, data[pos] ^ flip) for pos in range(head) for flip in HEAD_FLIPS]
    for _ in range(SAMPLED_SUBSTITUTIONS):
        pos = rng.randrange(len(data))
        substitutions.append((pos, rng.choice([b for b in range(256) if b != data[pos]])))
    for pos, value in substitutions:
        yield f"byte {pos} = {value:#04x}", data[:pos] + bytes([value]) + data[pos + 1:]


@pytest.mark.parametrize("kind", sorted(READERS))
def test_every_mutant_returns_or_names_its_file(files, kind):
    original = files[kind]
    mutant = original.with_name("mutant" + original.suffix)
    failures = []
    for what, blob in mutants(original.read_bytes(), random.Random(kind)):
        mutant.write_bytes(blob)
        try:
            READERS[kind](mutant)
        except (FormatError, FileNotFoundError) as exc:
            if str(mutant) not in str(exc):
                failures.append(f"{what}: {type(exc).__name__}: {exc}")
        except Exception as exc:  # any other error breaks the contract
            failures.append(f"{what}: {type(exc).__name__}: {exc}")
    mutant.unlink()
    assert not failures, (f"{len(failures)} mutants of the {kind} broke the contract:\n"
                          + "\n".join(failures[:10]))
