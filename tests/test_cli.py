import dataclasses
import gc
import hashlib
import io
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import typing
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from f0synth.anonymize import POOL_COLUMNS, SpeakerPool, load_pool, pool_from_dataset, write_pool
from f0synth.cli import (
    ANON_LOG_COLUMNS,
    KEYS,
    ConfigError,
    RunConfig,
    build_config,
    cmd_anonymize,
    cmd_eval,
    cmd_synthgen,
    cmd_train,
    main,
    parse_config_text,
    section_config,
)
from f0synth.featureio import (
    MANIFEST_COLUMNS,
    Dataset,
    NormStats,
    load_manifest,
    read_csv,
    read_feature_file,
    write_dataset,
    write_feature_file,
)
from f0synth import anonymize as anon
from f0synth import cli, metrics, synthgen
from f0synth.metrics import REPORT_COLUMNS, evaluate_utterances, report_csv_row
from f0synth.model import (ModelConfig, ModelParams, init_params, load_checkpoint, predict_f0,
                           save_checkpoint)
from f0synth.synthgen import DATASET_ROLES, SynthSpec
from f0synth.training import HISTORY_COLUMNS, TrainConfig


def config_for(out_dir, **values):
    values = {k: str(v) for k, v in values.items()}
    values["out_dir"] = str(out_dir)
    return RunConfig(values)


@dataclasses.dataclass
class CliResult:
    exit_code: int
    output: str


def run_cli(args):
    """Run ``main(args)``: its exit code and its stdout and stderr, interleaved.

    Bad input and usage errors exit through ``SystemExit``; any other
    exception propagates.
    """
    output = io.StringIO()
    with redirect_stdout(output), redirect_stderr(output):
        try:
            main(args)
            exit_code = 0
        except SystemExit as exc:
            exit_code = exc.code
    return CliResult(exit_code, output.getvalue())


WORLD_KEYS = {
    "seed": 5,
    "synth.n_speakers_per_gender": 3,
    "synth.utts_per_speaker": 3,
    "synth.frames_per_utt": 120,
    "synth.d_bn": 6,
    "synth.d_xv": 3,
}


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    cmd_synthgen(config_for(out, **WORLD_KEYS))
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, world_dir):
    out = tmp_path_factory.mktemp("trained")
    cmd_train(config_for(
        out,
        **{"seed": 5,
           "train.manifest": world_dir / "train" / "manifest.csv",
           "train.val_manifest": world_dir / "validation" / "manifest.csv",
           "model.hidden_sizes": "24,12",
           "train.batch_size": 512,
           "train.lr": 0.003,
           "train.max_epochs": 6}))
    return out


def checkpoint_with(trained_dir: Path, path: Path, field: str, value: float) -> Path:
    """Write at ``path`` the trained checkpoint with its dropout, first input mean or
    log-F0 mean replaced."""
    data = bytearray((trained_dir / "checkpoint.f0md").read_bytes())
    n_layers, input_dim = struct.unpack_from("<II", data, 8)
    offset = 16 + 4 * n_layers + {"dropout": 0, "input_mean": 8,
                                  "logf0_mean": 8 + 16 * input_dim}[field]
    struct.pack_into("<d", data, offset, value)
    path.write_bytes(bytes(data))
    return path


def absolute_rows(manifest: Path) -> list[str]:
    """A manifest's lines with its feature paths made absolute, header first."""
    lines = manifest.read_text().splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        fields[3:] = [str(manifest.parent / p) for p in fields[3:]]
        rows.append(",".join(fields))
    return rows


def write_manifest(path: Path, rows: list[str]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(rows) + "\n")
    return path


def gone_manifest(tmp_path: Path, world_dir: Path) -> Path:
    """A copy of the test manifest in a directory that holds none of its feature files."""
    return write_manifest(tmp_path / "gone" / "manifest.csv",
                          (world_dir / "test" / "manifest.csv").read_text().splitlines())


def tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class TestConfigParsing:
    def test_comments_blanks_and_values(self):
        text = "# a comment\n\nseed = 7\n  train.lr=0.001  \n"
        assert parse_config_text(text) == {"seed": "7", "train.lr": "0.001"}

    def test_bad_line_rejected_with_location(self):
        with pytest.raises(ConfigError, match="cfg:2"):
            parse_config_text("seed = 1\nnot a pair\n", source="cfg")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("= 5\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig({"train.typo": "1"})

    def test_overrides_and_shortcuts_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\ntrain.lr = 0.01\nout_dir = from_file\n")
        config = build_config(str(cfg), overrides=("train.lr=0.5",),
                              seed=9, out_dir="from_flag")
        assert config.seed == 9
        assert config["train.lr"] == 0.5
        assert config.out_dir == Path("from_flag")

    def test_missing_config_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            build_config("/nonexistent/run.cfg")

    def test_non_utf8_config_file_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 1\nout_dir = x\xff\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: 'utf-8' codec")):
            build_config(str(path))

    def test_config_file_with_a_byte_order_mark_reads(self, tmp_path):
        # Windows editors write a UTF-8 BOM; one leading BOM is dropped.
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbf# comment\nseed = 3\nout_dir = x\n")
        assert build_config(str(path)).values == {"seed": "3", "out_dir": "x"}
        path.write_bytes(b"\xef\xbb\xbfseed = 3\n")
        assert build_config(str(path)).seed == 3
        # A BOM anywhere else is part of the text.
        path.write_bytes(b"out_dir = x\n\xef\xbb\xbfseed = 3\n")
        with pytest.raises(ConfigError, match=re.escape("unknown config keys: ['\\ufeffseed']")):
            build_config(str(path))

    def test_bad_set_syntax_rejected(self):
        with pytest.raises(ConfigError, match="--set"):
            build_config(None, overrides=("seedless",))

    def test_typed_accessors(self):
        config = RunConfig({"seed": "3", "train.lr": "0.25",
                            "model.hidden_sizes": "8,4", "out_dir": "x"})
        assert config["seed"] == 3
        assert config["train.lr"] == 0.25
        assert config["model.hidden_sizes"] == [8, 4]
        assert config["train.batch_size"] == TrainConfig.batch_size
        with pytest.raises(ConfigError, match="missing required"):
            config["train.manifest"]

    def test_bad_typed_value_rejected(self):
        config = RunConfig({"seed": "x", "out_dir": "d"})
        with pytest.raises(ConfigError, match="not an integer"):
            config["seed"]
        with pytest.raises(ConfigError, match=re.escape(
                "config key 'train.lr': 'fast' is not a number")):
            RunConfig({"train.lr": "fast"})["train.lr"]
        # Every comma-separated item must be an integer: none is dropped.
        for value in ("64,,32", "64,", ","):
            config = RunConfig({"model.hidden_sizes": value})
            with pytest.raises(ConfigError, match=re.escape(
                    f"config key 'model.hidden_sizes': {value!r} is not a "
                    "comma-separated integer list")):
                config["model.hidden_sizes"]


class TestKeys:
    @pytest.mark.parametrize("key", sorted(KEYS))
    def test_unset_key_reads_its_default(self, key):
        if KEYS[key] is None:
            for values in ({}, {key: ""}):  # set empty counts as unset
                with pytest.raises(ConfigError, match=re.escape(
                        f"missing required config key {key!r}")):
                    RunConfig(values)[key]
        else:
            assert RunConfig({})[key] == KEYS[key]

    @pytest.mark.parametrize("key", sorted(KEYS))
    def test_set_key_reads_as_its_default_type(self, key):
        text, value = {int: ("7", 7), float: ("7", 7.0),
                       list: ("3,2", [3, 2])}.get(type(KEYS[key]), (" a/b;c ", " a/b;c "))
        read = RunConfig({key: text})[key]
        assert read == value and type(read) is type(value)

    def test_unset_anonymize_keys_read_the_selection_defaults(self):
        config = RunConfig({})
        assert config["anonymize.gender_mode"] == anon.DEFAULT_GENDER_MODE
        assert config["anonymize.n"] == anon.DEFAULT_N_FURTHEST
        assert config["anonymize.k"] == anon.DEFAULT_K_AVERAGED

    def test_unset_list_read_is_a_fresh_list(self):
        config = RunConfig({})
        config["model.hidden_sizes"].append(1)
        assert config["model.hidden_sizes"] == ModelConfig(input_dim=1).hidden_sizes
        built = section_config(config, "model", input_dim=7).hidden_sizes
        assert built is not KEYS["model.hidden_sizes"]
        assert built == KEYS["model.hidden_sizes"]


SECTION_CLASSES = {"synth": SynthSpec, "model": ModelConfig, "train": TrainConfig}


class TestConfigDefaults:
    def test_no_section_keys_gives_dataclass_defaults(self):
        config = RunConfig({"out_dir": "x"})
        assert section_config(config, "synth", seed=config.seed) == SynthSpec()
        assert section_config(config, "model", input_dim=7) == ModelConfig(input_dim=7)
        assert section_config(config, "train", seed=config.seed) == TrainConfig()

    def test_every_number_field_has_a_key_that_reaches_it(self):
        fixed = {"synth": {}, "model": {"input_dim": 7}, "train": {}}
        for section, cls in SECTION_CLASSES.items():
            default = cls(**fixed[section])
            hints = typing.get_type_hints(cls)
            for f in dataclasses.fields(cls):
                key = f"{section}.{f.name}"
                has_default = (f.default, f.default_factory) != (dataclasses.MISSING,) * 2
                assert (key in KEYS) == (has_default and f.name != "seed"), key
                if key not in KEYS:
                    continue
                old = getattr(default, f.name)
                assert KEYS[key] == old, key
                # The default's type is one config[key] converts: its text reads back as it.
                text = ",".join(map(str, old)) if isinstance(old, list) else str(old)
                back = RunConfig({key: text})[key]
                assert back == old and type(back) is type(old), key
                kind = hints[f.name]
                if kind not in (int, float, list[int]):
                    continue
                if kind is int:
                    new, text = old + 1, str(old + 1)
                elif kind is float:
                    new = old / 2 if old else 0.125
                    text = repr(new)
                else:
                    new, text = [3, 2], "3,2"
                built = section_config(RunConfig({key: text}), section, **fixed[section])
                assert getattr(built, f.name) == new, key


class TestSynthgenCommand:
    def test_outputs_on_disk(self, world_dir):
        for role in ("train", "validation", "test"):
            manifest = world_dir / role / "manifest.csv"
            assert manifest.is_file()
            ds = load_manifest(manifest)
            assert len(ds) == 18
        pool = world_dir / "pool.csv"
        assert pool.is_file()
        assert pool.read_text().splitlines()[0] == \
            "speaker_id,gender,xvec_path,f0_mean,f0_std"

    def test_pool_equals_pool_of_written_train_role(self, tmp_path, world_dir):
        # the pool is built from the in-memory train role before later roles
        # exist; it must match one built from the train files on disk
        write_pool(pool_from_dataset(load_manifest(world_dir / "train" / "manifest.csv")),
                   tmp_path)
        assert (tmp_path / "pool.csv").read_bytes() == (world_dir / "pool.csv").read_bytes()
        assert tree_hash(tmp_path / "pool_xvecs") == tree_hash(world_dir / "pool_xvecs")

    def test_roles_share_no_utt_id(self, world_dir):
        ids = [{u.utt_id for u in load_manifest(world_dir / role / "manifest.csv").utterances}
               for role in DATASET_ROLES]
        assert len(set().union(*ids)) == sum(len(role_ids) for role_ids in ids) == 3 * 18

    def test_regeneration_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cmd_synthgen(config_for(a, **WORLD_KEYS))
        cmd_synthgen(config_for(b, **WORLD_KEYS))
        assert tree_hash(a) == tree_hash(b)

    def test_different_seed_differs(self, tmp_path, world_dir):
        other = tmp_path / "other"
        keys = dict(WORLD_KEYS, seed=6)
        cmd_synthgen(config_for(other, **keys))
        assert tree_hash(other) != tree_hash(world_dir)

    def test_invalid_out_dir_fails_nonzero(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where a directory must go")
        result = run_cli(["synthgen", "--out-dir", str(blocker)])
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_world_without_pool_fails_before_writing(self, tmp_path):
        out = tmp_path / "w"
        keys = dict(WORLD_KEYS, **{"synth.frames_per_utt": 1, "synth.utts_per_speaker": 1})
        with pytest.raises(ValueError, match="voiced frames, need >= 2"):
            cmd_synthgen(config_for(out, **keys))
        assert not (out / "train").exists()
        assert not out.exists()

    @pytest.mark.parametrize("key, field", [
        ("synth.weight_scale", "weight_scale"),
        ("synth.voicing_threshold", "voicing_threshold"),
        ("synth.noise_std_cents", "noise_std_cents"),
        ("synth.base_f0_male", "base_f0"),
    ])
    def test_non_finite_float_fails_naming_key_before_writing(self, tmp_path, key, field):
        out = tmp_path / "w"
        result = run_cli(["synthgen", "--out-dir", str(out),
                                           "--set", f"{key}=nan"])
        assert result.exit_code == 1
        assert f"error: {field}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("synth.base_f0_female", "0"),
                                            ("synth.base_f0_male", "nan")])
    def test_bad_base_f0_fails_naming_field_before_writing(self, tmp_path, key, value):
        out = tmp_path / "w"
        result = run_cli(["synthgen", "--out-dir", str(out),
                                           "--set", f"{key}={value}"])
        assert result.exit_code == 1
        assert f"error: {key.removeprefix('synth.')} must be positive and finite" \
            in result.output
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key, value", [("synth.base_f0_female", "1e308"),
                                            ("synth.weight_scale", "1e308"),
                                            ("synth.weight_scale", "300")])
    def test_f0_overflow_fails_naming_key_before_writing(self, tmp_path, key, value):
        out = tmp_path / "w"
        args = ["synthgen", "--out-dir", str(out), "--set", f"{key}={value}"]
        for world_key, world_value in WORLD_KEYS.items():
            args += ["--set", f"{world_key}={world_value}"]
        result = run_cli(args)
        assert result.exit_code == 1
        assert result.output.startswith("error: the train role's F0 overflows float32: lower ")
        assert f"{key} ({float(value):g})" in result.output
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("existing", [False, True])
    def test_later_role_overflow_removes_the_roles_written(self, tmp_path, existing):
        # at this seed and scale the train role fits float32, the validation role does not
        out = tmp_path / "new" / "w"
        if existing:
            out.mkdir(parents=True)
            (out / "notes.txt").write_text("kept\n")
        result = run_cli(["synthgen", "--out-dir", str(out), "--seed", "6",
                          "--set", "synth.n_speakers_per_gender=3",
                          "--set", "synth.utts_per_speaker=3",
                          "--set", "synth.frames_per_utt=120",
                          "--set", "synth.weight_scale=20"])
        assert result.exit_code == 1
        assert result.output.startswith("error: the validation role's F0 overflows float32: ")
        if existing:
            assert [p.name for p in out.iterdir()] == ["notes.txt"]
        else:
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", [False, True])
    def test_write_failing_in_a_later_train_block_removes_what_it_wrote(
            self, tmp_path, monkeypatch, existing):
        # One speaker's 3 utterances a block: the train role is 6 blocks, and
        # the 37th file written is the 5th block's first.
        monkeypatch.setattr(synthgen, "WALK_BLOCK_VALUES", 1)
        drawn = []
        block_walks = synthgen._block_walks
        monkeypatch.setattr(synthgen, "_block_walks",
                            lambda rngs, *args: drawn.append(len(rngs)) or block_walks(rngs, *args))
        written = []

        def failing_write(path, values):
            if len(written) == 36:
                raise OSError(28, "No space left on device", path)
            write_feature_file(path, values)
            written.append(path)

        monkeypatch.setattr("f0synth.featureio.write_feature_file", failing_write)
        out = tmp_path / "new" / "w"
        if existing:
            out.mkdir(parents=True)
            (out / "notes.txt").write_text("kept\n")
        result = run_cli(["synthgen", "--out-dir", str(out),
                          *(arg for key, value in WORLD_KEYS.items()
                            for arg in ("--set", f"{key}={value}"))])
        assert result.exit_code == 1
        assert result.output.startswith("error: [Errno 28] No space left on device")
        assert drawn == [3] * 5, "each block's files are written before the next is drawn"
        if existing:
            assert [p.name for p in out.iterdir()] == ["notes.txt"]
        else:
            assert list(tmp_path.iterdir()) == []

    def test_cli_exit_zero_on_success(self, tmp_path):
        result = run_cli([
            "synthgen", "--out-dir", str(tmp_path / "w"), "--seed", "1",
            "--set", "synth.n_speakers_per_gender=1",
            "--set", "synth.utts_per_speaker=1",
            "--set", "synth.frames_per_utt=30",
            "--set", "synth.d_bn=2", "--set", "synth.d_xv=1"])
        assert result.exit_code == 0, result.output
        assert "pool:" in result.output


class TestTrainCommand:
    def test_outputs_and_history_shape(self, trained_dir):
        history = (trained_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_metric,lr,event"
        assert len(history) >= 2
        params, config = load_checkpoint(trained_dir / "checkpoint.f0md")
        assert config.hidden_sizes == [24, 12]
        assert params.input_dim == 9  # d_xv 3 + d_bn 6

    def test_single_epoch_gives_single_row(self, tmp_path, world_dir):
        out = tmp_path / "one"
        cmd_train(config_for(
            out,
            **{"train.manifest": world_dir / "train" / "manifest.csv",
               "train.val_manifest": world_dir / "validation" / "manifest.csv",
               "model.hidden_sizes": "8",
               "train.batch_size": 1024,
               "train.max_epochs": 1}))
        assert len((out / "history.csv").read_text().splitlines()) == 2

    def test_rerun_identical_history(self, tmp_path, world_dir, trained_dir):
        out = tmp_path / "again"
        cmd_train(config_for(
            out,
            **{"seed": 5,
               "train.manifest": world_dir / "train" / "manifest.csv",
               "train.val_manifest": world_dir / "validation" / "manifest.csv",
               "model.hidden_sizes": "24,12",
               "train.batch_size": 512,
               "train.lr": 0.003,
               "train.max_epochs": 6}))
        assert (out / "history.csv").read_bytes() == \
            (trained_dir / "history.csv").read_bytes()
        assert (out / "checkpoint.f0md").read_bytes() == \
            (trained_dir / "checkpoint.f0md").read_bytes()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_alpha_fails_naming_epoch_without_outputs(self, tmp_path, world_dir):
        out = tmp_path / "run"
        result = run_cli([
            "train", "--out-dir", str(out),
            "--set", f"train.manifest={world_dir / 'train' / 'manifest.csv'}",
            "--set", f"train.val_manifest={world_dir / 'validation' / 'manifest.csv'}",
            "--set", "model.hidden_sizes=8,4", "--set", "train.max_epochs=3",
            "--set", "train.alpha=1e308"])
        assert result.exit_code == 1
        assert result.output.startswith("error: epoch 1 (train.alpha 1e+308, train.lr 0.0003): ")
        # out_dir is made before training, and removed when training fails
        assert not out.exists()

    def test_overflowing_lr_removes_only_the_directories_it_made(self, tmp_path, world_dir):
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("kept")
        result = run_cli([
            "train", "--out-dir", str(kept / "a" / "run"),
            "--set", f"train.manifest={world_dir / 'train' / 'manifest.csv'}",
            "--set", f"train.val_manifest={world_dir / 'validation' / 'manifest.csv'}",
            "--set", "model.hidden_sizes=8,4", "--set", "train.max_epochs=3",
            "--set", "train.lr=1e308"])
        assert result.exit_code == 1
        assert result.output.startswith("error: epoch 1 (train.alpha 28.112, train.lr 1e+308): ")
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]
        assert (kept / "notes.txt").read_text() == "kept"

    def test_file_as_out_dir_fails_before_training(self, tmp_path, world_dir, monkeypatch):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where a directory must go")

        def must_not_train(*args, **kwargs):
            raise AssertionError("train ran before out_dir was checked")

        monkeypatch.setattr("f0synth.cli.train", must_not_train)
        with pytest.raises(FileExistsError):
            cmd_train(config_for(
                blocker,
                **{"train.manifest": world_dir / "train" / "manifest.csv",
                   "train.val_manifest": world_dir / "validation" / "manifest.csv"}))

    @pytest.mark.parametrize("key", ["train.lr", "train.alpha"])
    def test_non_finite_float_fails_naming_key_before_training(self, tmp_path, world_dir,
                                                               monkeypatch, key):
        def must_not_train(*args, **kwargs):
            raise AssertionError("train ran with a non-finite setting")

        monkeypatch.setattr("f0synth.cli.train", must_not_train)
        # Feature files that do not exist: the setting must fail before any is read.
        manifest = gone_manifest(tmp_path, world_dir)
        out = tmp_path / "out"
        result = run_cli([
            "train", "--out-dir", str(out),
            "--set", f"train.manifest={manifest}",
            "--set", f"train.val_manifest={manifest}",
            "--set", f"{key}=nan"])
        assert result.exit_code == 1
        assert f"error: {key.removeprefix('train.')} must be positive and finite" \
            in result.output
        assert not out.exists()

    @pytest.mark.parametrize("key, value, error", [
        ("model.hidden_sizes", "0", "hidden_sizes must be"),
        ("train.manifest", "none.csv", "No such file"),
    ], ids=["model_key", "missing_manifest"])
    def test_bad_model_key_or_train_manifest_fails_before_out_dir(
            self, tmp_path, world_dir, key, value, error):
        out = tmp_path / "out"
        with pytest.raises((ValueError, OSError), match=error):
            cmd_train(config_for(
                out, **{"train.manifest": world_dir / "train" / "manifest.csv",
                        "train.val_manifest": world_dir / "validation" / "manifest.csv",
                        key: tmp_path / value if key == "train.manifest" else value}))
        assert not out.exists()

    def test_empty_val_manifest_named(self, tmp_path, world_dir):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(MANIFEST_COLUMNS) + "\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(empty))}: empty dataset"):
            cmd_train(config_for(
                tmp_path / "out",
                **{"train.manifest": world_dir / "train" / "manifest.csv",
                   "train.val_manifest": empty}))

    def test_val_manifest_of_other_width_named_before_training(self, tmp_path, world_dir,
                                                               monkeypatch):
        monkeypatch.setattr("f0synth.cli.train", lambda *args: pytest.fail("trained"))
        val = load_manifest(world_dir / "validation" / "manifest.csv")
        narrow = write_dataset(Dataset([dataclasses.replace(u, bn=u.bn[:, :4])
                                        for u in val.utterances]), tmp_path / "narrow")
        with pytest.raises(ValueError, match=re.escape(
                f"{narrow}: d_xv + d_bn = 7 of the validation manifest "
                f"!= 9 of the train manifest")):
            cmd_train(config_for(
                tmp_path / "out",
                **{"train.manifest": world_dir / "train" / "manifest.csv",
                   "train.val_manifest": narrow}))

    @pytest.mark.parametrize("bad", ["missing", "narrow"])
    def test_bad_val_manifest_fails_before_out_dir(self, tmp_path, world_dir, bad):
        if bad == "missing":
            val_manifest = tmp_path / "nope" / "manifest.csv"
        else:
            val = load_manifest(world_dir / "validation" / "manifest.csv")
            val_manifest = write_dataset(Dataset([dataclasses.replace(u, bn=u.bn[:, :4])
                                                  for u in val.utterances]), tmp_path / "narrow")
        out = tmp_path / "run"
        result = run_cli([
            "train", "--out-dir", str(out),
            "--set", f"train.manifest={world_dir / 'train' / 'manifest.csv'}",
            "--set", f"train.val_manifest={val_manifest}"])
        assert result.exit_code == 1
        assert str(val_manifest) in result.output
        assert not out.exists()

    @pytest.mark.parametrize("role", ["train", "validation"])
    def test_manifest_without_usable_frames_fails_before_out_dir(self, tmp_path, world_dir,
                                                                 role):
        # Train utterances all unvoiced, or validation utterances of 0 frames.
        utts = load_manifest(world_dir / role / "manifest.csv").utterances
        if role == "train":
            bad = [dataclasses.replace(u, f0=np.zeros_like(u.f0)) for u in utts]
        else:
            bad = [dataclasses.replace(u, f0=u.f0[:0], bn=u.bn[:0]) for u in utts]
        manifest = write_dataset(Dataset(bad), tmp_path / role)
        manifests = {"train": world_dir / "train" / "manifest.csv",
                     "validation": world_dir / "validation" / "manifest.csv", role: manifest}
        out = tmp_path / "run"
        result = run_cli([
            "train", "--out-dir", str(out),
            "--set", f"train.manifest={manifests['train']}",
            "--set", f"train.val_manifest={manifests['validation']}"])
        assert result.exit_code == 1
        assert f"error: {manifest}: the {role} manifest has no" in result.output
        assert not out.exists()

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="before 3.11 a caller holds its call's arguments until return")
    def test_validation_dataset_not_kept_during_training(self, tmp_path, world_dir,
                                                         monkeypatch):
        def fake_train(table, val_dataset, model_config, train_config):
            ref = weakref.ref(val_dataset)
            del val_dataset
            gc.collect()
            assert ref() is None, "cmd_train still holds the validation Dataset"
            raise RuntimeError("stop after the check")

        monkeypatch.setattr("f0synth.cli.train", fake_train)
        with pytest.raises(RuntimeError, match="stop after the check"):
            cmd_train(config_for(
                tmp_path / "out",
                **{"train.manifest": world_dir / "train" / "manifest.csv",
                   "train.val_manifest": world_dir / "validation" / "manifest.csv"}))

    def test_missing_manifest_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cmd_train(config_for(
                tmp_path, **{"train.manifest": tmp_path / "none.csv",
                             "train.val_manifest": tmp_path / "none.csv"}))


class TestEvalCommand:
    def test_truth_against_itself_is_perfect(self, tmp_path, world_dir):
        manifest = world_dir / "test" / "manifest.csv"
        result = cmd_eval(config_for(
            tmp_path / "self",
            **{"eval.manifest": manifest, "eval.pred_manifest": manifest}))
        lines = (tmp_path / "self" / "metrics.csv").read_text().splitlines()
        assert lines[0] == ("dataset,sex,gpe,fpe,accuracy,precision,recall,"
                            "accurately_processed,rho_f0")
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[2] == "0.0"     # gpe
            assert fields[4] == "100.0"   # accuracy
        assert {"F", "M", "all"} == set(result["reports"])
        assert result["reports"]["all"].accurately_processed == 1.0

    def test_checkpoint_mode_runs(self, tmp_path, world_dir, trained_dir):
        result = cmd_eval(config_for(
            tmp_path / "ck",
            **{"eval.manifest": world_dir / "test" / "manifest.csv",
               "eval.checkpoint": trained_dir / "checkpoint.f0md"}))
        report = result["reports"]["all"]
        assert report.accurately_processed is not None
        assert 0.0 <= report.accurately_processed <= 1.0

    def test_each_utterance_scored_once(self, tmp_path, world_dir, trained_dir, monkeypatch):
        manifest = world_dir / "test" / "manifest.csv"
        checkpoint = trained_dir / "checkpoint.f0md"
        sources = load_manifest(manifest)
        params, _ = load_checkpoint(checkpoint)
        pred = {u.utt_id: predict_f0(params, u.features())[0] for u in sources.utterances}
        truth = {u.utt_id: u.f0 for u in sources.utterances}
        expected = []
        for sex in ("F", "M", "all"):
            ids = [u.utt_id for u in sources.utterances if sex in ("all", u.gender.value)]
            report = evaluate_utterances({k: pred[k] for k in ids}, {k: truth[k] for k in ids})
            expected.append(",".join(report_csv_row("test", sex, report)))
        calls = []
        for name in ("pitch_error_counts", "pitch_correlation"):
            original = getattr(metrics, name)
            monkeypatch.setattr(metrics, name, lambda *args, original=original, name=name:
                                calls.append(name) or original(*args))
        cmd_eval(config_for(tmp_path / "ck", **{"eval.manifest": manifest,
                                                "eval.checkpoint": checkpoint}))
        assert sorted(calls) == (["pitch_correlation"] * len(sources)
                                 + ["pitch_error_counts"] * len(sources))
        assert (tmp_path / "ck" / "metrics.csv").read_text().splitlines()[1:] == expected

    def test_reversed_rows_give_the_same_metrics_bytes(self, tmp_path, world_dir, trained_dir):
        manifest = world_dir / "test" / "manifest.csv"
        rows = absolute_rows(manifest)
        reversed_rows = write_manifest(tmp_path / "rev" / "manifest.csv", rows[:1] + rows[:0:-1])
        for out, truth in (("ordered", manifest), ("reversed", reversed_rows)):
            cmd_eval(config_for(tmp_path / out, **{"eval.manifest": truth,
                                                   "eval.checkpoint": trained_dir / "checkpoint.f0md"}))
        assert ((tmp_path / "reversed" / "metrics.csv").read_bytes()
                == (tmp_path / "ordered" / "metrics.csv").read_bytes())

    @pytest.mark.filterwarnings("error")
    def test_overflowing_f0_names_checkpoint_and_utterance(self, tmp_path, world_dir,
                                                           trained_dir):
        ckpt = checkpoint_with(trained_dir, tmp_path / "big.f0md", "logf0_mean", 1000.0)
        manifest = world_dir / "test" / "manifest.csv"
        first = load_manifest(manifest).utterances[0].utt_id
        out = tmp_path / "out"
        result = run_cli(["eval", "--out-dir", str(out), "--set", f"eval.manifest={manifest}",
                          "--set", f"eval.checkpoint={ckpt}"])
        assert result.exit_code == 1
        assert result.output.startswith(f"error: {ckpt}: utterance '{first}': predicted F0 "
                                        f"overflows float64 (log-F0 mean 1000, std ")
        assert not out.exists()

    def test_checkpoint_width_mismatch_rejected(self, tmp_path, world_dir):
        ckpt = tmp_path / "narrow.f0md"
        save_checkpoint(ckpt, zero_params(input_dim=7))  # world: d_xv 3 + d_bn 6
        with pytest.raises(ValueError, match=f"{re.escape(str(ckpt))}: checkpoint "
                           r"input width 7 != d_xv \+ d_bn = 9"):
            cmd_eval(config_for(tmp_path / "out",
                                **{"eval.manifest": world_dir / "test" / "manifest.csv",
                                   "eval.checkpoint": ckpt}))

    def test_bad_dropout_checkpoint_names_file(self, tmp_path, world_dir, trained_dir):
        ckpt = checkpoint_with(trained_dir, tmp_path / "dropout.f0md", "dropout", 0.9)
        out = tmp_path / "out"
        result = run_cli([
            "eval", "--out-dir", str(out),
            "--set", f"eval.manifest={world_dir / 'test' / 'manifest.csv'}",
            "--set", f"eval.checkpoint={ckpt}"])
        assert result.exit_code == 1
        assert f"error: {ckpt}: dropout must be in [0, 0.5]" in result.output
        assert not out.exists()

    def test_exactly_one_prediction_source(self, tmp_path, world_dir, trained_dir):
        manifest = world_dir / "test" / "manifest.csv"
        with pytest.raises(ConfigError, match="exactly one"):
            cmd_eval(config_for(tmp_path, **{"eval.manifest": manifest}))
        with pytest.raises(ConfigError, match="exactly one"):
            cmd_eval(config_for(tmp_path, **{"eval.manifest": manifest, "eval.checkpoint": ""}))
        with pytest.raises(ConfigError, match="exactly one"):
            cmd_eval(config_for(
                tmp_path,
                **{"eval.manifest": manifest,
                   "eval.pred_manifest": manifest,
                   "eval.checkpoint": trained_dir / "checkpoint.f0md"}))

    @pytest.mark.parametrize("keys, words", [
        (("eval.pred_manifest",), "missing required config key 'out_dir'"),
        (("out_dir",), "exactly one"),
        (("out_dir", "eval.pred_manifest", "eval.checkpoint"), "exactly one"),
    ], ids=["no_out_dir", "no_source", "two_sources"])
    def test_settings_fail_before_data_is_read(self, tmp_path, world_dir, trained_dir,
                                               keys, words):
        # Feature files that do not exist: the setting must fail before any is read.
        manifest = gone_manifest(tmp_path, world_dir)
        optional = {"out_dir": tmp_path / "out", "eval.pred_manifest": manifest,
                    "eval.checkpoint": trained_dir / "checkpoint.f0md"}
        values = {"eval.manifest": manifest, **{key: optional[key] for key in keys}}
        with pytest.raises(ConfigError, match=words):
            cmd_eval(RunConfig({key: str(value) for key, value in values.items()}))

    @pytest.mark.parametrize("kept, extra_rows", [(2, 0), (None, 2)],
                             ids=["missing", "extra"])
    def test_pred_ids_must_match_truth(self, tmp_path, world_dir, kept, extra_rows):
        truth = world_dir / "test" / "manifest.csv"
        rows = absolute_rows(truth)[:None if kept is None else kept + 1]
        rows += absolute_rows(world_dir / "validation" / "manifest.csv")[1:1 + extra_rows]
        pred = write_manifest(tmp_path / "pred" / "manifest.csv", rows)
        truth_ids = sorted(line.split(",")[0] for line in absolute_rows(truth)[1:])
        pred_ids = sorted(line.split(",")[0] for line in rows[1:])
        missing = sorted(set(truth_ids) - set(pred_ids))[:5]
        extra = sorted(set(pred_ids) - set(truth_ids))[:5]
        assert (len(missing), len(extra)) == ((5, 0) if kept else (0, 2))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=re.escape(
                f"{pred}: unmatched utt_ids (missing {missing}, extra {extra})")):
            cmd_eval(config_for(out, **{"eval.manifest": truth, "eval.pred_manifest": pred}))
        assert not out.exists()

    def test_pred_frame_count_must_match_truth(self, tmp_path, world_dir):
        truth = world_dir / "test" / "manifest.csv"
        utts = load_manifest(truth).utterances
        short = utts[2]
        utts[2] = dataclasses.replace(short, f0=short.f0[:100], bn=short.bn[:100])
        pred = write_dataset(Dataset(utts), tmp_path / "pred")
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=re.escape(
                f"{pred}: utterance '{short.utt_id}': length mismatch: "
                f"pred 100 vs truth {len(short.f0)}")):
            cmd_eval(config_for(out, **{"eval.manifest": truth, "eval.pred_manifest": pred}))
        assert not out.exists()

    def test_comma_in_dataset_name_fails_without_metrics(self, tmp_path, world_dir,
                                                         trained_dir, monkeypatch):
        calls = []
        monkeypatch.setattr("f0synth.cli.predict_f0",
                            lambda *args: calls.append(args) or predict_f0(*args))
        manifest = world_dir / "test" / "manifest.csv"
        out = tmp_path / "out"
        result = run_cli([
            "eval", "--out-dir", str(out),
            "--set", f"eval.manifest={manifest}",
            "--set", f"eval.checkpoint={trained_dir / 'checkpoint.f0md'}",
            "--set", "eval.dataset_name=test,v2"])
        assert result.exit_code == 1
        assert "error: eval.dataset_name 'test,v2' is not one CSV field" in result.output
        assert calls == []
        assert not out.exists()

    def test_empty_manifest_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("utt_id,speaker_id,gender,f0_path,bn_path,xvec_path\n")
        result = run_cli([
            "eval", "--out-dir", str(tmp_path / "out"),
            "--set", f"eval.manifest={empty}",
            "--set", f"eval.pred_manifest={empty}"])
        assert result.exit_code == 1
        assert "empty dataset" in result.output


def anon_config(out, world_dir, trained_dir=None, **extra):
    values = {
        "anonymize.manifest": world_dir / "test" / "manifest.csv",
        "anonymize.pool": world_dir / "pool.csv",
        "anonymize.n": 2,
        "anonymize.k": 2,
    }
    if trained_dir is not None:
        values["anonymize.checkpoint"] = trained_dir / "checkpoint.f0md"
    values.update(extra)
    return config_for(out, **values)


class TestAnonymizeCommand:
    def test_outputs_and_log_format(self, tmp_path, world_dir, trained_dir, capsys):
        out = tmp_path / "anon"
        result = cmd_anonymize(anon_config(out, world_dir, trained_dir, seed=9))
        printed = capsys.readouterr().out
        assert "synthesis throughput (predict_f0 only): " in printed
        assert "anonymize throughput (per-utterance loop: synthesis, writes, rho_f0): " in printed
        sources = load_manifest(world_dir / "test" / "manifest.csv")
        lines = (out / "anon_log.csv").read_text().splitlines()
        assert lines[0] == "utt_id,mode,chosen_ids,tgt_mean,tgt_std"
        assert len(lines) == len(sources) + 1
        for utt, line in zip(sources.utterances, lines[1:]):
            fields = line.split(",")
            assert fields[0] == utt.utt_id
            assert fields[1] == "Ours"
            chosen = fields[2].split(";")
            assert len(chosen) == 2
            assert all(cid[0] == utt.gender.value for cid in chosen)
            assert float(fields[3]) > 0 and float(fields[4]) > 0
            assert (out / "f0_out" / f"{utt.utt_id}.f0").is_file()
            assert (out / "xvec_out" / f"{utt.utt_id}.xvec").is_file()
        assert result["frames_per_second"] > 0
        assert 0 < result["loop_frames_per_second"] < result["frames_per_second"]

    def test_log_stats_are_the_pseudo_speakers_at_ten_digits(self, tmp_path, world_dir):
        out = tmp_path / "anon"
        cmd_anonymize(anon_config(out, world_dir, seed=9, **{"anonymize.method": "shift_scale",
                                                             "anonymize.n": 3}))
        pool = anon.load_pool(world_dir / "pool.csv")
        sources = load_manifest(world_dir / "test" / "manifest.csv").utterances
        rows = [fields for _, fields in read_csv(out / "anon_log.csv", ANON_LOG_COLUMNS)]
        assert len(rows) == len(sources)
        for i, (utt, row) in enumerate(zip(sources, rows)):
            stats = anon.select_pseudo_speaker(pool, utt.xvec, utt.gender, n=3, k=2,
                                               seed=[9, i]).stats
            assert row[3:] == [f"{stats.mean:.10g}", f"{stats.std:.10g}"]

    def test_same_seed_reproduces_outputs(self, tmp_path, world_dir, trained_dir):
        a = cmd_anonymize(anon_config(tmp_path / "a", world_dir, trained_dir, seed=9))
        b = cmd_anonymize(anon_config(tmp_path / "b", world_dir, trained_dir, seed=9))
        assert (tmp_path / "a" / "anon_log.csv").read_bytes() == \
            (tmp_path / "b" / "anon_log.csv").read_bytes()
        assert tree_hash(tmp_path / "a" / "f0_out") == tree_hash(tmp_path / "b" / "f0_out")

    def test_c1_synthesis_equals_predict_under_original_xvec(
            self, tmp_path, world_dir, trained_dir):
        out = tmp_path / "c1"
        cmd_anonymize(anon_config(out, world_dir, trained_dir,
                                  **{"anonymize.mode": "C1"}))
        params, _ = load_checkpoint(trained_dir / "checkpoint.f0md")
        sources = load_manifest(world_dir / "test" / "manifest.csv")
        for utt in sources.utterances[:4]:
            direct, _ = predict_f0(params, utt.features())
            stored = read_feature_file(out / "f0_out" / f"{utt.utt_id}.f0")
            assert np.array_equal(stored, direct.astype(np.float32))
            exported = read_feature_file(out / "xvec_out" / f"{utt.utt_id}.xvec")
            assert np.array_equal(exported, utt.xvec)

    def test_c2_exports_original_but_synthesizes_pseudo(
            self, tmp_path, world_dir, trained_dir):
        out = tmp_path / "c2"
        cmd_anonymize(anon_config(out, world_dir, trained_dir, seed=3,
                                  **{"anonymize.mode": "C2"}))
        ours = tmp_path / "ours"
        cmd_anonymize(anon_config(ours, world_dir, trained_dir, seed=3))
        sources = load_manifest(world_dir / "test" / "manifest.csv")
        utt = sources.utterances[0]
        assert np.array_equal(
            read_feature_file(out / "xvec_out" / f"{utt.utt_id}.xvec"), utt.xvec)
        # same seed → same pseudo → same synthesized F0 as mode Ours
        assert np.array_equal(
            read_feature_file(out / "f0_out" / f"{utt.utt_id}.f0"),
            read_feature_file(ours / "f0_out" / f"{utt.utt_id}.f0"))

    def test_shift_scale_identity_stats_give_identical_file(
            self, tmp_path, world_dir):
        # Pool containing only the source speaker, n=k=1: the pseudo
        # target equals the source stats, so the mapping is the identity.
        from f0synth.anonymize import pool_from_dataset, write_pool
        from f0synth.featureio import Dataset, write_dataset
        sources = load_manifest(world_dir / "test" / "manifest.csv")
        one_speaker = [u for u in sources.utterances if u.speaker_id == "F000"]
        sub_ds = Dataset(one_speaker)
        sub_dir = tmp_path / "sub"
        sub_manifest = write_dataset(sub_ds, sub_dir)
        pool_path = write_pool(pool_from_dataset(sub_ds), sub_dir)
        out = tmp_path / "ssid"
        cmd_anonymize(config_for(
            out,
            **{"anonymize.manifest": sub_manifest,
               "anonymize.pool": pool_path,
               "anonymize.method": "shift_scale",
               "anonymize.n": 1, "anonymize.k": 1}))
        for utt in one_speaker:
            stored = read_feature_file(out / "f0_out" / f"{utt.utt_id}.f0")
            assert np.array_equal(stored, utt.f0)

    def test_shift_scale_hits_target_stats(self, tmp_path, world_dir):
        # k == n makes the pseudo target deterministic, so all of a
        # speaker's utterances share one target; pooling that speaker's
        # output voiced frames must then reproduce the target stats.
        out = tmp_path / "ss"
        result = cmd_anonymize(anon_config(out, world_dir, None,
                                           **{"anonymize.method": "shift_scale"}))
        assert result["frames_per_second"] is None  # no synthesis path timed
        log = (out / "anon_log.csv").read_text().splitlines()
        sources = load_manifest(world_dir / "test" / "manifest.csv")
        targets = {}
        pooled: dict[str, list[np.ndarray]] = {}
        for utt, line in zip(sources.utterances, log[1:]):
            fields = line.split(",")
            targets[utt.speaker_id] = (float(fields[3]), float(fields[4]))
            stored = read_feature_file(out / "f0_out" / f"{utt.utt_id}.f0")
            assert stored.shape == utt.f0.shape
            assert np.array_equal(stored > 0, utt.f0 > 0)  # mask preserved
            pooled.setdefault(utt.speaker_id, []).append(
                stored[stored > 0].astype(np.float64))
        for speaker_id, chunks in pooled.items():
            voiced = np.concatenate(chunks)
            tgt_mean, tgt_std = targets[speaker_id]
            assert voiced.mean() == pytest.approx(tgt_mean, rel=1e-5)
            assert voiced.std() == pytest.approx(tgt_std, rel=1e-5)

    def test_constant_f0_speaker_fails_naming_it_before_writing(self, tmp_path, world_dir):
        utts = load_manifest(world_dir / "test" / "manifest.csv").utterances
        flat = utts[-1].speaker_id
        utts = [dataclasses.replace(u, f0=np.where(u.f0 > 0, 150.0, 0.0))
                if u.speaker_id == flat else u for u in utts]
        manifest = write_dataset(Dataset(utts), tmp_path / "in")
        out = tmp_path / "anon"
        result = run_cli([
            "anonymize", "--seed", "1", "--out-dir", str(out),
            "--set", f"anonymize.manifest={manifest}",
            "--set", f"anonymize.pool={world_dir / 'pool.csv'}",
            "--set", "anonymize.method=shift_scale",
            "--set", "anonymize.n=2", "--set", "anonymize.k=1"])
        assert result.exit_code == 1
        assert f"error: speaker {flat!r}: voiced F0 std must be positive" in result.output
        assert not out.exists()

    def test_degenerate_model_flags_every_utterance(self, tmp_path, world_dir):
        params = zero_params(input_dim=9)
        ckpt = tmp_path / "zero.f0md"
        save_checkpoint(ckpt, params)
        out = tmp_path / "flagged"
        result = cmd_anonymize(config_for(
            out,
            **{"anonymize.manifest": world_dir / "test" / "manifest.csv",
               "anonymize.pool": world_dir / "pool.csv",
               "anonymize.checkpoint": ckpt,
               "anonymize.n": 2, "anonymize.k": 2}))
        sources = load_manifest(world_dir / "test" / "manifest.csv")
        assert sorted(result["flagged"]) == sorted(u.utt_id for u in sources.utterances)
        assert all(rho is None for rho in result["rhos"].values())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("existing", [False, True])
    def test_overflowing_f0_names_checkpoint_and_utterance_and_removes_outputs(
            self, tmp_path, world_dir, trained_dir, existing):
        ckpt = checkpoint_with(trained_dir, tmp_path / "big.f0md", "logf0_mean", 1000.0)
        manifest = world_dir / "test" / "manifest.csv"
        first = load_manifest(manifest).utterances[0].utt_id
        out = tmp_path / "new" / "anon"
        if existing:
            out.mkdir(parents=True)
            (out / "notes.txt").write_text("kept\n")
        result = run_cli(["anonymize", "--out-dir", str(out),
                          "--set", f"anonymize.manifest={manifest}",
                          "--set", f"anonymize.pool={world_dir / 'pool.csv'}",
                          "--set", f"anonymize.checkpoint={ckpt}",
                          "--set", "anonymize.n=2", "--set", "anonymize.k=1"])
        assert result.exit_code == 1
        assert result.output.startswith(f"error: {ckpt}: utterance '{first}': predicted F0 "
                                        f"overflows float64 (log-F0 mean 1000, std ")
        if existing:
            assert [p.name for p in out.iterdir()] == ["notes.txt"]
        else:
            assert not (tmp_path / "new").exists()

    def test_pool_too_small_fails(self, tmp_path, world_dir, trained_dir):
        with pytest.raises(ValueError, match="need n"):
            cmd_anonymize(anon_config(tmp_path, world_dir, trained_dir,
                                      **{"anonymize.n": 50, "anonymize.k": 2}))

    @pytest.mark.parametrize("key, value", [
        ("anonymize.gender_mode", "both"),
        # a removed key: rejected as unknown before anything is written
        ("anonymize.shift_scale_domain", "cents"),
        ("anonymize.n", 50),
        ("anonymize.k", 0),
        ("anonymize.k", 3),
    ])
    def test_bad_selection_key_fails_before_writing(self, tmp_path, world_dir, key, value):
        # The selection rejects gender_mode, n and k on the first utterance,
        # naming the setting; a removed key is rejected as unknown.
        first = load_manifest(world_dir / "test" / "manifest.csv").utterances[0].utt_id
        words = {"anonymize.gender_mode": "gender_mode must be 'same' or 'opposite'",
                 "anonymize.n": "pool has 3 F entries, need n=50",
                 "anonymize.k": "k must satisfy 1 <= k <= n"}
        out = tmp_path / "anon"
        with pytest.raises(ValueError, match=re.escape(f"utterance '{first}': {words[key]}")
                           if key in words else key):
            cmd_anonymize(anon_config(out, world_dir, None,
                                      **{"anonymize.method": "shift_scale", key: value}))
        assert not out.exists()

    def test_pool_short_of_one_gender_fails_naming_its_first_utterance(self, tmp_path,
                                                                       world_dir):
        pool = load_pool(world_dir / "pool.csv")
        short = SpeakerPool(tuple(e for e in pool.entries
                                  if e.speaker_id[0] == "F" or e.speaker_id == "M000"))
        pool_path = write_pool(short, tmp_path / "short")
        first_m = next(u.utt_id for u in load_manifest(world_dir / "test" / "manifest.csv")
                       .utterances if u.speaker_id[0] == "M")
        out = tmp_path / "anon"
        with pytest.raises(ValueError, match=re.escape(
                f"utterance '{first_m}': pool has 1 M entries, need n=2")):
            cmd_anonymize(anon_config(out, world_dir, None,
                                      **{"anonymize.method": "shift_scale",
                                         "anonymize.pool": pool_path}))
        assert not out.exists()

    @pytest.mark.parametrize("key, value, words", [
        ("anonymize.method", "vocoder", "anonymize.method must be"),
        ("anonymize.mode", "C9", "unknown contrastive mode"),
        ("anonymize.n", "many", "'anonymize.n'"),
        ("anonymize.k", "1.5", "'anonymize.k'"),
        ("anonymize.checkpoint", None, "'anonymize.checkpoint'"),
        ("out_dir", None, "'out_dir'"),
    ], ids=["method", "mode", "n", "k", "no_checkpoint", "no_out_dir"])
    def test_settings_fail_before_data_is_read(self, tmp_path, world_dir, trained_dir,
                                               key, value, words):
        # Feature files that do not exist: the setting must fail before any is read.
        values = anon_config(tmp_path / "anon", world_dir, trained_dir, **{
            "anonymize.manifest": gone_manifest(tmp_path, world_dir)}).values
        if value is None:
            del values[key]
        else:
            values[key] = value
        with pytest.raises(ValueError, match=words):
            cmd_anonymize(RunConfig(values))

    def test_pool_width_mismatch_fails_before_writing(self, tmp_path, world_dir):
        pool = load_pool(world_dir / "pool.csv")
        wide = SpeakerPool(tuple(dataclasses.replace(e, xvec=np.append(e.xvec, [1.0, 1.0]))
                                 for e in pool.entries))
        pool_path = write_pool(wide, tmp_path / "wide")
        out = tmp_path / "anon"
        first = load_manifest(world_dir / "test" / "manifest.csv").utterances[0].utt_id
        with pytest.raises(ValueError, match=re.escape(
                f"utterance '{first}': xvec width 3 != pool xvec width 5")):
            cmd_anonymize(anon_config(out, world_dir, None,
                                      **{"anonymize.method": "shift_scale",
                                         "anonymize.pool": pool_path}))
        assert not out.exists()

    def test_pool_id_with_semicolon_fails_at_its_line(self, tmp_path, world_dir):
        # anon_log.csv joins the chosen pool ids with ';', so no id may hold one.
        lines = (world_dir / "pool.csv").read_text().splitlines()
        rows = [lines[0]] + [line.replace(",pool_xvecs/", f",{world_dir}/pool_xvecs/")
                             for line in lines[1:]]
        rows[3] = rows[3][:2] + ";" + rows[3][2:]
        pool_path = write_manifest(tmp_path / "pool" / "pool.csv", rows)
        out = tmp_path / "anon"
        result = run_cli([
            "anonymize", "--out-dir", str(out),
            "--set", f"anonymize.manifest={world_dir / 'test' / 'manifest.csv'}",
            "--set", f"anonymize.pool={pool_path}",
            "--set", "anonymize.method=shift_scale",
            "--set", "anonymize.n=2", "--set", "anonymize.k=2"])
        assert result.exit_code == 1
        bad_id = rows[3].split(",")[0]
        assert f"error: {pool_path}:4: speaker_id {bad_id!r} must be" in result.output
        assert "';'" in result.output
        assert not out.exists()

    def test_checkpoint_width_mismatch_fails_before_writing(self, tmp_path, world_dir):
        ckpt = tmp_path / "narrow.f0md"
        save_checkpoint(ckpt, zero_params(input_dim=7))  # world: d_xv 3 + d_bn 6
        out = tmp_path / "anon"
        with pytest.raises(ValueError, match=f"{re.escape(str(ckpt))}: checkpoint "
                           r"input width 7 != d_xv \+ d_bn = 9"):
            cmd_anonymize(anon_config(out, world_dir, None,
                                      **{"anonymize.checkpoint": ckpt}))
        assert not out.exists()

    def test_non_finite_checkpoint_stats_fail_before_writing(self, tmp_path, world_dir,
                                                             trained_dir):
        ckpt = checkpoint_with(trained_dir, tmp_path / "nan.f0md", "input_mean", float("nan"))
        out = tmp_path / "anon"
        result = run_cli([
            "anonymize", "--seed", "1", "--out-dir", str(out),
            "--set", f"anonymize.manifest={world_dir / 'test' / 'manifest.csv'}",
            "--set", f"anonymize.pool={world_dir / 'pool.csv'}",
            "--set", f"anonymize.checkpoint={ckpt}",
            "--set", "anonymize.n=2", "--set", "anonymize.k=1"])
        assert result.exit_code == 1
        assert f"error: {ckpt}: normalization stats must be finite" in result.output
        assert not out.exists()

    def test_synthesis_requires_checkpoint(self, tmp_path, world_dir):
        with pytest.raises(ConfigError, match="anonymize.checkpoint"):
            cmd_anonymize(anon_config(tmp_path, world_dir, None))

    def test_unknown_method_and_distance_rejected(self, tmp_path, world_dir, trained_dir):
        with pytest.raises(ConfigError, match="method"):
            cmd_anonymize(anon_config(tmp_path, world_dir, trained_dir,
                                      **{"anonymize.method": "vocoder"}))
        # selection always uses cosine distance and shift_scale always maps
        # linear Hz; neither key exists any more
        for key, value in (("anonymize.distance", "cosine"),
                           ("anonymize.shift_scale_domain", "log")):
            with pytest.raises(ConfigError, match=f"unknown config keys.*{key}"):
                anon_config(tmp_path, world_dir, trained_dir, **{key: value})

    def test_zero_source_xvec_on_last_utterance_fails_before_writing(self, tmp_path,
                                                                     world_dir):
        zero_xvec_fails_before_writing(tmp_path, world_dir, row=-1)

    def test_escaping_utt_id_rejected(self, tmp_path, world_dir):
        rows = absolute_rows(world_dir / "test" / "manifest.csv")
        rows[1] = "../../escaped" + rows[1][rows[1].index(","):]
        manifest = write_manifest(tmp_path / "in" / "manifest.csv", rows)
        out = tmp_path / "a" / "b" / "out"
        with pytest.raises(ValueError, match="utt_id"):
            cmd_anonymize(config_for(out, **{"anonymize.manifest": manifest,
                                             "anonymize.pool": world_dir / "pool.csv",
                                             "anonymize.method": "shift_scale",
                                             "anonymize.n": 2, "anonymize.k": 2}))
        assert not list(tmp_path.rglob("escaped*"))

    @pytest.mark.parametrize("bad_id", ["F000_test\x00x", "F" * 300], ids=["nul", "too_long"])
    def test_id_unfit_for_a_file_name_fails_at_its_line(self, tmp_path, world_dir, bad_id):
        # The three roles' 54 rows; row 51, on line 52, holds an id that names no file.
        rows = absolute_rows(world_dir / "train" / "manifest.csv")
        for role in ("validation", "test"):
            rows += absolute_rows(world_dir / role / "manifest.csv")[1:]
        rows[51] = bad_id + rows[51][rows[51].index(","):]
        manifest = write_manifest(tmp_path / "in" / "manifest.csv", rows)
        out = tmp_path / "anon"
        result = run_cli([
            "anonymize", "--out-dir", str(out),
            "--set", f"anonymize.manifest={manifest}",
            "--set", f"anonymize.pool={world_dir / 'pool.csv'}",
            "--set", "anonymize.method=shift_scale",
            "--set", "anonymize.n=2", "--set", "anonymize.k=2"])
        assert result.exit_code == 1
        assert f"error: {manifest}:52: utt_id {bad_id!r}" in result.output
        assert not out.exists()

    def test_zero_source_xvec_fails_before_writing(self, tmp_path, world_dir):
        zero_xvec_fails_before_writing(tmp_path, world_dir, row=4)


def zero_xvec_fails_before_writing(tmp_path, world_dir, row):
    """Give one manifest row a zero x-vector; anonymize must name it and write nothing."""
    rows = absolute_rows(world_dir / "test" / "manifest.csv")
    zero = tmp_path / "zero.xvec"
    write_feature_file(zero, np.zeros(3, dtype=np.float32))
    fields = rows[row].split(",")
    rows[row] = ",".join([*fields[:5], str(zero)])
    manifest = write_manifest(tmp_path / "in" / "manifest.csv", rows)
    out = tmp_path / "anon"
    with pytest.raises(ValueError, match=f"utterance '{fields[0]}': zero-norm xvec"):
        cmd_anonymize(anon_config(out, world_dir, None,
                                  **{"anonymize.manifest": manifest,
                                     "anonymize.method": "shift_scale",
                                     "anonymize.k": 1}))
    assert not out.exists()


# A role of 2 utterances per speaker of 1,024 frames: one walk block holds
# 4 utterances, so the small world's role (1 speaker per gender) is one full
# block and the large one's (10 per gender) ten.  anonymize keeps each
# utterance's F0 by design, 4 bytes a frame; the 64-wide bn is 256.
MEMORY_WORLD = {"seed": 3, "synth.utts_per_speaker": 2, "synth.frames_per_utt": 1024,
                "synth.d_bn": 64, "synth.d_xv": 8}
MEMORY_SPEAKERS = {"small": 1, "large": 10}


def traced_peak(body, config) -> int:
    """The tracemalloc peak, in bytes, of one command call."""
    gc.collect()
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            body(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def memory_worlds(tmp_path_factory):
    """Per size: the world directory, with a checkpoint of its width, and synthgen's peak."""
    worlds = {}
    for size, speakers in MEMORY_SPEAKERS.items():
        out = tmp_path_factory.mktemp(size)
        peak = traced_peak(cmd_synthgen, config_for(
            out, **MEMORY_WORLD, **{"synth.n_speakers_per_gender": speakers}))
        save_checkpoint(out / "checkpoint.f0md",
                        init_params(ModelConfig(input_dim=72, hidden_sizes=[8, 4]), 0))
        worlds[size] = out, peak
    return worlds


class TestCommandMemory:
    """On a world 10x as large, no command peaks at 1.5x the small world's:
    none holds a role."""

    def test_synthgen(self, memory_worlds):
        small, large = (memory_worlds[size][1] for size in MEMORY_SPEAKERS)
        assert large < 1.5 * small, (small, large)

    def test_eval(self, tmp_path, memory_worlds):
        self.check(tmp_path, memory_worlds, cmd_eval, lambda world: {
            "eval.manifest": world / "test" / "manifest.csv",
            "eval.checkpoint": world / "checkpoint.f0md"})

    @pytest.mark.parametrize("method", ["synthesis", "shift_scale"])
    def test_anonymize(self, tmp_path, memory_worlds, method):
        self.check(tmp_path, memory_worlds, cmd_anonymize, lambda world: {
            "anonymize.manifest": world / "test" / "manifest.csv",
            "anonymize.pool": world / "pool.csv",
            "anonymize.checkpoint": world / "checkpoint.f0md",
            "anonymize.method": method, "anonymize.n": 1, "anonymize.k": 1})

    @staticmethod
    def check(tmp_path, memory_worlds, body, values):
        small, large = (traced_peak(body, config_for(tmp_path / size,
                                                     **values(memory_worlds[size][0])))
                        for size in MEMORY_SPEAKERS)
        assert large < 1.5 * small, (small, large)


class TestCsvOutputs:
    def test_every_csv_the_cli_writes_reads_back(self, tmp_path, world_dir, trained_dir):
        cmd_eval(config_for(tmp_path / "eval",
                            **{"eval.manifest": world_dir / "test" / "manifest.csv",
                               "eval.checkpoint": trained_dir / "checkpoint.f0md"}))
        for method in ("synthesis", "shift_scale"):
            cmd_anonymize(anon_config(tmp_path / method, world_dir, trained_dir,
                                      **{"anonymize.method": method}))
        written = {
            **{world_dir / role / "manifest.csv": MANIFEST_COLUMNS for role in DATASET_ROLES},
            world_dir / "pool.csv": POOL_COLUMNS,
            trained_dir / "history.csv": HISTORY_COLUMNS,
            tmp_path / "eval" / "metrics.csv": REPORT_COLUMNS,
            tmp_path / "synthesis" / "anon_log.csv": ANON_LOG_COLUMNS,
            tmp_path / "shift_scale" / "anon_log.csv": ANON_LOG_COLUMNS,
        }
        assert len(written) == 8
        for path, columns in written.items():
            rows = list(read_csv(path, columns))
            assert rows, path
            assert len(path.read_text().splitlines()) == len(rows) + 1, path


def zero_params(input_dim):
    """All-zero network: logit 0 everywhere, constant voiced output."""
    weights = [np.zeros((4, input_dim)), np.zeros((2, 4))]
    biases = [np.zeros(4), np.zeros(2)]
    norm = NormStats(np.zeros(input_dim), np.ones(input_dim), np.log(140.0), 0.3)
    return ModelParams(weights, biases, norm)


class TestCliEntrypoints:
    def test_help_lists_all_commands(self):
        result = run_cli(["--help"])
        assert result.exit_code == 0
        for command in ("synthgen", "train", "eval", "anonymize"):
            assert command in result.output

    def test_help_shows_each_command_docstring_summary(self):
        result = run_cli(["--help"])
        assert result.exit_code == 0
        shown = " ".join(result.output.split())  # help lines wrap at the terminal width
        for name, body in cli.COMMANDS.items():
            assert f"{name} {body.__doc__.splitlines()[0]}" in shown

    def test_abbreviated_option_is_a_usage_error(self, tmp_path):
        out = tmp_path / "x"
        result = run_cli(["synthgen", "--out", str(out)])
        assert result.exit_code == 2
        assert not out.exists()

    def test_import_leaves_click_out(self):
        paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        code = ("import sys, f0synth.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'click'))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "[]\n"

    @pytest.mark.parametrize("args, key", [
        (["synthgen", "--out-dir", ""], "out_dir"),
        (["synthgen", "--config", "{cfg}"], "out_dir"),
        (["train", "--out-dir", "out", "--set", "train.manifest=",
          "--set", "train.val_manifest=v.csv"], "train.manifest"),
        (["eval", "--out-dir", "out", "--set", "eval.manifest=",
          "--set", "eval.pred_manifest=p.csv"], "eval.manifest"),
        (["anonymize", "--out-dir", "out", "--set", "anonymize.manifest=m.csv",
          "--set", "anonymize.pool="], "anonymize.pool"),
        (["anonymize", "--out-dir", "out", "--set", "anonymize.manifest=m.csv",
          "--set", "anonymize.pool=p.csv", "--set", "anonymize.checkpoint="],
         "anonymize.checkpoint"),
    ], ids=["out_dir_flag", "out_dir_in_config", "train_manifest", "eval_manifest",
            "anonymize_pool", "anonymize_checkpoint"])
    def test_empty_required_value_fails_naming_key_writing_nothing(self, tmp_path,
                                                                   monkeypatch, args, key):
        cfg = tmp_path / "empty_out_dir.cfg"
        cfg.write_text("seed = 1\nout_dir =\n")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        result = run_cli([arg.format(cfg=cfg) for arg in args])
        assert result.exit_code == 1
        assert f"error: missing required config key {key!r}" in result.output
        assert list(cwd.iterdir()) == []

    def test_version_from_package(self):
        result = run_cli(["--version"])
        assert result.exit_code == 0, result.output
        assert "version 0.1.0" in result.output
        assert result.output == "f0synth, version 0.1.0\n"

    @pytest.mark.parametrize("command", ["synthgen", "train", "anonymize"])
    def test_negative_seed_fails_naming_key_before_writing(self, tmp_path, world_dir,
                                                           command):
        # Feature files that do not exist: the seed must fail before any is read.
        manifest = gone_manifest(tmp_path, world_dir)
        keys = {"synthgen": [],
                "train": [f"train.manifest={manifest}", f"train.val_manifest={manifest}"],
                "anonymize": [f"anonymize.manifest={manifest}", "anonymize.method=shift_scale",
                              f"anonymize.pool={world_dir / 'pool.csv'}"]}
        out = tmp_path / "out"
        args = [command, "--seed", "-1", "--out-dir", str(out)]
        for item in keys[command]:
            args += ["--set", item]
        result = run_cli(args)
        assert result.exit_code == 1
        assert "error: config key 'seed': -1 is not a non-negative integer" in result.output
        assert not out.exists()

    def test_only_bad_input_becomes_exit_1(self, monkeypatch):
        def bad_input(config):
            """Fails on its input."""
            raise ValueError("bad input")

        def bug(config):
            """Fails with a bug."""
            raise KeyError("x")

        monkeypatch.setitem(cli.COMMANDS, "bad-input", bad_input)
        monkeypatch.setitem(cli.COMMANDS, "bug", bug)
        result = run_cli(["bad-input"])
        assert (result.exit_code, result.output) == (1, "error: bad input\n")
        with pytest.raises(KeyError, match="x"):
            run_cli(["bug"])

    def test_unknown_key_via_set_fails(self, tmp_path):
        result = run_cli([
            "synthgen", "--out-dir", str(tmp_path), "--set", "synth.bogus=1"])
        assert result.exit_code == 1
        assert "unknown config keys" in result.output

    def test_config_file_workflow(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "seed = 2\n"
            f"out_dir = {tmp_path / 'w'}\n"
            "synth.n_speakers_per_gender = 1\n"
            "synth.utts_per_speaker = 1\n"
            "synth.frames_per_utt = 40\n"
            "synth.d_bn = 2\n"
            "synth.d_xv = 1\n")
        result = run_cli(["synthgen", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "w" / "pool.csv").is_file()
