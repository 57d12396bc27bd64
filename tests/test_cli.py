import dataclasses
import hashlib
import typing
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from f0synth.cli import (
    KNOWN_KEYS,
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
from f0synth.featureio import NormStats, load_manifest, read_feature_file
from f0synth.model import ModelConfig, ModelParams, load_checkpoint, predict_f0, save_checkpoint
from f0synth.synthgen import SynthSpec
from f0synth.training import TrainConfig


def config_for(out_dir, **values):
    values = {k: str(v) for k, v in values.items()}
    values["out_dir"] = str(out_dir)
    return RunConfig(values)


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
        assert config.get_float("train.lr", 0.0) == 0.5
        assert config.out_dir == Path("from_flag")

    def test_missing_config_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            build_config("/nonexistent/run.cfg")

    def test_bad_set_syntax_rejected(self):
        with pytest.raises(ConfigError, match="--set"):
            build_config(None, overrides=("seedless",))

    def test_typed_accessors(self):
        config = RunConfig({"seed": "3", "train.lr": "0.25",
                            "model.hidden_sizes": "8,4", "out_dir": "x"})
        assert config.get_int("seed", 0) == 3
        assert config.get_float("train.lr", 0.0) == 0.25
        assert config.get_int_list("model.hidden_sizes", []) == [8, 4]
        assert config.get_int("train.batch_size", 77) == 77
        with pytest.raises(ConfigError, match="missing required"):
            config.require("train.manifest")

    def test_bad_typed_value_rejected(self):
        config = RunConfig({"seed": "x", "out_dir": "d"})
        with pytest.raises(ConfigError, match="not an integer"):
            config.get_int("seed", 0)


SECTION_CLASSES = {"synth": SynthSpec, "model": ModelConfig, "train": TrainConfig}


class TestConfigDefaults:
    def test_no_section_keys_gives_dataclass_defaults(self):
        config = RunConfig({"out_dir": "x"})
        assert section_config(config, "synth", base_f0=SynthSpec().base_f0,
                              seed=config.seed) == SynthSpec()
        assert section_config(config, "model", input_dim=7) == ModelConfig(input_dim=7)
        assert section_config(config, "train", seed=config.seed) == TrainConfig()

    def test_every_number_field_has_a_key_that_reaches_it(self):
        fixed = {"synth": {}, "model": {"input_dim": 7}, "train": {}}
        for section, cls in SECTION_CLASSES.items():
            default = cls(**fixed[section])
            hints = typing.get_type_hints(cls)
            for f in dataclasses.fields(cls):
                kind = hints[f.name]
                if f.name in ("seed", "input_dim") or kind not in (int, float, list[int]):
                    continue
                key = f"{section}.{f.name}"
                assert key in KNOWN_KEYS
                old = getattr(default, f.name)
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
            ds = load_manifest(manifest, role=role)
            assert len(ds) == 18
        pool = world_dir / "pool.csv"
        assert pool.is_file()
        assert pool.read_text().splitlines()[0] == \
            "speaker_id,gender,xvec_path,f0_mean,f0_std"

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
        runner = CliRunner()
        result = runner.invoke(main, ["synthgen", "--out-dir", str(blocker)])
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_cli_exit_zero_on_success(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, [
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

    def test_exactly_one_prediction_source(self, tmp_path, world_dir, trained_dir):
        manifest = world_dir / "test" / "manifest.csv"
        with pytest.raises(ConfigError, match="exactly one"):
            cmd_eval(config_for(tmp_path, **{"eval.manifest": manifest}))
        with pytest.raises(ConfigError, match="exactly one"):
            cmd_eval(config_for(
                tmp_path,
                **{"eval.manifest": manifest,
                   "eval.pred_manifest": manifest,
                   "eval.checkpoint": trained_dir / "checkpoint.f0md"}))

    def test_empty_manifest_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("utt_id,speaker_id,gender,f0_path,bn_path,xvec_path\n")
        runner = CliRunner()
        result = runner.invoke(main, [
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
    def test_outputs_and_log_format(self, tmp_path, world_dir, trained_dir):
        out = tmp_path / "anon"
        result = cmd_anonymize(anon_config(out, world_dir, trained_dir, seed=9))
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
        sub_ds = Dataset(one_speaker, role="test")
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

    def test_pool_too_small_fails(self, tmp_path, world_dir, trained_dir):
        with pytest.raises(ValueError, match="need n"):
            cmd_anonymize(anon_config(tmp_path, world_dir, trained_dir,
                                      **{"anonymize.n": 50, "anonymize.k": 2}))

    def test_synthesis_requires_checkpoint(self, tmp_path, world_dir):
        with pytest.raises(ConfigError, match="anonymize.checkpoint"):
            cmd_anonymize(anon_config(tmp_path, world_dir, None))

    def test_unknown_method_and_distance_rejected(self, tmp_path, world_dir, trained_dir):
        with pytest.raises(ConfigError, match="method"):
            cmd_anonymize(anon_config(tmp_path, world_dir, trained_dir,
                                      **{"anonymize.method": "vocoder"}))
        # selection always uses cosine distance; the key no longer exists
        with pytest.raises(ConfigError, match="unknown config keys.*anonymize.distance"):
            anon_config(tmp_path, world_dir, trained_dir,
                        **{"anonymize.distance": "cosine"})

    def test_escaping_utt_id_rejected(self, tmp_path, world_dir):
        test_dir = world_dir / "test"
        lines = (test_dir / "manifest.csv").read_text().splitlines()
        rows = [lines[0]]
        for line in lines[1:]:
            fields = line.split(",")
            fields[3:] = [str(test_dir / p) for p in fields[3:]]
            rows.append(",".join(fields))
        rows[1] = "../../escaped" + rows[1][rows[1].index(","):]
        manifest = tmp_path / "in" / "manifest.csv"
        manifest.parent.mkdir()
        manifest.write_text("\n".join(rows) + "\n")
        out = tmp_path / "a" / "b" / "out"
        with pytest.raises(ValueError, match="utt_id"):
            cmd_anonymize(config_for(out, **{"anonymize.manifest": manifest,
                                             "anonymize.pool": world_dir / "pool.csv",
                                             "anonymize.method": "shift_scale",
                                             "anonymize.n": 2, "anonymize.k": 2}))
        assert not list(tmp_path.rglob("escaped*"))


def zero_params(input_dim):
    """All-zero network: logit 0 everywhere, constant voiced output."""
    weights = [np.zeros((4, input_dim)), np.zeros((2, 4))]
    biases = [np.zeros(4), np.zeros(2)]
    norm = NormStats(np.zeros(input_dim), np.ones(input_dim), np.log(140.0), 0.3)
    return ModelParams(weights, biases, norm)


class TestCliEntrypoints:
    def test_help_lists_all_commands(self):
        runner = CliRunner()
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for command in ("synthgen", "train", "eval", "anonymize"):
            assert command in result.output

    def test_unknown_key_via_set_fails(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, [
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
        runner = CliRunner()
        result = runner.invoke(main, ["synthgen", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "w" / "pool.csv").is_file()
