"""Command-line workflows: synthgen, train, eval, anonymize.

Configuration is a flat key-value text file with dotted section keys::

    # comment
    seed = 7
    out_dir = runs/demo
    train.lr = 0.0003
    model.hidden_sizes = 64,32,16,8

``--set key=value`` overrides any config key; ``--seed`` and
``--out-dir`` are shortcuts for the corresponding keys.  The ``synth.*``,
``model.*`` and ``train.*`` keys are the int, float and int-list fields
of SynthSpec, ModelConfig and TrainConfig; a key left unset keeps the
dataclass default.  Every command
is deterministic given its config, never mutates input files, and
confines outputs to the configured output directory.

Outputs per command (under out_dir):
  synthgen   train/validation/test manifests + feature trees, pool.csv
  train      checkpoint.f0md, history.csv
  eval       metrics.csv
  anonymize  f0_out/<utt_id>.f0, xvec_out/<utt_id>.xvec, anon_log.csv
"""

from __future__ import annotations

import dataclasses
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from . import anonymize as anon
from .featureio import (
    Dataset,
    Gender,
    assemble_features,
    build_frame_table,
    load_manifest,
    write_dataset,
    write_feature_file,
)
from .metrics import (
    MetricsReport,
    REPORT_COLUMNS,
    evaluate_utterances,
    pitch_correlation,
    report_csv_row,
)
from .model import ModelConfig, load_checkpoint, predict_f0, save_checkpoint
from .synthgen import SynthSpec, generate_synthetic_dataset
from .training import TrainConfig, train

RHO_FLAG_THRESHOLD = 0.3

ANON_LOG_COLUMNS = ("utt_id", "mode", "chosen_ids", "tgt_mean", "tgt_std")

BASE_F0_KEYS = {Gender.F: "synth.base_f0_female", Gender.M: "synth.base_f0_male"}


class ConfigError(ValueError):
    """A config file or override cannot be parsed or is incomplete."""


@dataclass
class RunConfig:
    """Flat string key-value settings with typed accessors."""

    values: dict[str, str]

    def __post_init__(self) -> None:
        unknown = set(self.values) - KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ConfigError(f"missing required config key {key!r}")
        return self.values[key]

    def _typed(self, key, default, convert, type_name):
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r}: {raw!r} is not {type_name}") from None

    def get_int(self, key: str, default: int) -> int:
        return self._typed(key, default, int, "an integer")

    def get_float(self, key: str, default: float) -> float:
        return self._typed(key, default, float, "a number")

    def get_int_list(self, key: str, default: list[int]) -> list[int]:
        return self._typed(
            key, default,
            lambda raw: [int(tok) for tok in raw.split(",") if tok.strip()],
            "a comma-separated integer list")

    @property
    def seed(self) -> int:
        return self.get_int("seed", 0)

    @property
    def out_dir(self) -> Path:
        return Path(self.require("out_dir"))


SECTIONS = {"synth": SynthSpec, "model": ModelConfig, "train": TrainConfig}
_GETTERS = {int: RunConfig.get_int, float: RunConfig.get_float,
            list[int]: RunConfig.get_int_list}


def _keyed_fields(cls) -> dict:
    """Field name -> typed getter for every field of ``cls`` that has a key.

    ``seed`` comes from the top-level key and ``input_dim`` from the data.
    """
    hints = typing.get_type_hints(cls)
    return {f.name: _GETTERS[hints[f.name]] for f in dataclasses.fields(cls)
            if f.name not in ("seed", "input_dim") and hints[f.name] in _GETTERS}


SECTION_FIELDS = {section: _keyed_fields(cls) for section, cls in SECTIONS.items()}

KNOWN_KEYS = {f"{section}.{name}"
              for section, fields in SECTION_FIELDS.items() for name in fields} | {
    "seed", "out_dir", *BASE_F0_KEYS.values(),
    "train.manifest", "train.val_manifest",
    "eval.manifest", "eval.checkpoint", "eval.pred_manifest",
    "eval.dataset_name",
    "anonymize.manifest", "anonymize.pool", "anonymize.checkpoint",
    "anonymize.method", "anonymize.mode", "anonymize.gender_mode",
    "anonymize.n", "anonymize.k", "anonymize.shift_scale_domain",
}


def section_config(config: RunConfig, section: str, **fixed):
    """Build a section's dataclass from its keys that are set, plus ``fixed``.

    Fields whose key is unset keep the dataclass default.
    """
    values = {name: value for name, get in SECTION_FIELDS[section].items()
              if (value := get(config, f"{section}.{name}", None)) is not None}
    return SECTIONS[section](**values, **fixed)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse the flat key=value format; '#' starts a comment line."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        values[key] = value
    return values


def build_config(
    config_path: str | None,
    overrides: tuple[str, ...] = (),
    seed: int | None = None,
    out_dir: str | None = None,
) -> RunConfig:
    """Config file, then --set overrides, then the --seed/--out-dir shortcuts."""
    values: dict[str, str] = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        values.update(parse_config_text(path.read_text(encoding="utf-8"), str(path)))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        values[key.strip()] = value.strip()
    if seed is not None:
        values["seed"] = str(seed)
    if out_dir is not None:
        values["out_dir"] = out_dir
    return RunConfig(values)


# ---------------------------------------------------------------------------
# command bodies (pure-ish: config in, result out, files under out_dir)
# ---------------------------------------------------------------------------

def cmd_synthgen(config: RunConfig) -> dict:
    """Generate train/validation/test splits of one world, plus a pool file."""
    default_f0 = SynthSpec().base_f0
    base_f0 = {g: config.get_float(key, default_f0[g]) for g, key in BASE_F0_KEYS.items()}
    spec = section_config(config, "synth", base_f0=base_f0, seed=config.seed)
    out_dir = config.out_dir
    manifests: dict[str, Path] = {}
    train_ds: Dataset | None = None
    for role in ("train", "validation", "test"):
        dataset, _ = generate_synthetic_dataset(spec, role=role)
        manifests[role] = write_dataset(dataset, out_dir / role)
        if role == "train":
            train_ds = dataset
        click.echo(f"{role}: {manifests[role]} ({len(dataset)} utterances, "
                   f"{dataset.total_frames} frames)")
    pool_path = anon.write_pool(anon.pool_from_dataset(train_ds), out_dir)
    click.echo(f"pool: {pool_path} ({2 * spec.n_speakers_per_gender} speakers)")
    return {"manifests": manifests, "pool": pool_path}


def cmd_train(config: RunConfig) -> dict:
    """Train on a manifest pair; write checkpoint.f0md and history.csv."""
    train_ds = load_manifest(config.require("train.manifest"), role="train")
    val_ds = load_manifest(config.require("train.val_manifest"), role="validation")
    if not len(train_ds) or not len(val_ds):
        raise ValueError("empty dataset")
    table = build_frame_table(train_ds)
    model_config = section_config(config, "model", input_dim=table.rows.shape[1])
    train_config = section_config(config, "train", seed=config.seed)
    params, history = train(table, val_ds, model_config, train_config)
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint = out_dir / "checkpoint.f0md"
    save_checkpoint(checkpoint, params, dropout=model_config.dropout)
    history_path = out_dir / "history.csv"
    history_path.write_text(history.to_csv_text(), encoding="utf-8")
    best = history.best_val_metric
    click.echo(f"checkpoint: {checkpoint}")
    click.echo(f"history: {history_path} ({len(history)} epochs)")
    click.echo("best val_metric: "
               + (f"{best:.6f}" if best is not None else "n/a (0 epochs)"))
    return {"checkpoint": checkpoint, "history": history_path,
            "best_val_metric": best}


def cmd_eval(config: RunConfig) -> dict:
    """Evaluate predictions against a truth manifest; write metrics.csv.

    Predictions come from exactly one source: ``eval.checkpoint`` (run
    the model on each utterance's features) or ``eval.pred_manifest``
    (compare stored trajectories utterance by utterance).
    """
    truth_ds = load_manifest(config.require("eval.manifest"), role="test")
    if not len(truth_ds):
        raise ValueError("empty dataset")
    checkpoint = config.get("eval.checkpoint")
    pred_manifest = config.get("eval.pred_manifest")
    if (checkpoint is None) == (pred_manifest is None):
        raise ConfigError(
            "set exactly one of eval.checkpoint or eval.pred_manifest")
    if checkpoint is not None:
        params, _ = load_checkpoint(checkpoint)
        pred = {u.utt_id: predict_f0(params, u.features())[0]
                for u in truth_ds.utterances}
    else:
        pred_ds = load_manifest(pred_manifest, role="test")
        pred = {u.utt_id: u.f0.astype(np.float64) for u in pred_ds.utterances}
    truth = {u.utt_id: u.f0.astype(np.float64) for u in truth_ds.utterances}

    dataset_name = config.get("eval.dataset_name", "test")
    groups: list[tuple[str, set[str]]] = []
    for gender in (Gender.F, Gender.M):
        ids = {u.utt_id for u in truth_ds.utterances if u.gender is gender}
        if ids:
            groups.append((gender.value, ids))
    groups.append(("all", set(truth)))

    reports: dict[str, MetricsReport] = {}
    rows = [",".join(REPORT_COLUMNS)]
    for sex, ids in groups:
        report = evaluate_utterances({k: pred[k] for k in ids},
                                     {k: truth[k] for k in ids})
        reports[sex] = report
        rows.append(report_csv_row(dataset_name, sex, report))
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    metrics_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    for line in rows:
        click.echo(line)
    click.echo(f"metrics: {metrics_path}")
    return {"metrics": metrics_path, "reports": reports}


def cmd_anonymize(config: RunConfig) -> dict:
    """Anonymize every utterance in a manifest against an embedding pool.

    The synthesis method runs the trained network on the routed
    embedding; the shift_scale method maps the source trajectory onto
    the pseudo speaker's F0 statistics.  Per utterance the log records
    the chosen pool members and target stats; the original-vs-output
    pitch correlation is checked against the 0.3 floor.
    """
    sources = load_manifest(config.require("anonymize.manifest"))
    if not len(sources):
        raise ValueError("empty dataset")
    pool = anon.load_pool(config.require("anonymize.pool"))
    method = config.get("anonymize.method", "synthesis")
    if method not in ("synthesis", "shift_scale"):
        raise ConfigError(f"anonymize.method must be synthesis or shift_scale, "
                          f"got {method!r}")
    mode = anon.ContrastiveMode.parse(config.get("anonymize.mode", "Ours"))
    gender_mode = config.get("anonymize.gender_mode", "same")
    n = config.get_int("anonymize.n", anon.DEFAULT_N_FURTHEST)
    k = config.get_int("anonymize.k", anon.DEFAULT_K_AVERAGED)
    domain = config.get("anonymize.shift_scale_domain", "linear")

    params = None
    if method == "synthesis":
        params, _ = load_checkpoint(config.require("anonymize.checkpoint"))
    src_stats = anon.speaker_f0_stats(sources) if method == "shift_scale" else None

    out_dir = config.out_dir
    f0_dir = out_dir / "f0_out"
    xvec_dir = out_dir / "xvec_out"
    f0_dir.mkdir(parents=True, exist_ok=True)
    xvec_dir.mkdir(parents=True, exist_ok=True)

    log_rows = [",".join(ANON_LOG_COLUMNS)]
    rhos: dict[str, float | None] = {}
    flagged: list[str] = []
    synth_seconds = 0.0
    synth_frames = 0
    seed = config.seed
    for i, utt in enumerate(sources.utterances):
        pseudo = anon.select_pseudo_speaker(
            pool, utt.xvec, utt.gender, gender_mode=gender_mode,
            n=n, k=k, seed=[seed, i])
        synth_xvec, export_xvec = anon.assemble_synthesis_inputs(
            mode, utt.xvec, pseudo)
        if method == "synthesis":
            features = assemble_features(synth_xvec, utt.bn)
            t0 = time.perf_counter()
            f0_out, _ = predict_f0(params, features)
            synth_seconds += time.perf_counter() - t0
            synth_frames += utt.n_frames
        else:
            f0_out = anon.shift_scale_f0(
                utt.f0, src_stats[utt.speaker_id], pseudo.stats, domain=domain)
        write_feature_file(f0_dir / f"{utt.utt_id}.f0", f0_out.astype(np.float32))
        write_feature_file(xvec_dir / f"{utt.utt_id}.xvec",
                           np.asarray(export_xvec, dtype=np.float32))
        rho = pitch_correlation(utt.f0, f0_out)
        rhos[utt.utt_id] = rho
        if rho is None or rho < RHO_FLAG_THRESHOLD:
            flagged.append(utt.utt_id)
            shown = "absent" if rho is None else f"{rho:.3f}"
            click.echo(f"FLAGGED {utt.utt_id}: rho_f0 {shown} "
                       f"(threshold {RHO_FLAG_THRESHOLD})")
        log_rows.append(",".join([
            utt.utt_id, mode.value, ";".join(pseudo.chosen_ids),
            f"{pseudo.f0_mean:.10g}", f"{pseudo.f0_std:.10g}"]))

    log_path = out_dir / "anon_log.csv"
    log_path.write_text("\n".join(log_rows) + "\n", encoding="utf-8")
    frames_per_second = synth_frames / synth_seconds if synth_seconds > 0 else None
    click.echo(f"anonymized {len(sources)} utterances "
               f"({method}, mode {mode.value}) -> {f0_dir}")
    click.echo(f"log: {log_path}")
    click.echo(f"flagged: {len(flagged)} of {len(sources)} utterances "
               f"below rho_f0 {RHO_FLAG_THRESHOLD}")
    if frames_per_second is not None:
        click.echo(f"synthesis throughput: {frames_per_second:.0f} frames/s")
    return {"log": log_path, "rhos": rhos, "flagged": flagged,
            "frames_per_second": frames_per_second, "f0_dir": f0_dir,
            "xvec_dir": xvec_dir}


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

def _common_options(fn):
    fn = click.option("--config", "config_path", type=str, default=None,
                      help="Path to a flat key=value config file.")(fn)
    fn = click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
                      help="Override one config key (repeatable).")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Shortcut for the seed key.")(fn)
    fn = click.option("--out-dir", type=str, default=None,
                      help="Shortcut for the out_dir key.")(fn)
    return fn


@click.group()
@click.version_option(package_name="f0synth")
def main():
    """Framewise F0 synthesis and modification toolkit."""


def _add_command(name: str, body, help_text: str) -> None:
    """Register ``body`` as a subcommand that exits 1 with ``error: ...`` on bad input."""
    @main.command(name, help=help_text)
    @_common_options
    def command(config_path, overrides, seed, out_dir):
        try:
            body(build_config(config_path, overrides, seed, out_dir))
        except (ValueError, OSError, KeyError) as exc:
            click.echo(f"error: {str(exc) or exc.__class__.__name__}", err=True)
            sys.exit(1)


_add_command("synthgen", cmd_synthgen, "Generate a synthetic corpus and pool file.")
_add_command("train", cmd_train, "Train the F0 synthesis network.")
_add_command("eval", cmd_eval, "Evaluate predictions against a truth manifest.")
_add_command("anonymize", cmd_anonymize, "Anonymize utterances against an embedding pool.")


if __name__ == "__main__":
    main()
