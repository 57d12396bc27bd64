"""Command-line workflows: synthgen, train, eval, anonymize.

Configuration is a flat key-value text file with dotted section keys::

    # comment
    seed = 7
    out_dir = runs/demo
    train.lr = 0.0003
    model.hidden_sizes = 64,32,16,8

``--set key=value`` overrides any config key; ``--seed`` and
``--out-dir`` are shortcuts for the corresponding keys.  Every key is
declared once, in ``KEYS``, with its default, and a set value reads as
its default's type.  The ``synth.*``, ``model.*`` and ``train.*`` keys
are the fields of SynthSpec, ModelConfig and TrainConfig that have a
default.  Every command is deterministic given its config, never
mutates input files, and confines outputs to the configured output
directory.

Outputs per command (under out_dir):
  synthgen   train/validation/test manifests + feature trees, pool.csv
  train      checkpoint.f0md, history.csv
  eval       metrics.csv
  anonymize  f0_out/<utt_id>.f0, xvec_out/<utt_id>.xvec, anon_log.csv
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import sys
import time
from dataclasses import MISSING, dataclass
from pathlib import Path

from . import __version__
from . import anonymize as anon
from .featureio import (
    Dataset,
    Gender,
    assemble_features,
    at_row,
    build_frame_table,
    is_csv_field,
    load_manifest,
    read_text,
    remove_dataset,
    write_csv,
    write_dataset,
    write_feature_file,
)
from .metrics import (
    MetricsReport,
    REPORT_COLUMNS,
    evaluate_utterances,  # noqa: F401  bench/tracer.py wraps cli.evaluate_utterances
    pitch_correlation,
    pool_scores,
    report_csv_row,
    score_utterances,
)
from .model import ModelConfig, load_checkpoint, predict_f0, save_checkpoint
from .synthgen import SynthSpec, generate_synthetic_dataset
from .training import HISTORY_COLUMNS, TrainConfig, train

RHO_FLAG_THRESHOLD = 0.3

ANON_LOG_COLUMNS = ("utt_id", "mode", "chosen_ids", "tgt_mean", "tgt_std")


class ConfigError(ValueError):
    """A config file or override cannot be parsed or is incomplete."""


SECTIONS = {"synth": SynthSpec, "model": ModelConfig, "train": TrainConfig}

# Every config key, to its default; ``None`` marks a required key.  The
# section keys are the fields of SECTIONS that have a default, except
# ``seed``, which comes from the top-level key.
KEYS: dict[str, object] = {
    "seed": TrainConfig.seed,
    "out_dir": None,
    **{f"{section}.{f.name}": f.default_factory() if f.default is MISSING else f.default
       for section, cls in SECTIONS.items() for f in dataclasses.fields(cls)
       if f.name != "seed" and (f.default is not MISSING or f.default_factory is not MISSING)},
    "train.manifest": None,
    "train.val_manifest": None,
    "eval.manifest": None,
    "eval.checkpoint": "",  # exactly one of these two is set
    "eval.pred_manifest": "",
    "eval.dataset_name": "test",
    "anonymize.manifest": None,
    "anonymize.pool": None,
    "anonymize.checkpoint": None,  # read by the synthesis method only
    "anonymize.method": "synthesis",
    "anonymize.mode": "Ours",
    "anonymize.gender_mode": anon.DEFAULT_GENDER_MODE,
    "anonymize.n": anon.DEFAULT_N_FURTHEST,
    "anonymize.k": anon.DEFAULT_K_AVERAGED,
}

# How a set value reads, by its default's type; any other value reads as written.
_READERS = {int: (int, "an integer"), float: (float, "a number"),
            list: (lambda raw: [int(tok) for tok in raw.split(",")],
                   "a comma-separated integer list")}


@dataclass
class RunConfig:
    """Flat string key-value settings; ``config[key]`` reads one as its default's type."""

    values: dict[str, str]

    def __post_init__(self) -> None:
        unknown = self.values.keys() - KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def __getitem__(self, key: str):
        """The key's value, or its default when unset.

        A required key that is unset or set empty raises ``ConfigError``.
        """
        default = KEYS[key]
        raw = self.values.get(key)
        if default is None and not raw:
            raise ConfigError(f"missing required config key {key!r}")
        if raw is None:
            return default.copy() if isinstance(default, list) else default
        convert, type_name = _READERS.get(type(default), (str, None))
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r}: {raw!r} is not {type_name}") from None

    @property
    def seed(self) -> int:
        seed = self["seed"]
        if seed < 0:
            raise ConfigError(f"config key 'seed': {seed} is not a non-negative integer")
        return seed

    @property
    def out_dir(self) -> Path:
        return Path(self["out_dir"])


def section_config(config: RunConfig, section: str, **fixed):
    """Build a section's dataclass from its keys that are set, plus ``fixed``.

    Fields whose key is unset keep the dataclass default.
    """
    values = {f.name: config[key] for f in dataclasses.fields(SECTIONS[section])
              if (key := f"{section}.{f.name}") in config.values}
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
        values.update(parse_config_text(read_text(path), str(path)))
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

def load_matching_checkpoint(path: str, dataset: Dataset):
    """Load a checkpoint's params; its input width must be the data's d_xv + d_bn."""
    params, _ = load_checkpoint(path)
    if params.input_dim != dataset.input_width:
        raise ValueError(f"{path}: checkpoint input width {params.input_dim} != "
                         f"d_xv + d_bn = {dataset.input_width} of the manifest")
    return params


def load_validation(path: str, width: int) -> Dataset:
    """Load a validation manifest that has frames, of the train table's d_xv + d_bn ``width``."""
    dataset = load_manifest(path)
    if dataset.input_width != width:
        raise ValueError(f"{path}: d_xv + d_bn = {dataset.input_width} of the validation manifest "
                         f"!= {width} of the train manifest")
    if dataset.total_frames == 0:
        raise ValueError(f"{path}: the validation manifest has no frames")
    return dataset


def cmd_synthgen(config: RunConfig) -> dict:
    """Generate train/validation/test splits of one world, plus a pool file."""
    spec = section_config(config, "synth", seed=config.seed)
    out_dir = config.out_dir
    manifests: dict[str, Path] = {}
    lines = []
    # One role is alive at a time: the pool keeps only per-speaker stats.  A
    # role whose F0 overflows raises before it writes; the roles written before
    # it and the directories this call made are then removed, so a world that
    # fails leaves no files behind.
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    try:
        for role in ("train", "validation", "test"):
            dataset, _ = generate_synthetic_dataset(spec, role=role)
            if role == "train":
                pool = anon.pool_from_dataset(dataset)
            manifests[role] = write_dataset(dataset, out_dir / role)
            lines.append(f"{role}: {manifests[role]} ({len(dataset)} utterances, "
                         f"{dataset.total_frames} frames)")
            del dataset
    except ValueError:
        for manifest in manifests.values():
            remove_dataset(manifest)
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        raise
    print("\n".join(lines))
    pool_path = anon.write_pool(pool, out_dir)
    print(f"pool: {pool_path} ({2 * spec.n_speakers_per_gender} speakers)")
    return {"manifests": manifests, "pool": pool_path}


def cmd_train(config: RunConfig) -> dict:
    """Train on a manifest pair; write checkpoint.f0md and history.csv."""
    train_manifest = config["train.manifest"]
    val_manifest = config["train.val_manifest"]
    # Settings, train table and model, validation data, then out_dir.  The
    # validation Dataset is popped into train(), which drops it once its
    # arrays are built.
    train_config = section_config(config, "train", seed=config.seed)
    out_dir = config.out_dir
    table = build_frame_table(load_manifest(train_manifest))
    if not table.voiced.any():
        raise ValueError(f"{train_manifest}: the train manifest has no voiced frames")
    model_config = section_config(config, "model", input_dim=table.rows.shape[1])
    validation = [load_validation(val_manifest, table.rows.shape[1])]
    # A training that raises (an overflow, an interrupt) removes the
    # directories this call made; an out_dir that existed stays as it was.
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        params, history = train(table, validation.pop(), model_config, train_config)
    except BaseException:
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        raise
    checkpoint = out_dir / "checkpoint.f0md"
    save_checkpoint(checkpoint, params, dropout=model_config.dropout)
    history_path = write_csv(out_dir / "history.csv", HISTORY_COLUMNS, history.csv_rows())
    best = history.best_val_metric
    print(f"checkpoint: {checkpoint}")
    print(f"history: {history_path} ({len(history)} epochs)")
    print("best val_metric: "
          + (f"{best:.6f}" if best is not None else "n/a (0 epochs)"))
    return {"checkpoint": checkpoint, "history": history_path,
            "best_val_metric": best}


def cmd_eval(config: RunConfig) -> dict:
    """Evaluate predictions against a truth manifest; write metrics.csv.

    Predictions come from exactly one source: ``eval.checkpoint`` (run
    the model on each utterance's features) or ``eval.pred_manifest``
    (compare stored trajectories utterance by utterance).
    """
    truth_manifest = config["eval.manifest"]
    checkpoint = config["eval.checkpoint"] or None  # set empty counts as unset
    pred_manifest = config["eval.pred_manifest"] or None
    if (checkpoint is None) == (pred_manifest is None):
        raise ConfigError(
            "set exactly one of eval.checkpoint or eval.pred_manifest")
    dataset_name = config["eval.dataset_name"]
    if not is_csv_field(dataset_name):
        raise ConfigError(f"eval.dataset_name {dataset_name!r} is not one CSV field")
    out_dir = config.out_dir
    truth_ds = load_manifest(truth_manifest)
    truth = {u.utt_id: u.f0 for u in truth_ds.utterances}
    if checkpoint is not None:
        params = load_matching_checkpoint(checkpoint, truth_ds)
        pred = {u.utt_id: predict_f0(params, u.features())[0]
                for u in truth_ds.utterances}
    else:
        pred = {u.utt_id: u.f0 for u in load_manifest(pred_manifest).utterances}

    groups: list[tuple[str, set[str]]] = []
    for gender in (Gender.F, Gender.M):
        ids = {u.utt_id for u in truth_ds.utterances if u.gender is gender}
        if ids:
            groups.append((gender.value, ids))
    groups.append(("all", set(truth)))

    reports: dict[str, MetricsReport] = {}
    rows = []
    with at_row(pred_manifest or checkpoint):
        scores = score_utterances(pred, truth)  # once each; "all" pools them again
    for sex, ids in groups:
        report = pool_scores({k: scores[k] for k in ids})
        reports[sex] = report
        rows.append(report_csv_row(dataset_name, sex, report))
    metrics_path = write_csv(out_dir / "metrics.csv", REPORT_COLUMNS, rows)
    print(metrics_path.read_text(encoding="utf-8"), end="")
    print(f"metrics: {metrics_path}")
    return {"metrics": metrics_path, "reports": reports}


def cmd_anonymize(config: RunConfig) -> dict:
    """Anonymize every utterance in a manifest against an embedding pool.

    The synthesis method runs the trained network on the routed
    embedding; the shift_scale method maps the source trajectory onto
    the pseudo speaker's F0 statistics.  Per utterance the log records
    the chosen pool members and target stats; the original-vs-output
    pitch correlation is checked against the 0.3 floor.
    """
    manifest = config["anonymize.manifest"]
    pool_path = config["anonymize.pool"]
    method = config["anonymize.method"]
    if method not in ("synthesis", "shift_scale"):
        raise ConfigError(f"anonymize.method must be synthesis or shift_scale, got {method!r}")
    checkpoint = config["anonymize.checkpoint"] if method == "synthesis" else None
    mode = anon.ContrastiveMode.parse(config["anonymize.mode"])
    gender_mode = config["anonymize.gender_mode"]
    n = config["anonymize.n"]
    k = config["anonymize.k"]
    seed = config.seed
    out_dir = config.out_dir

    sources = load_manifest(manifest)
    pool = anon.load_pool(pool_path)
    # Every selection runs before out_dir is made: its checks leave no output behind.
    pseudos = []
    for i, utt in enumerate(sources.utterances):
        try:
            pseudo = anon.select_pseudo_speaker(pool, utt.xvec, utt.gender, n=n, k=k,
                                                gender_mode=gender_mode, seed=[seed, i])
        except ValueError as exc:
            raise ValueError(f"utterance {utt.utt_id!r}: {exc}") from None
        pseudos.append(pseudo)
    params = load_matching_checkpoint(checkpoint, sources) if checkpoint is not None else None
    src_stats = anon.speaker_f0_stats(sources) if method == "shift_scale" else None

    f0_dir = out_dir / "f0_out"
    xvec_dir = out_dir / "xvec_out"
    f0_dir.mkdir(parents=True, exist_ok=True)
    xvec_dir.mkdir(parents=True, exist_ok=True)

    log_rows = []
    rhos: dict[str, float | None] = {}
    flagged: list[str] = []
    synth_seconds = 0.0
    synth_frames = 0
    loop_start = time.perf_counter()
    for utt, pseudo in zip(sources.utterances, pseudos):
        synth_xvec, export_xvec = anon.assemble_synthesis_inputs(mode, utt.xvec, pseudo)
        if method == "synthesis":
            features = assemble_features(synth_xvec, utt.bn)
            t0 = time.perf_counter()
            f0_out, _ = predict_f0(params, features)
            synth_seconds += time.perf_counter() - t0
            synth_frames += utt.n_frames
        else:
            f0_out = anon.shift_scale_f0(utt.f0, src_stats[utt.speaker_id], pseudo.stats)
        write_feature_file(f"{f0_dir}/{utt.utt_id}.f0", f0_out)
        write_feature_file(f"{xvec_dir}/{utt.utt_id}.xvec", export_xvec)
        rho = pitch_correlation(utt.f0, f0_out)
        rhos[utt.utt_id] = rho
        if rho is None or rho < RHO_FLAG_THRESHOLD:
            flagged.append(utt.utt_id)
            shown = "absent" if rho is None else f"{rho:.3f}"
            print(f"FLAGGED {utt.utt_id}: rho_f0 {shown} "
                  f"(threshold {RHO_FLAG_THRESHOLD})")
        log_rows.append([utt.utt_id, mode.value, ";".join(pseudo.chosen_ids),
                         f"{pseudo.stats.mean:.10g}", f"{pseudo.stats.std:.10g}"])

    loop_seconds = time.perf_counter() - loop_start
    log_path = write_csv(out_dir / "anon_log.csv", ANON_LOG_COLUMNS, log_rows)
    frames_per_second = synth_frames / synth_seconds if synth_seconds > 0 else None
    loop_frames_per_second = sources.total_frames / loop_seconds
    print(f"anonymized {len(sources)} utterances "
          f"({method}, mode {mode.value}) -> {f0_dir}")
    print(f"log: {log_path}")
    print(f"flagged: {len(flagged)} of {len(sources)} utterances "
          f"below rho_f0 {RHO_FLAG_THRESHOLD}")
    print(f"anonymize throughput (per-utterance loop: {method}, writes, rho_f0): "
          f"{loop_frames_per_second:.0f} frames/s")
    if frames_per_second is not None:
        print(f"synthesis throughput (predict_f0 only): {frames_per_second:.0f} frames/s")
    return {"log": log_path, "rhos": rhos, "flagged": flagged,
            "frames_per_second": frames_per_second,
            "loop_frames_per_second": loop_frames_per_second, "f0_dir": f0_dir,
            "xvec_dir": xvec_dir}


COMMANDS = {"synthgen": cmd_synthgen, "train": cmd_train, "eval": cmd_eval,
            "anonymize": cmd_anonymize}


def main(argv: list[str] | None = None) -> None:
    """Framewise F0 synthesis and modification toolkit.

    Runs one command of ``COMMANDS`` on ``argv`` (default ``sys.argv[1:]``).
    Bad input exits 1 with ``error: ...`` on stderr; a usage error exits 2.
    """
    parser = argparse.ArgumentParser(prog="f0synth", description=main.__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, body in COMMANDS.items():
        summary = body.__doc__.splitlines()[0]
        command = commands.add_parser(name, help=summary, description=summary,
                                      allow_abbrev=False)
        command.add_argument("--config", dest="config_path", metavar="PATH",
                             help="Path to a flat key=value config file.")
        command.add_argument("--set", dest="overrides", action="append", default=[],
                             metavar="KEY=VALUE", help="Override one config key (repeatable).")
        command.add_argument("--seed", type=int, help="Shortcut for the seed key.")
        command.add_argument("--out-dir", help="Shortcut for the out_dir key.")
    args = parser.parse_args(argv)
    try:
        COMMANDS[args.command](build_config(args.config_path, args.overrides, args.seed,
                                            args.out_dir))
    except (ValueError, OSError) as exc:
        print(f"error: {str(exc) or exc.__class__.__name__}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
