"""End-to-end acceptance checks, one per shipped guarantee.

Every test measures its quantity, prints a single PASS/FAIL line with the
measured values (visible under ``pytest -s``; the test verdict itself shows
under ``pytest -v``), and asserts the stated tolerance.
"""

import time

import numpy as np
import pytest

from f0synth.anonymize import (
    F0Stats,
    PoolEntry,
    SpeakerPool,
    pool_from_dataset,
    select_pseudo_speaker,
    shift_scale_f0,
    write_pool,
)
from f0synth.cli import RunConfig, cmd_anonymize
from f0synth.featureio import (
    Dataset,
    Gender,
    NormStats,
    Utterance,
    assemble_features,
    build_frame_table,
    load_manifest,
    write_dataset,
)
from f0synth.metrics import (
    evaluate_utterances,
    pitch_correlation,
    pitch_error_counts,
)
from f0synth.model import (
    ModelConfig,
    ModelParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    predict_f0,
    save_checkpoint,
)
from f0synth.synthgen import SynthSpec, generate_synthetic_dataset
from f0synth.training import (
    SchedulerState,
    TrainConfig,
    composite_loss,
    scheduler_update,
    train,
)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared training run (used by the learnability, swap, and throughput checks)
# ---------------------------------------------------------------------------

LEARN_SEED = 11


@pytest.fixture(scope="module")
def learn_run():
    t0 = time.perf_counter()
    spec = SynthSpec(
        n_speakers_per_gender=10,
        utts_per_speaker=5,
        frames_per_utt=520,
        d_bn=16,
        d_xv=8,
        noise_std_cents=0.0,
        seed=LEARN_SEED,
    )
    train_ds, mapping = generate_synthetic_dataset(spec, role="train")
    val_ds, _ = generate_synthetic_dataset(spec, role="validation")
    table = build_frame_table(train_ds)
    model_config = ModelConfig(input_dim=table.rows.shape[1],
                               hidden_sizes=[64, 32, 16, 8], dropout=0.0)
    train_config = TrainConfig(alpha=28.112, lr=0.0003, batch_size=4096,
                               max_epochs=200, seed=LEARN_SEED)
    params, history = train(table, val_ds, model_config, train_config)
    elapsed = time.perf_counter() - t0
    return {"spec": spec, "mapping": mapping, "train_ds": train_ds,
            "val_ds": val_ds, "params": params, "history": history,
            "elapsed": elapsed}


# ---------------------------------------------------------------------------
# 1. analytic gradients match central finite differences
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_check():
    h = 1e-5
    rel_tol, abs_floor = 1e-4, 1e-8
    n_instances = 24
    kink_margin = 2e-4   # keep every hidden pre-activation this far from the
    # ReLU corner: a parameter step of 1e-5 then cannot cross it, which is a
    # precondition for finite differences to measure the analytic gradient
    # (at a corner the loss is only one-sided differentiable).
    worst = 0.0
    n_params = 0
    t0 = time.perf_counter()
    for inst in range(n_instances):
        alpha = 28.112
        train_mode = inst % 6 == 0          # some instances exercise dropout
        dropout = 0.3 if train_mode else 0.0
        dropout_seed = [55, inst]
        for attempt in range(100):
            rng = np.random.default_rng([101, inst, attempt])
            input_dim = int(rng.integers(2, 13))
            batch = int(rng.integers(1, 8))
            config = ModelConfig(input_dim=input_dim,
                                 hidden_sizes=[8, 6, 5, 4], dropout=0.0)
            params = init_params(config, seed=1000 + 100 * inst + attempt)
            x = rng.standard_normal((batch, input_dim))
            target = rng.standard_normal(batch)
            voiced = rng.random(batch) < 0.5
            if batch >= 2:                  # guarantee a mixed mask
                voiced[0], voiced[1] = True, False
            _, _, probe = forward(params, x, train_mode=train_mode,
                                  dropout=dropout, dropout_seed=dropout_seed)
            # the cache keeps activations only: each hidden layer's
            # pre-activation is recomputed from its input
            hidden_pre = np.concatenate(
                [(a @ w.T + b).ravel() for a, w, b in
                 zip((x, *probe.post_acts[:-2]), params.weights[:-1], params.biases[:-1])])
            if np.abs(hidden_pre).min() > kink_margin:
                break
        else:
            verdict("gradient-check", False,
                    f"instance {inst}: no kink-clear sample in 100 attempts")

        def loss_of(p):
            f0hat, g, _ = forward(p, x, train_mode=train_mode,
                                  dropout=dropout, dropout_seed=dropout_seed)
            return composite_loss(f0hat, g, target, voiced, alpha)[0]

        f0hat, g, cache = forward(params, x, train_mode=train_mode,
                                  dropout=dropout, dropout_seed=dropout_seed)
        _, dL_df0hat, dL_dg = composite_loss(f0hat, g, target, voiced, alpha)
        grads = backward(params, cache, dL_df0hat, dL_dg)

        for layer in range(params.n_layers):
            for kind, analytic in (("weights", grads.weights[layer]),
                                   ("biases", grads.biases[layer])):
                arr = getattr(params, kind)[layer]
                for idx in np.ndindex(arr.shape):
                    plus = params.copy()
                    getattr(plus, kind)[layer][idx] += h
                    minus = params.copy()
                    getattr(minus, kind)[layer][idx] -= h
                    fd = (loss_of(plus) - loss_of(minus)) / (2.0 * h)
                    a = float(analytic[idx])
                    err = abs(a - fd)
                    scale = max(abs(a), abs(fd))
                    rel = err / scale if scale > abs_floor else 0.0
                    worst = max(worst, rel if scale > abs_floor else 0.0)
                    if err > max(rel_tol * scale, abs_floor):
                        verdict("gradient-check", False,
                                f"instance {inst} {kind}[{layer}]{idx}: "
                                f"analytic {a:.3e} vs fd {fd:.3e}")
                    n_params += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    verdict("gradient-check", ok,
            f"{n_instances} instances, {n_params} parameters, "
            f"worst rel err {worst:.2e} (tol {rel_tol}), {elapsed:.2f}s (cap 10s)")


# ---------------------------------------------------------------------------
# 2. vectorized metrics equal a per-frame enumeration, bit for bit
# ---------------------------------------------------------------------------

def enumerate_counts(pred, truth):
    """Independent frame-by-frame tally of every pooled count."""
    tp = fp = tn = fn = gross = band = fine = both_unv = 0
    for p, t in zip(pred.tolist(), truth.tolist()):
        pv, tv = p > 0, t > 0
        if pv and tv:
            tp += 1
            rel = abs(p - t) / t
            if rel > 0.20:
                gross += 1
            else:
                band += 1
                if rel > 0.05:
                    fine += 1
        elif pv:
            fp += 1
        elif tv:
            fn += 1
        else:
            tn += 1
            both_unv += 1
    return (tp, fp, tn, fn), (len(pred), tp, gross, band, fine, both_unv)


def test_criterion_02_metric_oracle_equivalence():
    n_pairs = 1000
    t0 = time.perf_counter()
    for case in range(n_pairs):
        rng = np.random.default_rng([202, case])
        n = int(rng.integers(1, 51))

        def traj():
            f0 = rng.uniform(60.0, 350.0, size=n)
            f0[rng.random(n) < rng.uniform(0.1, 0.6)] = 0.0
            return f0

        truth = traj()
        if case % 3 == 0:
            pred = truth * (1.0 + 0.15 * rng.standard_normal(n))
            pred = np.abs(pred)
            pred[rng.random(n) < 0.2] = 0.0
        else:
            pred = traj()
        if case % 5 == 0 and n >= 3:        # exact decision-boundary ratios
            pred[0] = truth[0] * 1.20
            pred[1] = truth[1] * 1.05
            pred[2] = truth[2]

        e = pitch_error_counts(pred, truth)
        exp_conf, exp_pitch = enumerate_counts(pred, truth)
        got_conf = (e.tp, e.fp, e.tn, e.fn)
        got_pitch = (e.total, e.both_voiced, e.gross, e.fine_band,
                     e.fine_errors, e.both_unvoiced)
        if got_conf != exp_conf or got_pitch != exp_pitch:
            verdict("metric-oracle", False,
                    f"case {case}: vectorized {got_conf}+{got_pitch} "
                    f"vs enumerated {exp_conf}+{exp_pitch}")
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    verdict("metric-oracle", ok,
            f"{n_pairs} random pairs bit-equal, {elapsed:.2f}s (cap 5s)")


# ---------------------------------------------------------------------------
# 3. the network learns the synthetic world with the shipped settings
# ---------------------------------------------------------------------------

def test_criterion_03_learnability(learn_run):
    val_ds = learn_run["val_ds"]
    params = learn_run["params"]
    pred = {u.utt_id: predict_f0(params, u.features())[0]
            for u in val_ds.utterances}
    truth = {u.utt_id: u.f0.astype(np.float64) for u in val_ds.utterances}
    report = evaluate_utterances(pred, truth)
    ap, gpe = report.accurately_processed, report.gpe
    epochs = len(learn_run["history"])
    elapsed = learn_run["elapsed"]
    ok = (ap is not None and ap >= 0.95
          and gpe is not None and gpe <= 0.05
          and epochs <= 200 and elapsed < 300.0)
    verdict("learnability", ok,
            f"train {learn_run['train_ds'].total_frames} frames, "
            f"val accurately_processed {ap:.4f} (floor 0.95), "
            f"gpe {gpe:.4f} (cap 0.05), {epochs} epochs (cap 200), "
            f"{elapsed:.0f}s (cap 300s)")


def test_eval_command_reports_learned_fit_on_training_split(tmp_path, learn_run):
    """The eval command, run on the training split itself, shows the fit."""
    from f0synth.cli import cmd_eval

    world = tmp_path / "train_world"
    manifest = write_dataset(learn_run["train_ds"], world)
    ckpt = tmp_path / "model.f0md"
    save_checkpoint(ckpt, learn_run["params"])
    result = cmd_eval(RunConfig({
        "out_dir": str(tmp_path / "eval"),
        "eval.manifest": str(manifest),
        "eval.checkpoint": str(ckpt),
    }))
    ap = result["reports"]["all"].accurately_processed
    assert ap is not None and ap >= 0.95


# ---------------------------------------------------------------------------
# 4. swapping in an opposite-gender pseudo embedding moves predicted pitch
# ---------------------------------------------------------------------------

def test_criterion_04_cross_gender_swap(learn_run):
    params = learn_run["params"]
    pool = pool_from_dataset(learn_run["train_ds"])
    utts = learn_run["val_ds"].utterances
    assert len(utts) == 100

    def mean_voiced(f0):
        voiced = f0[f0 > 0]
        return float(voiced.mean()) if voiced.size else float("nan")

    correct = 0
    for i, utt in enumerate(utts):
        pseudo = select_pseudo_speaker(pool, utt.xvec, utt.gender,
                                       gender_mode="opposite",
                                       n=5, k=3, seed=[7, i])
        own, _ = predict_f0(params, utt.features())
        swapped, _ = predict_f0(params, assemble_features(pseudo.xvec, utt.bn))
        m_own, m_swap = mean_voiced(own), mean_voiced(swapped)
        if utt.gender is Gender.F:
            correct += m_swap < m_own
        else:
            correct += m_swap > m_own
    ok = correct >= 90
    verdict("cross-gender-swap", ok,
            f"{correct}/100 utterances moved strictly in the expected "
            f"direction (floor 90)")


# ---------------------------------------------------------------------------
# 5. plateau scheduler state machine, exact event sequence
# ---------------------------------------------------------------------------

def test_criterion_05_scheduler_state_machine():
    state = SchedulerState(current_lr=0.0003)
    events = [scheduler_update(state, 0.5) for _ in range(11)]
    expected = (["continue"] * 5 + ["reduce_lr"] + ["continue"] * 4 + ["stop"])
    ok = (events == expected
          and events.count("reduce_lr") == 1
          and state.current_lr == 0.0003 * 0.2
          and state.stopped
          and scheduler_update(state, 0.5) == "stop")
    verdict("scheduler", ok,
            f"events {events}, lr {state.current_lr:.2e} "
            f"(want one reduce_lr at epoch 6, stop at epoch 11, lr x0.2)")


# ---------------------------------------------------------------------------
# 6. pseudo-speaker selection equals brute force on random pools
# ---------------------------------------------------------------------------

def brute_cosine(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return 1.0 - float(a @ b) / (float(np.sqrt(a @ a)) * float(np.sqrt(b @ b)))


def test_criterion_06_pool_selection_brute_force():
    n_pools = 500
    for case in range(n_pools):
        rng = np.random.default_rng([606, case])
        dim = int(rng.integers(2, 10))
        entries = []
        for gender, prefix in ((Gender.F, "F"), (Gender.M, "M")):
            for i in range(int(rng.integers(5, 51))):
                entries.append(PoolEntry(
                    speaker_id=f"{prefix}{i:03d}",
                    gender=gender,
                    xvec=rng.standard_normal(dim),
                    f0_mean=float(rng.uniform(100, 250)),
                    f0_std=float(rng.uniform(5, 50)),
                ))
        pool = SpeakerPool(tuple(entries))
        source_xvec = rng.standard_normal(dim)
        source_gender = Gender.F if case % 2 == 0 else Gender.M
        gender_mode = "same" if case % 3 else "opposite"
        target = (source_gender if gender_mode == "same"
                  else source_gender.opposite)
        members = pool.of_gender(target)
        n = int(rng.integers(1, len(members) + 1))
        k = int(rng.integers(1, n + 1))

        dists = {e.speaker_id: brute_cosine(source_xvec, e.xvec)
                 for e in members}
        want_ids = set(sorted(dists, key=lambda s: (-dists[s], s))[:n])

        full = select_pseudo_speaker(pool, source_xvec, source_gender,
                                     gender_mode=gender_mode,
                                     n=n, k=n, seed=[9, case])
        if set(full.chosen_ids) != want_ids:
            verdict("pool-selection", False,
                    f"case {case}: candidate set {sorted(full.chosen_ids)} "
                    f"!= brute force {sorted(want_ids)}")

        p1 = select_pseudo_speaker(pool, source_xvec, source_gender,
                                   gender_mode=gender_mode,
                                   n=n, k=k, seed=[9, case])
        p2 = select_pseudo_speaker(pool, source_xvec, source_gender,
                                   gender_mode=gender_mode,
                                   n=n, k=k, seed=[9, case])
        by_id = {e.speaker_id: e for e in pool.entries}
        chosen = [by_id[i] for i in p1.chosen_ids]
        mean_xvec = np.mean([m.xvec for m in chosen], axis=0)
        ok = (set(p1.chosen_ids) <= want_ids
              and all(m.gender is target for m in chosen)
              and np.abs(p1.xvec - mean_xvec).max() <= 1e-12
              and abs(p1.stats.mean - np.mean([m.f0_mean for m in chosen])) <= 1e-12
              and abs(p1.stats.std - np.mean([m.f0_std for m in chosen])) <= 1e-12
              and p1.chosen_ids == p2.chosen_ids
              and np.array_equal(p1.xvec, p2.xvec))
        if not ok:
            verdict("pool-selection", False, f"case {case}: property violated")
    verdict("pool-selection", True,
            f"{n_pools} random pools match brute force (mean within 1e-12, "
            f"gender filtered, seed-reproducible)")


# ---------------------------------------------------------------------------
# 7. shift-and-scale transfers the target statistics exactly
# ---------------------------------------------------------------------------

def test_criterion_07_shift_scale_exactness():
    n_cases = 200
    worst = 0.0
    for case in range(n_cases):
        rng = np.random.default_rng([707, case])
        n = int(rng.integers(10, 201))
        voiced = rng.random(n) < rng.uniform(0.3, 0.9)
        voiced[:2] = True
        src_mean = rng.uniform(120, 260)
        src_std = rng.uniform(8, 40)
        f0 = np.zeros(n)
        f0[voiced] = np.abs(src_mean + src_std * rng.standard_normal(voiced.sum())) + 1.0
        vals = f0[voiced]
        src = F0Stats(float(vals.mean()), float(vals.std()))
        tgt_mean = rng.uniform(80, 300)
        tgt = F0Stats(float(tgt_mean), float(rng.uniform(2.0, tgt_mean / 10)))

        out = shift_scale_f0(f0, src, tgt)
        out_voiced = out[out > 0]
        mask_ok = np.array_equal(out > 0, f0 > 0)
        floor_clear = float(out_voiced.min()) > 1.0
        rel_mean = abs(float(out_voiced.mean()) - tgt.mean) / tgt.mean
        rel_std = abs(float(out_voiced.std()) - tgt.std) / tgt.std
        worst = max(worst, rel_mean, rel_std)
        if not (mask_ok and floor_clear and rel_mean <= 1e-9 and rel_std <= 1e-9):
            verdict("shift-scale", False,
                    f"case {case}: mask_ok={mask_ok} floor_clear={floor_clear} "
                    f"rel_mean={rel_mean:.2e} rel_std={rel_std:.2e}")
    verdict("shift-scale", True,
            f"{n_cases} cases hit target stats, worst rel err {worst:.2e} "
            f"(tol 1e-9), masks preserved exactly")


# ---------------------------------------------------------------------------
# 8. binary formats round-trip byte-identically
# ---------------------------------------------------------------------------

def test_criterion_08_format_round_trip(tmp_path):
    n_utts = 100
    for case in range(n_utts):
        rng = np.random.default_rng([808, case])
        frames = int(rng.integers(1, 81))
        d_bn = int(rng.integers(1, 21))
        d_xv = int(rng.integers(1, 13))
        f0 = rng.uniform(50, 400, frames).astype(np.float32)
        f0[rng.random(frames) < rng.uniform(0.0, 1.0)] = 0.0
        utt = Utterance(utt_id=f"U{case:03d}", speaker_id="S000",
                        gender=Gender.F if case % 2 == 0 else Gender.M,
                        f0=f0,
                        bn=rng.standard_normal((frames, d_bn)).astype(np.float32),
                        xvec=rng.standard_normal(d_xv).astype(np.float32))
        first, second = tmp_path / f"{case}_a", tmp_path / f"{case}_b"
        (loaded,) = load_manifest(write_dataset(Dataset([utt]), first)).utterances
        write_dataset(Dataset([loaded]), second)
        for kind in ("f0", "bn", "xvec"):
            name = f"features/{utt.utt_id}.{kind}"
            if (first / name).read_bytes() != (second / name).read_bytes():
                verdict("format-round-trip", False,
                        f"utterance {case}: {kind} file changed across "
                        f"write-read-write")
        if not (np.array_equal(loaded.f0, utt.f0)
                and np.array_equal(loaded.bn, utt.bn)
                and np.array_equal(loaded.xvec, utt.xvec)):
            verdict("format-round-trip", False,
                    f"utterance {case}: array payload changed")

    n_ckpts = 10
    for case in range(n_ckpts):
        rng = np.random.default_rng([809, case])
        dims = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(1, 4)))]
        widths = [int(rng.integers(2, 13)), *dims, 2]
        weights = [rng.standard_normal((widths[i + 1], widths[i]))
                   for i in range(len(widths) - 1)]
        biases = [rng.standard_normal(widths[i + 1])
                  for i in range(len(widths) - 1)]
        norm = NormStats(rng.standard_normal(widths[0]),
                         np.abs(rng.standard_normal(widths[0])) + 1e-3,
                         float(rng.standard_normal()),
                         float(abs(rng.standard_normal()) + 1e-3))
        params = ModelParams(weights, biases, norm)
        dropout = float(rng.uniform(0, 0.5))
        p_a = tmp_path / f"ck{case}_a.f0md"
        p_b = tmp_path / f"ck{case}_b.f0md"
        save_checkpoint(p_a, params, dropout=dropout)
        loaded_params, loaded_config = load_checkpoint(p_a)
        save_checkpoint(p_b, loaded_params, dropout=loaded_config.dropout)
        if p_a.read_bytes() != p_b.read_bytes():
            verdict("format-round-trip", False,
                    f"checkpoint {case} changed across save-load-save")
    verdict("format-round-trip", True,
            f"{n_utts} utterances and {n_ckpts} checkpoints round-trip "
            f"byte-identically")


# ---------------------------------------------------------------------------
# 9. anonymization synthesis throughput
# ---------------------------------------------------------------------------

def test_criterion_09_synthesis_throughput(tmp_path, learn_run):
    world = tmp_path / "world"
    manifest = write_dataset(learn_run["val_ds"], world)
    pool_path = write_pool(pool_from_dataset(learn_run["train_ds"]), tmp_path)
    ckpt = tmp_path / "model.f0md"
    save_checkpoint(ckpt, learn_run["params"])
    result = cmd_anonymize(RunConfig({
        "out_dir": str(tmp_path / "anon"),
        "anonymize.manifest": str(manifest),
        "anonymize.pool": str(pool_path),
        "anonymize.checkpoint": str(ckpt),
        "anonymize.n": "5",
        "anonymize.k": "3",
    }))
    fps = result["frames_per_second"]
    frames = learn_run["val_ds"].total_frames
    ok = fps is not None and fps >= 100_000
    verdict("synthesis-throughput", ok,
            f"{frames} frames at {fps:,.0f} frames/s (floor 100,000)")


# ---------------------------------------------------------------------------
# 10. pitch-correlation gate and output flagging
# ---------------------------------------------------------------------------

def anti_correlated_params(mapping, d_xv: int, d_bn: int) -> ModelParams:
    """A tiny exact-linear network predicting the mirror of the true log-F0.

    ReLU(z) - ReLU(-z) reproduces the linear map z exactly, so the
    predicted trajectory decreases whenever the true one increases and
    every utterance's correlation lands strictly below zero.
    """
    w = np.zeros(d_bn)
    w[:len(mapping.weights)] = mapping.weights
    row = np.concatenate([np.zeros(d_xv), -w])
    w1 = np.vstack([row, -row])
    w2 = np.array([[1.0, -1.0], [0.0, 0.0]])
    b2 = np.array([0.0, 5.0])               # logit 5: every frame voiced
    norm = NormStats(np.zeros(d_xv + d_bn), np.ones(d_xv + d_bn),
                     float(np.log(150.0)), 1.0)
    return ModelParams([w1, w2], [np.zeros(2), b2], norm)


def test_criterion_10_pitch_correlation_gate(tmp_path):
    # scaled copy: correlation exactly 1
    rng = np.random.default_rng(1010)
    truth = np.zeros(300)
    voiced = rng.random(300) < 0.6
    truth[voiced] = rng.uniform(80, 320, voiced.sum())
    rho = pitch_correlation(truth, 3.25 * truth)
    scaled_ok = rho is not None and abs(rho - 1.0) <= 1e-12

    # constructed fixtures through the anonymization command
    spec = SynthSpec(n_speakers_per_gender=2, utts_per_speaker=2,
                     frames_per_utt=160, d_bn=16, d_xv=8, seed=21)
    dataset, mapping = generate_synthetic_dataset(spec, role="test")
    world = tmp_path / "world"
    manifest = write_dataset(dataset, world)
    pool_path = write_pool(pool_from_dataset(dataset), tmp_path)
    all_ids = {u.utt_id for u in dataset.utterances}

    ckpt = tmp_path / "mirror.f0md"
    save_checkpoint(ckpt, anti_correlated_params(mapping, spec.d_xv, spec.d_bn))
    low = cmd_anonymize(RunConfig({
        "out_dir": str(tmp_path / "low"),
        "anonymize.manifest": str(manifest),
        "anonymize.pool": str(pool_path),
        "anonymize.checkpoint": str(ckpt),
        "anonymize.n": "2", "anonymize.k": "2",
    }))
    low_ok = (set(low["flagged"]) == all_ids
              and all(r is not None and r < 0.3 for r in low["rhos"].values()))

    healthy = cmd_anonymize(RunConfig({
        "out_dir": str(tmp_path / "healthy"),
        "anonymize.manifest": str(manifest),
        "anonymize.pool": str(pool_path),
        "anonymize.method": "shift_scale",
        "anonymize.n": "2", "anonymize.k": "2",
    }))
    healthy_ok = (healthy["flagged"] == []
                  and all(r is not None and r >= 0.3
                          for r in healthy["rhos"].values()))

    ok = scaled_ok and low_ok and healthy_ok
    verdict("pitch-correlation-gate", ok,
            f"scaled-copy rho dev {abs(rho - 1.0):.1e} (tol 1e-12); "
            f"mirror model flagged {len(low['flagged'])}/{len(all_ids)} "
            f"(want all sub-0.3); shift-scale flagged "
            f"{len(healthy['flagged'])} (want 0)")
