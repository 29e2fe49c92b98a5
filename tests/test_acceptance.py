"""Acceptance gate: one test per headline guarantee of the laboratory.

Each test pins a shipped property at its stated tolerance, from scalar
arithmetic up through the full trace-to-key attack and the recovery
grid.  Seeds are fixed so every figure is reproducible; the per-module
suites explore the parameter space more broadly.  Measured values are
printed so a failing run shows how far off it landed.
"""

from __future__ import annotations

import json
import random
import time
import warnings

import numpy as np

from nonce_lab.analysis import (
    classify_batch,
    feature_matrix,
    fit_swap_classifier,
    harvest_swap_windows,
    recover_nonce_bits,
    welch_t,
)
from nonce_lab.cli import main
from nonce_lab.dsp import _iteration_events, align_swaps, rectified_envelope
from nonce_lab.ecdsa import keygen, recover_private_key, sign, verify
from nonce_lab.events import EventRecorder
from nonce_lab.ff_curve import (
    LADDER_STEP_MUL_GROUPS,
    ProjectivePoint,
    Scalar,
    double_and_always_add,
    get_curve,
    montgomery_ladder,
    reference_multiply,
)
from nonce_lab.recover import ExperimentConfig, run_experiment
from nonce_lab.swap_impls import SwapKind, SwapVariant, WordArrayPair, ct_swap
from nonce_lab.tracesim import (
    SimConfig,
    generate_swap_windows,
    generate_training_set,
    swap_windows,
    synthesize,
)

from oracles import burst_overlay, mul_run_lengths, step_peak_groups

LEAK_THRESHOLD = 4.5


def test_multipliers_agree_and_signatures_roundtrip():
    """Both constant-flow multipliers match the branching reference
    everywhere, and sign/verify/recover round-trips exactly."""
    start = time.perf_counter()
    for name in ("secp128r1", "secp521r1"):
        curve = get_curve(name)
        base = ProjectivePoint.from_affine(*curve.generator, curve.field)
        rng = random.Random(0xACC1)
        for _ in range(1000):
            k = rng.randrange(1, curve.n)
            scalar = Scalar.for_curve(k, curve)
            expected = reference_multiply(k, base, curve)
            assert montgomery_ladder(scalar, curve.generator, curve) == expected
            assert double_and_always_add(scalar, base, curve) == expected
    toy = get_curve("toy16")
    toy_base = ProjectivePoint.from_affine(*toy.generator, toy.field)
    for k in range(1, toy.n):
        scalar = Scalar.for_curve(k, toy)
        expected = reference_multiply(k, toy_base, toy)
        assert montgomery_ladder(scalar, toy.generator, toy) == expected
        assert double_and_always_add(scalar, toy_base, toy) == expected
    for name in ("toy16", "secp128r1", "wei25519", "secp521r1"):
        curve = get_curve(name)
        rng = random.Random(0x51AB)
        for _ in range(100):
            key = keygen(curve, rng)
            sig, nonce = sign(rng.randrange(1, curve.n), key, rng)
            assert verify(sig, key.Q, curve)
            assert recover_private_key(sig, nonce.k.value, curve) == key.d
    elapsed = time.perf_counter() - start
    print(f"multiplier agreement and ECDSA roundtrips: {elapsed:.1f}s")
    assert elapsed < 60.0


def test_swap_variants_match_reference():
    """All four hardened swaps compute exactly the plain exchange, at
    both coordinate widths and under both conditions."""
    rng = random.Random(0xACC2)
    for word_count in (4, 9):
        for _ in range(1000):
            a = tuple(rng.getrandbits(64) for _ in range(word_count))
            b = tuple(rng.getrandbits(64) for _ in range(word_count))
            pair = WordArrayPair(a, b)
            for cond in (0, 1):
                expected = (b, a) if cond else (a, b)
                for kind in SwapKind:
                    variant = SwapVariant(kind, rng_seed=rng.getrandbits(32))
                    out = ct_swap(variant, pair, cond)
                    assert (out.a, out.b) == expected, (kind, word_count, cond)


def test_ladder_step_fingerprint_is_detected():
    """Every iteration of a traced ladder multiplies in 5-2-1-2-3-1-3-3
    groups, whatever the scalar and the swap variant; the groups survive
    into a simulated envelope, and the aligner finds the resulting
    iteration pattern."""
    toy = get_curve("toy16")
    every_iteration = list(LADDER_STEP_MUL_GROUPS) * toy.n.bit_length()
    rng = random.Random(0xACC3)
    for kind in SwapKind:
        for _ in range(16):
            recorder = EventRecorder()
            montgomery_ladder(
                Scalar.for_curve(rng.randrange(1, toy.n), toy),
                toy.generator,
                toy,
                SwapVariant(kind, rng_seed=rng.getrandbits(32)),
                recorder,
            )
            assert mul_run_lengths(recorder.kinds) == every_iteration, kind

    cfg = SimConfig(noise_sigma=0.0)
    step_trace = synthesize(_iteration_events(toy, "ladder"), cfg)
    envelope = rectified_envelope(step_trace.samples, max(3, cfg.samples_per_event // 4))
    groups = step_peak_groups(envelope, cfg.samples_per_event)
    assert groups == list(LADDER_STEP_MUL_GROUPS)
    aligned = align_swaps(step_trace, toy, cfg, "ladder")
    assert len(aligned) == 1

    recorder = EventRecorder()
    montgomery_ladder(
        Scalar.for_curve(0x51F3, toy),
        toy.generator,
        toy,
        SwapVariant(SwapKind.PLAIN),
        recorder,
    )
    full_trace = synthesize(recorder, cfg, meta={"multiplier": "ladder"})
    aligned = align_swaps(full_trace, toy, cfg, "ladder")
    assert len(aligned) == toy.n.bit_length()


def test_leakage_assessment_verdicts():
    """Fixed-vs-fixed windows flag the plain, libgcrypt, and masked
    swaps as leaking; the combined variant stays under threshold in at
    least 19 of 20 independent campaigns."""
    start = time.perf_counter()
    conds = [0, 1] * 10000
    for kind in (SwapKind.PLAIN, SwapKind.LIBGCRYPT, SwapKind.MASKED):
        windows = generate_swap_windows(
            kind, 9, conds, SimConfig(seed=1300), np.random.default_rng(1300)
        )
        result = welch_t(windows, conds)
        print(f"{kind.value}: max |t| = {result.max_abs_t:.1f}")
        assert result.max_abs_t > LEAK_THRESHOLD
    quiet_runs = 0
    for run in range(20):
        seed = 1400 + run
        windows = generate_swap_windows(
            SwapKind.COMBINED, 9, conds, SimConfig(seed=seed), np.random.default_rng(seed)
        )
        result = welch_t(windows, conds)
        print(f"combined run {run}: max |t| = {result.max_abs_t:.2f}")
        quiet_runs += result.max_abs_t < LEAK_THRESHOLD
    assert quiet_runs >= 19
    elapsed = time.perf_counter() - start
    print(f"leakage assessment: {quiet_runs}/20 quiet, {elapsed:.1f}s")
    assert elapsed < 300.0


def _window_model(sigma: float):
    cfg = SimConfig(noise_sigma=sigma, seed=501)
    train = generate_swap_windows(
        "plain", 9, [0, 1] * 256, cfg, np.random.default_rng(501)
    )
    return fit_swap_classifier(train, cfg)


def _window_predictions(model, sigma: float):
    test = generate_swap_windows(
        "plain",
        9,
        [0, 1] * 500,
        SimConfig(noise_sigma=sigma, seed=777),
        np.random.default_rng(777),
    )
    features = feature_matrix(test, int(model.trained_on["median_samples"]))
    guesses, probabilities = classify_batch(model, features)
    return test, guesses, probabilities


def test_classifier_accuracy_properties():
    """Window classification is perfect without noise, degrades
    monotonically with it, collapses to chance inside interference, and
    is better calibrated on correct guesses than on wrong ones."""
    accuracies = []
    for sigma in (0.0, 4.0, 8.0, 12.0, 16.0):
        model = _window_model(sigma)
        test, guesses, _ = _window_predictions(model, sigma)
        accuracies.append(float(np.mean(guesses == test.labels[:, 0])))
    print("noise sweep accuracies:", [f"{a:.3f}" for a in accuracies])
    assert accuracies[0] == 1.0
    assert all(b <= a + 0.02 for a, b in zip(accuracies, accuracies[1:]))

    model = _window_model(4.0)
    test, _, _ = _window_predictions(model, 4.0)
    burst_cfg = SimConfig(noise_sigma=4.0, interference=((0.0, 1.0, 20.0),))
    burst_rng = np.random.default_rng([777, 0x1F])
    jammed = np.stack(
        [burst_overlay(t, burst_cfg, burst_rng).samples for t in test.traces]
    )
    features = feature_matrix(jammed, int(model.trained_on["median_samples"]))
    guesses, _ = classify_batch(model, features)
    jammed_accuracy = float(np.mean(guesses == test.labels[:, 0]))
    print(f"accuracy inside interference: {jammed_accuracy:.3f}")
    assert 0.4 <= jammed_accuracy <= 0.6

    model = _window_model(10.0)
    test, guesses, probabilities = _window_predictions(model, 10.0)
    labels = test.labels[:, 0]
    accuracy = float(np.mean(guesses == labels))
    print(f"accuracy at the calibration noise level: {accuracy:.3f}")
    assert 0.85 <= accuracy <= 0.95
    confidence = np.where(guesses == 1, probabilities, 1.0 - probabilities)
    correct = guesses == labels
    mean_correct = float(confidence[correct].mean())
    mean_wrong = float(confidence[~correct].mean())
    print(f"mean confidence: correct {mean_correct:.4f}, wrong {mean_wrong:.4f}")
    assert mean_correct > mean_wrong


def test_full_attack_recovers_key(tmp_path):
    """The CLI attack on a noiseless trace recovers every nonce bit and
    the private key; at a noise level where per-window accuracy still
    exceeds 97%, at least 3 of 4 traces yield 495+ of 521 bits."""
    config_path = tmp_path / "attack.json"
    config_path.write_text(json.dumps({"noise_sigma": 0.0}))
    out = tmp_path / "attack"
    assert (
        main(
            [
                "attack",
                "--curve",
                "secp521r1",
                "--seed",
                "1",
                "--config",
                str(config_path),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    summary = json.loads((out / "summary.json").read_text())
    assert summary["bits_total"] == 521
    assert summary["bits_correct"] == 521
    assert summary["conds_correct"] == 521
    assert summary["key_recovered"] is True

    curve = get_curve("secp521r1")
    sigma = 5.0
    train_cfg = SimConfig(noise_sigma=sigma, seed=7000)
    train = harvest_swap_windows(
        generate_training_set(curve, SwapKind.PLAIN, 8, train_cfg)
    )
    model = fit_swap_classifier(train, train_cfg)
    median_samples = int(model.trained_on["median_samples"])
    width = curve.n.bit_length()
    scores = []
    window_hits = 0
    window_total = 0
    for i in range(4):
        rng = random.Random(9000 + i)
        key = keygen(curve, rng)
        recorder = EventRecorder()
        swap = SwapVariant(SwapKind.PLAIN, rng_seed=100 + i)
        sig, nonce = sign(
            rng.randrange(1, curve.n), key, rng, "ladder", swap, recorder
        )
        trace_cfg = SimConfig(noise_sigma=sigma, seed=8000 + i)
        trace = synthesize(recorder, trace_cfg, meta={"multiplier": "ladder"})
        truth = swap_windows(trace)

        spans = np.stack([trace.samples[w.start : w.end] for w in truth])
        guesses, _ = classify_batch(model, feature_matrix(spans, median_samples))
        window_hits += int(np.sum(guesses == [w.cond for w in truth]))
        window_total += len(truth)

        aligned = align_swaps(trace, curve, trace_cfg, "ladder")
        estimate = recover_nonce_bits(trace, model, aligned, "ladder")
        conds_ok = sum(g == w.cond for g, w in zip(estimate.conds, truth))
        scores.append(conds_ok)
        if estimate.value == nonce.k.value:
            assert recover_private_key(sig, estimate.value, curve) == key.d
    window_accuracy = window_hits / window_total
    print(f"per-window accuracy at sigma={sigma}: {window_accuracy:.4f}")
    print(f"bits recovered per trace: {scores} of {width}")
    assert window_accuracy >= 0.97
    assert sum(s >= 495 for s in scores) >= 3


def test_clustered_attack_recovers_keys_at_sigma_5(tmp_path):
    """Without a model the attack clusters the victim's own swap windows:
    at a noise level where profiled templates miss a few conds per trace,
    every key of seeds 1-3 is recovered."""
    config_path = tmp_path / "attack.json"
    config_path.write_text(json.dumps({"noise_sigma": 5.0}))
    for seed in (1, 2, 3):
        out = tmp_path / f"attack-{seed}"
        argv = ["attack", "--curve", "secp521r1", "--seed", str(seed)]
        assert main(argv + ["--config", str(config_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["classifier"] == "cluster"
        assert summary["conds_correct"] == 521 and summary["key_recovered"] is True


def _rate(result):
    return result.successes / result.config.trials


def test_lattice_recovery_rates():
    """Key recovery from partial nonces succeeds deterministically with
    generous leaks, survives the minimal-margin cell, and degrades
    monotonically with label errors."""
    start = time.perf_counter()
    curve = get_curve("secp521r1")
    generous = run_experiment(
        ExperimentConfig(curve, leak_bits=300, signature_count=2, error_rate=0.0,
                         trials=100, seed=2025)
    )
    print(f"l=300 m=2 e=0: rate {_rate(generous):.2f}, "
          f"mean {generous.mean_seconds * 1000:.0f}ms/trial")
    assert _rate(generous) == 1.0
    assert generous.mean_seconds < 1.0

    lean = run_experiment(
        ExperimentConfig(curve, leak_bits=100, signature_count=7, error_rate=0.0,
                         trials=100, seed=2026)
    )
    print(f"l=100 m=7 e=0: rate {_rate(lean):.2f}, "
          f"mean {lean.mean_seconds * 1000:.0f}ms/trial")
    assert _rate(lean) >= 0.95
    assert lean.mean_seconds < 1.0

    rates = []
    for j, error_rate in enumerate((0.0, 0.001, 0.002, 0.005, 0.01)):
        cell = run_experiment(
            ExperimentConfig(curve, leak_bits=300, signature_count=2,
                             error_rate=error_rate, trials=100, seed=2100 + j)
        )
        assert cell.mean_seconds < 1.0
        rates.append(_rate(cell))
    print("error sweep rates:", [f"{r:.2f}" for r in rates])
    assert all(b <= a for a, b in zip(rates, rates[1:]))

    # Reported for comparison only: with one error in ten per window the
    # subset-retry strategy is measured, but its rate is not asserted
    # because reaching a high rate there is an open solver question.
    midpoint = run_experiment(
        ExperimentConfig(curve, leak_bits=300, signature_count=2, error_rate=0.1,
                         trials=50, seed=2200, strategy="subset_retry")
    )
    warnings.warn(
        f"e=0.1 l=300 m=2 subset_retry: measured success rate "
        f"{_rate(midpoint):.2f} over {midpoint.config.trials} trials "
        f"(reported, not asserted)"
    )
    elapsed = time.perf_counter() - start
    print(f"lattice recovery grid: {elapsed:.1f}s")
    assert elapsed < 600.0


def test_subset_retry_outlasts_sparse_errors():
    """With three generous samples and one label error in 500 bits, a
    clean pair of signatures often remains: re-solving on subsets recovers
    the key where one direct solve over all three fails."""
    start = time.perf_counter()
    curve = get_curve("secp521r1")
    direct, retry = (
        run_experiment(
            ExperimentConfig(curve, leak_bits=300, signature_count=3, error_rate=0.002,
                             trials=50, seed=2300, strategy=strategy)
        )
        for strategy in ("direct", "subset_retry")
    )
    print(f"l=300 m=3 e=0.002: direct {direct.successes}/50, "
          f"subset_retry {retry.successes}/50")
    assert retry.successes >= 25
    assert retry.successes > direct.successes
    assert time.perf_counter() - start < 60.0


def _rerun_byte_identical(tmp_path, name, argv, ignore=("timing.txt",)):
    out = tmp_path / name
    snapshots = []
    for _ in range(2):
        assert main([str(a) for a in argv] + ["--out", str(out)]) == 0
        snapshots.append(
            {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.name not in ignore
            }
        )
        for p in out.iterdir():
            p.unlink()
        out.rmdir()
    assert snapshots[0].keys() == snapshots[1].keys()
    for filename in snapshots[0]:
        assert snapshots[0][filename] == snapshots[1][filename], (name, filename)
    return snapshots[0]


def test_cli_runs_are_byte_identical(tmp_path):
    """Repeating any CLI run with the same seed and config reproduces
    every CSV and trace file byte for byte."""
    sim_config = tmp_path / "sim.json"
    sim_config.write_text(
        json.dumps(
            {"samples_per_event": 16, "noise_sigma": 1.0, "count": 80,
             "word_count": 4}
        )
    )
    _rerun_byte_identical(
        tmp_path,
        "sim",
        ["simulate", "--config", sim_config, "--curve", "toy16", "--seed", 9],
    )

    grid_config = tmp_path / "grid.json"
    grid_config.write_text(
        json.dumps(
            {"curve": "toy16", "grid_leak_bits": [12], "grid_signatures": [3],
             "grid_error_rates": [0.0, 0.5], "trials": 4}
        )
    )
    _rerun_byte_identical(
        tmp_path,
        "grid",
        ["experiment", "--config", grid_config, "--seed", 2],
    )

    attack_config = tmp_path / "attack.json"
    attack_config.write_text(json.dumps({"noise_sigma": 0.0}))
    _rerun_byte_identical(
        tmp_path,
        "attack",
        ["attack", "--curve", "secp521r1", "--seed", 1, "--config", attack_config],
    )

    # At the default noise the outputs do not depend on --jobs either.
    noisy = [
        _rerun_byte_identical(
            tmp_path,
            f"attack-jobs{jobs}",
            ["attack", "--curve", "secp521r1", "--seed", 1, "--jobs", jobs],
            ignore=("timing.txt", "config.json"),
        )
        for jobs in (1, 2)
    ]
    assert noisy[0] == noisy[1]
