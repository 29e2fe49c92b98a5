"""Tests for leakage assessment and template classification."""

import ast
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from nonce_lab import analysis
from nonce_lab.analysis import (
    LEAK_THRESHOLD,
    TTestResult,
    TemplateModel,
    classify_batch,
    cluster_nonce_bits,
    export_t_csv,
    feature_matrix,
    first_component,
    fit_swap_classifier,
    fit_templates,
    harvest_swap_windows,
    read_model,
    recover_nonce_bits,
    select_poi,
    two_cluster_posteriors,
    welch_t,
    write_model,
)
from nonce_lab.dsp import align_swaps, rectified_envelope
from nonce_lab.errors import (
    AlignmentError,
    ConfigError,
    DomainError,
    NonceLabError,
    RecoveryFailed,
    StatError,
)
from nonce_lab.events import EventRecorder
from nonce_lab.ff_curve import ProjectivePoint, Scalar, double_and_always_add, montgomery_ladder
from nonce_lab.swap_impls import SwapKind, SwapVariant
from nonce_lab.tracesim import (
    SimConfig,
    TraceSet,
    generate_swap_windows,
    generate_training_set,
    swap_burst_width,
    swap_windows,
    synthesize,
)

from oracles import per_window_estimate, svd_first_component, textbook_two_gaussian_em


def blob_data(seed=11, n=200):
    rng = np.random.default_rng(seed)
    class0 = rng.normal([0.0, 5.0], 1.0, (n, 2))
    class1 = rng.normal([3.0, 5.0], 1.0, (n, 2))
    return np.vstack([class0, class1]), np.array([0] * n + [1] * n)


def test_welch_matches_hand_computation():
    # Column 0: means 2 vs 4, variances 1 vs 4.  Column 1: means 4 vs 3,
    # variances 4 vs 4.  Column 2 is identical across classes.
    x = np.array(
        [
            [1.0, 2.0, 2.0],
            [2.0, 4.0, 0.0],
            [3.0, 6.0, 4.0],
            [2.0, 1.0, 2.0],
            [4.0, 3.0, 0.0],
            [6.0, 5.0, 4.0],
        ]
    )
    res = welch_t(x, [0, 0, 0, 1, 1, 1])
    assert res.t_values[0] == pytest.approx(-2.0 / math.sqrt(1 / 3 + 4 / 3))
    assert res.t_values[1] == pytest.approx(1.0 / math.sqrt(4 / 3 + 4 / 3))
    assert res.t_values[2] == 0.0
    assert (res.n0, res.n1) == (3, 3)
    assert res.max_abs_t == pytest.approx(2.0 / math.sqrt(5 / 3))


def test_welch_is_antisymmetric_under_relabeling():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(40, 25))
    y = np.array([0, 1] * 20)
    forward = welch_t(x, y)
    flipped = welch_t(x, 1 - y)
    assert np.array_equal(forward.t_values, -flipped.t_values)
    assert (forward.n0, forward.n1) == (flipped.n1, flipped.n0)


@pytest.mark.parametrize("width", [1, 2, 63, 64, 65, 129, 656])
def test_welch_by_column_slabs_equals_whole_matrix(width):
    """Bit for bit the statistic of whole class matrices, including a
    column left alone in numpy's pairwise summation."""
    rng = np.random.default_rng(width)
    x = rng.normal(0.0, 1.0, (300, width)) * rng.uniform(0.1, 1e3, (300, 1))
    y = (rng.random(300) < 0.2).astype(int)
    class0, class1 = x[y == 0], x[y == 1]
    spread = class0.var(axis=0, ddof=1) / len(class0) + class1.var(axis=0, ddof=1) / len(class1)
    expected = (class0.mean(axis=0) - class1.mean(axis=0)) / np.sqrt(spread)
    assert np.array_equal(welch_t(x, y).t_values, expected)


def test_welch_keeps_degenerate_variance_finite():
    x = np.array([[1.0, 3.0]] * 3 + [[1.0, 5.0]] * 3)
    res = welch_t(x, [0, 0, 0, 1, 1, 1])
    assert res.t_values[0] == 0.0
    assert np.isfinite(res.t_values[1])
    assert abs(res.t_values[1]) > 1e10
    assert np.flatnonzero(np.abs(res.t_values) > LEAK_THRESHOLD).tolist() == [1]


def test_welch_rejects_single_trace_classes():
    with pytest.raises(StatError):
        welch_t(np.zeros((3, 4)), [0, 0, 1])
    with pytest.raises(DomainError):
        welch_t(np.zeros((4, 4)), [0, 0, 1, 2])
    with pytest.raises(DomainError):
        welch_t(np.zeros((4, 4)), [0, 0, 1])


def test_select_poi_orders_by_magnitude_breaking_ties_low():
    res = TTestResult(t_values=np.array([3.0, -5.0, 5.0, 1.0]), n0=2, n1=2)
    assert select_poi(res, 4).tolist() == [1, 2, 0, 3]
    assert select_poi(res, 2).tolist() == [1, 2]
    with pytest.raises(ConfigError):
        select_poi(res, 0)
    with pytest.raises(ConfigError):
        select_poi(res, 5)


def test_template_means_recover_blob_centers():
    x, y = blob_data()
    model = fit_templates(x, y, [0, 1])
    margin = 3.0 / math.sqrt(200)
    assert abs(model.mean0[0] - 0.0) < margin
    assert abs(model.mean0[1] - 5.0) < margin
    assert abs(model.mean1[0] - 3.0) < margin
    assert abs(model.mean1[1] - 5.0) < margin
    assert np.allclose(model.cov, 1.0, atol=0.3)
    assert model.trained_on["n0"] == "200"


def test_classifier_separates_blobs():
    x, y = blob_data()
    model = fit_templates(x, y, [0, 1])
    centers, _ = classify_batch(model, [[0.0, 5.0], [3.0, 5.0]])
    assert centers.tolist() == [0, 1]
    fresh_x, fresh_y = blob_data(seed=99)
    guesses, probabilities = classify_batch(model, fresh_x)
    assert np.mean(guesses == fresh_y) > 0.9
    assert np.array_equal(guesses == 1, probabilities > 0.5)


def test_classify_tie_resolves_to_condition_zero():
    model = TemplateModel(
        poi=[0], mean0=[0.0], mean1=[2.0], cov=[1.0], mode="diag"
    )
    guesses, probabilities = classify_batch(model, [[1.0], [10.0]])
    assert guesses.tolist() == [0, 1]
    assert probabilities[0] == pytest.approx(0.5, abs=1e-9)
    assert probabilities[1] > 0.99
    with pytest.raises(DomainError):
        classify_batch(model, np.zeros((1, 0)))


def test_classify_requires_window_to_cover_poi():
    model = TemplateModel(
        poi=[5], mean0=[0.0], mean1=[1.0], cov=[1.0], mode="diag"
    )
    with pytest.raises(DomainError):
        classify_batch(model, [[1.0, 2.0, 3.0]])
    with pytest.raises(DomainError):
        classify_batch(model, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def test_full_mode_needs_ten_times_poi_per_class():
    x, y = blob_data(n=25)
    model = fit_templates(x, y, [0, 1], mode="full")
    assert model.mode == "full"
    assert model.cov.shape == (2, 2)
    assert classify_batch(model, [[3.0, 5.0]])[0].tolist() == [1]
    short_x, short_y = blob_data(n=15)
    with pytest.raises(StatError):
        fit_templates(short_x, short_y, [0, 1], mode="full")


def test_full_mode_distances_match_cho_solve():
    """Full-mode Mahalanobis forms against ``scipy.linalg.cho_solve``, on
    the envelope features of a swap-window campaign."""
    from scipy import linalg

    conds = np.random.default_rng(0).permutation(np.repeat([0, 1], 700)).tolist()
    campaign = generate_swap_windows("plain", 9, conds, SimConfig(seed=5))
    model = fit_swap_classifier(campaign, SimConfig(), poi_count=64, mode="full")
    features = feature_matrix(campaign, int(model.trained_on["median_samples"]))
    deltas = features[:, model.poi] - model.mean1
    want = np.sum(deltas * linalg.cho_solve(linalg.cho_factor(model.cov), deltas.T).T, axis=-1)
    np.testing.assert_allclose(model._mahalanobis(deltas), want, rtol=1e-12, atol=0.0)


def test_constant_features_are_rejected_as_singular():
    x = np.ones((8, 3))
    with pytest.raises(StatError):
        fit_templates(x, [0, 0, 0, 0, 1, 1, 1, 1], [0, 1])


def test_fit_validates_poi():
    x, y = blob_data(n=20)
    with pytest.raises(DomainError):
        fit_templates(x, y, [0, 0])
    with pytest.raises(DomainError):
        fit_templates(x, y, [0, 7])
    with pytest.raises(DomainError):
        fit_templates(x, y, [])


def test_model_invariants_are_enforced():
    with pytest.raises(DomainError):
        TemplateModel(
            poi=[2, 1], mean0=[0, 0], mean1=[1, 1], cov=[1, 1], mode="diag"
        )
    with pytest.raises(StatError):
        TemplateModel(
            poi=[0, 1],
            mean0=[0, 0],
            mean1=[1, 1],
            cov=[[1.0, 2.0], [2.0, 1.0]],
            mode="full",
        )
    with pytest.raises(StatError):
        TemplateModel(
            poi=[0], mean0=[0.0], mean1=[1.0], cov=[0.0], mode="diag"
        )
    with pytest.raises(ConfigError):
        TemplateModel(
            poi=[0], mean0=[0.0], mean1=[1.0], cov=[1.0], mode="banded"
        )


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mode", ["diag", "full"])
@pytest.mark.parametrize("part", ["mean0", "mean1", "cov"])
def test_model_rejects_non_finite_values(part, mode, value):
    # A NaN slips past the sign check of a diagonal covariance, and the
    # model would classify every window as 0 with NaN probabilities.
    values = dict(
        poi=[0, 1],
        mean0=np.zeros(2),
        mean1=np.ones(2),
        cov=np.ones(2) if mode == "diag" else np.eye(2),
        mode=mode,
    )
    values[part] = values[part].copy()
    values[part].flat[1] = value
    with pytest.raises(DomainError, match="finite"):
        TemplateModel(**values)


def test_model_file_roundtrip(tmp_path):
    x, y = blob_data()
    for mode in ("diag", "full"):
        model = fit_templates(x, y, [0, 1], mode=mode)
        path = tmp_path / f"model-{mode}.sctm"
        write_model(model, path)
        loaded = read_model(path)
        assert loaded.mode == model.mode
        assert np.array_equal(loaded.poi, model.poi)
        assert np.array_equal(loaded.mean0, model.mean0)
        assert np.array_equal(loaded.mean1, model.mean1)
        assert np.array_equal(loaded.cov, model.cov)
        assert loaded.trained_on == model.trained_on
        probe = np.random.default_rng(1).normal(size=(50, 2))
        before = classify_batch(model, probe)
        after = classify_batch(loaded, probe)
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])
        write_model(model, tmp_path / "again.sctm")
        assert path.read_bytes() == (tmp_path / "again.sctm").read_bytes()


def test_model_file_rejects_corruption(tmp_path):
    x, y = blob_data()
    model = fit_templates(x, y, [0, 1])
    path = tmp_path / "model.sctm"
    write_model(model, path)
    blob = path.read_bytes()
    bad_magic = tmp_path / "bad.sctm"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(DomainError):
        read_model(bad_magic)
    truncated = tmp_path / "short.sctm"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(DomainError):
        read_model(truncated)


def test_model_file_rejects_bad_meta_and_oversized_header(tmp_path):
    x, y = blob_data()
    model = fit_templates(x, y, [0, 1])
    model.trained_on["median_samples"] = "4"
    path = tmp_path / "model.sctm"
    write_model(model, path)
    blob = bytearray(path.read_bytes())
    header_size = struct.calcsize("<4sIBII")
    blob[header_size] = 0xFF
    path.write_bytes(blob)
    with pytest.raises(DomainError, match="UTF-8"):
        read_model(path)
    # A full model over 2**32 - 1 points would need about 2**67 bytes.
    path.write_bytes(struct.pack("<4sIBII", b"SCTM", 1, 1, 2**32 - 1, 0) + bytes(8))
    with pytest.raises(DomainError, match="header declares"):
        read_model(path)


def test_export_t_csv_is_deterministic(tmp_path):
    res = TTestResult(t_values=np.array([0.5, -4.75, 12.0]), n0=5, n1=5)
    first = tmp_path / "t1.csv"
    second = tmp_path / "t2.csv"
    export_t_csv(res, first)
    export_t_csv(res, second)
    lines = first.read_text().splitlines()
    assert lines[0] == "sample_index,t_value"
    assert lines[1] == "0,0.5"
    assert first.read_bytes() == second.read_bytes()


def test_feature_matrix_requires_uniform_length():
    cfg = SimConfig(noise_sigma=0.0, seed=1)
    rng = np.random.default_rng(0)
    windows = generate_swap_windows(SwapKind.PLAIN, 4, [0, 1, 0], cfg, rng)
    feats = feature_matrix(windows, 16)
    assert feats.shape == (3, windows.traces[0].samples.size)
    assert (feats >= 0.0).all()
    ragged = [windows.traces[0].samples, windows.traces[1].samples[:-8]]
    with pytest.raises(DomainError):
        feature_matrix(np.array(ragged, dtype=object), 16)


@pytest.mark.parametrize("median_samples", [3, 4, 5, 16, 17])
@pytest.mark.parametrize("rows", [1, 255, 256, 257, 600])
def test_feature_matrix_equals_per_row_envelopes(rows, median_samples):
    """Row blocks, each row padded by its own edges, give bit for bit the
    per-row filter, on both sides of every block boundary."""
    rng = np.random.default_rng(rows * 100 + median_samples)
    matrix = rng.normal(0.0, 1.0, (rows, 37))
    matrix[:, :5] = rng.integers(-3, 4, (rows, 5))  # ties at the left edge
    before = matrix.copy()
    expected = np.stack([rectified_envelope(row, median_samples) for row in matrix])
    got = feature_matrix(matrix, median_samples)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert np.array_equal(matrix, before)  # the input is left alone


def test_feature_matrix_rejects_a_window_wider_than_a_row():
    matrix = np.ones((300, 20))
    feature_matrix(matrix, 20)
    for bad in (21, 2):
        with pytest.raises(ConfigError):
            feature_matrix(matrix, bad)


def test_poi_fall_inside_swap_windows(toy):
    cfg = SimConfig(samples_per_event=8, noise_sigma=1.0, seed=5)
    rng = np.random.default_rng(17)
    ts = generate_training_set(toy, SwapKind.PLAIN, 80, cfg, rng)
    x = np.stack([t.samples for t in ts.traces])
    # The two training scalars disagree on the third swap condition, so
    # that column splits the traces by class.
    y = ts.labels[:, 2]
    assert 2 <= y.sum() <= 78
    res = welch_t(x, y)
    poi = select_poi(res, 40)
    inside = np.zeros(x.shape[1], dtype=bool)
    for window in swap_windows(ts.traces[0]):
        inside[window.start : window.end] = True
    assert inside[poi].all()
    assert res.max_abs_t > 4.5


def test_harvest_turns_full_traces_into_window_sets(toy):
    cfg = SimConfig(samples_per_event=8, noise_sigma=0.5, seed=6)
    rng = np.random.default_rng(23)
    ts = generate_training_set(toy, SwapKind.PLAIN, 6, cfg, rng)
    harvested = harvest_swap_windows(ts)
    width = toy.n.bit_length()
    assert len(harvested.traces) == 6 * width
    assert harvested.labels.shape == (6 * width, 1)
    assert np.array_equal(
        harvested.labels.reshape(6, width), ts.labels
    )
    lengths = {t.samples.size for t in harvested.traces}
    assert len(lengths) == 1
    flagged = np.zeros_like(ts.labels, dtype=bool)
    flagged[0, :] = True
    masked = harvest_swap_windows(TraceSet(ts.traces, ts.labels, flagged))
    assert len(masked.traces) == 5 * width


def test_harvested_windows_share_markers_and_one_meta_per_trace(toy):
    cfg = SimConfig(samples_per_event=8, noise_sigma=0.5, seed=6)
    ts = generate_training_set(toy, SwapKind.PLAIN, 3, cfg, np.random.default_rng(5))
    harvested = harvest_swap_windows(ts)
    width = toy.n.bit_length()
    assert len({id(t.markers) for t in harvested.traces}) == 1
    assert len(harvested.traces[0].markers) == 0
    for row, trace in enumerate(ts.traces):
        metas = [t.meta for t in harvested.traces[row * width : (row + 1) * width]]
        assert all(meta is metas[0] for meta in metas)
        assert metas[0] == trace.meta and metas[0] is not trace.meta


_DICT_MUTATORS = {"update", "pop", "popitem", "setdefault", "clear", "__setitem__", "__delitem__"}


def _is_meta(node):
    return isinstance(node, ast.Attribute) and node.attr == "meta"


def test_no_module_mutates_a_trace_meta_in_place():
    """Harvested windows share one meta dict per source trace, which is
    sound while no code writes into a ``.meta`` dict it did not make."""
    src = Path(__file__).resolve().parents[1] / "src" / "nonce_lab"
    writes = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Subscript) and _is_meta(node.value):
                if not isinstance(node.ctx, ast.Load):
                    writes.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _DICT_MUTATORS and _is_meta(node.func.value):
                    writes.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.AugAssign) and _is_meta(node.target):
                writes.append(f"{path.name}:{node.lineno}")
    assert writes == []


def test_noiseless_plain_windows_classify_perfectly():
    cfg = SimConfig(noise_sigma=0.0, seed=9)
    rng = np.random.default_rng(3)
    train = generate_swap_windows(
        SwapKind.PLAIN, 9, rng.integers(0, 2, 400), cfg, rng
    )
    model = fit_swap_classifier(train, cfg)
    test = generate_swap_windows(
        SwapKind.PLAIN, 9, rng.integers(0, 2, 1000), cfg, rng
    )
    guesses, probabilities = classify_batch(model, feature_matrix(test, 16))
    assert np.array_equal(guesses, test.labels[:, 0])
    confidence = np.where(guesses == 1, probabilities, 1.0 - probabilities)
    assert confidence.min() > 0.9


def test_combined_windows_stay_unclassifiable():
    cfg = SimConfig(noise_sigma=0.0, seed=21)
    rng = np.random.default_rng(4)
    train = generate_swap_windows(
        SwapKind.COMBINED, 9, rng.integers(0, 2, 600), cfg, rng
    )
    model = fit_swap_classifier(train, cfg)
    test = generate_swap_windows(
        SwapKind.COMBINED, 9, rng.integers(0, 2, 800), cfg, rng
    )
    guesses, _ = classify_batch(model, feature_matrix(test, 16))
    accuracy = float(np.mean(guesses == test.labels[:, 0]))
    assert accuracy <= 0.55


def test_correct_guesses_carry_higher_confidence():
    cfg = SimConfig(noise_sigma=12.0, seed=13)
    rng = np.random.default_rng(5)
    train = generate_swap_windows(
        SwapKind.PLAIN, 9, rng.integers(0, 2, 500), cfg, rng
    )
    model = fit_swap_classifier(train, cfg)
    test = generate_swap_windows(
        SwapKind.PLAIN, 9, rng.integers(0, 2, 800), cfg, rng
    )
    truth = test.labels[:, 0]
    guesses, probabilities = classify_batch(model, feature_matrix(test, 16))
    correct = guesses == truth
    assert 20 <= int((~correct).sum()) <= 360
    confidence = np.where(guesses == 1, probabilities, 1.0 - probabilities)
    assert confidence[correct].mean() > confidence[~correct].mean()


def attack_trace(curve, k, cfg, multiplier="ladder", seed=123):
    scalar = Scalar.for_curve(k, curve)
    variant = SwapVariant(SwapKind.PLAIN, rng_seed=99)
    recorder = EventRecorder()
    if multiplier == "ladder":
        montgomery_ladder(scalar, curve.generator, curve, variant, recorder)
    else:
        base = ProjectivePoint.from_affine(*curve.generator, curve.field)
        double_and_always_add(scalar, base, curve, variant, recorder)
    return synthesize(
        recorder,
        cfg,
        np.random.default_rng(seed),
        meta={"curve": curve.name, "multiplier": multiplier},
    )


def test_recover_nonce_bits_from_noiseless_ladder(toy):
    cfg = SimConfig(noise_sigma=0.0, seed=2)
    rng = np.random.default_rng(8)
    train = generate_training_set(toy, SwapKind.PLAIN, 24, cfg, rng)
    model = fit_swap_classifier(harvest_swap_windows(train), cfg)
    k = 65550
    trace = attack_trace(toy, k, cfg)
    aligned = align_swaps(trace, toy, cfg, "ladder")
    estimate = recover_nonce_bits(trace, model, aligned, "ladder")
    assert estimate.value == k
    assert len(estimate.bits) == toy.n.bit_length()
    confidence = np.where(
        np.array(estimate.conds) == 1,
        estimate.probabilities,
        1.0 - estimate.probabilities,
    )
    assert confidence.min() > 0.9


def test_recover_nonce_bits_from_noiseless_daa(toy):
    cfg = SimConfig(noise_sigma=0.0, seed=2)
    rng = np.random.default_rng(18)
    train = generate_training_set(
        toy, SwapKind.PLAIN, 24, cfg, rng, multiplier="daa"
    )
    model = fit_swap_classifier(harvest_swap_windows(train), cfg)
    k = 65549
    scalar = Scalar.for_curve(k, toy)
    variant = SwapVariant(SwapKind.PLAIN, rng_seed=77)
    recorder = EventRecorder()
    base = ProjectivePoint.from_affine(*toy.generator, toy.field)
    double_and_always_add(scalar, base, toy, variant, recorder)
    trace = synthesize(
        recorder,
        cfg,
        np.random.default_rng(55),
        meta={"curve": toy.name, "multiplier": "daa"},
    )
    aligned = align_swaps(trace, toy, cfg, "daa")
    estimate = recover_nonce_bits(trace, model, aligned, "daa")
    assert estimate.value == k
    assert estimate.bits == estimate.conds


@pytest.mark.parametrize("mode", ["diag", "full"])
@pytest.mark.parametrize("multiplier", ["ladder", "daa"])
def test_recover_nonce_bits_matches_per_window_oracle(toy, multiplier, mode):
    """Scoring all windows as one matrix gives the conditions and the
    probabilities of scoring them one at a time."""
    cfg = SimConfig(noise_sigma=5.0, seed=3)
    rng = np.random.default_rng(41)
    train = generate_training_set(
        toy, SwapKind.PLAIN, 40, cfg, rng, multiplier=multiplier
    )
    model = fit_swap_classifier(
        harvest_swap_windows(train), cfg, poi_count=16, mode=mode
    )
    for seed, k in enumerate((0x51F3, 65550, 3)):
        trace = attack_trace(toy, k, cfg, multiplier, seed=seed)
        aligned = align_swaps(trace, toy, cfg, multiplier)
        estimate = recover_nonce_bits(trace, model, aligned, multiplier)
        conds, probabilities = per_window_estimate(trace, model, aligned, multiplier)
        assert list(estimate.conds) == conds
        assert np.abs(estimate.probabilities - probabilities).max() <= 1e-12


def test_unknown_multiplier_is_rejected(toy):
    cfg = SimConfig(noise_sigma=0.0)
    trace = attack_trace(toy, 65550, cfg)
    with pytest.raises(NonceLabError):
        align_swaps(trace, toy, cfg, "window")
    with pytest.raises(NonceLabError):
        generate_training_set(toy, SwapKind.PLAIN, 2, cfg, multiplier="window")
    aligned = align_swaps(trace, toy, cfg, "ladder")
    model = TemplateModel(
        poi=[0], mean0=[0.0], mean1=[1.0], cov=[1.0], mode="diag",
        trained_on={"feature_length": "80", "median_samples": "16"},
    )
    with pytest.raises(ConfigError):
        recover_nonce_bits(trace, model, aligned, "window")


def test_recover_rejects_empty_windows(toy):
    cfg = SimConfig(noise_sigma=0.0, seed=2)
    model = TemplateModel(
        poi=[0],
        mean0=[0.0],
        mean1=[1.0],
        cov=[1.0],
        mode="diag",
        trained_on={"feature_length": "80", "median_samples": "16"},
    )
    trace = attack_trace(toy, 65550, cfg)
    from nonce_lab.dsp import AlignedSwapWindows

    empty = AlignedSwapWindows(spans=(), confidence=())
    with pytest.raises(AlignmentError):
        recover_nonce_bits(trace, model, empty, "ladder")


def victim_envelopes(curve, k, sigma, seed):
    """A victim trace's aligned windows, cut and enveloped as
    ``cluster_nonce_bits`` cuts them and centred, with its ground truth."""
    cfg = SimConfig(noise_sigma=sigma, seed=seed)
    trace = attack_trace(curve, k, cfg, seed=seed)
    aligned = align_swaps(trace, curve, cfg, "ladder")
    width = swap_burst_width(curve, "plain", "ladder", cfg)
    view, starts = analysis._window_starts(trace, aligned, "ladder", width)
    features = analysis._envelope_rows(view[starts], max(3, cfg.samples_per_event // 4))
    return trace, aligned, features - features.mean(axis=0)


@pytest.mark.parametrize("sigma", [2.0, 5.0])
def test_power_iteration_matches_the_svd_component(p128, sigma):
    k = int(np.random.default_rng(4).integers(1, 2**62)) * 2**60 + 12345
    _, _, features = victim_envelopes(p128, k, sigma, seed=31)
    got = first_component(features)
    want = svd_first_component(features)
    assert abs(np.linalg.norm(got) - 1.0) < 1e-12
    assert abs(float(got @ want)) >= 0.9999


def test_em_posteriors_match_the_textbook_oracle():
    rng = np.random.default_rng(17)
    values = np.concatenate((rng.normal(-2.0, 1.0, 150), rng.normal(3.0, 0.5, 250)))
    values = rng.permutation(values)
    got = two_cluster_posteriors(values)
    want = textbook_two_gaussian_em(values, analysis._EM_STEPS)
    assert ((got > 0.5) == (want > 0.5)).all()
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
    assert ((got > 0.5) == (values > 0.5)).mean() > 0.98


def test_clustering_reads_the_conds_under_one_labelling(p128):
    k = 0x5A5A_F00D_1234_5678_9ABC_DEF0_1357_9BDF % p128.n
    trace, aligned, _ = victim_envelopes(p128, k, 4.0, seed=8)
    truth = [w.cond for w in swap_windows(trace)]
    width = swap_burst_width(p128, "plain", "ladder", SimConfig())
    first, second = cluster_nonce_bits(trace, aligned, "ladder", width, SimConfig())
    assert [1 - c for c in first.conds] == list(second.conds)
    assert np.array_equal(first.probabilities + second.probabilities, np.ones(len(truth)))
    assert truth in (list(first.conds), list(second.conds))
    assert k in (first.value, second.value)


def test_clustering_degenerate_inputs_are_recovery_failures():
    with pytest.raises(RecoveryFailed):
        first_component(np.zeros((5, 3)))
    with pytest.raises(RecoveryFailed):
        two_cluster_posteriors(np.array([1.0]))
    # Identical values stay finite under the variance floor.
    assert np.isfinite(two_cluster_posteriors(np.zeros(6))).all()
