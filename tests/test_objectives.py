import ast
import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgse
from lgse import dsp, objectives
from lgse.dsp import Waveform
from lgse.evaluate import si_sdr
from lgse.model import ModelConfig
from lgse.numerics import constant
from lgse.objectives import (
    CIRM_K,
    IRM_GAMMA,
    MS_POWER,
    TARGETS,
    TargetKind,
    apply_target,
    cirm,
    compress_cirm,
    decompress_cirm,
    irm,
    ms_target,
    psm,
    target_grid,
    uncompress_ms,
)

from helpers import (
    KERNEL_SHAPES,
    SPECIAL_VALUES,
    cirm_masked,
    kernel_inputs,
    relu_where,
    same_bits,
    sigmoid_where,
    warned,
)


def grid(value, shape=(2, 3)):
    return np.full(shape, value, dtype=complex)


# -- irm ----------------------------------------------------------------------


def test_irm_equal_magnitudes():
    out = irm(grid(1 + 0j), grid(0 + 1j))
    assert np.allclose(out, 0.5 ** IRM_GAMMA)


def test_irm_noise_free_and_speech_free():
    assert np.allclose(irm(grid(2.0), grid(0.0)), 1.0)
    assert np.allclose(irm(grid(0.0), grid(3.0)), 0.0)
    assert np.all(irm(grid(0.0), grid(0.0)) == 0.0)


def test_irm_shape_mismatch():
    with pytest.raises(ValueError):
        irm(grid(1.0, (2, 3)), grid(1.0, (3, 2)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_irm_range_and_monotonicity(seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(0, 3, (4, 5)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 5)))
    v = rng.uniform(0, 3, (4, 5)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 5)))
    m = irm(s, v)
    assert np.all(m >= 0) and np.all(m <= 1)
    bigger = irm(s * 2.0, v)
    assert np.all(bigger >= m - 1e-15)


# -- psm ----------------------------------------------------------------------


def test_psm_identical_spectra():
    x = grid(1 + 2j)
    assert np.allclose(psm(x, x), 1.0)


def test_psm_quadrature_phase_is_zero():
    x = grid(1.0 + 0j)
    s = grid(0.0 + 1.0j)  # 90 degrees from x
    assert np.allclose(psm(s, x), 0.0)


def test_psm_clamps_magnitude_overshoot():
    x = grid(1.0 + 0j)
    s = grid(2.0 + 0j)  # aligned phase, twice the magnitude: raw 2 -> 1
    assert np.allclose(psm(s, x), 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_psm_always_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    x = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    m = psm(s, x)
    assert np.all(m >= 0.0) and np.all(m <= 1.0)


# -- cirm ---------------------------------------------------------------------


def test_cirm_identity_and_rotation():
    x = grid(2.0 - 1.0j)
    assert np.allclose(cirm(x, x), 1.0 + 0j)
    assert np.allclose(cirm(1j * x, x), 0.0 + 1.0j)


def test_cirm_rotation_against_complex_division():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(cirm(s, x), s / x, atol=1e-12)


def test_cirm_zero_cells():
    assert np.all(cirm(grid(1.0), grid(0.0)) == 0.0)
    assert np.all(cirm(grid(0.0), grid(1.0)) == 0.0)


def _complex_normals(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_cirm_gives_the_masked_forms_bits(shape):
    """Random spectra with zero bins and bins whose |X|^2 is nonzero but
    below the 1e-12 floor."""
    clean, noisy = _complex_normals(shape, 0), _complex_normals(shape, 1)
    noisy.flat[::7] = 0.0
    noisy.flat[1::11] = 1e-7 - 1e-7j
    assert same_bits(cirm(clean, noisy), cirm_masked(clean, noisy))


def test_cirm_on_special_values_gives_the_masked_forms_bits_and_warnings():
    """Every pair of special values as a clean and a noisy bin. Products
    such as inf * 0 warn of an invalid value in both forms alike."""
    z = np.empty((9, 9), dtype=complex)
    z.real, z.imag = SPECIAL_VALUES[:, None], SPECIAL_VALUES
    clean, noisy = np.broadcast_arrays(z[:, :, None, None], z)
    got, got_warnings = warned(cirm, clean, noisy)
    want, want_warnings = warned(cirm_masked, clean, noisy)
    assert same_bits(got, want) and got_warnings == want_warnings


@pytest.mark.parametrize("shape", [None] + KERNEL_SHAPES)
def test_output_heads_give_the_select_forms_bits(shape):
    """The IRM and PSM heads are the sigmoid, the MS head the ReLU."""
    for kind, want in ((TargetKind.IRM, sigmoid_where), (TargetKind.PSM, sigmoid_where),
                       (TargetKind.MS, relu_where)):
        for x in kernel_inputs(shape):
            assert same_bits(TARGETS[kind].head(constant(x)).data, want(x))


# -- compression ---------------------------------------------------------------


def test_compress_zero_and_asymptote():
    assert compress_cirm(np.array(0.0)) == 0.0
    far = compress_cirm(np.array(1e6))
    assert abs(far - CIRM_K) < 1e-9


def test_compress_decompress_roundtrip():
    t = np.array([-5.0, -1.0, 0.0, 1.0, 5.0])
    back = decompress_cirm(compress_cirm(t))
    assert np.max(np.abs(back - t)) < 1e-9


def test_decompress_clamps_and_warns(caplog):
    with caplog.at_level(logging.WARNING):
        out = decompress_cirm(np.array([10.0, -12.0, 0.5]))
    assert np.isfinite(out).all()
    assert "2 component" in caplog.text


@settings(max_examples=30, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50))
def test_compress_odd_and_monotone(a, b):
    ca = float(compress_cirm(np.array(a)))
    assert abs(ca + float(compress_cirm(np.array(-a)))) < 1e-12
    if a < b:
        cb = float(compress_cirm(np.array(b)))
        assert ca <= cb
        if b - a > 1e-6:
            assert ca < cb


# -- ms -----------------------------------------------------------------------


def test_ms_power_one_is_identity(monkeypatch):
    monkeypatch.setattr(objectives, "MS_POWER", 1.0)
    s = grid(3.0 - 4.0j)
    assert np.allclose(ms_target(s), 5.0)


def test_ms_sqrt_example(monkeypatch):
    monkeypatch.setattr(objectives, "MS_POWER", 0.5)
    assert np.allclose(ms_target(grid(4.0)), 2.0)


def test_ms_roundtrip_identity():
    rng = np.random.default_rng(1)
    s = rng.uniform(0, 5, (4, 6)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 6)))
    compressed = ms_target(s)
    assert np.array_equal(compressed, np.abs(s) ** MS_POWER)
    assert np.max(np.abs(uncompress_ms(compressed) - np.abs(s))) < 1e-12


# -- apply --------------------------------------------------------------------


def test_apply_ones_mask_is_identity():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    out = apply_target(ModelConfig(target=TargetKind.IRM), x, np.ones((3, 4)))
    assert np.allclose(out, x)


def test_apply_zeros_mask_is_silence():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    for kind in (TargetKind.IRM, TargetKind.PSM):
        assert np.all(apply_target(ModelConfig(target=kind), x, np.zeros((3, 4))) == 0)


def test_apply_ms_reattaches_noisy_phase():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    pred = ms_target(x)  # compressed |x| itself
    out = apply_target(ModelConfig(target=TargetKind.MS), x, pred)
    assert np.allclose(out, x, atol=1e-10)


def test_apply_cirm_from_stacked_prediction():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    s = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    cfg = ModelConfig(target=TargetKind.CIRM)
    stacked = target_grid(cfg, s, None, x)
    out = apply_target(cfg, x, stacked)
    assert np.allclose(out, s, atol=1e-8)


@pytest.mark.parametrize("kind", list(TargetKind))
def test_apply_target_stack_equals_rows(kind):
    rng = np.random.default_rng(6)
    x, s, v = (rng.normal(size=(3, 4, 5)) + 1j * rng.normal(size=(3, 4, 5))
               for _ in range(3))
    cfg = ModelConfig(target=kind, k_bins=5)
    pred = rng.uniform(0.0, 1.0, (3, 4, cfg.out_width))
    out = apply_target(cfg, x, pred)
    assert out.shape == x.shape
    grid = target_grid(cfg, s, v, x)
    assert grid.shape == pred.shape
    for b in range(3):
        assert np.max(np.abs(out[b] - apply_target(cfg, x[b], pred[b]))) <= 1e-12
        assert np.max(np.abs(grid[b] - target_grid(cfg, s[b], v[b], x[b]))) <= 1e-12


def test_apply_cirm_rejects_mismatched_stack():
    x = np.ones((3, 4, 5), dtype=complex)
    with pytest.raises(ValueError, match="cirm prediction shape"):
        apply_target(ModelConfig(target=TargetKind.CIRM), x, np.zeros((2, 4, 10)))


def test_prediction_width():
    assert ModelConfig(target=TargetKind.IRM, k_bins=257).out_width == 257
    assert ModelConfig(target=TargetKind.CIRM, k_bins=257).out_width == 514


@pytest.mark.parametrize("kind", list(TargetKind))
@pytest.mark.parametrize("snr", [0, 5, 10])
def test_oracle_targets_improve_si_sdr(kind, snr):
    for utt in dsp.synth_corpus(17, 2, 1.0):
        noisy = dsp.mix_at_snr(utt.clean, utt.noise, snr)
        gain = dsp.noise_gain_for_snr(utt.clean.samples, utt.noise.samples, snr)
        spec_x = dsp.stft(noisy)
        spec_s = dsp.stft(utt.clean)
        spec_v = dsp.stft(Waveform(gain * utt.noise.samples))
        cfg = ModelConfig(target=kind)
        pred = target_grid(cfg, spec_s, spec_v, spec_x)
        est = dsp.istft(apply_target(cfg, spec_x, pred), out_len=len(noisy))
        gain_db = si_sdr(est, utt.clean) - si_sdr(noisy, utt.clean)
        assert gain_db > 0.0
        if snr == 0:
            assert gain_db > 5.0


# -- the objective table ----------------------------------------------------------


def test_targets_table_covers_every_kind():
    assert set(TARGETS) == set(TargetKind)


def test_apply_cirm_rejects_complex_prediction():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    with pytest.raises(ValueError, match="cirm prediction shape"):
        apply_target(ModelConfig(target=TargetKind.CIRM), x, cirm(x, x))


def _names_target_member(node) -> bool:
    members = {k.name for k in TargetKind}
    if not (isinstance(node, ast.Attribute) and node.attr in members):
        return False
    owner = node.value
    return ((isinstance(owner, ast.Name) and owner.id == "TargetKind")
            or (isinstance(owner, ast.Attribute) and owner.attr == "TargetKind"))


def test_only_the_objective_table_branches_on_target_kind():
    """No lgse module compares against, or matches on, a TargetKind member:
    objective-specific behaviour lives in `TARGETS`."""
    found = []
    for path in sorted(Path(lgse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Compare, ast.MatchValue)):
                found += [f"{path.name}:{sub.lineno}" for sub in ast.walk(node)
                          if _names_target_member(sub)]
    assert found == []
