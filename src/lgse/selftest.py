"""Self-contained oracle and invariant checks, printed one PASS/FAIL per line.

These are the fast subset of the verification suite (the full suite lives in
tests/); `lgse selftest` runs them without pytest. Reference values are
computed by naive independent evaluators, never by the code under test.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
import traceback
from functools import partial

import numpy as np

from . import dsp, evaluate, objectives, posenc, training
from . import model as model_module
from .dsp import Waveform
from .model import EnhancementModel, ModelConfig, param_shapes
from .numerics import Tensor, backward, finite_difference
from .posenc import PeKind


# -- naive reference evaluators (per-pair loops, no Toeplitz shortcut) --------

# The bias at offset r = i - j, one formula per scheme. Scalar np.exp/np.log
# keep the elementary functions bitwise equal to the built path's.
NAIVE_OFFSET = {
    PeKind.GAUSS: lambda r, p: -(float(r) ** 2 / (p["sigma"] * p["sigma"] * 2.0)),
    PeKind.T5: lambda r, p: p["bucket"][posenc.t5_bucket_index(r)],
    PeKind.TISA: lambda r, p: sum(np.exp(-(abs(b) * ((-r - c) * (-r - c)))) * a
                                  for a, b, c in zip(p["a"], p["b"], p["c"])),
    PeKind.DABIAS: lambda r, p: ((np.exp(p["v"]) + 1.0)
                                 / (np.exp(p["v"] - float(abs(r)) * p["w"]) + 1.0)),
    PeKind.KERPLE: lambda r, p: -(np.exp(p["rho1"])
                                  * np.log(float(abs(r)) * np.exp(p["rho2"]) + 1.0)),
    PeKind.LEARNLIN: lambda r, p: float(abs(r)) * p["beta"],
}


def naive_bias(kind: PeKind, length: int, params: dict) -> np.ndarray:
    offset = NAIVE_OFFSET[kind]
    out = np.zeros((length, length))
    for i in range(length):
        for j in range(length):
            out[i, j] = offset(i - j, params)
    return out


# Random parameter draws per scheme; `h` is the leading head shape.
_RANDOM_PARAMS = {
    PeKind.GAUSS: lambda rng, h: {"sigma": rng.uniform(0.5, 20.0, h)},
    PeKind.T5: lambda rng, h: {"bucket": rng.normal(size=h + (posenc.T5_BUCKETS,))},
    PeKind.TISA: lambda rng, h: {"a": rng.normal(size=h + (5,)),
                                 "b": rng.normal(size=h + (5,)),
                                 "c": rng.uniform(-8, 8, h + (5,))},
    PeKind.DABIAS: lambda rng, h: {"w": rng.uniform(-0.5, 0.5, h), "v": rng.normal(size=h)},
    PeKind.KERPLE: lambda rng, h: {"rho1": rng.normal(size=h), "rho2": rng.normal(size=h)},
    PeKind.LEARNLIN: lambda rng, h: {"beta": rng.uniform(-1, 1, h)},
}


def random_bias_params(kind: PeKind, rng: np.random.Generator,
                       heads: tuple[int, ...] = ()) -> dict[str, np.ndarray]:
    """Random parameters for a bias scheme, each with leading axes `heads`
    (tisa's kernels and t5's buckets keep their own last axis)."""
    return _RANDOM_PARAMS[PeKind(kind)](rng, tuple(heads))


def built_bias(kind: PeKind, length: int, params: dict) -> np.ndarray:
    tensors = {name: Tensor(value) for name, value in params.items()}
    return posenc.SCHEMES[PeKind(kind)].bias(length, tensors).data


# -- gradient check against central finite differences -------------------------


def flatten_params(model: EnhancementModel) -> np.ndarray:
    return np.concatenate([model.params[n].data.ravel() for n in model.params])


def set_params(model: EnhancementModel, flat: np.ndarray) -> None:
    offset = 0
    for name in model.params:
        p = model.params[name]
        p.data = flat[offset:offset + p.size].reshape(p.shape).copy()
        offset += p.size


def model_gradient_mismatches(model: EnhancementModel, x: np.ndarray,
                              target: np.ndarray) -> tuple[int, float]:
    """Compare autodiff parameter gradients against central finite differences.

    A coordinate fails when the two differ by more than 1e-4 of the larger
    magnitude, or by more than 1e-8 absolute. Returns (number of failing
    coordinates, worst relative error).
    """
    rel_tol, abs_tol = 1e-4, 1e-8
    flat0 = flatten_params(model)

    def loss_at(flat):
        set_params(model, flat)
        return float(training.mse_loss(model.forward(x), target).data)

    model.zero_grad()
    set_params(model, flat0)
    loss = training.mse_loss(model.forward(x), target)
    backward(loss)
    auto = np.concatenate([
        (model.params[n].grad if model.params[n].grad is not None
         else np.zeros(model.params[n].shape)).ravel() for n in model.params])
    fd = finite_difference(loss_at, flat0)
    set_params(model, flat0)
    err = np.abs(auto - fd)
    scale = np.maximum(np.abs(auto), np.abs(fd))
    bad = err > np.maximum(rel_tol * scale, abs_tol)
    rel = err / np.maximum(scale, 1e-12)
    worst = float(rel[scale > abs_tol].max()) if np.any(scale > abs_tol) else 0.0
    return int(bad.sum()), worst


# -- checks -------------------------------------------------------------------


def check_param_counts():
    """Reference sizes of the `pe.*` parameters `param_shapes` implies at
    H=8, N=4 and tisa's S=5; bertpos holds L' = 64 rows of d_model = 256."""
    expected = {"learnlin": 8, "gauss": 8, "dabias": 16, "kerple": 16, "t5": 256,
                "tisa": 480, "sinusoidal": 0, "nopos": 0, "rope": 0, "bertpos": 64 * 256}
    for kind, want in expected.items():
        shapes = param_shapes(ModelConfig(n_layers=4, n_heads=8, d_model=256,
                                          pe_kind=kind, bertpos_max_len=64))
        got = sum(math.prod(shape) for name, shape in shapes.items()
                  if name.startswith("pe."))
        assert got == want, f"{kind}: {got} != {want}"


def check_bias_oracle():
    rng = np.random.default_rng(11)
    for kind in NAIVE_OFFSET:
        for length in (3, 17, 64):
            params = random_bias_params(kind, rng)
            built = built_bias(kind, length, params)
            naive = naive_bias(kind, length, params)
            assert np.array_equal(built, naive), f"{kind.value} L={length}"
            # Toeplitz and extension consistency.
            ext = built_bias(kind, length + 16, params)
            assert np.array_equal(ext[:length, :length], built), kind.value
            assert np.array_equal(built[:-1, :-1], built[1:, 1:]), kind.value


def check_t5_fixtures():
    fixtures = {0: 0, 7: 7, 8: 8, 128: 15, -3: 19, -8: 24}
    for rel, want in fixtures.items():
        got = posenc.t5_bucket_index(rel)
        assert got == want, f"offset {rel}: bucket {got} != {want}"


def check_stft_roundtrip():
    rng = np.random.default_rng(3)
    for dur in (1.0, 3.5):
        n = int(dur * dsp.SAMPLE_RATE)
        x = rng.uniform(-0.5, 0.5, n)
        spec = dsp.stft(Waveform(x))
        y = dsp.istft(spec, out_len=n).samples
        lo, hi = dsp.WIN_LEN, (spec.shape[0] - 1) * dsp.HOP
        err = np.max(np.abs(x[lo:hi] - y[lo:hi]))
        assert err < 1e-10, f"round-trip error {err}"


def check_framing():
    assert dsp.frame_count(16000) == 61
    spec = dsp.stft(Waveform(np.zeros(512)))
    assert spec.shape == (1, 257)
    assert np.max(np.abs(spec)) == 0.0


def check_oracle_masks():
    corpus = dsp.synth_corpus(5, 2, 1.0)
    for utt in corpus:
        noisy = dsp.mix_at_snr(utt.clean, utt.noise, 0)
        gain = dsp.noise_gain_for_snr(utt.clean.samples, utt.noise.samples, 0)
        spec_x = dsp.stft(noisy)
        spec_s = dsp.stft(utt.clean)
        spec_v = dsp.stft(Waveform(gain * utt.noise.samples))
        before = evaluate.si_sdr(noisy, utt.clean)
        for kind in objectives.TargetKind:
            cfg = ModelConfig(target=kind)
            pred = objectives.target_grid(cfg, spec_s, spec_v, spec_x)
            out = objectives.apply_target(cfg, spec_x, pred)
            est = dsp.istft(out, out_len=len(noisy))
            after = evaluate.si_sdr(est, utt.clean)
            assert after - before > 5.0, f"{kind.value}: {after - before:.2f} dB"


def check_lr_schedule():
    for d_model, w in ((256, 4000), (32, 250)):
        peak = training.lr_schedule(w, w, d_model)
        assert peak == d_model ** -0.5 * w ** -0.5
        for n in range(1, w):
            assert training.lr_schedule(n, w, d_model) < training.lr_schedule(n + 1, w, d_model)
        for n in range(w, 2 * w, max(1, w // 10)):
            assert training.lr_schedule(n, w, d_model) > training.lr_schedule(n + 1, w, d_model)


def check_chunk_counts():
    n = 20 * dsp.SAMPLE_RATE
    c = 1 * dsp.SAMPLE_RATE
    assert len(evaluate.chunk_starts(n, c, 0)) == 20
    assert len(evaluate.chunk_starts(n, c, 0.5)) == 39


def check_gradient_small():
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, k_bins=9,
                      pe_kind="learnlin", target="irm", init_seed=7)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.5, (5, 9))
    target = rng.uniform(0.0, 1.0, (5, 9))
    bad, worst = model_gradient_mismatches(EnhancementModel(cfg), x, target)
    assert bad == 0, f"{bad} gradient mismatches; worst relative error {worst:.3g}"


def check_tape_free_forward():
    """Blocked tape-free `predict` against the tape `forward` for every
    scheme and a learnlin decay strong enough to hit the softmax floor, with
    attention blocks small enough that each call makes several and every
    per-frame part split into blocks of 4 frames; and `predict` on up to
    three workers against one, bitwise, on any host."""
    rng = np.random.default_rng(12)
    # (kind, length, learnlin beta); beta -2 reaches -798 at L = 400.
    cases = [(kind, 13, None) for kind in posenc.SCHEMES]
    cases += [(PeKind.LEARNLIN, 400, -2.0)]
    saved = (model_module._BLOCK_BYTES, model_module._FRAME_WORK, model_module._FRAME_ROWS,
             model_module._workers)
    try:
        model_module._FRAME_WORK, model_module._FRAME_ROWS = 1, 4
        for kind, length, beta in cases:
            model = EnhancementModel(ModelConfig(
                n_layers=2, n_heads=2, d_model=8, d_ff=16, k_bins=9, pe_kind=kind,
                bertpos_max_len=8, init_seed=5))
            for name, t in model.params.items():
                if name.startswith("pe."):
                    t.data = t.data + rng.normal(0.0, 0.3, t.shape)
            if beta is not None:
                model.params["pe.beta"].data[:] = beta
            # Three query blocks per attention call over the two heads.
            model_module._BLOCK_BYTES = 8 * 2 * length * -(-length // 3)
            x = rng.uniform(0.0, 2.0, (length, 9))
            preds = {}
            for cap in (3, 1):
                model_module._workers = partial(min, cap)
                preds[cap] = model.predict(x)
            err = np.max(np.abs(preds[3] - model.forward(x).data))
            assert err <= 1e-12, f"{kind.value} L={length}: {err:.3g}"
            assert np.array_equal(preds[1], preds[3]), (
                f"{kind.value} L={length}: one worker differs from three")
    finally:
        (model_module._BLOCK_BYTES, model_module._FRAME_WORK, model_module._FRAME_ROWS,
         model_module._workers) = saved


def check_checkpoint_roundtrip():
    """Save and load a tiny model per scheme, its tensors moved off their
    init values so that a record the loader skips shows: `predict` must be
    bitwise equal and a second save byte-identical. L = 13 runs bertpos
    past its trained rows, into its fixed ones."""
    rng = np.random.default_rng(13)
    x = rng.uniform(0.0, 2.0, (13, 9))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.lgse"), os.path.join(tmp, "b.lgse")
        for kind in posenc.SCHEMES:
            model = EnhancementModel(ModelConfig(
                n_layers=2, n_heads=2, d_model=8, d_ff=16, k_bins=9, pe_kind=kind,
                bertpos_max_len=8, init_seed=5))
            for t in model.params.values():
                t.data = t.data + rng.normal(0.0, 0.1, t.shape)
            training.save_checkpoint(first, model, step=3)
            loaded, step = training.load_checkpoint(first)
            assert step == 3, f"{kind.value}: step {step} != 3"
            assert np.array_equal(loaded.predict(x), model.predict(x)), kind.value
            training.save_checkpoint(second, loaded, step=step)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read(), f"{kind.value}: second save differs"


def check_experiment_workers():
    """A tiny experiment, one kind loaded and two trained, writes the same
    report.csv bytes on one process and on up to three."""
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16)
    workers = model_module._workers
    reports = []
    for cap in (1, 3):
        with tempfile.TemporaryDirectory() as out:
            training.save_checkpoint(os.path.join(out, "model_learnlin.lgse"),
                                     EnhancementModel(cfg))
            model_module._workers = partial(min, cap)
            try:
                reports.append(evaluate.run_lengen_experiment(
                    3, cfg, training.TrainConfig(clip_len_s=0.5, batch_utts=2,
                                                 max_steps=1, w_steps=10),
                    evaluate.ExperimentConfig(kinds=("learnlin", "nopos", "sinusoidal"),
                                              train_utts=2),
                    evaluate.TestSuiteConfig(durations_s=(0.5, 1.25), snrs_db=(0, 5),
                                             utts_per_condition=1),
                    out).to_csv_text())
            finally:
                model_module._workers = workers
    assert reports[0] == reports[1], "report.csv differs on 1 and 3 processes"


def check_mix_snr():
    rng = np.random.default_rng(2)
    clean = Waveform(rng.uniform(-0.3, 0.3, 8000))
    noise = Waveform(rng.uniform(-0.3, 0.3, 8000))
    for snr in (-10, 0, 20):
        mix = dsp.mix_at_snr(clean, noise, snr)
        scaled = mix.samples - clean.samples
        measured = 10 * np.log10(np.sum(clean.samples ** 2) / np.sum(scaled ** 2))
        assert abs(measured - snr) < 1e-9


CHECKS = [
    ("posenc", "param_counts", check_param_counts, False),
    ("posenc", "bias_oracle", check_bias_oracle, False),
    ("posenc", "t5_bucket_fixtures", check_t5_fixtures, False),
    ("dsp", "framing", check_framing, False),
    ("dsp", "stft_roundtrip", check_stft_roundtrip, False),
    ("dsp", "mix_at_snr", check_mix_snr, False),
    ("objectives", "oracle_masks", check_oracle_masks, False),
    ("training", "lr_schedule", check_lr_schedule, False),
    ("training", "checkpoint_roundtrip", check_checkpoint_roundtrip, False),
    ("eval", "chunk_counts", check_chunk_counts, False),
    ("eval", "experiment_workers", check_experiment_workers, False),
    ("model", "tape_free_forward", check_tape_free_forward, False),
    ("numerics", "model_gradient_check", check_gradient_small, True),
]


def run(fast: bool = False) -> int:
    """Run all checks; print one line per check plus a per-module verdict."""
    failures = 0
    module_ok: dict[str, bool] = {}
    for module, name, fn, slow in CHECKS:
        if fast and slow:
            continue
        start = time.perf_counter()
        try:
            fn()
            ok = True
            detail = ""
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            ok = False
            detail = f"  ({exc})"
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        module_ok[module] = module_ok.get(module, True) and ok
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {module}.{name}  [{elapsed:.2f}s]{detail}")
        failures += 0 if ok else 1
    print("-" * 40)
    for module, ok in module_ok.items():
        print(f"{'PASS' if ok else 'FAIL'}  module {module}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(run())
