"""Names, units and sources of every metric the benchmark reports.

End-to-end metrics are measured with tracing off and are reported by every
workload; `DETAIL` lists the workload-specific figures printed beside them.
Per-layer metrics come from the traced run. Each per-layer entry names the
span(s) it reads and the workloads that must call them: on those workloads a
span that records no call fails the run (probe liveness), so a renamed or
moved function shows up as a missing layer rather than as a silent zero.
Times and counts are per round, a round being the workload's fixed unit of
work (see `workloads.py`); times are nominal seconds (see `run.calibrate`).
"""

from __future__ import annotations

TRAIN, ENHANCE, LENGEN = "train-desk", "enhance-long", "lengen-mini"
ALL = (TRAIN, ENHANCE, LENGEN)

# name, unit, better, bound (share of the parent's median it may worsen by)
#   round_s      median of one round: train-desk trains the five pairs for two
#                steps each and saves their checkpoints; enhance-long makes
#                the 13 enhance calls; lengen-mini runs the experiment once
#   cold_call_s  median over fresh processes of their first operation: the
#                first train-desk round, the reference 20 s enhance call, or
#                the first lengen-mini experiment
#   peak_rss_mb  peak resident memory of the measuring process
#   ops_ok_frac  operations that passed their checks over those attempted
#   setup_s      import plus the median of the workload's set-ups
END_TO_END = (
    ("round_s", "s", "lower", 0.25),
    ("cold_call_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ops_ok_frac", "frac", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
)

# Workload-specific figures, printed and kept in --out files.
DETAIL = {
    TRAIN: (("train_steps_per_s", "1/s"),),
    ENHANCE: (("rtf_full_4s", "s/s"), ("rtf_full_20s", "s/s"),
              ("rtf_sego_4s", "s/s"), ("rtf_sego_20s", "s/s"),
              ("rtf_ref_full_20s", "s/s"), ("cold_enhance_20s_s", "s")),
    LENGEN: (("experiment_wall_s", "s"),),
}

BIAS_BUILDERS = tuple(f"posenc.{n}" for n in (
    "gauss_bias", "t5_bias", "tisa_bias", "da_bias", "kerple_bias", "learnlin_bias"))
FORWARD = "model.EnhancementModel.forward"
TRAIN_KINDS = ("learnlin", "tisa", "dabias", "rope", "bertpos")

# name, unit, how, spans, workloads that must hit the spans.
#   time:  inclusive milliseconds in the spans per round
#   calls: calls of the spans per round
SPAN_METRICS = (
    ("numerics.backward_ms", "ms", "time", ("numerics.backward",), (TRAIN,)),
    ("numerics.matmul_calls", "count", "calls", ("numerics.matmul",), ALL),
    ("numerics.matmul_ms", "ms", "time", ("numerics.matmul",), ALL),
    ("numerics.softmax_rows_ms", "ms", "time", ("numerics.softmax_rows",), ALL),
    ("numerics.layer_norm_frames_ms", "ms", "time",
     ("numerics.layer_norm_frames",), ALL),
    ("posenc.bias_ms", "ms", "time", BIAS_BUILDERS, ALL),
    ("posenc.bias_calls.learnlin", "count", "calls", ("posenc.learnlin_bias",), ALL),
    ("posenc.bias_calls.tisa", "count", "calls", ("posenc.tisa_bias",),
     (TRAIN, ENHANCE)),
    ("posenc.bias_calls.dabias", "count", "calls", ("posenc.da_bias",), (TRAIN,)),
    ("posenc.rope_rotate_ms", "ms", "time", ("posenc.rope_rotate",), (TRAIN, ENHANCE)),
    ("model.embed_ms", "ms", "time", ("model.EnhancementModel.embed",), ALL),
    ("model.mhsa_ms", "ms", "time", ("model.EnhancementModel.mhsa",), ALL),
    ("model.ffn_ms", "ms", "time", ("model.EnhancementModel.ffn",), ALL),
    ("model.forward_calls", "count", "calls", (FORWARD,), ALL),
    ("objectives.target_grid_ms", "ms", "time", ("objectives.target_grid",), (TRAIN,)),
    ("objectives.apply_target_ms", "ms", "time", ("objectives.apply_target",),
     (ENHANCE, LENGEN)),
    ("dsp.stft_ms", "ms", "time", ("dsp.stft",), ALL),
    ("dsp.istft_ms", "ms", "time", ("dsp.istft",), (ENHANCE, LENGEN)),
    ("dsp.synth_corpus_ms", "ms", "time", ("dsp.synth_corpus",), (LENGEN,)),
    ("dsp.read_wav_ms", "ms", "time", ("dsp.read_wav",), (ENHANCE,)),
    ("dsp.write_wav_ms", "ms", "time", ("dsp.write_wav",), (ENHANCE,)),
    ("training.make_batch_ms", "ms", "time", ("training.make_batch",), (TRAIN,)),
    ("training.adam_step_ms", "ms", "time", ("training.adam_step",), (TRAIN,)),
    ("training.clip_gradients_ms", "ms", "time", ("training.clip_gradients",),
     (TRAIN,)),
    ("training.save_checkpoint_ms", "ms", "time", ("training.save_checkpoint",),
     (TRAIN,)),
    ("training.load_checkpoint_ms", "ms", "time", ("training.load_checkpoint",),
     (ENHANCE, LENGEN)),
    ("evaluate.enhance_full_ms", "ms", "time", ("evaluate.enhance_full",),
     (ENHANCE, LENGEN)),
    ("evaluate.enhance_chunked_ms", "ms", "time", ("evaluate.enhance_chunked",),
     (ENHANCE, LENGEN)),
    ("evaluate.si_sdr_ms", "ms", "time", ("evaluate.si_sdr",), (LENGEN,)),
    ("evaluate.seg_snr_ms", "ms", "time", ("evaluate.seg_snr",), (LENGEN,)),
)

# Self time of every wrapped function of a layer, per round.
LAYER_SELF = (
    ("numerics", ALL), ("posenc", ALL), ("model", ALL), ("objectives", ALL),
    ("dsp", ALL), ("training", ALL), ("evaluate", (ENHANCE, LENGEN)),
)

# Values the workloads measure themselves (name, unit, workloads that must
# produce a non-zero value).
PROBE_METRICS = tuple(
    (f"numerics.tape_nodes_per_step.{k}", "count", (TRAIN,)) for k in TRAIN_KINDS
) + (
    ("numerics.retained_mb", "MB", (ENHANCE,)),
    ("training.checkpoint_bytes", "count", (TRAIN,)),
    ("evaluate.chunks_per_call", "count", (ENHANCE, LENGEN)),
    ("bench.round_s_untraced", "s", ALL),
    ("bench.round_s_traced", "s", ALL),
    ("bench.trace_overhead_pct", "%", ()),
    ("bench.spans_per_round", "count", ALL),
)


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, unit, *_ in SPAN_METRICS}
    units.update({f"{layer}.self_ms": "ms" for layer, _ in LAYER_SELF})
    units.update({name: unit for name, unit, _ in PROBE_METRICS})
    return units


def per_layer(summary, rounds: int, scale: float, workload: str, wrapped: set[str],
              probes: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Per-round per-layer values and the probes that failed liveness.

    Span times are multiplied by `scale`, nominal over wall seconds.
    """
    values: dict[str, float] = {}
    dead: list[str] = []
    for name, _, how, spans, needed in SPAN_METRICS:
        if how == "time":
            values[name] = 1e3 * scale * summary.total_of(spans) / rounds
        else:
            values[name] = summary.calls_of(spans) / rounds
        if workload in needed:
            missing = [s for s in spans if s not in wrapped]
            if len(missing) == len(spans):
                dead.append(f"{name}: no public function {', '.join(spans)}")
            elif summary.calls_of(spans) == 0:
                dead.append(f"{name}: {', '.join(spans)} never called")
    for layer, needed in LAYER_SELF:
        values[f"{layer}.self_ms"] = 1e3 * scale * summary.layer_self(layer) / rounds
        if workload in needed and summary.layer_calls(layer) == 0:
            dead.append(f"{layer}.self_ms: no {layer} span recorded")
    for name, _, needed in PROBE_METRICS:
        values[name] = float(probes.get(name, 0.0))
        if workload in needed and not values[name] > 0:
            dead.append(f"{name}: probe recorded nothing")
    return values, dead
