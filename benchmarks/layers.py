"""Which library calls the traced run wraps, and the per-layer metrics
computed from the spans of one pass.

Each wrapper sits at the name the caller looks the function up by, so a
function imported into `sheafcast.cli` is wrapped there and a function
called through its own module's globals is wrapped in that module.
"""

from __future__ import annotations

from pathlib import Path

from tracer import GC_SPAN, Hook, Tracer, aggregate, nearest_rank, tail_percentile

# metric -> span name whose self time it reports
SELF_TIME = {
    "autodiff.backward_s": "autodiff.backward",
    "encoder.encode_s": "encoder.encode",
    "sheaf.message_pass_s": "sheaf.message_pass",
    "dynamics.rk4_s": "dynamics.rk4",
    "dynamics.field_s": "dynamics.field",
    "model.forward_s": "model.forward",
    "training.loss_s": "training.loss",
    "training.adamw_s": "training.adamw",
    "training.checkpoint_io_s": "training.checkpoint_io",
    "graphs.granger_s": "graphs.granger",
    "graphs.prior_select_s": "graphs.prior_select",
    "neurosim.simulate_s": "neurosim.simulate",
    "neurosim.bin_smooth_s": "neurosim.bin_smooth",
    "neurosim.record_io_s": "neurosim.record_io",
    "neurosim.rates_csv_s": "neurosim.rates_csv",
    "data.windowing_s": "data.windowing",
    "data.windows_io_s": "data.windows_io",
    "metrics.evaluate_s": "metrics.evaluate",
    "metrics.dtw_s": "metrics.dtw",
    "config.file_hash_s": "config.file_hash",
    "runtime.gc_pause_s": GC_SPAN,
}

CLI_COMMANDS = {"simulate": "cmd_simulate", "prior": "cmd_prior",
                "train": "cmd_train", "perturb_eval": "cmd_perturb_eval",
                "forecast": "cmd_forecast", "metrics": "cmd_metrics"}

# metric -> span name whose inclusive duration it sums
INCLUSIVE_TIME = {f"cli.{cmd}_s": f"cli.{cmd}" for cmd in CLI_COMMANDS}
# cli.self_s: command time no library span covers, parsing in `main` included
CLI_SELF_SPANS = ("cli.main",) + tuple(f"cli.{cmd}" for cmd in CLI_COMMANDS)

# metric -> span name whose call count it reports
CALLS = {
    "autodiff.backward_calls": "autodiff.backward",
    "encoder.encode_calls": "encoder.encode",
    "sheaf.message_pass_calls": "sheaf.message_pass",
    "dynamics.field_evals": "dynamics.field",
    "model.forward_calls": "model.forward",
    "training.adamw_steps": "training.adamw",
    "graphs.granger_calls": "graphs.granger",
    "metrics.dtw_calls": "metrics.dtw",
}

# counts taken by hooks from arguments and results
HOOK_COUNTS = ("neurosim.lif_steps", "data.windows_built", "config.file_hash_bytes")

# per-call timing (inclusive duration of one call), pooled over traced passes
PER_CALL = {"model.forward": "model.forward_call",
            "autodiff.backward": "autodiff.backward_call"}

TRACE_METRICS = {
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.unattributed_ratio": "ratio",
    "trace.traced_passes": "count",
}


def _unit(name: str) -> str:
    if name in TRACE_METRICS:
        return TRACE_METRICS[name]
    if name.endswith("_ms_p50") or name.endswith("_ms_tail"):
        return "ms"
    if name.endswith("_tail_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    names = (list(SELF_TIME) + list(INCLUSIVE_TIME) + ["cli.self_s"]
             + list(CALLS) + list(HOOK_COUNTS)
             + ["runtime.gc_gen2_collections", "data.placement_ok_ratio"])
    for prefix in PER_CALL.values():
        names += [f"{prefix}_ms_p50", f"{prefix}_ms_tail", f"{prefix}_tail_pct",
                  f"{prefix}_samples"]
    names += list(TRACE_METRICS)
    return {name: _unit(name) for name in names}


# ----------------------------------------------------------------------
# installing the wrappers
# ----------------------------------------------------------------------
def _lif_steps(counts, args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs["params"]
    counts["neurosim.lif_steps"] += int(round(params.duration_ms / params.dt_ms))


def _windows_built(counts, args, kwargs, result):
    counts["data.windows_built"] += len(result)


def _placed(counts, args, kwargs, result):
    _windows_built(counts, args, kwargs, result)
    counts["data.placement_attempts"] += 1
    counts["data.placement_ok"] += 1


def _not_placed(counts, args, kwargs, exc):
    counts["data.placement_attempts"] += 1


def _hashed_bytes(counts, args, kwargs, result):
    counts["config.file_hash_bytes"] += Path(args[0]).stat().st_size


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from sheafcast import autodiff, cli, data, metrics, model, neurosim, training

    w = tracer.wrap
    w(autodiff.Tensor, "backward", "autodiff.backward")
    w(model, "encode_all", "encoder.encode")
    w(model, "message_pass", "sheaf.message_pass")
    w(model, "rk4_states", "dynamics.rk4")
    w(model, "field_batch", "dynamics.field")
    w(model.ForecastModel, "forward", "model.forward")
    w(training, "total_loss", "training.loss")
    w(training, "adamw_step", "training.adamw")
    w(cli, "save_checkpoint", "training.checkpoint_io")
    w(cli, "load_checkpoint", "training.checkpoint_io")
    w(cli, "granger_score_matrix", "graphs.granger")
    w(cli, "prior_from_scores", "graphs.prior_select")
    w(cli, "simulate", "neurosim.simulate", Hook(on_result=_lif_steps))
    w(neurosim, "bin_and_smooth", "neurosim.bin_smooth")
    w(cli, "save_record", "neurosim.record_io")
    w(cli, "load_record", "neurosim.record_io")
    for owner in (cli, neurosim, data):
        w(owner, "save_rates_csv", "neurosim.rates_csv")
        w(owner, "load_rates_csv", "neurosim.rates_csv")
    w(cli, "make_windows", "data.windowing", Hook(on_result=_windows_built))
    w(cli, "make_perturbed_windows", "data.windowing",
      Hook(on_result=_placed, on_error=_not_placed))
    w(cli, "load_windows", "data.windows_io")
    w(cli, "evaluate", "metrics.evaluate")
    w(metrics, "evaluate", "metrics.evaluate")
    w(metrics, "dtw_normalized", "metrics.dtw")
    w(cli, "file_hash", "config.file_hash", Hook(on_result=_hashed_bytes))
    w(cli, "main", "cli.main")
    for cmd, attr in CLI_COMMANDS.items():
        w(cli, attr, f"cli.{cmd}")


# ----------------------------------------------------------------------
# metrics of one traced pass
# ----------------------------------------------------------------------
def pass_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of the spans recorded since the last reset."""
    agg = aggregate(tracer.spans)

    def get(name, key):
        return agg[name][key] if name in agg else 0

    out = {m: get(n, "self") for m, n in SELF_TIME.items()}
    out.update({m: get(n, "total") for m, n in INCLUSIVE_TIME.items()})
    out["cli.self_s"] = sum(get(n, "self") for n in CLI_SELF_SPANS)
    out.update({m: get(n, "calls") for m, n in CALLS.items()})
    out.update({m: tracer.counts.get(m, 0) for m in HOOK_COUNTS})
    out["runtime.gc_gen2_collections"] = tracer.gc_gen2
    attempts = tracer.counts.get("data.placement_attempts", 0)
    # no placement attempted wastes nothing
    out["data.placement_ok_ratio"] = (tracer.counts.get("data.placement_ok", 0) / attempts
                                      if attempts else 1.0)
    return out


def call_durations(tracer: Tracer) -> dict:
    """Inclusive durations (s) of each per-call-timed span name."""
    out = {name: [] for name in PER_CALL}
    for span in tracer.spans:
        if span.name in out:
            out[span.name].append(span.end - span.start)
    return out


def per_call_metrics(durations: dict) -> dict:
    """p50 and the highest percentile with at least ten samples beyond it.

    With fewer than twenty samples no percentile qualifies and the tail
    and its percentile read 0; the sample count is reported beside them.
    """
    out = {}
    for name, prefix in PER_CALL.items():
        samples = durations.get(name, [])
        pct = tail_percentile(len(samples))
        out[f"{prefix}_ms_p50"] = nearest_rank(samples, 50.0) * 1e3 if samples else 0.0
        out[f"{prefix}_ms_tail"] = nearest_rank(samples, pct) * 1e3 if pct else 0.0
        out[f"{prefix}_tail_pct"] = pct or 0.0
        out[f"{prefix}_samples"] = len(samples)
    return out
