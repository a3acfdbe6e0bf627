"""Self-tests of the benchmark's own arithmetic, wrappers and inputs.

    python3 -m pytest benchmarks -q
"""

import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import (PERCENTILE_LADDER, Hook, Span, Tracer, aggregate,  # noqa: E402
                    nearest_rank, root_coverage, self_times, tail_percentile)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans():
    spans = [Span("a", 0.0, 10.0), Span("b", 2.0, 5.0, parent=0),
             Span("c", 3.0, 4.0, parent=1)]
    assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_with_back_to_back_children():
    spans = [Span("a", 0.0, 10.0), Span("b", 1.0, 3.0, parent=0),
             Span("b", 3.0, 6.0, parent=0)]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0])
    agg = aggregate(spans)
    assert agg["a"] == pytest.approx({"self": 5.0, "total": 10.0, "calls": 1})
    assert agg["b"] == pytest.approx({"self": 5.0, "total": 5.0, "calls": 2})


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [Span("a", 0.0, 10.0), Span("b", 2.0, 6.0, parent=0),
             Span("c", 4.0, 12.0, parent=0)]
    # children cover [2, 10] of the parent: 8 s
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_root_coverage_ignores_children_and_clips_to_the_window():
    spans = [Span("a", 0.0, 2.0), Span("b", 0.5, 1.5, parent=0), Span("c", 3.0, 5.0)]
    assert root_coverage(spans, 1.0, 4.0) == pytest.approx(2.0)


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [(0, None), (19, None), (20, 50.0), (39, 50.0),
                                         (40, 75.0), (100, 90.0), (199, 90.0),
                                         (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 40, 100, 200, 1000, 10000])
def test_tail_percentile_leaves_ten_samples_beyond_and_the_next_would_not(n):
    samples = list(range(n))
    p = tail_percentile(n)
    assert sum(1 for x in samples if x > nearest_rank(samples, p)) >= 10
    higher = [q for q in PERCENTILE_LADDER if q > p]
    if higher:
        assert sum(1 for x in samples if x > nearest_rank(samples, higher[0])) < 10


def test_nearest_rank():
    assert nearest_rank([5.0, 1.0, 3.0], 50.0) == 3.0
    assert nearest_rank([5.0, 1.0, 3.0], 100.0) == 5.0
    assert nearest_rank(range(100), 90.0) == 89


def test_per_call_metrics_with_few_samples_report_no_tail():
    out = layers.per_call_metrics({"model.forward": [0.001] * 5})
    assert out["model.forward_call_ms_p50"] == pytest.approx(1.0)
    assert out["model.forward_call_ms_tail"] == 0.0
    assert out["model.forward_call_tail_pct"] == 0.0
    assert out["model.forward_call_samples"] == 5
    assert out["autodiff.backward_call_samples"] == 0


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def test_wrappers_record_nesting_hooks_and_restore():
    ns = SimpleNamespace()
    ns.inner = lambda x: [x] * x
    ns.outer = lambda x: ns.inner(x) + ns.inner(x)

    def boom(x):
        raise ValueError(x)

    ns.boom = boom
    originals = dict(vars(ns))
    tracer = Tracer()
    tracer.wrap(ns, "inner", "t.inner",
                Hook(on_result=lambda c, a, k, r: c.__setitem__("n", c["n"] + len(r))))
    tracer.wrap(ns, "outer", "t.outer")
    tracer.wrap(ns, "boom", "t.boom",
                Hook(on_error=lambda c, a, k, e: c.__setitem__("errors", c["errors"] + 1)))
    assert ns.outer(3) == [3] * 6
    with pytest.raises(ValueError):
        ns.boom(1)
    assert [s.name for s in tracer.spans] == ["t.outer", "t.inner", "t.inner", "t.boom"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, -1]
    assert tracer.counts["n"] == 6 and tracer.counts["errors"] == 1
    assert tracer._stack == []
    tracer.uninstall()
    assert dict(vars(ns)) == originals


def test_layer_spans_cover_one_forward_pass():
    from sheafcast.model import ForecastModel, ModelConfig

    model = ForecastModel.init(np.array([[0, 1], [1, 2], [2, 0]]), 3,
                               ModelConfig(stalk_dim=4, field_width=8), seed=0)
    tracer = Tracer()
    layers.install(tracer)
    try:
        model.predict(np.random.default_rng(0).normal(size=(3, 6)), 5)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names[0] == "model.forward"
    parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent >= 0}
    assert parents == {"encoder.encode": "model.forward",
                       "sheaf.message_pass": "model.forward",
                       "dynamics.rk4": "model.forward",
                       "dynamics.field": "dynamics.rk4"}
    m = layers.pass_metrics(tracer)
    assert m["dynamics.field_evals"] == 4 * 5
    assert m["model.forward_calls"] == 1 and m["autodiff.backward_calls"] == 0


def test_pass_metrics_names_match_the_declared_units():
    tracer = Tracer()
    names = set(layers.pass_metrics(tracer)) | set(layers.per_call_metrics({}))
    names |= set(layers.TRACE_METRICS)
    assert names == set(layers.metric_units())


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/bench.py"]
    assert spec["run_seconds"] == bench.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()


# ----------------------------------------------------------------------
# inputs from the seed
# ----------------------------------------------------------------------
def _fingerprint(inputs, work_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in work_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(work_dir).as_posix().encode())
        h.update(path.read_bytes())
    for name in ("train_windows", "val_windows", "test_windows"):
        for w in getattr(inputs, name, ()):
            h.update(w.context.tobytes())
            h.update(w.horizon.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_second_seed_changes_inputs_but_not_shapes(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    runs = {}
    for label, seed in (("a", 1), ("again", 1), ("b", 2)):
        inputs = wl.setup(seed, tmp_path / label)
        runs[label] = (wl.shapes(inputs), _fingerprint(inputs, tmp_path / label))
    assert runs["a"] == runs["again"]
    assert runs["a"][0] == runs["b"][0]
    assert runs["a"][1] != runs["b"][1]
