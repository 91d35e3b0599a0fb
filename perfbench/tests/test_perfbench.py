"""Fast checks of the benchmark's own arithmetic and plumbing.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import types
from collections import Counter

import numpy as np
import pytest

import run
import spans
import stats
import workloads
from spans import Span, Tracer, layer_totals, self_times


def test_self_time_subtracts_nested_and_sibling_children():
    spans_ = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 4.0, 8.0, parent=0),
        Span("b.child", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans_) == pytest.approx([4.0, 2.0, 3.0, 1.0])
    totals = layer_totals(spans_)
    assert totals["root"] == {"calls": 1, "s": 10.0, "self_s": pytest.approx(4.0)}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans_ = [
        Span("root", 0.0, 10.0),
        Span("x", 1.0, 5.0, parent=0),
        Span("y", 3.0, 7.0, parent=0),
        Span("z", 9.0, 12.0, parent=0),
    ]
    assert self_times(spans_)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tail_keeps_ten_samples_beyond_it():
    value, percentile, samples = stats.tail(list(range(1, 101)))
    assert (value, percentile, samples) == (90, 90.0, 100)
    assert sum(v > value for v in range(1, 101)) == 10

    value, percentile, samples = stats.tail(list(range(21, 0, -1)))
    assert value == 11 and samples == 21
    assert percentile == pytest.approx(100 * 11 / 21)


def test_tail_of_a_small_sample_is_its_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert stats.tail(list(range(20))) == (19, 100.0, 20)
    with pytest.raises(ValueError):
        stats.tail([])


def test_every_run_has_at_least_two_passes():
    counter = iter(range(100))
    (passes,) = run.run_rounds(0.0, lambda: workloads.PassResult(float(next(counter))))
    assert len(passes) == run.MIN_PASSES == 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_gives_the_inputs(name, tmp_path):
    def inputs(seed, tag):
        workload = workloads.WORKLOADS[name]()
        workload.setup(seed, tmp_path / f"{seed}-{tag}")
        return workload.inputs()

    first = inputs(3, "a")
    assert first == inputs(3, "b")
    assert first != inputs(4, "a")


def test_wrappers_are_restored_and_tracing_changes_no_output():
    import fpqr
    import fpqr.fpqr
    import fpqr.pls

    originals = {(m, a): vars(o)[a] for m, o, a in (
        ("fpqr.fpqr", fpqr.fpqr, "qcov_matrix"),
        ("fpqr.pls", fpqr.pls.FittedModel, "predict"),
    )}
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 4))
    Y = X[:, :2] + rng.standard_normal((30, 2))
    plain = fpqr.fit_fpqr(X, Y, 2, metric="li").predict(X)

    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert fpqr.fpqr.qcov_matrix is not originals[("fpqr.fpqr", "qcov_matrix")]
            with tracer.op_scope(0):
                traced = fpqr.fit_fpqr(X, Y, 2, metric="li").predict(X)
            raise RuntimeError("leave the block by an exception")
    assert tracer.all_restored()
    assert vars(fpqr.fpqr)["qcov_matrix"] is originals[("fpqr.fpqr", "qcov_matrix")]
    assert vars(fpqr.pls.FittedModel)["predict"] is originals[("fpqr.pls", "predict")]
    assert traced.tobytes() == plain.tobytes()
    assert {s.name for s in tracer.spans} >= {"qcov.matrix", "quantreg.inner", "pls.predict"}


def test_missing_attribute_is_an_absent_layer():
    module = types.ModuleType("fake_layer")
    module.present = lambda: 1
    import sys

    sys.modules["fake_layer"] = module
    try:
        tracer = Tracer(hooks=(
            ("gone.layer", "fake_layer", "removed_function", None),
            ("gone.module", "no_such_module_here", "f", None),
            ("here", "fake_layer", "present", None),
        ))
        with tracer.installed(), tracer.op_scope(0):
            assert module.present() == 1
        assert tracer.absent_layers == ["gone.layer", "gone.module"]
        totals = layer_totals(tracer.take_spans())
        assert totals["here"]["calls"] == 1 and "gone.layer" not in totals
        assert vars(module)["present"]() == 1 and tracer.all_restored()
    finally:
        del sys.modules["fake_layer"]


@pytest.mark.parametrize("metric", ["dodge", "choi", "li"])
def test_slope_calls_match_entries_times_components(metric):
    import fpqr

    rng = np.random.default_rng(11)
    X = rng.standard_normal((14, 4))
    X[:, 2] = 1.5  # zero variance after centering: its entries are zeroed
    Y = X[:, :2] @ np.ones((2, 2)) + rng.standard_normal((14, 2))
    tracer = Tracer()
    counts = Counter()
    with tracer.installed(), tracer.op_scope(0), workloads.fixed_warnings(counts):
        fpqr.fit_fpqr(X, Y, 2, metric=metric)
    totals = layer_totals(tracer.take_spans())
    slope_calls = totals.get("quantreg.slope", {}).get("calls", 0)
    expected = totals["qcov.matrix"]["slope_fits_expected"] - workloads.slope_fits_skipped(metric, counts)
    assert slope_calls == expected
    if metric == "li":
        assert slope_calls == 0
    else:
        m, l = X.shape[1], Y.shape[1]
        components = totals["qcov.matrix"]["calls"]
        assert counts["ZeroVarianceWarning"] == l * components
        per_entry = spans.SLOPE_FITS_PER_ENTRY[metric]
        assert slope_calls == per_entry * (m - 1) * l * components


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    empty = workloads.PassResult(1.0, [workloads.Op("op", 0.5, beta_distance=1.0, check_loss=1.0)])
    end_to_end, _ = run.end_to_end_values([1.0], [empty])
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    per_layer = run.layer_values([empty])
    per_layer.pop("slope_fits_expected")
    assert [m["name"] for m in spec["per_layer"]] == [*per_layer, "failed_ratio", "trace.overhead_s"]
