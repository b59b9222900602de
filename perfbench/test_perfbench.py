"""Self-checks of the benchmark: exact work counts, repeatability, metric names.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
from clock import Clock
from tracing import Tracer
from workloads import CLASS_STRATA, WORKLOADS, ValuesScatter

sys.path.insert(0, str(run.SRC))


def kf():
    """The kelvinfn package currently in sys.modules (run.setup re-imports it)."""
    importlib.import_module("kelvinfn.cli")
    return importlib.import_module("kelvinfn")


def traced(fn) -> Tracer:
    kf()
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def series_keys(tracer: Tracer) -> list:
    return [tracer.series_key(i) for i, name in enumerate(tracer.names)
            if name == "hyper.sum_series"]


def table_row():
    with redirect_stdout(io.StringIO()):
        assert kf().cli.main(["table", "--nu", "0.5", "--x", "2"]) == 0


# sum_series calls per top-level call, and how many of them are distinct
@pytest.mark.parametrize("call, calls, distinct", [
    (lambda: kf().dkelvin(0.3, 2.0), 12, 9),
    (lambda: kf().dkelvin(5.0, 2.0), 54, None),
    (table_row, 26, None),
    (lambda: kf().kelvin_all(0.3, 2.0), 3, 3),
    (lambda: kf().kelvin_all(2.0, 2.0), 9, None),
])
def test_reference_series_counts(call, calls, distinct):
    keys = series_keys(traced(call))
    assert len(keys) == calls
    if distinct is not None:
        assert len(set(keys)) == distinct


def test_dkelvin_metrics_read_the_same_counts():
    m = traced(lambda: kf().dkelvin(0.3, 2.0)).metrics(1)
    assert m["orderderiv.calls"] == 1
    assert m["orderderiv.route.closed_form"] == 1.0
    assert m["orderderiv.series_per_call"] == 12
    assert m["orderderiv.distinct_series_frac"] == 9 / 12


def test_tracer_restores_the_program():
    k = kf()
    before = (k.bessel.sum_series, k.cli._eval_ber_bei, dict(k.verify.SUITES))
    traced(lambda: None)
    assert (k.bessel.sum_series, k.cli._eval_ber_bei, dict(k.verify.SUITES)) == before


@pytest.mark.parametrize("name, calls", [("values_scatter", 64), ("table_grid", 2),
                                         ("verify_all", 2)])
def test_traced_counts_repeat_exactly(name, calls):
    counts = []
    for _ in range(2):
        workload = WORKLOADS[name](7)
        tracer, outs, _ = run.traced_pass(workload, kf(), Clock(), calls)
        assert all(workload.check(i, out).failed == 0 for i, out in enumerate(outs))
        counts.append({k: v for k, v in tracer.metrics(1).items()
                       if run.per_layer_unit(k) not in ("s/op", "s/call")})
    assert counts[0] == counts[1]
    assert counts[0]["hyper.sum_series.calls"] > 0


def test_values_scatter_inputs_follow_the_seed():
    a, b, c = ValuesScatter(1), ValuesScatter(1), ValuesScatter(2)
    assert a.points == b.points != c.points
    n = len(a.points)
    assert n == sum(count for _, count in CLASS_STRATA)
    integers = sum(nu == round(nu) for nu, _, _ in a.points)
    halves = sum(nu != round(nu) and 2 * nu == round(2 * nu) for nu, _, _ in a.points)
    assert (integers, halves) == (CLASS_STRATA[0][1], CLASS_STRATA[1][1])


def test_metric_names_and_units_match_benchmark_json(capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    metrics, attempted, failed = run.per_layer(ValuesScatter(3))
    assert failed == 0 and attempted > 0
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == {k: unit for k, (_, unit) in metrics.items()}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_exits_without_result_when_sources_are_missing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", Path(tmp_path) / "src")
    assert run.main(["--workload", "values_scatter", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
