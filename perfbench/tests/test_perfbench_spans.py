"""Span arithmetic and the installation of trace wrappers.

    python3 -m pytest perfbench/tests
"""

import itertools
import sys

import pytest

import robophoto.behavior_sim  # noqa: F401  (loads every module the tracer wraps)
import robophoto.cli  # noqa: F401
import spans
import worker
import workloads
from robophoto.synthetic import DEFAULT_HIDDEN_BASELINE, make_threshold_dataset
from spans import Span, Tracer, self_times, stage_self_sums


def _ticking_tracer() -> Tracer:
    ticks = itertools.count()
    return Tracer(clock=lambda: float(next(ticks)))


def test_self_time_subtracts_nested_children_and_sums_to_the_stage():
    tracer = _ticking_tracer()
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: (inner(), inner()))
    with tracer.span("stage.x"):  # clock: 0
        outer()  # outer 1..6, inner 2..3 and 4..5
    # stage closes at 7
    by_name = {}
    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(selfs[s.span_id])
    assert by_name == {"m.inner": [1.0, 1.0], "m.outer": [3.0], "stage.x": [2.0]}
    ((root, total),) = stage_self_sums(tracer.spans).values()
    assert root.name == "stage.x" and total == root.duration == 7.0


def test_self_time_counts_overlapping_children_once():
    parent = Span(1, "p", 0.0, 10.0, None, "r")
    children = [
        Span(2, "a", 1.0, 4.0, 1, "r"),
        Span(3, "b", 3.0, 5.0, 1, "r"),  # overlaps a: the union is 1..5
        Span(4, "c", 9.0, 12.0, 1, "r"),  # only 9..10 lies inside the parent
    ]
    assert self_times([parent, *children])[1] == pytest.approx(10.0 - 4.0 - 1.0)


def test_wrapper_records_nothing_outside_a_span():
    tracer = _ticking_tracer()
    assert tracer.wrap("m.f", lambda x: x + 1)(1) == 2
    assert tracer.spans == []


def _namespace_snapshot() -> dict:
    """Every attribute of every robophoto module and of Simulator, by identity."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("robophoto"):
            snap.update({(name, k): id(v) for k, v in vars(module).items()})
    snap.update({("Simulator", k): id(v) for k, v in vars(robophoto.behavior_sim.Simulator).items()})
    return snap


def test_install_wraps_a_name_in_every_namespace_that_imported_it():
    from robophoto import cli, composition, core, pgm, threshold_opt

    score, read_pgm = composition.baseline_score, pgm.read_pgm
    assert cli.baseline_score is score and threshold_opt.baseline_score is score
    assert core.read_pgm is read_pgm
    before = _namespace_snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = composition.baseline_score
        assert wrapped is not score
        assert cli.baseline_score is wrapped and threshold_opt.baseline_score is wrapped
        assert core.read_pgm is pgm.read_pgm is not read_pgm
        picture = make_threshold_dataset(1, seed=0)[0]
        tracer.run_id = "r"
        with tracer.span("stage.test"):
            cli.baseline_score(picture, DEFAULT_HIDDEN_BASELINE)
            threshold_opt.baseline_score(picture, DEFAULT_HIDDEN_BASELINE)
    finally:
        tracer.uninstall()
    assert _namespace_snapshot() == before
    assert tracer.run_metrics("r")["composition.baseline_score.calls"] == 2


def test_every_target_and_cli_command_resolves():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    names = {name for name, _, _ in spans.per_layer_metrics()}
    assert len(names) == len(spans.per_layer_metrics())
    assert {f"cli.{c}.self_s" for c in spans.CLI_COMMANDS} <= names


@pytest.mark.parametrize("trace", [False, True])
def test_untraced_passes_install_no_wrappers(tmp_path, monkeypatch, trace):
    before = _namespace_snapshot()
    wrapped_during_stage = []
    original_call = workloads.Runner.call

    def call(self, stage, fn, *args):
        wrapped_during_stage.append((self.tracer is not None, _namespace_snapshot() != before))
        return original_call(self, stage, fn, *args)

    monkeypatch.setattr(workloads.Runner, "call", call)
    if not trace:
        monkeypatch.setattr(Tracer, "install", lambda self: pytest.fail("untraced run installed wrappers"))
    workload = workloads.WORKLOADS["event_pipeline"](tmp_path, seed=0, smoke=True)
    workload.setup()
    result = worker.run_passes(workload, seconds=0.0, tracer=Tracer() if trace else None)
    assert result["failed"] == 0, result["problems"]
    assert _namespace_snapshot() == before
    assert wrapped_during_stage and all(traced == changed for traced, changed in wrapped_during_stage)
    assert any(traced for traced, _ in wrapped_during_stage) == trace


def test_normalised_time_scales_each_stage_by_the_reference_around_it(monkeypatch):
    monkeypatch.setattr(worker.reference, "NOMINAL_S", 0.002)
    p = {"stages": {"a": 1.0, "b": 0.3}, "ref": {"a": 0.004, "b": 0.002}}
    assert worker.normalised(p) == pytest.approx({"a": 0.5, "b": 0.3})


def test_runner_records_the_reference_time_of_every_stage():
    run = workloads.Runner()
    run.call("x", lambda: None)
    assert set(run.ref_s) == set(run.stage_s) == {"x"}
    assert run.ref_s["x"] > 0.0


def test_runner_times_a_repeated_stage_by_its_median_run(monkeypatch):
    clock = iter([0.0, 1.0, 10.0, 13.0, 20.0, 22.0])
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(workloads.reference, "measure", lambda: 0.004)
    run = workloads.Runner()
    for _ in range(3):
        run.call("ingest", lambda: None)
    assert run.stage_s == {"ingest": 2.0}
    assert run.ref_s == {"ingest": 0.004}
    assert len(run.ops) == 3
