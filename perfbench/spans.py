"""Span recorder for the benchmark's traced runs.

Tracing is done from outside the package: ``Tracer.install`` replaces each
public function listed in ``TARGETS`` with a wrapper, in every ``robophoto``
module namespace that holds a reference to it (``cli`` imports
``baseline_score`` by name, ``core`` imports ``read_pgm`` by name), and
``Tracer.uninstall`` puts the originals back. A wrapper records a span only
while a stage span is open, so checks run between stages stay untraced.
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple, Optional

PACKAGE = "robophoto"


def _validation_counts(result) -> dict:
    return {
        "core.records_kept": len(result.dataset),
        "core.records_dropped": result.dropped_records,
        "core.faces_dropped": result.dropped_faces,
    }


def _ga_counts(report) -> dict:
    return {
        "threshold_opt.evaluations": report.evaluations,
        "threshold_opt.best_accuracy_sum": report.best_accuracy,
    }


def _selected_count(picked) -> dict:
    return {"selection.pictures_selected": len(picked)}


def _shutter_count(entry) -> dict:
    return {"behavior_sim.shutters": entry["event"] == "shutter"}


# module -> public functions (or Class.method) wrapped in a traced run
TARGETS: dict[str, tuple[str, ...]] = {
    "core": ("read_records_jsonl", "validate_dataset", "write_dataset_jsonl", "split_dataset"),
    "pgm": ("read_pgm",),
    "threshold_opt": ("ga_optimize",),
    "composition": ("baseline_score", "heuristic_score"),
    "abstraction": ("render_abstract", "classify_picture"),
    "tinynet": (
        "forward", "forward_batch", "loss_and_gradients", "train", "save_model", "load_model",
    ),
    "face_quality": (
        "train_face_ann", "train_face_cnn", "preprocess_face", "score_face",
        "evaluate_face_model",
    ),
    "selection": ("crop_cascade", "select_best"),
    "behavior_sim": (
        "Simulator.step", "Simulator.render_line_image", "line_centroid",
        "collision_update", "camera_vote", "write_event_log",
    ),
}

# counts read from a wrapped function's return value
HOOKS: dict[str, Callable[[object], dict]] = {
    "core.validate_dataset": _validation_counts,
    "threshold_opt.ga_optimize": _ga_counts,
    "selection.select_best": _selected_count,
    "behavior_sim.Simulator.step": _shutter_count,
}

# CLI handlers whose self time is reported as cli.<command>.self_s
CLI_COMMANDS = (
    "simulate", "ingest", "split", "optimize-thresholds", "evaluate", "select",
    "train-picture-cnn", "train-face-ann", "train-face-cnn",
)

COUNT_METRICS = (
    ("core.records_kept", "higher"),
    ("core.records_dropped", "lower"),
    ("core.faces_dropped", "lower"),
    ("threshold_opt.evaluations", "lower"),
    ("selection.pictures_selected", "higher"),
    ("behavior_sim.shutters", "higher"),
)

MICRO_ARCHS = ("face_ann", "face_cnn", "picture_cnn")
MICRO_TIMINGS = ("fwd_b1_ms", "fwd_b32_ms", "step_b32_ms")
MICRO_THREADS = (1, 2)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run prints, as (name, unit, better)."""
    out = []
    for module, names in TARGETS.items():
        for name in names:
            out.append((f"{module}.{name}.self_s", "s", "lower"))
            out.append((f"{module}.{name}.calls", "count", "lower"))
    out += [(name, "count", better) for name, better in COUNT_METRICS]
    out += [
        ("threshold_opt.evaluations_per_s", "1/s", "higher"),
        ("threshold_opt.best_accuracy", "fraction", "higher"),
    ]
    out += [(f"cli.{command}.self_s", "s", "lower") for command in CLI_COMMANDS]
    for arch in MICRO_ARCHS:
        for timing in MICRO_TIMINGS:
            for threads in MICRO_THREADS:
                out.append((f"tinynet.{arch}.{timing}.t{threads}", "ms", "lower"))
        out.append((f"tinynet.{arch}.step_b32_mflop", "Mflop_computed", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[s.span_id], key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.span_id] = s.duration - covered
    return out


def _root_of(span: Span, by_id: dict[int, Span]) -> Span:
    while span.parent is not None:
        span = by_id[span.parent]
    return span


def stage_self_sums(spans: list[Span]) -> dict[int, tuple[Span, float]]:
    """For each root (stage) span: the sum of self times over its subtree."""
    by_id = {s.span_id: s for s in spans}
    selfs = self_times(spans)
    sums: dict[int, float] = defaultdict(float)
    for s in spans:
        sums[_root_of(s, by_id).span_id] += selfs[s.span_id]
    return {sid: (by_id[sid], total) for sid, total in sums.items()}


class Tracer:
    """Records spans and return-value counts for the wrapped functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.run_id = ""
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Open a span by hand; the benchmark opens one per stage."""
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run_id))

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span (and ``hook``'s counts) when called inside a span."""
        stack, spans, ids, clock = self._stack, self.spans, self._ids, self.clock
        tracer = self

        # the span bookkeeping is inlined: this wrapper runs ~10^5 times a pass
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, tracer.run_id))
            if hook is not None:
                tracer.counts[tracer.run_id].update(hook(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every package module namespace that refers to it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        by_name = {m.__name__: m for m in modules}
        for module_name, qualnames in TARGETS.items():
            module = by_name[f"{PACKAGE}.{module_name}"]
            for qualname in qualnames:
                name = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._replace(cls, attr, self.wrap(name, original, HOOKS.get(name)))
                    continue
                original = getattr(module, qualname)
                wrapper = self.wrap(name, original, HOOKS.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, attr, wrapper)
        cli = by_name[f"{PACKAGE}.cli"]
        for command in CLI_COMMANDS:
            attr = "cmd_" + command.replace("-", "_")
            self._replace(cli, attr, self.wrap(f"cli.{command}", getattr(cli, attr)))

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def run_metrics(self, run_id: str) -> dict[str, float]:
        """Per-layer metrics of one traced pass, zero for layers it bypassed."""
        spans = [s for s in self.spans if s.run_id == run_id]
        selfs = self_times(spans)
        out = {name: 0.0 for name, _, _ in per_layer_metrics()}
        ga_seconds = 0.0
        for s in spans:
            if s.name.startswith("cli."):
                out[f"{s.name}.self_s"] += selfs[s.span_id]
            elif not s.name.startswith("stage."):
                out[f"{s.name}.self_s"] += selfs[s.span_id]
                out[f"{s.name}.calls"] += 1
                if s.name == "threshold_opt.ga_optimize":
                    ga_seconds += s.duration
        counts = self.counts[run_id]
        for name, _ in COUNT_METRICS:
            out[name] = float(counts[name])
        ga_calls = out["threshold_opt.ga_optimize.calls"]
        if ga_calls:
            out["threshold_opt.evaluations_per_s"] = counts["threshold_opt.evaluations"] / ga_seconds
            out["threshold_opt.best_accuracy"] = (
                counts["threshold_opt.best_accuracy_sum"] / ga_calls
            )
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()))
                fh.write("\n")
