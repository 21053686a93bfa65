"""Spans around calls into sentipipe's public functions, recorded from outside.

A traced run replaces each listed function, in every ``sentipipe`` module that
holds a reference to it, with a wrapper that records a span (name, start,
end, parent, run id) and a few counts derived from the call's arguments and
result. The program itself is not modified; undoing the patch restores the
original functions. Spans stay in memory until the run writes them out.

All timestamps use ``time.monotonic`` (CLOCK_MONOTONIC on Linux), which is
shared by every process on the machine, so spans recorded in child processes
can be placed under a parent span recorded here.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


def _frames(videos) -> int:
    return sum(len(v.frames) for v in videos)


# Counters take the call's bound arguments (defaults applied) and its result.
def _generate_counts(a: dict, result) -> dict:
    return {"frames": _frames(result.train.videos) + _frames(result.test.videos)}


def _write_stream_counts(a: dict, result) -> dict:
    return {"rows": _frames(a["videos"]), "bytes": os.path.getsize(a["path"])}


def _write_annotations_counts(a: dict, result) -> dict:
    return {"bytes": os.path.getsize(a["path"])}


def _parse_stream_counts(a: dict, result) -> dict:
    return {"rows": _frames(result)}


def _coverage_counts(a: dict, result) -> dict:
    kept, dropped = result
    return {"videos": len(kept) + len(dropped), "dropped": len(dropped)}


def _extract_counts(a: dict, result) -> dict:
    ads = a["ads"]
    # the frames the labeling rules looked at: face frames of sentimental ads
    attempted = sum(
        1 for v in a["videos"] if ads[v.ad_id].is_sentimental
        for f in v.frames if f.face_detected)
    return {"examples": len(result), "attempted": attempted}


def _train_counts(a: dict, result) -> dict:
    examples, config = a["examples"], a["config"]
    pos = sum(1 for ex in examples if ex.label == 1)
    neg = len(examples) - pos
    per_epoch = 2 * max(pos, neg) if config.oversample_positives else pos + neg
    return {"adam_steps": math.ceil(per_epoch / config.batch_size) * config.epochs}


def _score_counts(a: dict, result) -> dict:
    return {"frames": len(result[0])}


def _one_curve(a: dict, result) -> dict:
    return {"curves": 1}


# (module, function, counter). Layer = module; span name = "module.function".
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("synth", "generate", _generate_counts),
    ("ingest", "write_au_stream", _write_stream_counts),
    ("ingest", "write_ad_annotations", _write_annotations_counts),
    ("ingest", "parse_au_stream", _parse_stream_counts),
    ("ingest", "parse_ad_annotations", None),
    ("ingest", "filter_by_coverage", _coverage_counts),
    ("weak_label", "extract_examples", _extract_counts),
    ("weak_label", "write_examples_jsonl", None),
    ("weak_label", "read_examples_jsonl", None),
    ("mlp", "train", _train_counts),
    ("mlp", "save_model", None),
    ("mlp", "load_model", None),
    ("aggregate", "score_video", _score_counts),
    ("aggregate", "aggregate_ad", None),
    ("aggregate", "aggregate_scores", _one_curve),
    ("aggregate", "write_curves_csv", None),
    ("aggregate", "read_curves_csv", None),
    ("aggregate", "export_curve_svg", None),
    ("metrics", "evaluate_kpis", None),
    ("metrics", "chance_baseline", None),
    ("metrics", "single_au_baselines", None),
    ("metrics", "write_kpi_report", None),
    ("metrics", "write_kpi_table_csv", None),
    ("pipeline", "predict_curves", None),
    ("pipeline", "run_stages", None),
    ("pipeline", "run_baselines", None),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    def to_json(self, run_id: str) -> dict:
        return {"run": run_id, "id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "counts": self.counts}


class Tracer:
    """Collects spans of one process, single-threaded, in call order."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        s = Span(id=len(self.spans), parent=parent, name=name, start=time.monotonic())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.monotonic()
            self._stack.pop()

    def adopt(self, spans: list[Span], parent: int) -> None:
        """Append spans recorded by a child process under ``parent``."""
        offset = len(self.spans)
        for s in spans:
            self.spans.append(Span(
                id=s.id + offset,
                parent=parent if s.parent is None else s.parent + offset,
                name=s.name, start=s.start, end=s.end, counts=s.counts))

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counter is not None:
                # a span of its own, so counting shows as tracing overhead and
                # not as the caller's self time
                with self.span("trace.count"):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    s.counts = counter(bound.arguments, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def instrument(self) -> Iterator[None]:
        """Route every call to a TARGETS function through a span while active."""
        import sentipipe  # noqa: F401  (loads every submodule)

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "sentipipe" or name.startswith("sentipipe."))]
        patched: list[tuple[object, str, Callable]] = []
        for module_name, func_name, counter in TARGETS:
            original = getattr(sys.modules[f"sentipipe.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        patched.append((m, attr, original))
        try:
            yield
        finally:
            for m, attr, original in reversed(patched):
                setattr(m, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json(self.run_id)) + "\n")


def read_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [Span(id=r["id"], parent=r["parent"], name=r["name"], start=r["start"],
                 end=r["end"], counts=r["counts"]) for r in records]


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))


def span_stats(spans: list[Span]) -> dict[str, NameStats]:
    """Per span name: calls, inclusive time, self time and summed counts.

    A span's self time is its duration minus that of its direct children;
    spans of one thread nest, so the children never overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    stats: dict[str, NameStats] = defaultdict(NameStats)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.total_s += s.end - s.start
        st.self_s += s.end - s.start - child_time[s.id]
        for k, v in s.counts.items():
            st.counts[k] += v
    return dict(stats)


def under(spans: list[Span], ancestor_names: set[str]) -> set[int]:
    """Ids of spans that have an ancestor whose name is in ``ancestor_names``."""
    by_id = {s.id: s for s in spans}
    out = set()
    for s in spans:
        p = s.parent
        while p is not None:
            if by_id[p].name in ancestor_names:
                out.add(s.id)
                break
            p = by_id[p].parent
    return out
