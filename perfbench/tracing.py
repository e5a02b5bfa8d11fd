"""Spans recorded from outside the package, around its public call sites.

A ``Tracer`` keeps spans in memory. ``instrument`` replaces the public
functions of ``randomizer`` at the module attributes where their callers look
them up (``randomizer.experiments.verdict``, ``randomizer.certify.net_supremum_B``
and so on) with wrappers that open a span per call, and puts the originals
back on exit. Self time and per-layer sums are derived from the spans
afterwards, so the package itself carries no tracing code.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call across a layer boundary; times are ``time.perf_counter`` seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; the parent of a span is the innermost open span of its thread."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; the yielded dict collects its counts."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        counts: dict = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run,
                                   threading.get_ident(), counts))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    result = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s.id] = s.duration - covered
    return result


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total duration, total self time and summed counts."""
    selfs = self_times(spans)
    summary: dict[str, dict] = {}
    for s in spans:
        entry = summary.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                            "counts": {}})
        entry["calls"] += 1
        entry["total_s"] += s.duration
        entry["self_s"] += selfs[s.id]
        for key, value in s.counts.items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return summary


def layer_self_times(summary: dict[str, dict]) -> dict[str, float]:
    """Self time per layer, the part of a span name before its first dot."""
    layers: dict[str, float] = {}
    for name, entry in summary.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
    return layers


# ---------------------------------------------------------------------------
# call-site wrappers
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _count_haar(args, kwargs, result, counts):
    counts["unitaries"] = int(_arg(args, kwargs, 1, "count"))


def _count_net(args, kwargs, result, counts):
    counts["states"] = result.size
    counts["candidates"] = int(result.provenance.get("candidates") or 0)


def _count_audit(args, kwargs, result, counts):
    counts["trials"] = int(_arg(args, kwargs, 1, "trials"))


def _count_scan(args, kwargs, result, counts):
    counts["pairs"] = _arg(args, kwargs, 1, "net").size ** 2


def _count_ascent(args, kwargs, result, counts):
    counts["restarts"] = int(_arg(args, kwargs, 1, "restarts", 32))


def _count_verdict(args, kwargs, result, counts):
    counts["certificates"] = 1


def _count_written(args, kwargs, result, counts):
    counts["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


# (function, span name, count recorder, modules whose attribute callers use)
CALL_SITES = (
    ("sample_haar_unitaries", "haar.sample", _count_haar,
     ("randomizer.channel", "randomizer.experiments")),
    ("build_random_channel", "channel.build", None,
     ("randomizer.channel", "randomizer.cli", "randomizer.experiments")),
    ("build_delta_net", "netcover.build", _count_net,
     ("randomizer.netcover", "randomizer.cli", "randomizer.experiments")),
    ("audit_covering", "netcover.audit", _count_audit, ("randomizer.netcover", "randomizer.cli")),
    ("net_supremum_B", "certify.scan", _count_scan, ("randomizer.certify",)),
    ("alternating_max_lower_bound", "certify.ascent", _count_ascent, ("randomizer.certify",)),
    ("verdict", "certify.verdict", _count_verdict,
     ("randomizer.certify", "randomizer.cli", "randomizer.experiments")),
    ("save_channel", "experiments.io", _count_written, ("randomizer.experiments", "randomizer.cli")),
    ("save_net", "experiments.io", _count_written, ("randomizer.experiments", "randomizer.cli")),
    ("save_certificate", "experiments.io", _count_written,
     ("randomizer.experiments", "randomizer.cli")),
    ("load_channel", "experiments.io", None, ("randomizer.experiments", "randomizer.cli")),
    ("load_net", "experiments.io", None, ("randomizer.experiments", "randomizer.cli")),
)


def _wrap(tracer: Tracer, fn, name, record):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as counts:
            result = fn(*args, **kwargs)
            if record is not None:
                record(args, kwargs, result, counts)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_cli_run(tracer: Tracer, fn):
    def wrapper(argv=None):
        with tracer.span(f"cli.{argv[0]}"):
            return fn(argv)
    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every call site in ``CALL_SITES`` plus ``randomizer.cli.run``; restore on exit."""
    patched = []
    try:
        for attr, name, record, modules in CALL_SITES:
            for module_name in modules:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                patched.append((module, attr, original))
                setattr(module, attr, _wrap(tracer, original, name, record))
        cli = importlib.import_module("randomizer.cli")
        patched.append((cli, "run", cli.run))
        cli.run = _wrap_cli_run(tracer, cli.run)
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
