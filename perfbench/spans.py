"""In-memory span recorder for the traced benchmark run.

:func:`install` wraps the public entry point of each layer (the
``BOUNDARIES`` table) so every call made while the recorder is enabled
records a span: name, thread, start, end, and the time its child spans
cover.  Spans stay in memory until the run ends; :func:`layer_metrics`
then reduces them to the per-layer metrics named in ``BENCHMARK.json``.
Only calls made in the benchmark process are seen: solves inside forked
workers are out of scope.

A layer's ``.s`` metric is the summed duration of its outermost spans (a
span nested in a span of the same name is not counted twice); ``.self_s``
subtracts the time covered by child spans of any layer.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

# span name -> [(module, attribute path)]: the calls timed per layer.
BOUNDARIES = {
    "lint": [("repro.analysis.driver", "lint_method")],
    "plan": [("repro.core.verifier", "Verifier.plan")],
    "vcgen": [("repro.core.vcgen", "VcGen.run")],
    "rewrite": [("repro.core.verifier", "rewrite")],
    "simplify": [("repro.core.verifier", "simplify_term")],
    "solver": [
        ("repro.smt.solver", "Solver.check"),
        ("repro.smt.solver", "IncrementalSolver.check_goal"),
    ],
    "sat": [("repro.smt.sat", "SatSolver.solve")],
    # EufSolver's entry points; ``find`` is left out: the others call it
    # per term, so timing it would cost more than it tells.
    "euf": [
        ("repro.smt.euf", "EufSolver." + name)
        for name in ("register", "assert_eq", "assert_diseq", "are_equal",
                     "explain", "undo_to")
    ],
    "simplex": [
        ("repro.smt.simplex", "ArithSolver.check"),
        ("repro.smt.simplex", "ArithSolver.assert_bound"),
    ],
    "setreduce": [
        ("repro.smt.solver", "reduce_sets"),
        ("repro.smt.setreduce", "IncrementalSetReducer.add"),
    ],
    "backend": [
        ("repro.engine.backends", "InTreeBackend.check_validity"),
        ("repro.engine.backends", "InTreeBackend.batch_check_validity"),
    ],
    "diagnose": [("repro.engine.session", "diagnose")],
    "dispatch": [
        ("repro.engine.session", "stream_tasks"),
        ("repro.engine.session", "batches_from_plan"),
    ],
    "codec.encode": [
        ("repro.engine.codec", "encode_terms"),
        ("repro.engine.tasks", "encode_terms"),
        ("repro.engine.plancache", "encode_terms"),
    ],
    "vccache.get": [("repro.engine.cache", "VcCache.get")],
    "vccache.put": [("repro.engine.cache", "VcCache.put")],
    "plancache.get": [("repro.engine.plancache", "PlanCache.get")],
    "plancache.put": [("repro.engine.plancache", "PlanCache.put")],
    "cacheindex.flush": [("repro.engine.cachectl", "AccessIndex.flush")],
    "journal": [
        ("repro.engine.journal", "RunJournal.record_slot"),
        ("repro.engine.journal", "RunJournal.record_method_end"),
    ],
    "queue.admit": [("repro.service.queue", "AdmissionQueue.admit")],
}


class Recorder:
    """Finished spans plus value counters, safe to feed from any thread."""

    def __init__(self) -> None:
        # While False, the wrapped calls go straight through unrecorded.
        self.enabled = False
        # (name, tag, thread, start_ns, end_ns, self_ns, outermost, depth)
        self.spans = []
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _frames(self):
        try:
            return self._local.frames
        except AttributeError:
            self._local.frames = []
            self._local.tag = None
            return self._local.frames

    def tag(self, tag) -> None:
        """Mark this thread's later spans as work for request ``tag``."""
        self._frames()
        self._local.tag = tag

    def begin(self, name: str) -> None:
        self._frames().append([name, time.perf_counter_ns(), 0])

    def end(self) -> None:
        end = time.perf_counter_ns()
        frames = self._local.frames
        name, start, child = frames.pop()
        duration = end - start
        if frames:
            frames[-1][2] += duration
        outermost = all(f[0] != name for f in frames)
        self.spans.append((name, self._local.tag, threading.get_ident(),
                           start, end, duration - child, outermost, len(frames)))

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _span(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end()
        if after is not None:
            after(args, out)
        return out

    return traced


def _generator_span(rec: Recorder, name: str, fn, on_item=None):
    """Span each resumption of a generator, not the consumer's time
    between resumptions."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if not rec.enabled:
            yield from gen
            return
        try:
            while True:
                rec.begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec.end()
                if on_item is not None:
                    on_item(item)
                yield item
        finally:
            gen.close()

    return traced


def _count_slot(rec: Recorder):
    def on_item(res):
        rec.count("slots.settled")
        if not (res.cached or res.deduped):
            rec.count("slots.solved")
    return on_item


def _sat_span(rec: Recorder, fn):
    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        if not rec.enabled:
            return fn(self, *args, **kwargs)
        before = self.n_conflicts
        rec.begin("sat")
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.end()
            rec.count("sat.conflicts", self.n_conflicts - before)

    return traced


def _admit_span(rec: Recorder, fn):
    @functools.wraps(fn)
    def traced(self, client_id, *args, **kwargs):
        if not rec.enabled:
            return fn(self, client_id, *args, **kwargs)
        rec.tag(client_id)
        rec.begin("queue.admit")
        try:
            return fn(self, client_id, *args, **kwargs)
        finally:
            rec.end()

    return traced


def _after_plan(rec: Recorder):
    def after(_args, plan):
        rec.count("simplify.nodes_before", sum(v.nodes_before for v in plan.vcs))
        rec.count("simplify.nodes_after", sum(v.nodes_after for v in plan.vcs))
    return after


def _after_get(rec: Recorder, tier: str):
    def after(_args, out):
        rec.count(tier + ".gets")
        if out is not None:
            rec.count(tier + ".hits")
    return after


def install(rec: Recorder) -> None:
    """Wrap every boundary in ``BOUNDARIES`` so its calls feed ``rec``."""
    # Value counters, keyed by attribute path: called with (args, result),
    # or with each item a generator yields.
    after = {
        "Verifier.plan": _after_plan(rec),
        "VcGen.run": lambda _args, vcs: rec.count("vcgen.vcs", len(vcs)),
        "VcCache.get": _after_get(rec, "vccache"),
        "PlanCache.get": _after_get(rec, "plancache"),
        "batches_from_plan": lambda _args, units: rec.count("dispatch.units", len(units)),
        "stream_tasks": _count_slot(rec),
    }
    wrapped = {}
    for name, targets in BOUNDARIES.items():
        for module, path in targets:
            owner, attr = _resolve(module, path)
            fn = getattr(owner, attr)
            if fn in wrapped:  # one function bound under several names
                setattr(owner, attr, wrapped[fn])
                continue
            if name == "sat":
                traced = _sat_span(rec, fn)
            elif name == "queue.admit":
                traced = _admit_span(rec, fn)
            elif inspect.isgeneratorfunction(fn):
                traced = _generator_span(rec, name, fn, after.get(path))
            else:
                traced = _span(rec, name, fn, after.get(path))
            wrapped[fn] = traced
            setattr(owner, attr, traced)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, requests, non200: int) -> dict:
    """Per-layer metrics from the recorded spans.

    ``requests`` are ``(tag, start_ns, end_ns, thread)`` per request.  A
    request's covered time is the time of the layer spans it caused: its
    own thread's direct children, plus top-level spans of other threads
    (the daemon's handlers) tagged with its client id and starting inside
    its interval.
    """
    outer_s = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    request_threads = {thread for _tag, _s, _e, thread in requests}
    by_tag = defaultdict(list)
    for tag, start, end, _thread in requests:
        by_tag[tag].append((start, end))
    for spans in by_tag.values():
        spans.sort()
    covered = 0
    for name, tag, thread, start, end, self_ns, outermost, depth in rec.spans:
        self_s[name] += self_ns / 1e9
        if outermost:
            outer_s[name] += (end - start) / 1e9
            calls[name] += 1
        if thread in request_threads:
            if depth == 1:
                covered += end - start
        elif depth == 0 and tag in by_tag:
            intervals = by_tag[tag]
            i = bisect.bisect_right(intervals, (start, float("inf"))) - 1
            if i >= 0 and start <= intervals[i][1]:
                covered += end - start
    request_ns = sum(end - start for _tag, start, end, _thread in requests)
    counts = rec.counts
    return {
        "lint.s": outer_s["lint"],
        "plan.s": outer_s["plan"],
        "plan.calls": calls["plan"],
        "vcgen.s": outer_s["vcgen"],
        "vcgen.vcs": counts["vcgen.vcs"],
        "rewrite.s": outer_s["rewrite"],
        "simplify.s": outer_s["simplify"],
        "simplify.kept_ratio": _ratio(counts["simplify.nodes_after"],
                                      counts["simplify.nodes_before"]),
        "solver.checks": calls["solver"],
        "solver.s": outer_s["solver"],
        "sat.self_s": self_s["sat"],
        "sat.conflicts": counts["sat.conflicts"],
        "euf.s": outer_s["euf"],
        "simplex.s": outer_s["simplex"],
        "setreduce.s": outer_s["setreduce"],
        "backend.s": outer_s["backend"],
        "diagnose.s": outer_s["diagnose"],
        "dispatch.units": counts["dispatch.units"],
        "dispatch.self_s": self_s["dispatch"],
        "dedup.solved_ratio": _ratio(counts["slots.solved"], counts["slots.settled"]),
        "codec.encode_s": outer_s["codec.encode"],
        "vccache.get_s": outer_s["vccache.get"],
        "vccache.put_s": outer_s["vccache.put"],
        "vccache.hit_ratio": _ratio(counts["vccache.hits"], counts["vccache.gets"]),
        "plancache.get_s": outer_s["plancache.get"],
        "plancache.put_s": outer_s["plancache.put"],
        "plancache.hit_ratio": _ratio(counts["plancache.hits"], counts["plancache.gets"]),
        "cacheindex.flushes": calls["cacheindex.flush"],
        "cacheindex.flush_s": outer_s["cacheindex.flush"],
        "journal.records": calls["journal"],
        "journal.s": outer_s["journal"],
        "queue.admit_s": outer_s["queue.admit"],
        "service.self_s": (request_ns - covered) / 1e9,
        "http.non200": non200,
        "trace.coverage": _ratio(covered, request_ns),
    }
