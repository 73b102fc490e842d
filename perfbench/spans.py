"""Spans recorded from outside the program, by wrapping public functions.

Nothing here edits ``src/``: :func:`install` replaces each listed
function or method with a wrapper that records a span around the call,
and rebinds every ``repro.*`` module attribute that held the original,
so call sites that did ``from x import f`` are covered too.  Spans stay
in memory (one tuple per call) and are written out by :meth:`dump`.

A span is ``(id, parent, request, name, start, end, thread, note)``:
``parent`` is the span that was open in the caller's context,
``request`` the wire id of the request being served (set when the
daemon parses a frame), ``note`` a small per-layer fact read off the
return value (cache hit, leader or follower, execution mode, ...).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import sys
import threading
import time

#: (module, attribute or Class.method, span name).  Each entry is a
#: public function of one layer; the span name is the layer.
LAYERS = (
    ("repro.server.protocol", "parse_request", "server.protocol.parse"),
    ("repro.server.protocol", "encode", "server.protocol.encode"),
    ("repro.server.singleflight", "SingleFlightTable.join_or_lead", "server.singleflight.join"),
    ("repro.reasoning.dispatcher", "classify", "reasoning.dispatcher.classify"),
    ("repro.reasoning.dispatcher", "solve", "reasoning.dispatcher.solve"),
    ("repro.reasoning.canonical", "canonicalize_problem", "reasoning.canonical"),
    ("repro.reasoning.cache", "ImplicationCache.lookup", "reasoning.cache.lookup"),
    ("repro.reasoning.cache", "ImplicationCache.store", "reasoning.cache.store"),
    ("repro.reasoning.word", "implies_word", "reasoning.word"),
    ("repro.reasoning.local_extent", "implies_local_extent", "reasoning.local_extent"),
    ("repro.reasoning.typed_m", "implies_typed_m", "reasoning.typed_m"),
    ("repro.checking.engine", "check_all", "checking.engine"),
    ("repro.query.containment", "QueryContainmentChecker.contains", "query.containment"),
    ("repro.query.optimizer", "WordQueryOptimizer.optimize_union", "query.optimizer"),
    ("repro.query.optimizer", "optimize_rpq_union", "query.optimizer"),
    ("repro.rewriting.prefix", "PrefixRewriteSystem.post_star_automaton", "rewriting.prefix"),
    ("repro.rewriting.prefix", "PrefixRewriteSystem.post_star_of_nfa", "rewriting.prefix"),
    ("repro.rewriting.prefix", "PrefixRewriteSystem.pre_star_of_nfa", "rewriting.prefix"),
    ("repro.reasoning.portfolio", "run_portfolio", "reasoning.portfolio"),
    ("repro.reasoning.chase", "chase_implication", "reasoning.chase"),
    ("repro.reasoning.models", "scan_codes", "reasoning.models.scan"),
    ("repro.reasoning.models", "scan_typed_instances", "reasoning.models.scan"),
)

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=0)
_request: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)


def _note(name: str, result) -> object:
    """The per-layer fact a span keeps from its return value."""
    if name == "server.singleflight.join":
        return "leader" if result[0] else "follower"
    if name == "reasoning.cache.lookup":
        return "hit" if result is not None else "miss"
    if name == "reasoning.canonical":
        return "fallback" if result.fallback else "exact"
    if name == "reasoning.portfolio":
        mode = getattr(getattr(result, "execution", None), "mode", None)
        definite = "definite" if result.answer.is_definite else "unknown"
        return f"{definite}:{getattr(mode, 'value', 'none')}"
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    def _record(self, name, parent, start, end, note, sid=None) -> None:
        if sid is None:
            sid = next(self._ids)
        self.spans.append(
            (sid, parent, _request.get(), name, start, end, threading.get_ident(), note)
        )

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _current.get()
            sid = next(tracer._ids)
            token = _current.set(sid)
            start = time.perf_counter()
            note = None
            try:
                result = fn(*args, **kwargs)
                note = _note(name, result)
                if name == "server.protocol.parse":
                    _request.set(result.get("id"))
                return result
            finally:
                end = time.perf_counter()
                _current.reset(token)
                tracer._record(name, parent, start, end, note, sid)

        return traced

    def wrap_submit(self, submit):
        """``RetiringSolverPool.submit``: the queue wait (submit to
        start) is its own span.  The daemon submits from its worker
        task, not the request's, so solver-thread spans carry no
        request id; ``run.layer_metrics`` attributes them by time."""
        tracer = self

        @functools.wraps(submit)
        def traced_submit(pool, fn):
            submitted = time.perf_counter()

            def run():
                tracer._record("server.daemon.queue_wait", 0, submitted, time.perf_counter(), None)
                return fn()

            return submit(pool, run)

        return traced_submit

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every layer in :data:`LAYERS` (importing its module)."""
        for module_name, attr, name in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(getattr(cls, meth), name))
                continue
            original = getattr(module, attr)
            traced = self.wrap(original, name)
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro") or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, traced)
        pool = importlib.import_module("repro.reasoning.watchdog").RetiringSolverPool
        self._patch(pool, "submit", self.wrap_submit(pool.submit))

    def uninstall(self) -> None:
        """Put every original back (in reverse order)."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"main_thread": threading.main_thread().ident, "spans": self.spans}, handle)
