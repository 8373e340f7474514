"""Per-layer tracing from outside the program.

Every layer is measured by wrapping a public function at the name its
caller looks it up by, so nothing under ``src/`` changes and removing the
wrappers restores the program exactly.  Timed wrappers keep a stack of
child time, so each layer's *self* time excludes the timed layers it
calls, and the self times of all layers partition the traced wall time.
Coarse boundaries (variant, build, step, settlement pass, observe,
invariants, hazards, export) also record spans; rule calls, RNG draws and
lookups are only counted, because a span per call would cost more than
the call itself.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from citysim import build, federation, hazards, kernel, metrics, rng, runner, scenario
from citysim.systems import mobility

STAGE_FIELDS = ("internal", "network", "coupling")


class Tracer:
    """Self time, call counts and spans of wrapped calls, kept in memory."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        self.rules: defaultdict[tuple[str, str], list] = defaultdict(lambda: [0, 0, 0.0])
        self.route_pairs: set[tuple[str, str]] = set()
        self.fnv_labels: set[str] = set()
        self.spans: list = []
        self.run_id = "setup"
        self._child = [0.0]
        self._open: list[int | None] = [None]
        self._patched: list[tuple[object, str, object]] = []

    # -- accounting -------------------------------------------------------

    def reset(self) -> None:
        """Forget accumulated numbers (spans are kept for the whole run)."""
        for store in (self.self_s, self.calls, self.counts, self.durations):
            store.clear()
        # rule wrappers hold their accumulator, so zero it in place
        for acc in self.rules.values():
            acc[:] = [0, 0, 0.0]
        self.route_pairs.clear()
        self.fnv_labels.clear()

    def timed(self, name: str, fn, *, span: bool = False, keep: bool = False):
        """Wrap ``fn`` so its self time and calls accumulate under ``name``."""
        child, self_s, calls = self._child, self.self_s, self.calls
        spans, opened, durations = self.spans, self._open, self.durations
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = None
            if span:
                sid = len(spans)
                spans.append(None)
                opened.append(sid)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                self_s[name] += elapsed - child.pop()
                child[-1] += elapsed
                calls[name] += 1
                if keep:
                    durations[name].append(elapsed)
                if span:
                    opened.pop()
                    spans[sid] = (name, start, end, opened[-1], self.run_id)

        return wrapper

    @contextmanager
    def span(self, name: str, run_id: str | None = None):
        """A timed span around benchmark code (variant, export, set-up)."""
        if run_id is not None:
            self.run_id = run_id
        sid = len(self.spans)
        self.spans.append(None)
        self._open.append(sid)
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            elapsed = end - start
            self.self_s[name] += elapsed - self._child.pop()
            self._child[-1] += elapsed
            self.calls[name] += 1
            self.durations[name].append(elapsed)
            self._open.pop()
            self.spans[sid] = (name, start, end, self._open[-1], self.run_id)

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rule(self, key: tuple[str, str], fn):
        acc = self.rules[key]
        child, clock = self._child, time.perf_counter

        def wrapper(ctx):
            child.append(0.0)
            start = clock()
            try:
                out = fn(ctx)
            finally:
                elapsed = clock() - start
                acc[2] += elapsed - child.pop()
                child[-1] += elapsed
            acc[0] += 1
            if out is not None:
                acc[1] += 1
            return out

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every measured layer; ``uninstall`` restores the originals."""
        t = self
        original_registry = build.default_registry

        def traced_registry():
            registry = original_registry()
            for role, rules in list(registry.rules.items()):
                changes = {
                    stage: t._rule((stage, role), getattr(rules, stage))
                    for stage in STAGE_FIELDS if getattr(rules, stage) is not None
                }
                registry.rules[role] = dataclasses.replace(rules, **changes)
            for system, fn in list(registry.coordinators.items()):
                registry.coordinators[system] = t.timed(f"settle.{system}", fn, span=True)
            return registry

        self._patch(build, "default_registry", traced_registry)
        self._patch(scenario, "cross_errors", t.timed("scenario.cross_errors", scenario.cross_errors))
        self._patch(build, "build_world", t.timed("build.world", build.build_world))
        self._patch(runner, "build_world", t.timed("runner.build", runner.build_world, span=True, keep=True))
        self._patch(runner, "apply_due", t.timed("hazards.apply_due", runner.apply_due, span=True))
        resolve = t.timed("hazards.resolve_selector", hazards.resolve_selector)
        self._patch(hazards, "resolve_selector", resolve)
        self._patch(build, "resolve_selector", resolve)
        self._patch(runner.InvariantMonitor, "__call__",
                    t.timed("runner.invariants", runner.InvariantMonitor.__call__, span=True))

        World = kernel.World
        self._patch(World, "finalize", t.timed("build.finalize", World.finalize))
        self._patch(World, "step", t.timed("kernel.step", World.step, span=True, keep=True))
        self._patch(World, "role_members", t.timed("kernel.role_members", World.role_members))
        self._patch(World, "counterpart", t.counted("kernel.counterpart", World.counterpart))

        original_route = mobility.shortest_route

        def route(graph, origin, dest):
            t.route_pairs.add((origin, dest))
            return original_route(graph, origin, dest)

        self._patch(mobility, "shortest_route", t.timed("routing.shortest_route", route))

        for cls in sorted(set(federation.ADAPTERS.values()), key=lambda c: c.__name__):
            original_inject = cls.inject

            def inject(adapter, commands, _inject=original_inject):
                t.counts["federation.routes"] += sum(1 for c in commands if c["kind"] == "route")
                return _inject(adapter, commands)

            self._patch(cls, "inject", t.timed("federation.inject", inject))
            self._patch(cls, "advance", t.timed("federation.advance", cls.advance))
            self._patch(cls, "query", t.timed("federation.query", cls.query))

        self._patch(metrics.Recorder, "observe",
                    t.timed("metrics.observe", metrics.Recorder.observe, span=True))
        self._patch(metrics, "observe_subagent",
                    t.timed("metrics.observe_subagent", metrics.observe_subagent))
        self._patch(metrics, "aggregate_system",
                    t.timed("metrics.aggregate", metrics.aggregate_system))

        self._patch(rng.Stream, "at", t.counted("rng.stream_at", rng.Stream.at))
        self._patch(rng.TickRng, "_next_u64", t.counted("rng.draws", rng.TickRng._next_u64))
        original_fnv = rng.fnv64

        def fnv64(text):
            t.fnv_labels.add(text)
            return original_fnv(text)

        self._patch(rng, "fnv64", t.counted("rng.fnv64", fnv64))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start, end, parent span, run id."""
        origin = min((s[1] for s in self.spans if s), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for index, item in enumerate(self.spans):
                if item is None:
                    continue
                name, start, end, parent, run_id = item
                fh.write(json.dumps({
                    "id": index, "name": name, "start_s": start - origin,
                    "end_s": end - origin, "parent": parent, "run": run_id,
                }) + "\n")
