"""Spans around the calls the benchmark makes into each synchrolab layer.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces the public
names where their callers look them up (a module global, or a class
attribute for methods) with timing wrappers, and ``uninstall`` puts the
originals back, so an untraced pass runs the unmodified program.

Every wrapper pushes a frame on one stack, so each call's self time is its
duration minus the time of the wrapped calls nested inside it. Calls made
hundreds of thousands of times per pass (``compose``, the orbit solver,
sweep enumeration steps) are aggregated per name and keep no span; all
other calls also record a span ``(name, start, end, parent, request)``
where ``parent`` indexes the enclosing recorded span. Spans stay in memory
until ``write`` dumps them at exit.
"""
from __future__ import annotations

import gc
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        # frame = [time spent in wrapped children, span index children point to]
        self.stack: list[list] = [[0.0, None]]
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple | None] = []
        self.request_id = None
        self._undo: list = []
        self._gc_started = 0.0

    # -- recording ---------------------------------------------------------

    def _close(self, name, parent, frame, duration):
        parent[0] += duration
        stats = self.stats[name]
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - frame[0]

    def wrap(self, name, fn, record=True, after=None):
        """A function that calls ``fn`` inside a frame named ``name``.

        ``after(result, args)`` runs outside the timed region and updates
        counters from the call's inputs and result.
        """
        stack = self.stack
        spans = self.spans
        close = self._close

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if record:
                slot = len(spans)
                spans.append(None)
                frame = [0.0, slot]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                close(name, parent, frame, end - start)
                if record:
                    spans[slot] = (name, start, end, parent[1], self.request_id)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    @contextmanager
    def span(self, name):
        """A recorded frame around a block of the benchmark's own code."""
        parent = self.stack[-1]
        slot = len(self.spans)
        self.spans.append(None)
        frame = [0.0, slot]
        self.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self._close(name, parent, frame, end - start)
            self.spans[slot] = (name, start, end, parent[1], self.request_id)

    def timed_iter(self, name, make, count_key):
        """Wrap a generator factory so every ``next()`` is an aggregated frame."""

        def factory(*args, **kwargs):
            step = self.wrap(name, make(*args, **kwargs).__next__, record=False)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                self.counts[count_key] += 1
                yield item

        return factory

    def counted_iter(self, make, count_key):
        counts = self.counts

        def factory(*args, **kwargs):
            for item in make(*args, **kwargs):
                counts[count_key] += 1
                yield item

        return factory

    def counted(self, fn, count_key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count_key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, owners, attr, name, record=True, after=None):
        """Wrap ``attr`` in every module that looks the name up itself."""
        original = getattr(owners[0], attr)
        wrapped = self.wrap(name, original, record, after)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")
            self.patch(owner, attr, wrapped)

    def patch_method(self, cls, attr, name, record=True, after=None):
        self.patch(cls, attr, self.wrap(name, cls.__dict__[attr], record, after))

    def patch_static(self, cls, attr, replacement_of):
        original = cls.__dict__[attr].__func__
        self.patch(cls, attr, staticmethod(replacement_of(original)))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.counts["runtime.gc_s"] += perf_counter() - self._gc_started
            self.counts["runtime.gc_collections"] += 1

    def install(self, lib):
        """Wrap the public entry points of every synchrolab layer."""
        c = self.counts
        self.patch_function(
            [lib.catalog, lib.experiments], "build_catalog", "catalog.build"
        )
        self.patch_function(
            [lib.catalog, lib.experiments], "verify_entry", "catalog.verify"
        )
        self.patch_function([lib.groups], "parse_group_text", "groups.parse")
        group_cls = lib.groups.PermutationGroup
        self.patch_method(group_cls, "pair_orbits", "groups.pair_orbits")
        self.patch_function(
            [lib.experiments], "OrbitCollapseSolver", "groups.pair_orbits"
        )
        self.patch_method(group_cls, "block_systems", "groups.block_systems")
        self.patch_method(group_cls, "stabilizer_elements", "groups.stabilizer")

        def after_sync(verdict, args):
            if verdict.synchronizes:
                c["sync.word_letters"] += len(verdict.witness_word)
            else:
                c["sync.nonsync"] += 1

        self.patch_function(
            [lib.sync, lib.experiments], "synchronizes", "sync.synchronizes",
            after=after_sync,
        )

        def after_automaton(auto, args):
            group = args[0]
            n = group.degree
            c["sync.automaton_pairs"] += n * (n - 1) // 2 * (len(group.generators) + 1)

        self.patch_function(
            [lib.sync], "PairCollapseAutomaton", "sync.automaton",
            after=after_automaton,
        )
        self.patch_method(
            lib.sync.OrbitCollapseSolver, "synchronizes_images", "sync.solver",
            record=False,
        )
        graph_cls = lib.graphs.Graph
        self.patch_static(
            graph_cls, "from_edges",
            lambda f: self.wrap("graphs.from_edges", f, record=False),
        )
        self.patch_method(graph_cls, "clique_number", "graphs.clique")
        self.patch_method(graph_cls, "chromatic_number", "graphs.chromatic")
        self.patch_function(
            [lib.transformations, lib.semigroups], "compose",
            "transformations.compose", record=False,
        )
        self.patch_static(
            lib.transformations.Partition, "from_blocks",
            lambda f: self.counted(f, "transformations.partitions_built"),
        )

        def after_reps(reps, args):
            c["sweeps.kernel_reps_kept"] += len(reps)

        self.patch_function(
            [lib.sweeps], "kernel_orbit_representatives", "sweeps.kernel_reps",
            after=after_reps,
        )
        self.patch(
            lib.sweeps, "partitions_of_type",
            self.counted_iter(lib.sweeps.partitions_of_type, "sweeps.partitions_seen"),
        )
        for attr in ("instances_of_type", "idempotent_instances_of_type"):
            self.patch(
                lib.experiments, attr,
                self.timed_iter(
                    "sweeps.enumerate", getattr(lib.sweeps, attr), "sweeps.instances"
                ),
            )

        def after_closure(closure, args):
            c["semigroups.closure_elements"] += len(closure)
            c["semigroups.truncated"] += closure.truncated

        self.patch_function(
            [lib.semigroups], "closure", "semigroups.closure", after=after_closure
        )
        self.patch_function(
            [lib.semigroups, lib.experiments], "find_rank_preserving_g",
            "semigroups.rank_preserving", record=False,
        )
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far, keyed ``<name>.calls/.s/.self_s`` plus counters."""
        out = dict(self.counts)
        for name, (calls, total, own) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = own
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"aggregates": self.snapshot()}) + "\n")
