"""Theorem-verification experiments over the group catalog.

Each experiment id sweeps catalog groups crossed with representative maps
through the synchronization engine and records whether the advertised
claim held. A run produces an ExperimentReport whose status is:

- fail          some instance contradicted the claim (counterexample);
- inconclusive  the time or instance budget ran out first;
- pass          the sweep completed with zero counterexamples.

The sweeps over every map of a kernel type run through one loop,
_Sweeper.unsynchronized. It decides the maps a block of assignment rows at
a time with one numpy call of the orbit solver, so a block keeps about
sync.BLOCK_PAIR_CELLS (row, point pair) cells of uint64 masks in memory,
besides the type's int8 assignment array. It ticks the budget once per
instance, as if the instances ran one by one, and yields the instances
the solver does not synchronize, in sweep order. The sweeps over
(k,1,...,1) maps share one body:
`imprimitivity-char` takes every k from 2 to n-1, and `rystsov` (primitive
iff every rank n-1 map synchronizes) is its k = 2 case.

Every counterexample is re-verified against the brute-force closure
oracle before being reported, so a fast-path bug cannot fabricate one.
Expected failures (witnesses, e.g. the imprimitive constructions) are
re-verified the same way.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import CatalogEntry, build_catalog, verify_entry
from .graphs import complete_multipartite, witness_map_for_block
from .semigroups import (
    DEFAULT_CLOSURE_CAP,
    TruncatedClosureError,
    coblock_graph,
    find_rank_preserving_g,
    group_and_map_closure,
    idempotent_same_kernel,
)
from .sweeps import (
    SweepInstance,
    idempotent_instances_of_type,
    instances_of_type,
    kernel_types_of_rank,
    representatives_of_type,
)
from .sync import OrbitCollapseSolver, synchronizes
from .transformations import (
    KernelType,
    Transformation,
    format_transformation,
)

WITNESS_ORACLE_CAP = 300_000


@dataclass
class Budget:
    """Wall-clock plus instance-count limits for one experiment run."""

    seconds: float = 1800.0
    max_instances: int | None = None


@dataclass(frozen=True)
class InstanceRecord:
    group: str
    map_text: str
    verdict: bool
    min_rank: int | None = None
    word_length: int | None = None
    note: str = ""


@dataclass
class ExperimentReport:
    theorem_id: str
    max_degree: int
    instances_tested: int = 0
    counterexamples: list[InstanceRecord] = field(default_factory=list)
    witnesses: list[InstanceRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    inconclusive: bool = False
    wall_time: float = 0.0

    @property
    def status(self) -> str:
        if self.counterexamples:
            return "fail"
        if self.inconclusive:
            return "inconclusive"
        return "pass"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class _BudgetExceeded(Exception):
    pass


class _Sweeper:
    """Shared bookkeeping: budget ticks, verdicts, re-verification."""

    def __init__(self, report: ExperimentReport, budget: Budget, cap: int):
        self.report = report
        self.budget = budget
        self.cap = cap
        self.started = time.monotonic()
        self._solvers: dict[int, OrbitCollapseSolver] = {}

    def solver(self, entry: CatalogEntry) -> OrbitCollapseSolver:
        key = id(entry.group)
        if key not in self._solvers:
            self._solvers[key] = OrbitCollapseSolver(entry.group)
        return self._solvers[key]

    def tick(self):
        n = self.report.instances_tested
        self.report.instances_tested = n + 1
        if self.budget.max_instances is not None and n + 1 > self.budget.max_instances:
            raise _BudgetExceeded
        if n % 512 == 0 and time.monotonic() - self.started > self.budget.seconds:
            raise _BudgetExceeded

    def admit(self, count: int) -> int:
        """How many of the next count instances the instance budget lets through.

        Reads the clock once; out of time, the first of them is ticked and
        the run ends, as tick would end it.
        """
        if time.monotonic() - self.started > self.budget.seconds:
            self.report.instances_tested += 1
            raise _BudgetExceeded
        if self.budget.max_instances is None:
            return count
        return max(0, min(count, self.budget.max_instances - self.report.instances_tested))

    def confirm_not_synchronizing(
        self, entry: CatalogEntry, f: Transformation
    ) -> InstanceRecord:
        """Strongest available re-verification of a non-synchronizing verdict."""
        flat = synchronizes(entry.group, f)
        if flat.synchronizes:
            raise AssertionError(
                "fast path and pair-collapse search disagree; bug"
            )
        note = "re-verified: pair-collapse search"
        min_rank = flat.min_rank_bound
        try:
            c = group_and_map_closure(entry.group, f, cap=min(self.cap, WITNESS_ORACLE_CAP))
            if c.contains_constant():
                raise AssertionError(
                    "closure oracle found a constant the graph search missed; bug"
                )
            if c.min_rank != min_rank:
                raise AssertionError(
                    f"oracle min rank {c.min_rank} != graph bound {min_rank}; bug"
                )
            note = "re-verified: pair-collapse search + closure oracle"
        except TruncatedClosureError:
            note = "re-verified: pair-collapse search (closure oracle truncated)"
        return InstanceRecord(
            group=entry.name,
            map_text=format_transformation(f),
            verdict=False,
            min_rank=min_rank,
            note=note,
        )

    def unsynchronized(self, entry: CatalogEntry, kt: KernelType):
        """Every map of the kernel type, one tick each; yield the unsynchronized ones.

        Instances run kernel representative by representative, each over
        the assignment rows in blocks of solver.block_rows. A yielded
        instance has been counted with all those before it and none after,
        and a block that the instance budget cuts short is decided only up
        to the cut, so instances_tested comes out as with one tick per map.
        """
        solver = self.solver(entry)
        kernels, assignments = representatives_of_type(entry.group, kt)
        report = self.report
        for kernel in kernels:
            columns = np.array(kernel.block_index, dtype=np.intp)
            for lo in range(0, len(assignments), solver.block_rows):
                rows = assignments[lo : lo + solver.block_rows]
                fits = self.admit(len(rows))
                images = rows[:fits, columns]
                base = report.instances_tested
                for i in np.flatnonzero(~solver.synchronizes_images(images)).tolist():
                    report.instances_tested = base + i + 1
                    yield SweepInstance(
                        kernel, tuple(rows[i].tolist()), tuple(images[i].tolist())
                    )
                report.instances_tested = base + fits
                if fits < len(rows):
                    self.tick()  # one past the instance budget: raises

    def expect_synchronized(self, entry: CatalogEntry, kt: KernelType) -> None:
        """Sweep a kernel type whose maps the claim says must synchronize."""
        for inst in self.unsynchronized(entry, kt):
            self.report.counterexamples.append(
                self.confirm_not_synchronizing(entry, inst.transformation())
            )

    def expect_one_synchronized(self, entry: CatalogEntry, inst: SweepInstance) -> None:
        """Tick for one instance that the claim says must synchronize."""
        self.tick()
        if not self.solver(entry).synchronizes_images(inst.images):
            self.report.counterexamples.append(
                self.confirm_not_synchronizing(entry, inst.transformation())
            )

    def expect_witness_failure(
        self, entry: CatalogEntry, f: Transformation, context: str
    ) -> None:
        """Verify a constructed map is indeed not synchronized."""
        self.tick()
        solver = self.solver(entry)
        if solver.synchronizes_images(f.images):
            self.report.counterexamples.append(
                InstanceRecord(
                    group=entry.name,
                    map_text=format_transformation(f),
                    verdict=True,
                    note=f"{context}: expected failure but the map synchronizes",
                )
            )
            return
        record = self.confirm_not_synchronizing(entry, f)
        self.report.witnesses.append(replace(record, note=f"{context}; {record.note}"))


def _entries(max_degree: int, min_degree: int = 3) -> list[CatalogEntry]:
    entries = [e for e in build_catalog(max_degree) if e.degree >= min_degree]
    for e in entries:
        verify_entry(e)
    return entries


def _primitive_entries(max_degree: int, min_degree: int = 3) -> list[CatalogEntry]:
    return [e for e in _entries(max_degree, min_degree) if e.expected.primitive]


def _max_block_size(entry: CatalogEntry) -> int:
    return max((s.block_size for s in entry.group.block_systems()), default=1)


def _block_witness(entry: CatalogEntry, k: int) -> Transformation:
    """The collapse-k-points-of-a-block map from a system with blocks >= k."""
    systems = [s for s in entry.group.block_systems() if s.block_size >= k]
    system = systems[0]
    block = system.partition.blocks[0]
    a_set = block[:k]
    f = witness_map_for_block(system.partition, a_set, a_set[0])
    graph = complete_multipartite(system.partition)
    if not graph.is_endomorphism(f):
        raise AssertionError("block witness is not an endomorphism; bug")
    if f.kernel_type() != KernelType(tuple([k] + [1] * (entry.degree - k))):
        raise AssertionError("block witness has the wrong kernel type; bug")
    return f


def _sweep_block_collapse(sw: _Sweeper, max_degree: int, k_range, label: str):
    """Blocks of size >= k exist iff some (k,1,...,1) map fails to synchronize.

    k runs over k_range(n); label, formatted with k, names each witness.
    """
    for entry in _entries(max_degree):
        n = entry.degree
        bmax = _max_block_size(entry)
        for k in k_range(n):
            if k <= bmax:
                sw.expect_witness_failure(entry, _block_witness(entry, k), label.format(k=k))
            else:
                sw.expect_synchronized(entry, KernelType(tuple([k] + [1] * (n - k))))


def _sweep_rystsov(sw: _Sweeper, max_degree: int):
    """Primitivity is equivalent to synchronizing every map of rank n-1.

    The k = 2 case of imprimitivity-char: for k = 2, k <= max block size
    holds exactly for the imprimitive groups.
    """
    _sweep_block_collapse(sw, max_degree, lambda n: (2,), "rank n-1 block collapse")


def _sweep_imprimitivity_char(sw: _Sweeper, max_degree: int):
    """Blocks of size >= k exist iff some (k,1,...,1) map fails to synchronize."""
    _sweep_block_collapse(sw, max_degree, lambda n: range(2, n), "block collapse k={k}")


def _expect_types_synchronized(
    sw: _Sweeper, max_degree: int, kernel_types, min_degree: int = 3
):
    """Every primitive entry synchronizes every map of kernel_types(n)."""
    for entry in _primitive_entries(max_degree, min_degree):
        for kt in kernel_types(entry.degree):
            sw.expect_synchronized(entry, kt)


def _sweep_rank_n2(sw: _Sweeper, max_degree: int):
    """Primitive groups synchronize every map of rank n-2."""
    _expect_types_synchronized(
        sw, max_degree, lambda n: kernel_types_of_rank(n, n - 2), min_degree=4
    )


def _sweep_small_ranks(sw: _Sweeper, max_degree: int):
    """Rank 2 always; non-uniform ranks 3 and 4 (primitive groups).

    Uniform maps of rank 3 or 4 may legitimately fail, so they are skipped.
    """
    _expect_types_synchronized(
        sw,
        max_degree,
        lambda n: [
            kt
            for rank in (2, 3, 4)
            if rank < n
            for kt in kernel_types_of_rank(n, rank)
            if rank == 2 or not kt.is_uniform()
        ],
    )


def _type_32(n: int) -> KernelType:
    return KernelType(tuple([3, 2] + [1] * (n - 5)))


def _sweep_idempotent_32(sw: _Sweeper, max_degree: int):
    """Primitive groups synchronize every idempotent of type (3,2,1,...,1)."""
    for entry in _primitive_entries(max_degree, min_degree=5):
        kt = _type_32(entry.degree)
        for inst in idempotent_instances_of_type(entry.group, kt):
            if not inst.transformation().is_idempotent():
                raise AssertionError("idempotent enumeration produced a non-idempotent")
            sw.expect_one_synchronized(entry, inst)


def _sweep_rankpres_32(sw: _Sweeper, max_degree: int):
    """Type (3,2,1,...,1) maps with a rank-preserving group element synchronize."""
    for entry in _primitive_entries(max_degree, min_degree=5):
        kt = _type_32(entry.degree)
        for inst in instances_of_type(entry.group, kt):
            if find_rank_preserving_g(entry.group, inst.transformation()) is None:
                sw.tick()
            else:
                sw.expect_one_synchronized(entry, inst)


def grid_projection(m: int = 3) -> Transformation:
    """Collapse each row of the m x m grid onto its diagonal cell."""
    n = m * m
    return Transformation(tuple((x // m) * (m + 1) for x in range(n)))


def _sweep_grid_counterexample(sw: _Sweeper, max_degree: int):
    """The 3x3 grid group fails on the row-kernel diagonal projection."""
    entry = next(e for e in _entries(max(9, max_degree)) if e.name == "grid-3")
    f = grid_projection(3)
    sw.tick()
    verdict = synchronizes(entry.group, f)
    problems = []
    graph = verdict.obstruction
    if verdict.synchronizes:
        problems.append("instance synchronizes")
    if graph.edge_count != 18:
        problems.append(f"edge count {graph.edge_count} != 18")
    if graph.regular_valency() != 4:
        problems.append("graph is not 4-regular")
    if not graph.is_connected():
        problems.append("graph is not connected")
    clique = graph.clique_number()
    chromatic = graph.chromatic_number()
    if not clique == chromatic == 3:
        problems.append(f"clique {clique}, chromatic {chromatic} != 3")
    if graph.equal_neighbourhood_pairs():
        problems.append("two vertices share a neighbourhood")
    if graph.near_clique_witness(3) is not None:
        problems.append("found a 4-set inducing K4 minus an edge")
    c = group_and_map_closure(entry.group, f, cap=sw.cap)
    if c.min_rank != 3 or c.contains_constant():
        problems.append("closure oracle disagrees with min rank 3")
    delta = coblock_graph(entry.group, f.kernel())
    comp = graph.complement()
    if any(not comp.is_edge(v, w) for v, w in delta.edges()):
        problems.append("coblock graph is not inside the obstruction complement")
    if problems:
        sw.report.counterexamples.append(
            InstanceRecord(
                group=entry.name,
                map_text=format_transformation(f),
                verdict=verdict.synchronizes,
                min_rank=clique,
                note="; ".join(problems),
            )
        )
    else:
        sw.report.witnesses.append(
            sw.confirm_not_synchronizing(entry, f)
        )


def _nonsync_closure_instances(sw: _Sweeper, max_degree: int):
    """Closures of non-synchronized primitive instances, for spectrum sweeps.

    Instance family: all uniform kernel types (the only ones a primitive
    group can fail on) plus every non-uniform type of rank 2 and 3. The
    types are distinct: uniform ones differ in block count.
    """
    for entry in _primitive_entries(max_degree):
        n = entry.degree
        types = []
        for s in range(2, n):
            if n % s == 0:
                types.append(KernelType(tuple([n // s] * s)))
        for rank in (2, 3):
            if rank < n:
                types.extend(
                    kt for kt in kernel_types_of_rank(n, rank) if not kt.is_uniform()
                )
        for kt in types:
            for inst in sw.unsynchronized(entry, kt):
                f = inst.transformation()
                try:
                    c = group_and_map_closure(entry.group, f, cap=sw.cap)
                    c.min_rank  # force completeness check
                except TruncatedClosureError:
                    sw.report.notes.append(
                        f"{entry.name} {format_transformation(f)}: closure truncated, skipped"
                    )
                    continue
                yield entry, f, c


def _sweep_no_rank_r_plus_1(sw: _Sweeper, max_degree: int):
    """Non-synchronized primitive closures skip rank r+1 entirely."""
    checked = 0
    for entry, f, c in _nonsync_closure_instances(sw, max_degree):
        r = c.min_rank
        if r <= 1:
            continue
        checked += 1
        if (r + 1) in c.rank_spectrum:
            sw.report.counterexamples.append(
                InstanceRecord(
                    group=entry.name,
                    map_text=format_transformation(f),
                    verdict=False,
                    min_rank=r,
                    note=f"rank spectrum {c.rank_spectrum} contains {r + 1}",
                )
            )
    sw.report.notes.append(f"closures checked: {checked}")


def _sweep_split_one_part(sw: _Sweeper, max_degree: int):
    """No element of rank > r may keep r-1 kernel parts of size n/r."""
    checked = 0
    for entry, f, c in _nonsync_closure_instances(sw, max_degree):
        r = c.min_rank
        n = entry.degree
        if r <= 1 or n % r != 0:
            continue
        checked += 1
        part = n // r
        ranks = c.ranks
        for i in range(len(c)):
            if int(ranks[i]) <= r:
                continue
            sizes = {}
            for x in c.matrix[i]:
                sizes[int(x)] = sizes.get(int(x), 0) + 1
            big = sum(1 for s in sizes.values() if s == part)
            if big == r - 1:
                sw.report.counterexamples.append(
                    InstanceRecord(
                        group=entry.name,
                        map_text=format_transformation(c.element(i)),
                        verdict=False,
                        min_rank=r,
                        note=f"rank {int(ranks[i])} element keeps {r - 1} parts of size {part}",
                    )
                )
    sw.report.notes.append(f"closures checked: {checked}")


def _has_p4_or_c4(graph, vertices) -> bool:
    """Does the induced subgraph contain a 4-vertex path or 4-cycle?"""
    from itertools import permutations as _perms

    verts = list(vertices)
    for quad in _perms(verts, 4):
        a, b, c, d = quad
        if graph.is_edge(a, b) and graph.is_edge(b, c) and graph.is_edge(c, d):
            return True
    return False


def _sweep_lemma41_diagnostic(sw: _Sweeper, max_degree: int):
    """Structural checks on any non-synchronized two-big-block instance.

    Whenever a primitive group fails to synchronize a map whose kernel has
    exactly two non-singleton classes A and B, the obstruction graph
    restricted to A union B must contain a 4-vertex path or cycle, have no
    isolated vertices there, and no two points of one class sharing their
    unique neighbour in the other.
    """
    found = 0
    for entry in _primitive_entries(max_degree):
        n = entry.degree
        types = []
        for p in range(2, n - 1):
            for q in range(2, p + 1):
                if p + q <= n:
                    types.append(
                        KernelType(tuple(sorted([p, q] + [1] * (n - p - q), reverse=True)))
                    )
        for kt in types:
            for inst in sw.unsynchronized(entry, kt):
                found += 1
                f = inst.transformation()
                record = sw.confirm_not_synchronizing(entry, f)
                graph = synchronizes(entry.group, f).obstruction
                big = [b for b in f.kernel().blocks if len(b) > 1]
                a_block, b_block = big[0], big[1]
                k_set = list(a_block) + list(b_block)
                problems = []
                for v in k_set:
                    if not any(graph.is_edge(v, w) for w in k_set if w != v):
                        problems.append(f"isolated point {v + 1} in the big blocks")
                for one, other in ((a_block, b_block), (b_block, a_block)):
                    singles = {}
                    for v in one:
                        nbrs = [w for w in other if graph.is_edge(v, w)]
                        if len(nbrs) == 1:
                            singles.setdefault(nbrs[0], []).append(v)
                    for w, vs in singles.items():
                        if len(vs) > 1:
                            problems.append(
                                f"points {vs} share unique neighbour {w + 1}"
                            )
                if not _has_p4_or_c4(graph, k_set):
                    problems.append("no 4-vertex path or cycle in the big blocks")
                if problems:
                    sw.report.counterexamples.append(
                        InstanceRecord(
                            group=entry.name,
                            map_text=record.map_text,
                            verdict=False,
                            min_rank=record.min_rank,
                            note="; ".join(problems),
                        )
                    )
                else:
                    sw.report.witnesses.append(record)
    sw.report.notes.append(f"non-synchronized two-block instances: {found}")


THEOREMS = {
    "rystsov": (_sweep_rystsov, "rank n-1 characterisation of primitivity"),
    "imprimitivity-char": (
        _sweep_imprimitivity_char,
        "blocks of size >= k vs failing (k,1,...,1) maps, both directions",
    ),
    "rank-n-2": (_sweep_rank_n2, "primitive groups synchronize rank n-2 maps"),
    "idempotent-32": (
        _sweep_idempotent_32,
        "primitive groups synchronize idempotents of type (3,2,1,...,1)",
    ),
    "rankpres-32": (
        _sweep_rankpres_32,
        "type (3,2,1,...,1) maps with a rank-preserving element synchronize",
    ),
    "small-ranks": (
        _sweep_small_ranks,
        "rank 2 always; non-uniform ranks 3 and 4 synchronize",
    ),
    "grid-counterexample": (
        _sweep_grid_counterexample,
        "the 3x3 grid instance fails at minimum rank 3 with an 18-edge graph",
    ),
    "no-rank-r-plus-1": (
        _sweep_no_rank_r_plus_1,
        "non-synchronized primitive closures skip rank r+1",
    ),
    "split-one-part": (
        _sweep_split_one_part,
        "no element of rank > r keeps r-1 kernel parts of size n/r",
    ),
    "lemma41-diagnostic": (
        _sweep_lemma41_diagnostic,
        "structural checks on two-big-block failures",
    ),
}


def verify_theorem(
    theorem_id: str,
    max_degree: int = 10,
    budget: Budget | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> ExperimentReport:
    if theorem_id not in THEOREMS:
        known = ", ".join(sorted(THEOREMS))
        raise KeyError(f"unknown experiment id {theorem_id!r}; known: {known}")
    budget = budget or Budget()
    report = ExperimentReport(theorem_id=theorem_id, max_degree=max_degree)
    sweeper = _Sweeper(report, budget, cap)
    start = time.monotonic()
    try:
        THEOREMS[theorem_id][0](sweeper, max_degree)
    except _BudgetExceeded:
        report.inconclusive = True
        report.notes.append("budget exhausted; run is inconclusive")
    report.wall_time = time.monotonic() - start
    return report


def harvest_rank_preserving_pairs(
    max_degree: int = 8, minimum: int = 500
) -> list[tuple[str, Transformation, Transformation]]:
    """(group, f, g) with rank(f g f) = rank(f), gathered from sweep families.

    Used to exercise the idempotent-with-same-kernel construction in bulk.
    """
    pairs: list[tuple[str, Transformation, Transformation]] = []
    for entry in _entries(max_degree):
        n = entry.degree
        type_pool = []
        if n >= 5:
            type_pool.append(_type_32(n))
        type_pool.extend(kernel_types_of_rank(n, max(2, n - 2)))
        for kt in type_pool:
            for inst in instances_of_type(entry.group, kt):
                f = inst.transformation()
                g = find_rank_preserving_g(entry.group, f)
                if g is not None:
                    pairs.append((entry.name, f, g))
                if len(pairs) >= minimum:
                    return pairs
    return pairs


def check_rank_preserving_pairs(pairs) -> int:
    """Run the idempotent construction on each pair; postconditions raise."""
    count = 0
    for _, f, g in pairs:
        e, _exp = idempotent_same_kernel(f, g)
        if not e.is_idempotent() or e.kernel() != f.kernel():
            raise AssertionError("idempotent construction postcondition failed")
        count += 1
    return count
