"""The three benchmark workloads: request generation, serving and checking.

Every workload is a closed loop with one client: the next request is sent
only after the previous one has been answered. A run is a sequence of
passes; each pass draws fresh requests from the seeded stream, serves them
one by one (the timed part) and checks every answer outside the timed
region. Checks use only the benchmark's own code plus the program's
``OrbitCollapseSolver`` on a private copy of the group, so no cache the
program keeps on a group object is warmed by the checker.
"""
from __future__ import annotations

import importlib
import random
import re
import sys
from dataclasses import dataclass
from itertools import accumulate
from types import SimpleNamespace

LAYERS = (
    "transformations", "groups", "graphs", "sync", "semigroups",
    "catalog", "sweeps", "experiments", "reports",
)

# Catalog degree each workload builds; setup verifies the entries it uses.
CATALOG_DEGREE = {"check": 64, "sweep": 10, "oracle": 9}

# check: the 96 symmetric and alternating groups above this degree are left
# out. Set-up verifies every entry a workload uses (Schreier-Sims), and for
# these that takes minutes (A64 alone about 46 s on a 2-CPU host), while a
# run repeats its set-up six times.
CHECK_MAX_SYMMETRIC_DEGREE = 16
# The request mix is synthetic: there is no record of real `synchrolab check`
# traffic to derive it from. The shares below only make every kind of
# request frequent in each pass; README.md gives what they lead to.
CHECK_PASS_REQUESTS = 300  # one unit of request generation and checking
CHECK_TEXT_SHARE = 0.25
CHECK_NONSYNC_SHARE = 0.10
# Zipf exponent of group popularity: the five hottest groups take 55% of the
# random-map requests, while most of the 130 groups stay cold.
CHECK_ZIPF = 1.2

# sweep: release-criterion-3 sweeps, trimmed to fit a run while keeping one
# sweep per bottleneck regime (orbit solver; kernel representatives and
# partitions; rank-preserving search; stabilizer enumeration in closures).
# Witness counts are what a correct engine reports for these arguments.
SWEEPS = (
    ("rystsov", 10, 6),
    ("imprimitivity-char", 9, 9),
    ("rankpres-32", 9, 0),
    ("small-ranks", 9, 0),
    ("no-rank-r-plus-1", 10, 0),
)

# oracle: closures of groups up to degree 7 stay under the default cap of
# 10^6 for every instance kind; C8 and grid-3 only for constructed maps.
ORACLE_MAX_DEGREE = 7
ORACLE_CONSTRUCTED_ONLY = ("C8", "grid-3")
# Light rounds (all groups below degree 7) per heavy round (degree 7).
ORACLE_LIGHT_ROUNDS = 8

_SYMMETRIC = re.compile(r"[SA]\d+$")
_CYCLIC = re.compile(r"C(\d+)$")
_GRID = re.compile(r"grid-(\d+)$")


def load_library(root) -> SimpleNamespace:
    """Import synchrolab from ``root/src`` and return its layer modules by name."""
    src = root / "src"
    if not (src / "synchrolab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no synchrolab sources under {src}")
    sys.path.insert(0, str(src))
    return SimpleNamespace(
        **{name: importlib.import_module(f"synchrolab.{name}") for name in LAYERS}
    )


def set_up(lib, workload: str) -> list:
    """Build the workload's catalog and verify every entry it uses."""
    entries = select_entries(workload, lib.catalog.build_catalog(CATALOG_DEGREE[workload]))
    for entry in entries:
        lib.catalog.verify_entry(entry)
    return entries


def select_entries(workload: str, catalog) -> list:
    """Catalog entries a workload uses, in catalog order."""
    if workload == "check":
        return [
            e for e in catalog
            if e.degree >= 5
            and not (_SYMMETRIC.match(e.name) and e.degree > CHECK_MAX_SYMMETRIC_DEGREE)
        ]
    if workload == "oracle":
        return [
            e for e in catalog
            if e.degree <= ORACLE_MAX_DEGREE or e.name in ORACLE_CONSTRUCTED_ONLY
        ]
    if workload == "sweep":
        return [e for e in catalog if e.degree >= 3]
    raise KeyError(workload)


# -- map constructions known not to synchronize ------------------------------


def _random_element(rng, group) -> tuple[int, ...]:
    """A product of random generators, long enough to mix small groups."""
    g = tuple(range(group.degree))
    gens = [p.images for p in group.generators]
    for _ in range(2 * group.degree):
        h = rng.choice(gens)
        g = tuple(h[x] for x in g)
    return g


def _is_composite(n: int) -> bool:
    return any(n % d == 0 for d in range(2, n))


def constructible(entry) -> bool:
    m = _CYCLIC.match(entry.name)
    if m:
        return _is_composite(int(m.group(1)))
    return bool(_GRID.match(entry.name))


def nonsync_map(rng, entry) -> tuple[int, ...]:
    """A map the group provably does not synchronize.

    Cyclic C_n, n composite: the residues mod d (d | n) form a block system
    and the map sends distinct blocks to distinct blocks, so every element
    of the semigroup keeps points of distinct blocks apart (rank >= d).
    Grid grid-m: each row collapses onto one cell of a diagonal; every
    product keeps the m rows apart (rank m). Both are then multiplied on
    either side by random group elements, which leaves the generated
    semigroup unchanged.
    """
    n = entry.degree
    m = _CYCLIC.match(entry.name)
    if m:
        d = rng.choice([d for d in range(2, n) if n % d == 0])
        targets = list(range(d))
        rng.shuffle(targets)
        images = [rng.randrange(n // d) * d + targets[x % d] for x in range(n)]
        if len(set(images)) == n:
            images[d] = images[0]  # 0 and d share a block: collapse them
    else:
        side = int(_GRID.match(entry.name).group(1))
        images = [(x // side) * (side + 1) for x in range(n)]
    left = _random_element(rng, entry.group)
    right = _random_element(rng, entry.group)
    return tuple(right[images[left[x]]] for x in range(n))


def _composes_to_constant(group, images, word) -> bool:
    letters = {f"g{i + 1}": g.images for i, g in enumerate(group.generators)}
    letters["f"] = images
    points = set(range(len(images)))
    for name in word:
        m = letters[name]
        points = {m[x] for x in points}
    return len(points) == 1


class _Reference:
    """Independent verdicts from the orbit solver on private group copies."""

    def __init__(self, lib):
        self._lib = lib
        # captured before any tracing wrapper is installed
        self._verdict = lib.sync.OrbitCollapseSolver.synchronizes_images
        self._solvers = {}

    def synchronizes(self, entry, images) -> bool:
        solver = self._solvers.get(entry.name)
        if solver is None:
            copy = self._lib.groups.PermutationGroup(entry.group.generators, entry.degree)
            solver = self._lib.sync.OrbitCollapseSolver(copy)
            self._solvers[entry.name] = solver
        return self._verdict(solver, images)


# -- check ---------------------------------------------------------------------


@dataclass
class CheckRequest:
    entry: object
    f: object  # Transformation
    text: str | None
    constructed: bool

    def describe(self) -> str:
        return f"{self.entry.name} {self.f}"


class CheckWorkload:
    """Single-instance ``synchronizes`` decisions, as ``synchrolab check`` makes."""

    name = "check"
    tail = 0.99

    def __init__(self, lib, entries, seed: int):
        self.lib = lib
        self.rng = random.Random(f"check:{seed}")
        # popularity order is part of the workload, not of the seed
        order = sorted(entries, key=lambda e: e.name)
        random.Random("check-popularity").shuffle(order)
        self.pool = order
        weights = [1.0 / (i + 1) ** CHECK_ZIPF for i in range(len(order))]
        self.cum = list(accumulate(weights))
        self.hard = [e for e in order if constructible(e)]
        self.hard_cum = list(accumulate(
            w for w, e in zip(weights, order) if constructible(e)
        ))
        fmt = lib.groups.format_group_text
        self.texts = {e.name: fmt(e.group, e.name) for e in order}
        self.reference = _Reference(lib)

    def requests(self, pass_index: int) -> list[CheckRequest]:
        rng = self.rng
        make = self.lib.transformations.Transformation
        out = []
        for _ in range(CHECK_PASS_REQUESTS):
            constructed = rng.random() < CHECK_NONSYNC_SHARE
            if constructed:
                entry = rng.choices(self.hard, cum_weights=self.hard_cum)[0]
                images = nonsync_map(rng, entry)
            else:
                entry = rng.choices(self.pool, cum_weights=self.cum)[0]
                n = entry.degree
                images = tuple(rng.randrange(n) for _ in range(n))
            text = self.texts[entry.name] if rng.random() < CHECK_TEXT_SHARE else None
            out.append(CheckRequest(entry, make(images), text, constructed))
        return out

    def serve(self, req: CheckRequest, span):
        lib = self.lib
        if req.text is None:
            group = req.entry.group
        else:
            _, group = lib.groups.parse_group_text(req.text)
        return lib.sync.synchronizes(group, req.f)

    def check(self, req: CheckRequest, verdict) -> str | None:
        images = req.f.images
        expected = self.reference.synchronizes(req.entry, images)
        if req.constructed and expected:
            return "constructed non-synchronizing map synchronizes per the orbit solver"
        if verdict.synchronizes != expected:
            return f"verdict {verdict.synchronizes}, orbit solver says {expected}"
        if expected:
            word = verdict.witness_word
            if not word or not _composes_to_constant(req.entry.group, images, word):
                return "witness word missing or not composing to a constant"
            if verdict.obstruction.edge_count or verdict.min_rank_bound != 1:
                return "synchronizing verdict with a non-null obstruction graph"
        else:
            if verdict.witness_word is not None:
                return "non-synchronizing verdict carries a witness word"
            if not verdict.obstruction.edge_count or verdict.min_rank_bound < 2:
                return "non-synchronizing verdict with a null obstruction graph"
        return None


# -- sweep ---------------------------------------------------------------------


@dataclass
class SweepRequest:
    theorem_id: str
    max_degree: int
    witnesses: int

    def describe(self) -> str:
        return f"{self.theorem_id} --max-degree {self.max_degree}"


class SweepWorkload:
    """Theorem sweeps through ``verify_theorem``; exhaustive, so seed-independent."""

    name = "sweep"
    tail = 0.9

    def __init__(self, lib, entries, seed: int):
        self.lib = lib

    def requests(self, pass_index: int) -> list[SweepRequest]:
        return [SweepRequest(*row) for row in SWEEPS]

    def serve(self, req: SweepRequest, span):
        lib = self.lib
        with span(f"experiments.verify.{req.theorem_id}"):
            report = lib.experiments.verify_theorem(req.theorem_id, max_degree=req.max_degree)
        with span("reports.emit"):
            text = lib.reports.report_emit(report)
        return report, text

    def check(self, req: SweepRequest, result) -> str | None:
        report, text = result
        if report.status != "pass" or report.counterexamples:
            return f"status {report.status}, {len(report.counterexamples)} counterexamples"
        if len(report.witnesses) != req.witnesses:
            return f"{len(report.witnesses)} witnesses, expected {req.witnesses}"
        if any("truncated" in note for note in report.notes):
            return "a closure was truncated"
        if "status          pass" not in text:
            return "emitted report does not say pass"
        return None


# -- oracle --------------------------------------------------------------------


@dataclass
class OracleRequest:
    entry: object
    f: object  # Transformation
    kind: str  # "random", "rep" or "constructed"

    def describe(self) -> str:
        return f"{self.entry.name} {self.f} ({self.kind})"


@dataclass
class OracleAnswer:
    verdict: object
    truncated: bool
    min_rank: int | None = None
    collapsed: frozenset | None = None
    spectrum: tuple | None = None
    graph_rank: int | None = None
    endomorphisms: bool | None = None


def _kernel_types(n: int) -> list[tuple[int, ...]]:
    types = [tuple([2] + [1] * (n - 2))]
    if n >= 4:
        types += [tuple([3] + [1] * (n - 3)), tuple([2, 2] + [1] * (n - 4))]
    return types


class OracleWorkload:
    """The criterion 1/6 cross-check of the decision procedure against closures.

    A round over a set of groups gives each group one kernel-orbit
    representative of every kernel type of rank >= n-2 (each block sent to
    its least point, as release criterion 1 does), one constructed
    non-synchronizing map where the group has one, and one random map.
    One pass is ORACLE_LIGHT_ROUNDS rounds over the groups below degree 7,
    then one round over the degree-7 groups without the random map. Small
    instances thus outnumber large ones, as in criterion 1 (200 random
    maps per group), so the median rests on about a thousand samples a run.
    The degree-7 random maps are left out because their closures range from
    10^3 to 8*10^5 elements, which would let the seed decide the tail; the
    degree-7 representatives are fixed closures, among them S7 with a
    rank-6 map (all 7^7 maps), so every pass reaches the same peak memory.
    p99 falls inside the six S7/A7 representatives of each pass.
    """

    name = "oracle"
    tail = 0.99

    def __init__(self, lib, entries, seed: int):
        self.lib = lib
        self.rng = random.Random(f"oracle:{seed}")
        self.entries = entries
        kernel_type = lib.transformations.KernelType
        self.reps = {
            e.name: [
                lib.sweeps.kernel_orbit_representatives(e.group, kernel_type(t))
                for t in _kernel_types(e.degree)
            ]
            for e in entries
            if e.name not in ORACLE_CONSTRUCTED_ONLY
        }

    def requests(self, pass_index: int) -> list[OracleRequest]:
        light = [e for e in self.entries if e.degree != ORACLE_MAX_DEGREE]
        heavy = [e for e in self.entries if e.degree == ORACLE_MAX_DEGREE]
        out = []
        for _ in range(ORACLE_LIGHT_ROUNDS):
            for entry in light:
                out.extend(self._instances(entry, random_map=True))
        for entry in heavy:
            out.extend(self._instances(entry, random_map=False))
        return out

    def _instances(self, entry, random_map: bool) -> list[OracleRequest]:
        rng = self.rng
        make = self.lib.transformations.Transformation
        n = entry.degree
        out = []
        if constructible(entry):
            out.append(OracleRequest(entry, make(nonsync_map(rng, entry)), "constructed"))
        if entry.name in ORACLE_CONSTRUCTED_ONLY:
            return out
        if random_map:
            images = tuple(rng.randrange(n) for _ in range(n))
            out.append(OracleRequest(entry, make(images), "random"))
        for reps in self.reps[entry.name]:
            kernel = rng.choice(reps)
            images = tuple(kernel.block_containing(x)[0] for x in range(n))
            out.append(OracleRequest(entry, make(images), "rep"))
        return out

    def serve(self, req: OracleRequest, span):
        lib = self.lib
        group, f = req.entry.group, req.f
        verdict = lib.sync.synchronizes(group, f)
        closure = lib.semigroups.group_and_map_closure(group, f)
        if closure.truncated:
            return OracleAnswer(verdict, True)
        with span("semigroups.analysis"):
            min_rank = lib.semigroups.min_rank(closure)
            collapsed = closure.collapsed_pairs()
            spectrum = closure.rank_spectrum
        graph_rank = None
        if not verdict.synchronizes:
            graph_rank = lib.sync.min_rank_via_graph(group, f)
        graph = verdict.obstruction
        endomorphisms = graph.is_endomorphism(f) and all(
            graph.is_endomorphism(g) for g in group.generators
        )
        return OracleAnswer(
            verdict, False, min_rank, collapsed, spectrum, graph_rank, endomorphisms
        )

    def check(self, req: OracleRequest, answer: OracleAnswer) -> str | None:
        verdict = answer.verdict
        if answer.truncated:
            return "closure truncated at the default cap"
        if req.kind == "constructed" and verdict.synchronizes:
            return "constructed non-synchronizing map synchronizes"
        if verdict.synchronizes != (answer.min_rank == 1):
            return f"verdict {verdict.synchronizes}, closure min rank {answer.min_rank}"
        n = req.entry.degree
        edges = {(v, w) for v in range(n) for w in range(v + 1, n)} - answer.collapsed
        if set(verdict.obstruction.edges()) != edges:
            return "obstruction edges differ from the pairs no closure element merges"
        if verdict.min_rank_bound != answer.min_rank:
            return f"min rank bound {verdict.min_rank_bound} != closure {answer.min_rank}"
        if answer.spectrum[0] != answer.min_rank:
            return "rank spectrum does not start at the minimum rank"
        if not verdict.synchronizes and answer.graph_rank != answer.min_rank:
            return f"clique/chromatic rank {answer.graph_rank} != closure {answer.min_rank}"
        if not answer.endomorphisms:
            return "a generator or the map is not an obstruction-graph endomorphism"
        return None


WORKLOADS = {w.name: w for w in (CheckWorkload, SweepWorkload, OracleWorkload)}
