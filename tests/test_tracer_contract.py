"""The benchmark's tracer still finds every name it wraps.

perfbench/tracing.py times each layer by replacing names where their
callers look them up. A refactor that renames a traced function, or calls
it through another module, leaves its metric at a silent 0. This test
loads the tracer by path, runs a little of every layer under it and asks
that each wrapped entry point was reached, then that uninstall put every
original back.
"""
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from synchrolab.experiments import verify_theorem
from synchrolab.transformations import Transformation

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# the layer modules perfbench/workloads.py hands to Tracer.install
LAYERS = (
    "transformations", "groups", "graphs", "sync", "semigroups",
    "catalog", "sweeps", "experiments", "reports",
)
REACHED = (
    "catalog.build",
    "catalog.verify",
    "groups.pair_orbits",
    "groups.stabilizer",
    "groups.parse",
    "sync.solver",
    "sync.synchronizes",
    "sync.automaton",
    "sweeps.enumerate",
    "sweeps.kernel_reps",
    "semigroups.closure",
    "semigroups.rank_preserving",
    "graphs.chromatic",
)


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_reached_and_restored():
    lib = SimpleNamespace(
        **{name: importlib.import_module(f"synchrolab.{name}") for name in LAYERS}
    )
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install(lib)
        patched = list(tracer._undo)
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, attr
        assert verify_theorem("rystsov", max_degree=6).passed
        assert verify_theorem("rankpres-32", max_degree=6).passed
        assert verify_theorem("idempotent-32", max_degree=6).passed
        _, group = lib.groups.parse_group_text("degree 4\n(1 2 3 4)\n")
        # (1 2 3 4) keeps the block system {1,3},{2,4}: min rank 2
        assert lib.sync.min_rank_via_graph(group, Transformation((0, 1, 0, 1))) == 2
    finally:
        tracer.uninstall()
    counts = tracer.snapshot()
    missed = [name for name in REACHED if not counts.get(f"{name}.calls")]
    assert missed == []
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr
