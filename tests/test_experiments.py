import hashlib

import numpy as np
import pytest

from synchrolab.catalog import find_entry
from synchrolab.experiments import (
    THEOREMS,
    Budget,
    ExperimentReport,
    NoInstanceError,
    _BudgetExceeded,
    _primitive_entries,
    _rank_preserving_mask,
    _Sweeper,
    _type_32,
    check_rank_preserving_pairs,
    grid_projection,
    harvest_rank_preserving_pairs,
    verify_theorem,
)
from synchrolab import experiments
from synchrolab.reports import report_emit
from synchrolab.semigroups import find_rank_preserving_g
from synchrolab.sweeps import instances_of_type, map_from_assignment, representatives_of_type
from synchrolab.sync import OrbitCollapseSolver, synchronizes
from synchrolab.transformations import KernelType, Transformation, format_transformation


QUICK = Budget(seconds=600.0)


class TestVerdicts:
    def test_unknown_id(self):
        with pytest.raises(KeyError):
            verify_theorem("not-a-theorem")

    def test_grid_counterexample(self):
        report = verify_theorem("grid-counterexample", max_degree=9, budget=QUICK)
        assert report.status == "pass"
        assert len(report.witnesses) == 1
        w = report.witnesses[0]
        assert w.group == "grid-3"
        assert w.min_rank == 3
        assert not w.verdict

    def test_rystsov_small(self):
        report = verify_theorem("rystsov", max_degree=6, budget=QUICK)
        assert report.status == "pass"
        assert report.counterexamples == []
        # C4, C6 and grid-2 are the imprimitive members up to degree 6
        assert sorted({w.group for w in report.witnesses}) == ["C4", "C6", "grid-2"]

    def test_imprimitivity_char_small(self):
        report = verify_theorem("imprimitivity-char", max_degree=6, budget=QUICK)
        assert report.status == "pass"
        # C6 has blocks of sizes 2 and 3, so failing maps exist for k = 2, 3
        c6 = [w for w in report.witnesses if w.group == "C6"]
        assert len(c6) == 2
        assert all(not w.verdict for w in c6)

    def test_rank_n2_small(self):
        report = verify_theorem("rank-n-2", max_degree=7, budget=QUICK)
        assert report.status == "pass"

    def test_idempotent_32_small(self):
        report = verify_theorem("idempotent-32", max_degree=7, budget=QUICK)
        assert report.status == "pass"
        assert report.instances_tested > 0

    def test_rankpres_32_small(self):
        report = verify_theorem("rankpres-32", max_degree=7, budget=QUICK)
        assert report.status == "pass"

    def test_small_ranks_small(self):
        report = verify_theorem("small-ranks", max_degree=7, budget=QUICK)
        assert report.status == "pass"

    def test_no_rank_r_plus_1_small(self):
        report = verify_theorem("no-rank-r-plus-1", max_degree=9, budget=QUICK)
        assert report.status == "pass"
        # the grid instances are the only primitive failures this low
        assert any("closures checked" in n for n in report.notes)

    def test_split_one_part_small(self):
        report = verify_theorem("split-one-part", max_degree=9, budget=QUICK)
        assert report.status == "pass"

    def test_lemma41_small(self):
        report = verify_theorem("lemma41-diagnostic", max_degree=6, budget=QUICK)
        assert report.status == "pass"


class TestVacuousPasses:
    @pytest.mark.parametrize(
        "theorem_id,degree",
        [("rystsov", 2), ("rank-n-2", 3), ("idempotent-32", 4), ("grid-counterexample", 8)],
    )
    def test_pass_with_no_instance_is_refused(self, theorem_id, degree):
        with pytest.raises(NoInstanceError, match="so a pass would be vacuous"):
            verify_theorem(theorem_id, max_degree=degree, budget=QUICK)


class TestOneReverification:
    """Every unsynchronized map goes through _Sweeper.confirm_not_synchronizing."""

    # every sweep that decides maps through the orbit solver; grid-counterexample
    # decides only its one constructed map, which does not synchronize
    SOLVER_SWEEPS = [
        "rystsov",
        "imprimitivity-char",
        "rank-n-2",
        "idempotent-32",
        "rankpres-32",
        "small-ranks",
        "no-rank-r-plus-1",
        "split-one-part",
        "lemma41-diagnostic",
    ]

    def test_every_solver_sweep_is_listed(self):
        assert set(self.SOLVER_SWEEPS) == set(THEOREMS) - {"grid-counterexample"}

    @pytest.mark.parametrize("theorem_id", SOLVER_SWEEPS)
    def test_a_planted_fast_path_error_raises(self, monkeypatch, theorem_id):
        """An orbit solver that calls the first synchronizing row of each block
        unsynchronized is caught, at degree 6, by every sweep."""
        decide = OrbitCollapseSolver.synchronizes_images

        def planted(self, images):
            verdicts = decide(self, images)
            if isinstance(verdicts, np.ndarray):
                verdicts[np.flatnonzero(verdicts)[:1]] = False
            return verdicts

        monkeypatch.setattr(OrbitCollapseSolver, "synchronizes_images", planted)
        with pytest.raises(AssertionError, match="fast path and pair-collapse search disagree"):
            verify_theorem(theorem_id, max_degree=6, budget=QUICK)

    def test_grid_counterexample_runs_each_check_once(self, monkeypatch):
        calls = {}
        for name in ("synchronizes", "group_and_map_closure"):
            def counted(*args, _name=name, _real=getattr(experiments, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(experiments, name, counted)
        report = verify_theorem("grid-counterexample", max_degree=9, budget=QUICK)
        assert report.passed
        assert calls == {"synchronizes": 1, "group_and_map_closure": 1}

    def test_truncated_oracle_is_a_grid_problem(self):
        """A cap below grid-3's 144-element closure leaves the graph checks
        unconfirmed, which the grid sweep reports, not passes."""
        report = verify_theorem("grid-counterexample", max_degree=9, budget=QUICK, cap=100)
        assert report.status == "fail"
        assert [r.note for r in report.counterexamples] == ["closure oracle truncated"]
        assert report.counterexamples[0].min_rank == 3

    def test_truncated_closure_is_noted_and_skipped(self):
        report = verify_theorem("no-rank-r-plus-1", max_degree=9, budget=QUICK, cap=100)
        assert report.status == "pass"
        assert report.notes == [
            "grid-3 [1,1,1,5,5,5,9,9,9]: closure truncated, skipped",
            "grid-3 [1,2,3,3,1,2,2,3,1]: closure truncated, skipped",
            "closures checked: 0",
        ]


class TestBudgets:
    def test_instance_budget_inconclusive(self):
        budget = Budget(seconds=600.0, max_instances=5)
        report = verify_theorem("rystsov", max_degree=8, budget=budget)
        assert report.status == "inconclusive"
        assert not report.passed

    def test_time_budget_inconclusive(self):
        budget = Budget(seconds=0.0)
        report = verify_theorem("imprimitivity-char", max_degree=8, budget=budget)
        assert report.status == "inconclusive"

    @pytest.mark.parametrize("theorem_id", ["rystsov", "imprimitivity-char", "small-ranks"])
    def test_zero_seconds_stop_at_the_first_instance(self, theorem_id):
        report = verify_theorem(theorem_id, max_degree=8, budget=Budget(seconds=0.0))
        assert (report.status, report.instances_tested) == ("inconclusive", 1)

    # (max_instances, instances_tested, status, counterexamples, witnesses),
    # recorded with one solver call per map before verdicts came in blocks:
    # a run cut by the budget counts the instance that broke it
    BUDGET_OUTCOMES = {
        "rystsov": [
            (1, 2, "inconclusive", 0, 0),
            (5, 6, "inconclusive", 0, 0),
            (511, 512, "inconclusive", 0, 3),
            (512, 513, "inconclusive", 0, 3),
            (513, 514, "inconclusive", 0, 3),
            (4097, 3464, "pass", 0, 4),
        ],
        "imprimitivity-char": [
            (1, 2, "inconclusive", 0, 0),
            (5, 6, "inconclusive", 0, 0),
            (511, 512, "inconclusive", 0, 4),
            (512, 513, "inconclusive", 0, 4),
            (513, 514, "inconclusive", 0, 4),
            (4097, 4098, "inconclusive", 0, 4),
        ],
        # recorded with one solver call per covered map, before these two
        # sweeps decided an entry's maps in one block
        "rankpres-32": [
            (1, 2, "inconclusive", 0, 0),
            (5, 6, "inconclusive", 0, 0),
            (511, 512, "inconclusive", 0, 0),
            (512, 513, "inconclusive", 0, 0),
            (513, 514, "inconclusive", 0, 0),
            (4097, 4098, "inconclusive", 0, 0),
        ],
        "idempotent-32": [
            (1, 2, "inconclusive", 0, 0),
            (5, 6, "inconclusive", 0, 0),
            (511, 390, "pass", 0, 0),
            (512, 390, "pass", 0, 0),
            (513, 390, "pass", 0, 0),
            (4097, 390, "pass", 0, 0),
        ],
    }

    @pytest.mark.parametrize("theorem_id", sorted(BUDGET_OUTCOMES))
    def test_instance_budget_is_exact(self, theorem_id):
        for limit, tested, status, counterexamples, witnesses in self.BUDGET_OUTCOMES[theorem_id]:
            budget = Budget(seconds=600.0, max_instances=limit)
            report = verify_theorem(theorem_id, max_degree=8, budget=budget)
            got = (
                report.instances_tested,
                report.status,
                len(report.counterexamples),
                len(report.witnesses),
            )
            assert got == (tested, status, counterexamples, witnesses), limit


class TestCoveredMaps:
    """_Sweeper.unsynchronized with a covered mask against one decision per map, cut mid-entry."""

    KT = KernelType((2, 1, 1, 1, 1))

    @classmethod
    def sweep(cls, entry):
        # rank n-1 maps of an imprimitive group, some of which fail; every
        # third one in sweep order is left out of the claim
        kernels, rows = representatives_of_type(entry.group, cls.KT)
        covered = np.arange(len(kernels) * len(rows)).reshape(len(kernels), -1) % 3 != 2
        return kernels, rows, covered

    @classmethod
    def per_map(cls, entry, covered, limit):
        """(instances_tested, failing covered maps) of one tick and decision per map."""
        tested, failing = 0, []
        for inst, claimed in zip(instances_of_type(entry.group, cls.KT), covered.ravel()):
            tested += 1
            if tested > limit:
                break
            if not claimed:
                continue
            f = inst.transformation()
            if not synchronizes(entry.group, f).synchronizes:
                failing.append(format_transformation(f))
        return tested, failing

    def test_cut_falls_among_the_failures(self):
        entry = find_entry("C6")
        covered = self.sweep(entry)[2]
        assert covered.size == 360
        every = self.per_map(entry, covered, covered.size)[1]
        assert 0 < len(self.per_map(entry, covered, 200)[1]) < len(every)

    @pytest.mark.parametrize("limit", [0, 1, 121, 200, 240, 360, 10_000])
    def test_budget_cut_matches_per_map_loop(self, limit):
        self.check_against_per_map_loop(limit)

    @pytest.mark.parametrize("limit", [121, 200, 10_000])
    def test_blocks_inside_a_kernel_match_per_map_loop(self, limit):
        # 72 rows a kernel in blocks of 7: the mask is sliced at block offsets
        self.check_against_per_map_loop(limit, block_rows=7)

    def check_against_per_map_loop(self, limit, block_rows=None):
        entry = find_entry("C6")
        kernels, rows, covered = self.sweep(entry)
        tested, failing = self.per_map(entry, covered, limit)
        report = ExperimentReport("rystsov", 6)
        sweeper = _Sweeper(report, Budget(seconds=600.0, max_instances=limit), cap=10_000)
        if block_rows is not None:
            sweeper.solver(entry).block_rows = block_rows
        cut = limit < covered.size
        try:
            for kernel, mask in zip(kernels, covered):
                sweeper.expect_synchronized(
                    entry, sweeper.unsynchronized(entry, kernel, rows, mask)
                )
        except _BudgetExceeded:
            assert cut
        else:
            assert not cut
        assert report.instances_tested == tested
        assert [r.map_text for r in report.counterexamples] == failing
        assert all(not r.verdict for r in report.counterexamples)


class TestRankPreservingMask:
    def test_mask_matches_a_search_per_map(self):
        """The per-(kernel, image set) mask agrees with a search for every rankpres-32 map."""
        checked = 0
        for entry in _primitive_entries(9, min_degree=5):
            group = entry.group
            kernels, rows = representatives_of_type(group, _type_32(entry.degree))
            mask = _rank_preserving_mask(group, kernels, rows)
            assert mask.shape == (len(kernels), len(rows))
            for kernel, covered in zip(kernels, mask.tolist()):
                for row, claimed in zip(rows.tolist(), covered):
                    f = Transformation(map_from_assignment(kernel, row))
                    assert claimed == (find_rank_preserving_g(group, f) is not None), (
                        entry.name, format_transformation(f)
                    )
                    checked += 1
        assert checked == 25_404


class TestReports:
    def test_table_format(self):
        report = verify_theorem("grid-counterexample", max_degree=9, budget=QUICK)
        text = report_emit(report, "table")
        assert "status          pass" in text
        assert "witness grid-3" in text

    def test_jsonl_format(self):
        import json

        report = verify_theorem("grid-counterexample", max_degree=9, budget=QUICK)
        lines = report_emit(report, "jsonl").strip().splitlines()
        summary = json.loads(lines[0])
        assert summary["experiment"] == "grid-counterexample"
        assert summary["status"] == "pass"
        assert summary["wall_time"] is None
        record = json.loads(lines[1])
        assert record["group"] == "grid-3"
        assert record["min_rank"] == 3

    def test_byte_identical_reports(self):
        a = report_emit(verify_theorem("rystsov", max_degree=5, budget=QUICK), "jsonl")
        b = report_emit(verify_theorem("rystsov", max_degree=5, budget=QUICK), "jsonl")
        assert a == b

    def test_unknown_format(self):
        report = verify_theorem("grid-counterexample", max_degree=9, budget=QUICK)
        with pytest.raises(ValueError):
            report_emit(report, "xml")


# SHA-256 of each sweep's jsonl report, recorded before the sweeps were
# folded onto one instance loop; a refactor must not move a count, witness
# or note. no-rank-r-plus-1 and split-one-part run at degree 9, the lowest
# degree with closures to check (the two grid-3 ones), and grid-counterexample
# at 9, the degree of its one instance.
REPORT_DIGESTS = [
    ("rystsov", 8, "39c891ea5e8ec77c73183fbcec18d42a60805faba86116fd37b0b0fd6a455afc"),
    ("imprimitivity-char", 8, "355bf48e48e9a83b72f9524e8038ebdb3c5c8db267ea434a86c304b207181f3c"),
    ("rank-n-2", 8, "2cc810596f12d7d129ad749be2d35d87e97e1494fcc6cceac2b4fcfa71511980"),
    ("idempotent-32", 8, "b354d4fbc3d2adf701a0f1d3f47b6dcef1ba8fa1e11e44907c78ec216206dccf"),
    ("rankpres-32", 8, "0df7fd94423a96f8569b4112be7b48e30bbfa124a927fd1b0afa61d75e1a3cec"),
    ("small-ranks", 8, "8dd8d81822d834fc62258b9c7d2bafc035dc4cb1813f2467d445e4bd07ae1d74"),
    ("grid-counterexample", 9, "289819233a0eec1a799fe11ab67b234c0acb7e22d3644834613a5cfeb36bb3ad"),
    ("lemma41-diagnostic", 8, "4193ba68954a99174756639547f13bc092b932a5da9c1cf71e6888f87e3afa48"),
    ("no-rank-r-plus-1", 9, "cdbff17a1d1fb7a018b891f206c624e4d760135316ca1d1b9462cf453962d605"),
    ("split-one-part", 9, "d14d0e1eea27d3087cb7e68b43646fd6c5af560e3f65966da0827d1e52a801ab"),
]


class TestPinnedReports:
    def test_every_id_is_pinned(self):
        assert {theorem_id for theorem_id, _, _ in REPORT_DIGESTS} == set(THEOREMS)

    @pytest.mark.parametrize(
        "theorem_id,degree,digest", REPORT_DIGESTS, ids=[t for t, _, _ in REPORT_DIGESTS]
    )
    def test_report_bytes(self, theorem_id, degree, digest):
        report = verify_theorem(theorem_id, max_degree=degree, budget=QUICK)
        text = report_emit(report, "jsonl")
        assert hashlib.sha256(text.encode()).hexdigest() == digest, text


class TestHarvest:
    def test_pairs_satisfy_lemma(self):
        pairs = harvest_rank_preserving_pairs(max_degree=6, minimum=60)
        assert len(pairs) >= 60
        assert check_rank_preserving_pairs(pairs) == len(pairs)


class TestTwoBlockDiagnostic:
    def test_p4_detection(self):
        from synchrolab.experiments import _has_p4_or_c4
        from synchrolab.graphs import Graph

        path = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        assert _has_p4_or_c4(path, [0, 1, 2, 3])
        assert not _has_p4_or_c4(path, [0, 1, 2, 4])
        square = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert _has_p4_or_c4(square, [0, 1, 2, 3])
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert not _has_p4_or_c4(star, [0, 1, 2, 3])
        matching = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not _has_p4_or_c4(matching, [0, 1, 2, 3])

    def test_diagnostic_runs_vacuously_low(self):
        report = verify_theorem("lemma41-diagnostic", max_degree=9, budget=QUICK)
        assert report.status == "pass"
        assert any("instances: 0" in n for n in report.notes)


class TestRegistry:
    def test_all_ids_documented(self):
        expected = {
            "rystsov",
            "imprimitivity-char",
            "rank-n-2",
            "idempotent-32",
            "rankpres-32",
            "small-ranks",
            "grid-counterexample",
            "no-rank-r-plus-1",
            "split-one-part",
            "lemma41-diagnostic",
        }
        assert set(THEOREMS) == expected

    def test_grid_projection_shape(self):
        f = grid_projection(3)
        assert f.rank() == 3
        assert f.kernel_type().sizes == (3, 3, 3)
