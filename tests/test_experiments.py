import hashlib

import pytest

from synchrolab.experiments import (
    Budget,
    THEOREMS,
    check_rank_preserving_pairs,
    grid_projection,
    harvest_rank_preserving_pairs,
    verify_theorem,
)
from synchrolab.reports import report_emit


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
# degree with closures to check (the two grid-3 ones).
REPORT_DIGESTS = [
    ("rystsov", 8, "39c891ea5e8ec77c73183fbcec18d42a60805faba86116fd37b0b0fd6a455afc"),
    ("imprimitivity-char", 8, "355bf48e48e9a83b72f9524e8038ebdb3c5c8db267ea434a86c304b207181f3c"),
    ("rank-n-2", 8, "2cc810596f12d7d129ad749be2d35d87e97e1494fcc6cceac2b4fcfa71511980"),
    ("idempotent-32", 8, "b354d4fbc3d2adf701a0f1d3f47b6dcef1ba8fa1e11e44907c78ec216206dccf"),
    ("rankpres-32", 8, "0df7fd94423a96f8569b4112be7b48e30bbfa124a927fd1b0afa61d75e1a3cec"),
    ("small-ranks", 8, "8dd8d81822d834fc62258b9c7d2bafc035dc4cb1813f2467d445e4bd07ae1d74"),
    ("grid-counterexample", 8, "74581b369289e80855dba4fb6cdd1f4cc0a43f36f7528eb08e188c6a01538ccb"),
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
