import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from synchrolab import sweeps
from synchrolab.cli import main


GRID_FILE = "\n".join(
    [
        "degree 9",
        "name: grid-3",
        "(1 2 3)(4 5 6)(7 8 9)",
        "(1 2)(4 5)(7 8)",
        "(2 4)(3 7)(6 8)",
    ]
)

ROOT = Path(__file__).resolve().parents[1]
# for a child process: the package from this checkout's src/
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.grp"
    path.write_text(GRID_FILE + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_rejected(capsys, *argv) -> str:
    """Stderr of a command line rejected as bad input, which exits 64 (EX_USAGE)."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


class TestCatalogCommands:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list", "--max-degree", "6")
        assert code == 0
        assert "grid-2" in out
        assert "S6" in out

    def test_show(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "grid-3")
        assert code == 0
        assert "order:       72" in out
        assert "primitive:   True" in out

    def test_show_a64_computes_its_order(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "A64")
        assert code == 0
        assert f"order:       {math.factorial(64) // 2}\n" in out
        assert "primitive:   True" in out

    @pytest.mark.parametrize("degree", ["2", "0"])
    def test_list_below_the_catalog(self, capsys, degree):
        err = run_rejected(capsys, "catalog", "list", "--max-degree", degree)
        assert err == f"error: --max-degree {degree}: the catalog starts at degree 3\n"

    def test_show_unknown(self, capsys):
        err = run_rejected(capsys, "catalog", "show", "wat")
        assert err == "error: no catalog entry named 'wat'\n"


class TestCheck:
    def test_synchronizing_instance(self, capsys):
        code, out, _ = run(
            capsys, "check", "--group", "S3", "--map", "[1,1,3]", "--word"
        )
        assert code == 0
        assert "synchronizes" in out
        record = json.loads(out.strip().splitlines()[-1])
        assert record["verdict"] is True
        assert record["min_rank"] == 1
        assert record["word_length"] >= 1

    def test_grid_from_file(self, grid_file, capsys):
        code, out, _ = run(
            capsys, "check", "--group", grid_file, "--map", "[1,1,1,5,5,5,9,9,9]"
        )
        assert code == 0
        assert "does NOT synchronize" in out
        record = json.loads(out.strip().splitlines()[-1])
        assert record["verdict"] is False
        assert record["min_rank"] == 3

    def test_emit_dot(self, grid_file, tmp_path, capsys):
        dot = tmp_path / "gr.dot"
        code, _, _ = run(
            capsys,
            "check",
            "--group",
            grid_file,
            "--map",
            "[1,1,1,5,5,5,9,9,9]",
            "--emit-dot",
            str(dot),
        )
        assert code == 0
        assert dot.read_text().count("--") == 18

    def test_cycle_notation_map(self, capsys):
        code, out, _ = run(capsys, "check", "--group", "C5", "--map", "(1 2 3 4 5)")
        assert code == 0
        assert "permutation" in out

    def test_missing_group(self, capsys):
        err = run_rejected(capsys, "check", "--group", "no-such-thing", "--map", "[1,1]")
        assert err == (
            "error: 'no-such-thing' is neither a readable file nor a catalog entry name\n"
        )

    def test_json_line_bytes(self, capsys):
        # the same record, key order and separators that verify reports use
        code, out, _ = run(capsys, "check", "--group", "C6", "--map", "[2,3,4,5,6,1]")
        assert code == 0
        assert out.splitlines()[-1] == (
            '{"group":"C6","map":"[2,3,4,5,6,1]","verdict":false,"min_rank":6,'
            '"word_length":null,"timings":null,'
            '"note":"map is a permutation; it can only synchronize when the degree is 1"}'
        )


class TestWordAndGraph:
    def test_word_output(self, capsys):
        code, out, err = run(capsys, "word", "--group", "S3", "--map", "[1,1,3]")
        assert code == 0
        letters = out.strip().split()
        assert set(letters) <= {"g1", "g2", "f"}
        assert "benchmark" in err

    def test_word_failure_exit(self, grid_file, capsys):
        code, _, _ = run(
            capsys, "word", "--group", grid_file, "--map", "[1,1,1,5,5,5,9,9,9]"
        )
        assert code == 1

    def test_gr_dot_stdout(self, grid_file, capsys):
        code, out, _ = run(
            capsys, "gr", "--group", grid_file, "--map", "[1,1,1,5,5,5,9,9,9]"
        )
        assert code == 0
        assert out.count("--") == 18

    def test_gr_adjacency(self, grid_file, capsys):
        code, out, _ = run(
            capsys,
            "gr",
            "--group",
            grid_file,
            "--map",
            "[1,1,1,5,5,5,9,9,9]",
            "--adjacency",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 9
        assert sum(row.count("1") for row in rows) == 36


def _block_map(n, d):
    return "[" + ",".join(str(x % d + 1) for x in range(n)) + "]"


# SHA-256 of the graph output, recorded before the obstruction rows came
# from a numpy gather: (gr --adjacency stdout, check --emit-dot file)
PINNED_GRAPHS = {
    ("grid-3", "[1,1,1,5,5,5,9,9,9]"): (
        "cb17ed09f3b86ba5e4dc73ab0f25c6cbf85e94bad46412e4325582ac2f323811",
        "590f0d8d86506f88c0afc1e1899f224214ab6fa70925999c9da9e747f7038676",
    ),
    ("C12", _block_map(12, 4)): (
        "d3a60107070dd2722d22427c6d8a62c6d0815fcb3d836b171563e2e86d14443b",
        "854a151c41ac764421e92757a432a81dd299ae94aa0234f0d00b8b343393d157",
    ),
    ("C64", _block_map(64, 8)): (
        "c3c9405432cd6fc16c1cb604b0aed2b4d0260edfb3fd2cf43f163a87d866b5c0",
        "0cd753c23139c2573743f27d7477c2b1e4ce61df41bf40f141f10970eea26d4c",
    ),
}


@pytest.mark.parametrize("group,text", sorted(PINNED_GRAPHS), ids=lambda v: v[:6])
def test_graph_output_pinned(capsys, tmp_path, group, text):
    adjacency_digest, dot_digest = PINNED_GRAPHS[group, text]
    code, out, _ = run(capsys, "gr", "--group", group, "--map", text, "--adjacency")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == adjacency_digest
    dot = tmp_path / "graph.dot"
    code, _, _ = run(capsys, "check", "--group", group, "--map", text, "--emit-dot", str(dot))
    assert code == 0
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == dot_digest


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "grid-counterexample", "--max-degree", "9"
        )
        assert code == 0
        assert "status          pass" in out

    def test_inconclusive_exit_two(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "rystsov",
            "--max-degree",
            "8",
            "--max-instances",
            "3",
        )
        assert code == 2
        assert "inconclusive" in out

    def test_jsonl(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "grid-counterexample",
            "--max-degree",
            "9",
            "--format",
            "jsonl",
        )
        assert code == 0
        summary = json.loads(out.splitlines()[0])
        assert summary["status"] == "pass"

    def test_rejects_unknown_id(self, capsys):
        err = run_rejected(capsys, "verify", "whatever")
        assert "synchrolab verify: error: argument id: invalid choice: 'whatever'" in err


class TestDepth:
    def test_grid(self, capsys):
        code, out, _ = run(capsys, "depth", "--group", "grid-3")
        assert code == 0
        assert "sizes [3]" in out
        assert "depth = inf" in out

    def test_c6(self, capsys):
        code, out, _ = run(capsys, "depth", "--group", "C6")
        assert code == 0
        assert "depth = 1" in out

    def test_c5_infinite(self, capsys):
        code, out, _ = run(capsys, "depth", "--group", "C5")
        assert code == 0
        assert "inf" in out


class TestScanAndClosure:
    def test_scan_filtered(self, capsys):
        code, out, _ = run(
            capsys,
            "scan",
            "--max-degree",
            "4",
            "--degree",
            "4",
            "--kernel-type",
            "2,1,1",
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records
        assert all(r["group"] in {"S4", "A4", "C4", "PGL(2,3)", "grid-2"} for r in records)
        c4 = [r for r in records if r["group"] == "C4"]
        assert any(not r["verdict"] for r in c4)

    def test_scan_json_line_bytes(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--max-degree", "6", "--degree", "6", "--kernel-type", "2,2,2"
        )
        assert code == 0
        assert (
            '{"group":"C6","map":"[1,1,3,3,5,5]","verdict":false,"min_rank":3,'
            '"word_length":null,"timings":null,"note":""}'
        ) in out.splitlines()

    def test_scan_rank_filter(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--max-degree", "4", "--degree", "4", "--rank", "2"
        )
        assert code == 0
        assert all(
            json.loads(line)["min_rank"] >= 1 for line in out.strip().splitlines()
        )

    def test_closure_dump(self, tmp_path, capsys):
        out_path = tmp_path / "closure.txt"
        code, out, _ = run(
            capsys,
            "closure",
            "--group",
            "S3",
            "--map",
            "[1,1,3]",
            "--out",
            str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 27
        assert lines[0] == "[2,1,3]"  # first generator in discovery order

    def test_closure_cap_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SYNCHROLAB_CAP", "5")
        out_path = tmp_path / "closure.txt"
        code, out, _ = run(
            capsys,
            "closure",
            "--group",
            "S4",
            "--map",
            "[1,1,3,4]",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert "truncated" in out
        assert len(out_path.read_text().strip().splitlines()) == 5

    def test_closure_cap_flag_never_exceeded(self, capsys):
        code, out, err = run(
            capsys, "closure", "--group", "S3", "--map", "[1,1,3]", "--cap", "2"
        )
        assert code == 0
        assert out.splitlines() == ["[2,1,3]", "[2,3,1]"]
        assert "truncated" in err

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_closure_bad_cap_flag(self, capsys, value):
        err = run_rejected(
            capsys, "closure", "--group", "S3", "--map", "[1,1,3]", "--cap", value
        )
        assert err == f"error: --cap must be a positive integer, got {value!r}\n"

    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_bad_cap_env(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SYNCHROLAB_CAP", value)
        message = f"error: SYNCHROLAB_CAP must be a positive integer, got {value!r}\n"
        assert run_rejected(capsys, "closure", "--group", "S3", "--map", "[1,1,3]") == message
        assert run_rejected(capsys, "verify", "rystsov", "--max-degree", "4") == message


class TestBadInput:
    """A malformed map or kernel type ends in one error line and exit 64, not a traceback."""

    @pytest.mark.parametrize("command", ["check", "word", "gr", "closure"])
    @pytest.mark.parametrize(
        "text,reason",
        [
            ("[1,1,9,4,5]", "images must lie in 1..5"),
            ("[0,1,2,3,4]", "images must lie in 1..5"),
            ("[1,1,3]", "expected degree 5, got 3"),
            ("[1,x,3,4,5]", "invalid literal"),
            ("(1,2", "could not parse permutation"),
        ],
    )
    def test_bad_map(self, capsys, command, text, reason):
        message = run_rejected(capsys, command, "--group", "S5", "--map", text)
        assert message.startswith(f"error: --map {text!r}: ")
        assert reason in message
        assert message.count("\n") == 1

    @pytest.mark.parametrize(
        "text,reason",
        [("2,2,x", "invalid literal"), ("0,5", "sizes must be positive")],
    )
    def test_bad_kernel_type(self, capsys, text, reason):
        message = run_rejected(capsys, "scan", "--degree", "5", "--kernel-type", text)
        assert message.startswith(f"error: --kernel-type {text!r}: ")
        assert reason in message
        assert message.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--max-degree", "99"],
            ["catalog", "list", "--max-degree", "99"],
            ["verify", "rystsov", "--max-degree", "65"],
        ],
    )
    def test_max_degree_beyond_catalog(self, capsys, argv):
        message = run_rejected(capsys, *argv)
        assert message.startswith(f"error: --max-degree {argv[-1]}: ")
        assert "catalog degrees stop at 64" in message
        assert message.count("\n") == 1

    @pytest.mark.parametrize("rank", ["0", "-1"])
    def test_rank_below_one(self, capsys, rank):
        message = run_rejected(capsys, "scan", "--max-degree", "5", "--rank", rank)
        assert message == f"error: --rank {rank}: a rank is at least 1\n"

    @pytest.mark.parametrize(
        "flags",
        [["--rank", "5"], ["--rank", "9"], ["--degree", "7"], ["--kernel-type", "3,3,1"]],
    )
    def test_scan_selecting_nothing(self, capsys, flags):
        message = run_rejected(capsys, "scan", "--max-degree", "5", *flags)
        assert message.startswith("error: no catalog group of degree <= 5 fits these filters")
        assert message.count("\n") == 1

    def test_scan_kernel_type_too_large(self, capsys):
        """Refused from the partition count alone, before any table or output."""
        message = run_rejected(capsys, "scan", "--max-degree", "16", "--degree", "16", "--rank", "4")
        assert message == (
            "error: kernel type (8,5,2,1) has 2,162,160 partitions, "
            "more than the 2,000,000 a partition table holds\n"
        )

    def test_verify_kernel_type_too_large(self, capsys, monkeypatch):
        """The same refusal mid-sweep; a lowered limit keeps the sweep small."""
        monkeypatch.setattr(sweeps, "MAX_TABLE_PARTITIONS", 100)
        sweeps.partition_table.cache_clear()  # tables built under the real limit
        message = run_rejected(capsys, "verify", "small-ranks", "--max-degree", "7")
        assert message == (
            "error: verify small-ranks --max-degree 7: kernel type (4,2,1) has 105 "
            "partitions, more than the 100 a partition table holds\n"
        )

    @pytest.mark.parametrize("command", ["check", "word", "gr", "depth", "closure"])
    @pytest.mark.parametrize(
        "text,reason",
        [
            ("degree 4\n(1 2 5)\n", "cycle point 5 beyond degree 4"),
            ("degree x\n(1 2)\n", "expected 'degree n', got 'degree x'"),
            ("(1 2)\n", "group file must start with a 'degree n' line"),
        ],
    )
    def test_bad_group_file(self, capsys, tmp_path, command, text, reason):
        path = tmp_path / "bad.grp"
        path.write_text(text)
        argv = [command, "--group", str(path)]
        if command != "depth":
            argv += ["--map", "[1,1,3,4]"]
        assert run_rejected(capsys, *argv) == f"error: --group {str(path)!r}: {reason}\n"

    def test_depth_beyond_its_search(self, capsys, tmp_path):
        message = run_rejected(capsys, "depth", "--group", "S13")
        assert message == "error: --group 'S13': degree 13 beyond the exhaustive regime (limit 12)\n"
        path = tmp_path / "intransitive.grp"
        path.write_text("degree 4\n(1 2)\n")
        message = run_rejected(capsys, "depth", "--group", str(path))
        assert message == f"error: --group {str(path)!r}: section search requires a transitive group\n"

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--max-instances", "-1", "--max-instances -1: a budget is at least 0 instances"),
            ("--budget-seconds", "-1", "--budget-seconds -1.0: a budget is at least 0 seconds"),
            ("--budget-seconds", "nan", "--budget-seconds nan: a budget is at least 0 seconds"),
        ],
    )
    def test_negative_or_nan_budget(self, capsys, flag, value, message):
        err = run_rejected(capsys, "verify", "rystsov", "--max-degree", "4", flag, value)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--group", "grid-3", "--map", "[1,1,1,5,5,5,9,9,9]", "--emit-dot"],
            ["gr", "--group", "grid-3", "--map", "[1,1,1,5,5,5,9,9,9]", "--emit-dot"],
            ["closure", "--group", "S3", "--map", "[1,1,3]", "--out"],
        ],
        ids=["check", "gr", "closure"],
    )
    @pytest.mark.parametrize(
        "target,reason",
        [("missing/out.txt", "No such file or directory"), (".", "Is a directory")],
    )
    def test_unwritable_output_path(self, capsys, tmp_path, argv, target, reason):
        path = str(tmp_path / target)
        message = run_rejected(capsys, *argv, path)
        assert message == f"error: {argv[-1]} {path!r}: {reason}\n"

    @pytest.mark.parametrize(
        "theorem,degree",
        [("rystsov", "2"), ("rank-n-2", "3"), ("idempotent-32", "4"), ("grid-counterexample", "8")],
    )
    def test_verify_with_no_instance_is_not_a_pass(self, capsys, theorem, degree):
        message = run_rejected(capsys, "verify", theorem, "--max-degree", degree)
        assert message == (
            f"error: verify {theorem} --max-degree {degree}: the sweep has no "
            "instance at these degrees, so a pass would be vacuous\n"
        )

    @pytest.mark.parametrize("flag", ["--max-instances", "--budget-seconds"])
    def test_zero_budget_is_inconclusive(self, capsys, flag):
        code, out, _ = run(capsys, "verify", "rystsov", "--max-degree", "4", flag, "0")
        assert code == 2
        assert "inconclusive" in out

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["check", "--group", "S5"],
            ["verify", "rystsov", "--max-degree", "ten"],
            ["scan", "--no-such-flag"],
        ],
    )
    def test_command_line_errors_exit_64(self, capsys, argv):
        message = run_rejected(capsys, *argv)
        assert message.startswith("usage: synchrolab")
        assert ": error: " in message

    def test_bad_input_exit_code_from_a_shell(self):
        """The process status, which verify's 0/1/2 never takes, is 64."""
        proc = subprocess.run(
            [sys.executable, "-m", "synchrolab", "check", "--group", "S5", "--map", "[1,1]"],
            capture_output=True, env=ENV, timeout=120,
        )
        assert proc.returncode == 64
        assert proc.stdout == b""
        assert proc.stderr.decode() == "error: --map '[1,1]': expected degree 5, got 2\n"


def test_closed_pipe_ends_quietly():
    """A reader that stops after one line (``| head -1``) gets no traceback."""
    # about 500 kB of records, far more than a pipe buffers
    argv = ["scan", "--max-degree", "7", "--degree", "7", "--kernel-type", "3,2,1,1"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "synchrolab", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    try:
        stderr = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert json.loads(first)["group"]
    assert stderr == b""
    assert code == 141


def run_script(argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, env=ENV, timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["verify_all.py", "--max-degree", "9", "--rystsov-degree", "6"],
        ["depth_survey.py", "--max-degree", "6"],
        ["depth_survey.py", "--max-degree", "6", "--allow-nonuniform"],
        ["grid_walkthrough.py"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_script_runs(argv):
    """The scripts under scripts/ still run against the library as it is now."""
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout


SCRIPT_REFUSALS = [
    (["verify_all.py", "--max-degree", "70"], "--max-degree 70: catalog degrees stop at 64"),
    (["verify_all.py", "--rystsov-degree", "65"], "--rystsov-degree 65: catalog degrees stop at 64"),
    (
        ["verify_all.py", "--max-degree", "2", "--rystsov-degree", "2"],
        "--max-degree 2 --rystsov-degree 2: no sweep has an instance at these degrees, "
        "so a pass would be vacuous",
    ),
    (["verify_all.py", "--budget-seconds", "-1"], "--budget-seconds -1.0: a budget is at least 0 seconds"),
    (["depth_survey.py", "--max-degree", "70"], "--max-degree 70: the section search stops at degree 12"),
    (["depth_survey.py", "--max-degree", "13"], "--max-degree 13: the section search stops at degree 12"),
    (
        ["depth_survey.py", "--max-degree", "11", "--allow-nonuniform"],
        "--max-degree 11: the section search stops at degree 10",
    ),
    (["depth_survey.py", "--max-degree", "2"], "--max-degree 2: the catalog starts at degree 3"),
]


@pytest.mark.parametrize(
    "argv,message", SCRIPT_REFUSALS, ids=[" ".join(argv) for argv, _ in SCRIPT_REFUSALS]
)
def test_script_refuses_bad_input(argv, message):
    """The scripts refuse bad input as the CLI does: one error line, exit 64."""
    proc = run_script(argv)
    assert proc.returncode == 64
    assert proc.stderr.decode() == f"error: {message}\n"


def test_verify_all_skips_a_sweep_with_no_instance():
    """grid-counterexample has no instance below degree 9: a skipped line, not a refusal."""
    proc = run_script(["verify_all.py", "--max-degree", "8", "--rystsov-degree", "8"])
    assert proc.returncode == 0, proc.stderr.decode()
    lines = proc.stdout.decode().splitlines()
    assert len(lines) == 10
    assert lines[0] == "grid-counterexample    skipped (no instance at degree <= 8)"
    assert all(" pass " in line for line in lines[1:])


@pytest.mark.parametrize("script", ["verify_all.py", "depth_survey.py"])
def test_script_command_line_errors_exit_64(script):
    """Not argparse's 2, which verify_all.py uses for an inconclusive run."""
    proc = run_script([script, "--max-degree", "ten"])
    assert proc.returncode == 64
    assert proc.stderr.decode().startswith(f"usage: {script}")


def test_verify_all_refuses_kernel_type_too_large(capsys, monkeypatch):
    """A kernel type too large for a partition table is bad input, not a counterexample."""
    spec = importlib.util.spec_from_file_location("verify_all", ROOT / "scripts" / "verify_all.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sweeps, "MAX_TABLE_PARTITIONS", 100)
    sweeps.partition_table.cache_clear()  # tables built under the real limit
    monkeypatch.setattr(sys, "argv", ["verify_all.py", "--max-degree", "9", "--rystsov-degree", "9"])
    with pytest.raises(SystemExit) as exit_info:
        script.main()
    assert exit_info.value.code == 64
    assert capsys.readouterr().err == (
        "error: idempotent-32 at degree <= 9: kernel type (3,2,1,1) has 210 "
        "partitions, more than the 100 a partition table holds\n"
    )
