import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "synchrolab", "check", "--group", "S5", "--map", "[1,1]"],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 64
        assert proc.stdout == b""
        assert proc.stderr.decode() == "error: --map '[1,1]': expected degree 5, got 2\n"


def test_closed_pipe_ends_quietly():
    """A reader that stops after one line (``| head -1``) gets no traceback."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    # about 500 kB of records, far more than a pipe buffers
    argv = ["scan", "--max-degree", "7", "--degree", "7", "--kernel-type", "3,2,1,1"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "synchrolab", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
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
