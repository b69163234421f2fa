import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ars.cli
import ars.errors
from ars import BinaryMatrix
from ars.cli import DEFAULT_BUDGET, main, parse_args, run

from helpers import matrices

FLOW_EXAMPLE_TEXT = "3 4\n1 1 1 1\n1 0 0 0\n1 0 0 0\n"

R_REF = "6,5,4,3,3,2,2,1,1"
S_REF = "7,3,3,2,2,1,1,1,1,1,1,1,1,1,1"

ROOT = Path(__file__).resolve().parent.parent
# the --json stdout of each README example command, keyed by its
# arguments after "ars"
README_GOLDEN = json.loads((ROOT / "tests" / "golden" / "readme_cli_json.json").read_text())
# the stdout of `ars -h`, and of `ars COMMAND -h` keyed by COMMAND
HELP_GOLDEN = (ROOT / "tests" / "golden" / "help.txt").read_text()
COMMAND_HELP_GOLDEN = json.loads((ROOT / "tests" / "golden" / "command_help.json").read_text())


def _readme_commands():
    """The example commands of the README's command-line section, each
    without its leading "ars" and trailing comment."""
    return [
        " ".join(line.split("#")[0].split()[1:])
        for line in (ROOT / "README.md").read_text().splitlines()
        if line.startswith("ars ")
    ]


def test_nonempty_ok():
    result = run(["nonempty", "-r", R_REF, "-s", S_REF])
    assert result.status == "ok"
    assert result.payload["nonempty"] is True
    assert result.payload["structure_nonnegative"] is True


def test_nonempty_infeasible():
    result = run(["nonempty", "-r", "2,2", "-s", "3,1"])
    assert result.status == "infeasible"
    assert result.payload["nonempty"] is False


def test_nonempty_weight_mismatch_reported():
    result = run(["nonempty", "-r", "2", "-s", "1"])
    assert result.status == "infeasible"
    assert result.payload["weights_equal"] is False
    assert result.payload["structure_nonnegative"] is None


def test_canonical_round_trips():
    result = run(["canonical", "-r", "2,1", "-s", "2,1"])
    assert result.status == "ok"
    text = result.render_text()
    assert BinaryMatrix.from_text(text) == BinaryMatrix([[1, 1], [1, 0]])


def test_canonical_empty_class():
    result = run(["canonical", "-r", "2,2", "-s", "3,1"])
    assert result.status == "infeasible"


def test_structure_table_payload():
    result = run(["structure", "-r", R_REF, "-s", S_REF])
    values = result.payload["table"]["values"]
    assert values[0][0] == 27 and values[9][15] == 108
    assert "27" in result.render_text()


def test_phi_table_payload():
    result = run(["phi", "-r", R_REF, "-s", S_REF])
    values = result.payload["table"]["values"]
    assert values[1][9] == 9 and values[2][5] == 9 and values[3][3] == 8


def test_psi_value():
    result = run(["psi", "-r", "2,1", "-s", "2,1", "-a", "0", "-b", "1", "-c", "0", "-d", "1"])
    assert result.status == "ok" and result.payload["value"] == 0


def test_min_rank_reference():
    result = run(["min-rank", "-r", R_REF, "-s", S_REF, "-t", "3"])
    assert result.payload["value"] == 11
    assert result.payload["witness"] == {"e": 2, "f": 5}


def test_rank_from_file(tmp_path):
    path = tmp_path / "ex3.txt"
    path.write_text(FLOW_EXAMPLE_TEXT)
    result = run(["rank", "-t", "2", "--matrix", str(path)])
    assert result.payload == {"kind": "rank", "value": 3, "cross_checked": True}


def test_rank_rejects_entries_other_than_0_or_1(tmp_path, capsys):
    path = tmp_path / "plus.txt"
    path.write_text("2 2\n+1 0\n0 1\n")
    assert main(["--json", "rank", "-t", "1", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad matrix file: entries must be 0 or 1, got '+1'\n"


def test_rank_huge_t(tmp_path, capsys):
    path = tmp_path / "ex3.txt"
    path.write_text(FLOW_EXAMPLE_TEXT)
    assert main(["--json", "rank", "-t", "4", "--matrix", str(path)]) == 0
    at_largest_row_sum = capsys.readouterr().out
    assert main(["--json", "rank", "-t", "1000000000", "--matrix", str(path)]) == 0
    assert capsys.readouterr().out == at_largest_row_sum
    assert json.loads(at_largest_row_sum)["payload"]["value"] == 4


def test_rank_from_stdin(monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(FLOW_EXAMPLE_TEXT))
    result = run(["rank", "-t", "1", "--matrix", "-"])
    assert result.payload["value"] == 2


def test_construct_cover_golden():
    result = run(["construct-cover", "-r", "4,2,2,2,1,1,1", "-s", "2,2,2,2,1,1,1,1,1",
                  "-e", "2", "-f", "4"])
    assert result.status == "ok"
    got = BinaryMatrix.from_json_obj(result.payload["matrix"])
    assert got.rows[0] == (1, 0, 0, 0, 0, 1, 0, 1, 1)
    # the whole text rendering, note lines included, re-parses to the matrix
    assert BinaryMatrix.from_text(result.render_text()) == got


def test_construct_cover_infeasible():
    result = run(["construct-cover", "-r", "2", "-s", "1,1", "-e", "0", "-f", "1"])
    assert result.status == "infeasible"


def test_construct_two_cover_golden():
    result = run(["construct-two-cover", "-r", "4,2,2,2,1,1,1", "-s", "2,2,2,2,1,1,1,1,1",
                  "--cover", "2,4", "--cover", "3,3"])
    assert result.status == "ok"
    got = BinaryMatrix.from_json_obj(result.payload["matrix"])
    assert got.rows[0] == (0, 0, 0, 1, 0, 1, 0, 1, 1)


def test_construct_two_cover_infeasible():
    result = run(["construct-two-cover", "-r", "1,1", "-s", "1,1",
                  "--cover", "0,1", "--cover", "1,0"])
    assert result.status == "infeasible"


def test_construct_two_cover_bad_order(capsys):
    assert main(["construct-two-cover", "-r", "2,1", "-s", "2,1",
                 "--cover", "1,1", "--cover", "2,2"]) == 2
    assert capsys.readouterr().err.startswith("error: cover (1, 1) dominates (2, 2)")


def test_enumerate_matrices_round_trip():
    result = run(["enumerate", "-r", "1,1", "-s", "1,1"])
    assert result.status == "ok" and result.payload["count"] == 2
    for obj in result.payload["matrices"]:
        BinaryMatrix.from_json_obj(obj)
    # the text rendering re-parses block by block
    blocks = result.render_text().split("\n\n")
    assert BinaryMatrix.from_text(blocks[0]) == BinaryMatrix([[1, 0], [0, 1]])


def test_enumerate_count_only():
    result = run(["enumerate", "-r", "1,1,1", "-s", "1,1,1", "--count"])
    assert result.payload["count"] == 6 and result.payload["matrices"] == []


def test_enumerate_budget_truncation():
    result = run(["enumerate", "-r", "1,1,1", "-s", "1,1,1", "--budget", "2"])
    assert result.status == "undetermined"
    assert result.payload["count"] == 2 and result.payload["truncated"] is True


def test_enumerate_zero_budget_is_undetermined():
    result = run(["enumerate", "-r", "1,1", "-s", "1,1", "--budget", "0"])
    assert result.status == "undetermined" and result.payload["count"] == 0


def test_enumerate_more_columns_than_the_recursion_limit(capsys):
    argv = ["--json", "enumerate", "-r", "1200", "-s", ",".join(["1"] * 1200), "--count"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok" and doc["payload"]["count"] == 1


def test_bad_tmax_is_usage_error(capsys):
    assert main(["uniform-min", "-r", "2,1", "-s", "2,1", "--tmax", "0"]) == 2
    assert "positive" in capsys.readouterr().err


def test_negative_budget_is_usage_error(capsys):
    for command in ("enumerate", "uniform-min"):
        assert main([command, "-r", "2,1", "-s", "2,1", "--budget", "-1"]) == 2
        assert "--budget must be nonnegative" in capsys.readouterr().err


def test_enumerate_empty_class():
    result = run(["enumerate", "-r", "2,2", "-s", "3,1"])
    assert result.status == "infeasible" and result.payload["count"] == 0


def test_uniform_min_found():
    result = run(["uniform-min", "-r", "2,1", "-s", "2,1"])
    assert result.status == "ok"
    assert BinaryMatrix.from_json_obj(result.payload["matrix"]) == BinaryMatrix(
        [[1, 1], [1, 0]]
    )


def test_uniform_min_huge_tmax(capsys):
    argv = ["--json", "uniform-min", "-r", "2,1", "-s", "2,1", "--tmax"]
    assert main(argv + ["2"]) == 0  # the largest row sum
    at_largest_row_sum = capsys.readouterr().out
    assert main(argv + ["1000000000"]) == 0
    assert capsys.readouterr().out == at_largest_row_sum
    assert json.loads(at_largest_row_sum)["status"] == "ok"


def test_uniform_min_undetermined_on_budget():
    result = run(["uniform-min", "-r", R_REF, "-s", S_REF, "--budget", "5"])
    assert result.status == "undetermined"
    assert result.payload["matrix"] is None and result.payload["complete"] is False


def test_verify_counterexample_passes():
    result = run(["verify-counterexample"])
    assert result.status == "ok"
    assert result.payload["all_passed"] is True
    names = [c["name"] for c in result.payload["checks"]]
    assert names == [
        "class-nonempty",
        "structure-table",
        "phi-table",
        "minimum-ranks",
        "witness-combinations-infeasible",
    ]
    assert "PASS witness-combinations-infeasible" in result.render_text()


def test_json_rendering_is_byte_stable(capsys):
    assert main(["--json", "phi", "-r", R_REF, "-s", S_REF]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "phi", "-r", R_REF, "-s", S_REF]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["status"] == "ok"
    assert payload["payload"]["table"]["values"][3][3] == 8


def test_readme_examples_are_all_golden():
    assert sorted(_readme_commands()) == sorted(README_GOLDEN)


@pytest.mark.parametrize("command", sorted(README_GOLDEN))
def test_readme_example_json_is_golden(command, tmp_path, monkeypatch, capsys):
    (tmp_path / "ex3.txt").write_text(FLOW_EXAMPLE_TEXT)
    monkeypatch.chdir(tmp_path)
    assert main(["--json", *command.split()]) == 0
    captured = capsys.readouterr()
    assert captured.out == README_GOLDEN[command]
    assert captured.err == ""


def test_matrix_file_is_closed(tmp_path):
    (tmp_path / "m.txt").write_text(FLOW_EXAMPLE_TEXT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "ars", "rank", "-t", "1", "--matrix", "m.txt"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0 and proc.stdout == "2 (cross-checked)\n"
    assert "ResourceWarning" not in proc.stderr


def test_exit_codes(capsys):
    assert main(["nonempty", "-r", "2,2", "-s", "3,1"]) == 0  # infeasible is data
    capsys.readouterr()
    # out-of-range or uncrossed user input is a usage error
    for argv in (
        ["construct-cover", "-r", "2,1", "-s", "2,1", "-e", "5", "-f", "0"],
        ["construct-cover", "-r", "2,2", "-s", "3,1", "-e", "9", "-f", "0"],  # empty class
        ["construct-two-cover", "-r", "2,1", "-s", "2,1", "--cover", "3,0", "--cover", "1,1"],
        ["psi", "-r", "2,1", "-s", "2,1", "-a", "1", "-b", "1", "-c", "0", "-d", "1"],
        # arguments are checked before the class, so an empty class
        # does not hide a bad one
        ["psi", "-r", "2", "-s", "1", "-a", "1", "-b", "1", "-c", "0", "-d", "1"],
        ["uniform-min", "-r", "2", "-s", "1", "--tmax", "0"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # a class whose weights differ is empty
    assert main(["--json", "min-rank", "-r", "2", "-s", "1", "-t", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "infeasible"


def test_psi_on_empty_class_is_infeasible(capsys):
    """psi, like phi, needs a nonempty class: an empty one is data."""
    for argv in (["psi", "-a", "0", "-b", "1", "-c", "0", "-d", "1"], ["phi"]):
        assert main(["--json", argv[0], "-r", "2", "-s", "2", *argv[1:]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "payload": {
                "kind": "message",
                "message": "no matrix has row sums (2,) and column sums (2,)",
            },
            "status": "infeasible",
        }


ERROR_CLASSES = sorted(
    (obj for obj in vars(ars.errors).values()
     if isinstance(obj, type) and issubclass(obj, ars.errors.ArsError)
     and obj is not ars.errors.ArsError),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_class_declares_cli_outcome(cls, monkeypatch, capsys):
    kinds = (
        issubclass(cls, ars.errors.Infeasible),
        issubclass(cls, ValueError),
        issubclass(cls, ars.errors.VerificationFailed),
    )
    assert sum(kinds) == 1, f"{cls.__name__} must be exactly one kind"

    def raising(args, r, s):
        raise cls("boom")

    monkeypatch.setattr(ars.cli, "_cmd_nonempty", raising)
    code = main(["--json", "nonempty", "-r", "1", "-s", "1"])
    captured = capsys.readouterr()
    if issubclass(cls, ars.errors.Infeasible):
        assert code == 0 and json.loads(captured.out)["status"] == "infeasible"
    elif issubclass(cls, ValueError):
        assert (code, captured.out, captured.err) == (2, "", "error: boom\n")
    else:
        assert code == 1 and json.loads(captured.out)["status"] == "error"


DISAGREEING_NONEMPTY = """
import sys
import ars.structure
from ars.cli import main
ars.structure.nonempty_by_structure = lambda table: False
sys.exit(main(["--json", "nonempty", "-r", "2,1", "-s", "2,1"]))
"""


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "-O"])
def test_nonempty_disagreeing_checks_are_an_internal_fault(optimize):
    """Gale-Ryser and the structure table must agree.  A disagreement is
    a bug: status error and exit 1, with no traceback, also under -O."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    flags = ["-O"] if optimize else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", DISAGREEING_NONEMPTY],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1 and proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["status"] == "error"
    assert doc["payload"]["message"] == (
        "Gale-Ryser says nonempty=True, the structure table says False"
    )


def test_bad_partition_is_usage_error(capsys):
    assert main(["nonempty", "-r", "1,2", "-s", "2,1"]) == 2
    err = capsys.readouterr().err
    assert "bad -r" in err
    # -r is reported before -s, and both before the handler's own checks,
    # whatever the argv order
    for argv, flag in (
        (["enumerate", "-s", "x", "-r", "1,2", "--budget", "-1"], "bad -r"),
        (["construct-two-cover", "-r", "2,1", "-s", "1,2", "--cover", "1"], "bad -s"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# every command with the help line `ars -h` lists for it
COMMAND_HELP = {
    "nonempty": "Gale-Ryser test with structure-matrix cross-check",
    "canonical": "canonical matrix of the class",
    "structure": "print the structure matrix",
    "phi": "print the phi (cover certificate) table",
    "psi": "two-cover quantity psi_{a,b;c,d}",
    "min-rank": "minimum t-term rank over the class",
    "rank": "t-term rank of one matrix (flow computation)",
    "construct-cover": "class member covered by e rows + f columns",
    "construct-two-cover": "class member carrying two prefix covers at once",
    "enumerate": "list every class member (budgeted)",
    "uniform-min": "search for a matrix realizing every minimum rank",
    "verify-counterexample":
        "recompute the reference class facts and the cover infeasibility search",
}


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ars [-h] [--json] COMMAND ...\n")
    listed = {}
    for line in out.split("\ncommands:\n")[1].splitlines():
        name, help_line = line.split(maxsplit=1)
        listed[name] = help_line
    assert listed == COMMAND_HELP


@pytest.mark.parametrize("command", sorted(COMMAND_HELP))
def test_command_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--json", command, "-h"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: ars {command} [-h]") and captured.err == ""


@pytest.mark.parametrize("argv", [
    ["nonempty", "--json", "-r", "1", "-s", "1"],  # --json belongs before the command
    [],
    ["--json"],
])
def test_usage_mistakes_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage: ars" in captured.err


def test_top_level_help_is_golden(capsys):
    assert sorted(COMMAND_HELP_GOLDEN) == sorted(COMMAND_HELP)
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            main(["--json", flag])
        assert exc.value.code == 0
        assert capsys.readouterr() == (HELP_GOLDEN, "")


@pytest.mark.parametrize("command", sorted(COMMAND_HELP))
def test_command_help_is_golden(command, capsys):
    # the help flag is read before the required options are checked
    for argv in ([command, "-h"], ["--json", command, "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr() == (COMMAND_HELP_GOLDEN[command], "")


def test_option_values_may_be_a_dash_or_a_negative_integer(monkeypatch, capsys):
    args = parse_args(["rank", "-t", "-1", "--matrix", "-"])
    assert (args.command, args.t, args.matrix, args.json) == ("rank", -1, "-", False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(FLOW_EXAMPLE_TEXT))
    # the handler, not the parser, rejects t = -1
    assert main(["--json", "rank", "-t", "-1", "--matrix", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "usage:" not in captured.err
    assert parse_args(["enumerate", "-r", "1", "-s", "1", "--budget", "-1"]).budget == -1


def test_repeated_option_keeps_its_last_value():
    args = parse_args(["min-rank", "-r", "9", "-s", "2,1", "-t", "5", "-r", "2,1", "-t", "2"])
    assert (args.row_sums, args.col_sums, args.t) == ("2,1", "2,1", 2)
    assert run(["min-rank", "-r", "9", "-s", "2,1", "-r", "2,1", "-t", "5", "-t", "1"]).payload[
        "value"] == 2


def test_cover_keeps_its_order():
    argv = ["construct-two-cover", "-r", "2,1", "-s", "2,1", "--cover", "3,3", "--cover", "2,4"]
    assert parse_args(argv).cover == ["3,3", "2,4"]
    assert parse_args(argv + ["--cover", "1,1"]).cover == ["3,3", "2,4", "1,1"]


def test_optional_options_take_their_defaults():
    args = parse_args(["--json", "--json", "enumerate", "-r", "1", "-s", "1"])
    assert (args.json, args.budget, args.count) == (True, DEFAULT_BUDGET, False)
    assert parse_args(["enumerate", "-r", "1", "-s", "1", "--count"]).count is True
    args = parse_args(["uniform-min", "-r", "1", "-s", "1"])
    assert (args.tmax, args.budget) == (None, DEFAULT_BUDGET)
    assert not hasattr(parse_args(["rank", "-t", "1", "--matrix", "m"]), "row_sums")


@pytest.mark.parametrize("argv", [
    ["enumerate", "-r", "1", "-s", "1", "--bud", "5"],  # no abbreviations
    ["enumerate", "-r", "1", "-s", "1", "--budget=5"],  # no attached values
    ["min-rank", "-r", "1", "-s", "1", "-t3"],
    ["min-rank", "-r", "1", "-s", "1", "-t"],  # a missing value
    ["min-rank", "-r", "1", "-s", "1", "-t", "-r"],
    ["min-rank", "-r", "1", "-s", "1", "-t", "x"],  # not an integer
    ["min-rank", "-r", "1", "-s", "1", "-t", " +1"],
    ["min-rank", "-r", "1", "-s", "1", "-t", "\u0661"],
    ["min-rank", "-r", "1", "-s", "1", "-t", "-1.5"],
    ["min-rank", "-s", "1", "-t", "1"],  # a missing -r
    ["nonempty", "-r", "1", "-s", "1", "stray"],
    ["nonempty", "-r", "1", "-s", "1", "--json"],
    ["verify-counterexample", "-r", "1"],
])
def test_malformed_options_exit_two_with_the_command_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--json", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith(f"usage: ars {argv[0]} [-h]")
    assert error.startswith(f"ars {argv[0]}: error: ")


@pytest.mark.parametrize("argv", [[], ["--json"], ["--js", "nonempty"], ["-x"], ["frobnicate"]])
def test_malformed_command_exits_two_with_the_top_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == "usage: ars [-h] [--json] COMMAND ..."
    assert captured.err.splitlines()[1].startswith("ars: error: ")


def test_integers_are_ascii_decimals(capsys):
    """int() reads "+2", " +1", "1_0" and "\u0662"; the CLI does not."""
    for argv, err in (
        (["nonempty", "-r", "+2,\u0662", "-s", "2,2"],
         "error: bad -r: part '+2' is not an integer in ASCII decimal digits\n"),
        (["nonempty", "-r", "2,2", "-s", "1_0"],
         "error: bad -s: part '1_0' is not an integer in ASCII decimal digits\n"),
        (["construct-two-cover", "-r", "2,1", "-s", "2,1", "--cover", "+1,1", "--cover", "1,0"],
         "error: bad --cover '+1,1': expected integers\n"),
    ):
        assert main(["--json", *argv]) == 2
        assert capsys.readouterr() == ("", err)


# the most digits int() converts from text, 0 where it has no limit
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="int() takes any number of digits")
def test_over_long_integers_exit_two(tmp_path, capsys):
    """An integer with more digits than int() converts is a usage mistake
    wherever the CLI reads one, a bad value or a bad option: the message
    names the value, does not repeat its digits and points at no
    interpreter setting."""
    digits = "1" * (INT_DIGITS + 1)
    path = tmp_path / "long.txt"
    path.write_text(f"1 {digits}\n1\n")
    too_long = f"is too long: {len(digits)} digits\n"
    cover = ["--cover", f"{digits},1", "--cover", "1,0"]
    for argv, tail in (
        (["nonempty", "-r", digits, "-s", "1"], "error: bad -r: part " + too_long),
        (["rank", "-t", "1", "--matrix", str(path)], "bad matrix file: header entry " + too_long),
        (["min-rank", "-r", "1", "-s", "1", "-t", digits], "error: argument -t: value " + too_long),
        (["enumerate", "-r", "1", "-s", "1", "--budget", f"-{digits}"], "value " + too_long),
        (["construct-two-cover", "-r", "2,1", "-s", "2,1", *cover], ": expected integers\n"),
    ):
        try:
            code = main(["--json", *argv])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.endswith(tail), argv
        assert "set_int_max_str_digits" not in err and ("--cover" in argv or digits not in err)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ars", "min-rank", "-r", R_REF, "-s", S_REF, "-t", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6 (witness e=3, f=3)"


# argv fragments for the CLI fuzz test: each strategy draws a token list
PARTITION_TEXT = st.lists(st.integers(1, 4), max_size=4).map(
    lambda parts: ",".join(map(str, sorted(parts, reverse=True)))
)
SMALL_INT = st.integers(-1, 5).map(str)


def _flag(name, values):
    return values.map(lambda value: [name, value])


def _optional(tokens):
    return st.just([]) | tokens


PAIR = [_flag("-r", PARTITION_TEXT), _flag("-s", PARTITION_TEXT)]
COVER = _flag("--cover", st.tuples(SMALL_INT, SMALL_INT).map(",".join))
COMMAND_ARGS = {
    "nonempty": PAIR,
    "canonical": PAIR,
    "structure": PAIR,
    "phi": PAIR,
    "psi": PAIR + [_flag(f"-{name}", SMALL_INT) for name in "abcd"],
    "min-rank": PAIR + [_flag("-t", SMALL_INT)],
    "rank": [_flag("-t", SMALL_INT), st.just(["--matrix", "-"])],
    "construct-cover": PAIR + [_flag("-e", SMALL_INT), _flag("-f", SMALL_INT)],
    "construct-two-cover": PAIR + [COVER, _optional(COVER), _optional(COVER)],
    "enumerate": PAIR + [
        _optional(_flag("--budget", SMALL_INT)), _optional(st.just(["--count"]))
    ],
    "uniform-min": PAIR + [
        _optional(_flag("--tmax", SMALL_INT)), _optional(_flag("--budget", SMALL_INT))
    ],
    "verify-counterexample": [],
}


HELP_FLAGS = {"-h", "--help"}
# tokens that no position in argv accepts: unknown flags, the forms that
# are not read (an abbreviation, --flag=value, -t3) and the digits of
# another script
MALFORMED = {"--frobnicate", "--js", "--budget=5", "-t3", "\u0662", "-\u0662"}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_ARGS)))
    argv = ["--json"] if draw(st.booleans()) else []
    argv.append(command)
    for tokens in COMMAND_ARGS[command]:
        argv.extend(draw(tokens))
    if draw(st.integers(0, 3)) == 0:
        token = draw(st.sampled_from(sorted(HELP_FLAGS | MALFORMED)))
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=150, deadline=None)
@given(cli_argv(), matrices(max_m=4, max_n=4))
def test_cli_fuzz_keeps_exit_contract(argv, stdin_matrix):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin_matrix.to_text())), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a help page, or a usage mistake in argv
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if set(argv) & MALFORMED:
        assert code == 2
    if code == 2:
        assert out.getvalue() == ""
    elif set(argv) & HELP_FLAGS:
        assert code == 0 and err.getvalue() == ""
        assert out.getvalue().startswith("usage: ars ")
    elif argv[0] == "--json":
        status = json.loads(out.getvalue())["status"]
        assert status in ("ok", "infeasible", "undetermined", "error")
