"""Import-footprint guard for one-shot CLI calls.

Each case runs one ``ars --json`` command in a fresh interpreter, through
``runpy.run_module("ars", run_name="__main__")`` as ``python -m ars``
does, and pins the set of ``ars`` modules the call imported.  The
package's ``__main__.py`` runs under the name ``__main__`` and so is not
in the set.  Nothing here is timed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

R_REF = "6,5,4,3,3,2,2,1,1"
S_REF = "7,3,3,2,2,1,1,1,1,1,1,1,1,1,1"

# prints the command's output on stdout, then on stderr one JSON list:
# the exit code and the newly imported modules
DRIVER = """
import json, runpy, sys
before = set(sys.modules)
sys.argv = ["ars", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("ars", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stderr.write(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

BASE = {"ars", "ars.cli", "ars.errors", "ars.partition"}
# stdlib modules that no call imports: the CLI parses argv from its own
# command table, without argparse and the translation machinery that
# argparse's messages load
UNUSED_STDLIB = {"argparse", "gettext", "locale", "_locale", "dataclasses", "inspect"}
TABLES = BASE | {"ars.structure"}

CONSTRUCT = BASE | {"ars.binmat", "ars.construct"}

# the seven commands of the cli_calls benchmark workload, a rank call
# small enough for the brute-force cross-check, and the other commands
CASES = {
    "nonempty": (["nonempty", "-r", "3,2,1", "-s", "2,2,2"], TABLES),
    "structure": (["structure", "-r", R_REF, "-s", S_REF], TABLES),
    "psi": (["psi", "-r", "2,1", "-s", "2,1", "-a", "0", "-b", "1", "-c", "0", "-d", "1"], TABLES),
    "min-rank": (["min-rank", "-r", R_REF, "-s", S_REF, "-t", "2"], TABLES),
    "phi": (["phi", "-r", R_REF, "-s", S_REF], TABLES),
    "rank": (["rank", "-t", "2", "--matrix", "big.txt"], BASE | {"ars.binmat", "ars.flow"}),
    "rank-cross-checked": (
        ["rank", "-t", "2", "--matrix", "small.txt"],
        BASE | {"ars.binmat", "ars.flow", "ars.oracle"},
    ),
    "enumerate": (
        ["enumerate", "--count", "-r", "3,2,2,1", "-s", "2,2,2,1,1"],
        BASE | {"ars.binmat", "ars.oracle"},
    ),
    "construct-cover": (
        ["construct-cover", "-r", "4,2,2,2,1,1,1", "-s", "2,2,2,2,1,1,1,1,1", "-e", "2", "-f", "4"],
        CONSTRUCT,
    ),
    "canonical": (["canonical", "-r", "2,1", "-s", "2,1"], CONSTRUCT),
    "construct-two-cover": (
        ["construct-two-cover", "-r", "4,2,2,2,1,1,1", "-s", "2,2,2,2,1,1,1,1,1",
         "--cover", "2,4", "--cover", "3,3"],
        CONSTRUCT,
    ),
    "uniform-min": (
        ["uniform-min", "-r", "2,1", "-s", "2,1"],
        BASE | {"ars.binmat", "ars.flow", "ars.oracle", "ars.structure"},
    ),
    "verify-counterexample": (
        ["verify-counterexample"],
        BASE | {"ars.counterexample", "ars.structure"},
    ),
}


def _python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd
    )


def _write_matrix(path, m, n):
    rows = [" ".join("1" if (3 * i + 5 * j) % 4 == 0 else "0" for j in range(n)) for i in range(m)]
    path.write_text(f"{m} {n}\n" + "\n".join(rows) + "\n")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_call_imports_only_its_layers(case, tmp_path):
    _write_matrix(tmp_path / "big.txt", 7, 7)
    _write_matrix(tmp_path / "small.txt", 4, 5)
    argv, expected = CASES[case]
    proc = _python(["-c", DRIVER, "--json", *argv], tmp_path)
    code, imported = json.loads(proc.stderr)
    assert code == 0
    assert json.loads(proc.stdout)["status"] == "ok"
    assert {m for m in imported if m.split(".")[0] == "ars"} == expected
    assert not set(imported) & UNUSED_STDLIB


@pytest.mark.parametrize("argv, usage", [
    (["-h"], "usage: ars [-h] [--json] COMMAND ...\n"),
    (["rank", "-h"], "usage: ars rank [-h] -t T --matrix MATRIX\n"),
], ids=["ars -h", "ars rank -h"])
def test_help_page_imports_no_parser_library(argv, usage, tmp_path):
    """A help page is drawn from the command table by `cli_text`."""
    proc = _python(["-c", DRIVER, *argv], tmp_path)
    code, imported = json.loads(proc.stderr)
    assert code == 0 and proc.stdout.startswith(usage)
    assert {m for m in imported if m.split(".")[0] == "ars"} == BASE | {"ars.cli_text"}
    assert not set(imported) & UNUSED_STDLIB


def test_cli_module_loads_no_dataclasses(tmp_path):
    proc = _python(
        [
            "-c",
            "import json, sys; before = set(sys.modules); import ars.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))",
        ],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    imported = set(json.loads(proc.stdout))
    assert {"ars", "ars.cli", "ars.errors", "ars.partition"} <= imported
    assert not imported & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_counterexample_module_loads_no_flow(tmp_path):
    """The reference class's cover combinations are decided in closed
    form, so importing the module loads neither the flow layer nor the
    matrix type."""
    proc = _python(
        [
            "-c",
            "import json, sys; before = set(sys.modules); import ars.counterexample; "
            "print(json.dumps(sorted(set(sys.modules) - before)))",
        ],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    imported = set(json.loads(proc.stdout))
    assert "ars.counterexample" in imported
    assert not imported & {"ars.flow", "ars.binmat"}
