"""Smoke test: the experiment scripts run to completion against the
package's public surface."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script", ["code_lines.py", "counterexample_report.py", "search_uniform_minimizers.py"]
)
def test_script_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_code_lines_skips_docstrings_comments_and_blanks():
    """code_lines counts each line that holds code once, a multi-line
    statement on every line, and no docstring, comment or blank line;
    the script's total is the sum of its per-module counts."""
    code_lines = runpy.run_path(str(ROOT / "scripts" / "code_lines.py"))["code_lines"]
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


class C:
    """Class docstring."""

    # a comment line
    def f(self):
        """Function docstring."""
        return (1,
                "not a docstring")
'''
    assert code_lines(source) == 5
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py")], capture_output=True, text=True
    )
    counts = [int(line.split()[0]) for line in proc.stdout.splitlines()]
    assert proc.stdout.splitlines()[-1].endswith(" total")
    assert len(counts) > 2 and counts[-1] == sum(counts[:-1])
