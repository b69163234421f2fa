"""The human-readable rendering of a CLI result, and the help pages and
usage lines drawn from the CLI's command table, kept apart from `cli`
so that a well-formed `--json` call does not compile them."""

from __future__ import annotations

import json
from typing import Any


def render(status: str, payload: Any) -> str:
    """The text form of a result's payload; a payload of no known kind
    prints as its JSON."""
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind == "message":
        return f"{status}: {payload['message']}"
    render_kind = _TEXT.get(kind)
    return render_kind(payload) if render_kind else json.dumps(payload, sort_keys=True)


# the text rendering of each payload kind but "message"


def _verdict_text(p: dict) -> str:
    lines = ["nonempty" if p["nonempty"] else "empty class",
             f"  gale-ryser majorization: {p['gale_ryser']}"]
    if p["structure_nonnegative"] is not None:
        lines.append(f"  structure matrix nonnegative: {p['structure_nonnegative']}")
    if not p["weights_equal"]:
        lines.append("  (weights differ; structure criterion not applicable)")
    return "\n".join(lines)


def _matrices_text(p: dict) -> str:
    lines = [f"{_matrix_text(obj)}\n" for obj in p.get("matrices", [])]
    lines.append(f"count {p['count']}")
    if p["truncated"]:
        lines.append("# stopped at budget; enumeration incomplete")
    return "\n".join(lines)


def _search_text(p: dict) -> str:
    if p["matrix"] is not None:
        found = _matrix_text(p["matrix"])
    elif p["complete"]:
        found = "absent: no class member realizes every minimum"
    else:
        found = "undetermined by enumeration (budget exhausted)"
    return f"{found}\n# scanned {p['scanned']} matrices"


def _report_text(p: dict) -> str:
    lines = [f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}"
             for c in p["checks"]]
    lines.append("all checks passed" if p["all_passed"] else "SOME CHECKS FAILED")
    return "\n".join(lines)


_TEXT = {
    "verdict": _verdict_text,
    "matrix": lambda p: "\n".join([_matrix_text(p["matrix"])]
                                  + [f"# {note}" for note in p.get("notes", [])]),
    "table": lambda p: _table_text(p["table"]),
    "value": lambda p: str(p["value"]),
    "min_rank": lambda p: f"{p['value']} (witness e={p['witness']['e']}, f={p['witness']['f']})",
    "rank": lambda p: f"{p['value']}{' (cross-checked)' if p['cross_checked'] else ''}",
    "matrices": _matrices_text,
    "search": _search_text,
    "report": _report_text,
}


def _matrix_text(obj: dict) -> str:
    from .binmat import BinaryMatrix
    return BinaryMatrix.from_json_obj(obj).to_text()


def _table_text(obj: dict) -> str:
    from .structure import StructureTable
    return StructureTable(
        values=tuple(tuple(row) for row in obj["values"]), kind=obj["kind"]
    ).render()


# the help pages and usage lines; commands is `cli._commands()`, and a
# command of None stands for `ars` itself

_HELP = ("-h, --help", "show this help message and exit")
_JSON = ("--json", "emit JSON instead of text; give it before COMMAND")


def usage_line(commands: dict, command: str | None) -> str:
    if command is None:
        return "usage: ars [-h] [--json] COMMAND ..."
    words = [f"usage: ars {command} [-h]"]
    for flag, dest, kind, default, _ in commands[command][2]:
        word = _invocation(flag, dest, kind)
        words.append(word if default is ... else f"[{word}]")
    return " ".join(words)


def help_page(commands: dict, command: str | None) -> str:
    if command is None:
        lines = [
            "Analyze and construct (0,1)-matrices with prescribed row and column sums.",
            "",
            *_option_lines([_HELP, _JSON]),
            "",
            "COMMAND is one of the commands below; ars COMMAND -h lists its options.",
            "",
            "commands:",
            *(f"  {name:<22}{entry[0]}" for name, entry in commands.items()),
        ]
    else:
        about, _, options = commands[command]
        rows = [_HELP, *((_invocation(flag, dest, kind), text)
                         for flag, dest, kind, _, text in options)]
        lines = [about, "", *_option_lines(rows)]
    return "\n".join([usage_line(commands, command), "", *lines]) + "\n"


def _invocation(flag: str, dest: str, kind: type) -> str:
    return flag if kind is bool else f"{flag} {dest.upper()}"


def _option_lines(rows: list[tuple[str, str]]) -> list[str]:
    """The options: block, one row per option with its help aligned."""
    width = max(len(left) for left, _ in rows) + 2
    return ["options:", *(f"  {left:<{width}}{right}".rstrip() for left, right in rows)]
