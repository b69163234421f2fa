"""Command-line surface: one subcommand per library operation plus the
reference-class verification."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Any

from . import construct, counterexample, flow, oracle, structure
from .binmat import BinaryMatrix
from .errors import (
    ArsError,
    BadCoverOrder,
    BadRange,
    DimensionMismatch,
    EmptyClass,
    InfeasibleShift,
    ResidualInfeasible,
    WeightMismatch,
)
from .partition import Partition, is_nonempty

DEFAULT_BUDGET = 1_000_000


@dataclass
class CommandResult:
    """Outcome of one CLI invocation; the JSON and human renderings are
    produced from the same payload."""

    status: str  # ok | infeasible | undetermined | error
    payload: Any

    def render_json(self) -> str:
        return json.dumps({"status": self.status, "payload": self.payload}, sort_keys=True)

    def render_text(self) -> str:
        kind = self.payload.get("kind") if isinstance(self.payload, dict) else None
        lines: list[str] = []
        if kind == "message":
            lines.append(f"{self.status}: {self.payload['message']}")
        elif kind == "verdict":
            lines.append("nonempty" if self.payload["nonempty"] else "empty class")
            lines.append(f"  gale-ryser majorization: {self.payload['gale_ryser']}")
            if self.payload["structure_nonnegative"] is not None:
                lines.append(
                    f"  structure matrix nonnegative: {self.payload['structure_nonnegative']}"
                )
            if not self.payload["weights_equal"]:
                lines.append("  (weights differ; structure criterion not applicable)")
        elif kind == "matrix":
            lines.append(_matrix_text(self.payload["matrix"]))
            for note in self.payload.get("notes", []):
                lines.append(f"# {note}")
        elif kind == "table":
            lines.append(_table_text(self.payload["table"]))
        elif kind == "value":
            lines.append(str(self.payload["value"]))
        elif kind == "min_rank":
            e, f = self.payload["witness"]["e"], self.payload["witness"]["f"]
            lines.append(f"{self.payload['value']} (witness e={e}, f={f})")
        elif kind == "rank":
            suffix = " (cross-checked)" if self.payload["cross_checked"] else ""
            lines.append(f"{self.payload['value']}{suffix}")
        elif kind == "matrices":
            for obj in self.payload.get("matrices", []):
                lines.append(_matrix_text(obj))
                lines.append("")
            lines.append(f"count {self.payload['count']}")
            if self.payload["truncated"]:
                lines.append("# stopped at budget; enumeration incomplete")
        elif kind == "search":
            if self.payload["matrix"] is not None:
                lines.append(_matrix_text(self.payload["matrix"]))
            elif self.payload["complete"]:
                lines.append("absent: no class member realizes every minimum")
            else:
                lines.append("undetermined by enumeration (budget exhausted)")
            lines.append(f"# scanned {self.payload['scanned']} matrices")
        elif kind == "report":
            for check in self.payload["checks"]:
                word = "PASS" if check["passed"] else "FAIL"
                lines.append(f"{word} {check['name']}: {check['detail']}")
            lines.append(
                "all checks passed" if self.payload["all_passed"] else "SOME CHECKS FAILED"
            )
        else:
            lines.append(json.dumps(self.payload, sort_keys=True))
        return "\n".join(lines)


def _matrix_text(obj: dict) -> str:
    return BinaryMatrix.from_json_obj(obj).to_text()


def _table_text(obj: dict) -> str:
    return structure.StructureTable(
        values=tuple(tuple(row) for row in obj["values"]), kind=obj["kind"]
    ).render()


def _parse_partition(text: str, flag: str) -> Partition:
    try:
        return Partition.from_text(text)
    except ValueError as exc:
        raise SystemExitMessage(f"bad {flag}: {exc}")


class SystemExitMessage(Exception):
    """Usage-level failure with a one-line diagnostic."""


def _load_matrix(path: str) -> BinaryMatrix:
    try:
        text = sys.stdin.read() if path == "-" else open(path).read()
        return BinaryMatrix.from_text(text)
    except OSError as exc:
        raise SystemExitMessage(f"cannot read matrix: {exc}")
    except ValueError as exc:
        raise SystemExitMessage(f"bad matrix file: {exc}")


def _budget(args) -> int:
    """--budget, else ARS_BUDGET, else DEFAULT_BUDGET; never negative."""
    budget = args.budget
    if budget is None:
        raw = os.environ.get("ARS_BUDGET", str(DEFAULT_BUDGET))
        try:
            budget = int(raw)
        except ValueError:
            raise SystemExitMessage(f"ARS_BUDGET must be an integer, got {raw!r}")
    if budget < 0:
        raise SystemExitMessage("--budget must be nonnegative")
    return budget


def _matrix_payload(a: BinaryMatrix, notes: list[str] | None = None) -> dict:
    payload = {"kind": "matrix", "matrix": a.to_json_obj()}
    if notes:
        payload["notes"] = notes
    return payload


def _cmd_nonempty(args) -> CommandResult:
    r = _parse_partition(args.row_sums, "-r")
    s = _parse_partition(args.col_sums, "-s")
    verdict = is_nonempty(r, s)
    weights_equal = r.weight == s.weight
    by_table = None
    if weights_equal:
        by_table = structure.nonempty_by_structure(structure.structure_matrix(r, s))
        assert by_table == verdict
    payload = {
        "kind": "verdict",
        "nonempty": verdict,
        "gale_ryser": verdict,
        "structure_nonnegative": by_table,
        "weights_equal": weights_equal,
    }
    return CommandResult("ok" if verdict else "infeasible", payload)


def _cmd_canonical(args) -> CommandResult:
    r = _parse_partition(args.row_sums, "-r")
    s = _parse_partition(args.col_sums, "-s")
    return CommandResult("ok", _matrix_payload(construct.ryser_canonical(r, s)))


def _cmd_table(args) -> CommandResult:
    r = _parse_partition(args.row_sums, "-r")
    s = _parse_partition(args.col_sums, "-s")
    builder = structure.phi_matrix if args.which == "phi" else structure.structure_matrix
    table = builder(r, s)
    return CommandResult("ok", {"kind": "table", "table": table.to_json_obj()})


def _cmd_psi(args) -> CommandResult:
    r = _parse_partition(args.row_sums, "-r")
    s = _parse_partition(args.col_sums, "-s")
    value = structure.psi(r, s, args.a, args.b, args.c, args.d)
    return CommandResult("ok", {"kind": "value", "value": value})


def _cmd_min_rank(args) -> CommandResult:
    r = _parse_partition(args.row_sums, "-r")
    s = _parse_partition(args.col_sums, "-s")
    value, (e, f) = structure.min_t_term_rank(r, s, args.t)
    payload = {"kind": "min_rank", "value": value, "witness": {"e": e, "f": f}}
    return CommandResult("ok", payload)


def _cmd_rank(args) -> CommandResult:
    a = _load_matrix(args.matrix)
    value = flow.t_term_rank(a, args.t)
    cross_checked = False
    if a.m <= 6 and a.n <= 6:
        brute = oracle.brute_t_term_rank(a, args.t)
        if brute != value:
            return CommandResult(
                "error",
                {
                    "kind": "message",
                    "message": f"flow rank {value} disagrees with brute force {brute}",
                },
            )
        cross_checked = True
    return CommandResult("ok", {"kind": "rank", "value": value, "cross_checked": cross_checked})


def _cmd_construct_cover(args) -> CommandResult:
    r = _parse_partition(args.row_sums, "-r")
    s = _parse_partition(args.col_sums, "-s")
    if not structure.cover_exists(r, s, args.e, args.f):
        return CommandResult(
            "infeasible",
            {
                "kind": "message",
                "message": f"no class member is covered by its first {args.e} rows "
                f"and first {args.f} columns",
            },
        )
    a = construct.modified_ryser(r, s, args.e, args.f)
    notes = [f"covered by first {args.e} rows and first {args.f} columns"]
    return CommandResult("ok", _matrix_payload(a, notes))


def _parse_cover(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise SystemExitMessage(f"bad --cover {text!r}: expected E,F")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise SystemExitMessage(f"bad --cover {text!r}: expected integers")


def _cmd_construct_two_cover(args) -> CommandResult:
    r = _parse_partition(args.row_sums, "-r")
    s = _parse_partition(args.col_sums, "-s")
    if len(args.cover) != 2:
        raise SystemExitMessage("exactly two --cover options are required")
    cover_a = _parse_cover(args.cover[0])
    cover_b = _parse_cover(args.cover[1])
    (e1, f1), (e2, f2) = construct._normalize_covers(cover_a, cover_b, len(r), len(s))
    if not structure.two_cover_exists(r, s, e1, e2, f2, f1):
        return CommandResult(
            "infeasible",
            {
                "kind": "message",
                "message": f"no class member carries covers ({e1},{f1}) and "
                f"({e2},{f2}) simultaneously",
            },
        )
    a = construct.two_cover_matrix(r, s, cover_a, cover_b)
    notes = [f"covered by ({e1} rows, {f1} cols) and ({e2} rows, {f2} cols)"]
    return CommandResult("ok", _matrix_payload(a, notes))


def _cmd_enumerate(args) -> CommandResult:
    r = _parse_partition(args.row_sums, "-r")
    s = _parse_partition(args.col_sums, "-s")
    budget = _budget(args)
    matrices = []
    count = 0
    truncated = False
    for a in oracle.enumerate_class(r, s):
        if count >= budget:
            truncated = True
            break
        count += 1
        if not args.count:
            matrices.append(a.to_json_obj())
    payload = {
        "kind": "matrices",
        "count": count,
        "truncated": truncated,
        "matrices": matrices,
    }
    if truncated:
        return CommandResult("undetermined", payload)
    return CommandResult("infeasible" if count == 0 else "ok", payload)


def _cmd_uniform_min(args) -> CommandResult:
    r = _parse_partition(args.row_sums, "-r")
    s = _parse_partition(args.col_sums, "-s")
    budget = _budget(args)
    outcome = oracle.find_uniform_minimizer(r, s, t_max=args.tmax, budget=budget)
    payload = {
        "kind": "search",
        "matrix": outcome.matrix.to_json_obj() if outcome.matrix else None,
        "complete": outcome.complete,
        "scanned": outcome.scanned,
    }
    if outcome.matrix is not None:
        return CommandResult("ok", payload)
    return CommandResult("infeasible" if outcome.complete else "undetermined", payload)


def _cmd_verify_counterexample(args) -> CommandResult:
    checks = counterexample.verify()
    payload = {
        "kind": "report",
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
        "all_passed": all(c.passed for c in checks),
    }
    return CommandResult("ok" if payload["all_passed"] else "error", payload)


def _add_pair_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-r", dest="row_sums", required=True,
                        help="row sums, comma-separated, e.g. 4,2,2,2,1,1,1")
    parser.add_argument("-s", dest="col_sums", required=True,
                        help="column sums, comma-separated")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ars",
        description="Analyze and construct (0,1)-matrices with prescribed "
        "row and column sums.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nonempty", help="Gale-Ryser test with structure-matrix cross-check")
    _add_pair_args(p)
    p.set_defaults(handler=_cmd_nonempty)

    p = sub.add_parser("canonical", help="canonical matrix of the class")
    _add_pair_args(p)
    p.set_defaults(handler=_cmd_canonical)

    for name, help_text in (
        ("structure", "print the structure matrix"),
        ("phi", "print the phi (cover certificate) table"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_pair_args(p)
        p.set_defaults(handler=_cmd_table, which=name)

    p = sub.add_parser("psi", help="two-cover quantity psi_{a,b;c,d}")
    _add_pair_args(p)
    for flag in "abcd":
        p.add_argument(f"-{flag}", type=int, required=True, dest=flag)
    p.set_defaults(handler=_cmd_psi)

    p = sub.add_parser("min-rank", help="minimum t-term rank over the class")
    _add_pair_args(p)
    p.add_argument("-t", type=int, required=True)
    p.set_defaults(handler=_cmd_min_rank)

    p = sub.add_parser("rank", help="t-term rank of one matrix (flow computation)")
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--matrix", required=True, help="matrix file, or - for stdin")
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("construct-cover", help="class member covered by e rows + f columns")
    _add_pair_args(p)
    p.add_argument("-e", type=int, required=True)
    p.add_argument("-f", type=int, required=True)
    p.set_defaults(handler=_cmd_construct_cover)

    p = sub.add_parser(
        "construct-two-cover", help="class member carrying two prefix covers at once"
    )
    _add_pair_args(p)
    p.add_argument("--cover", action="append", required=True, metavar="E,F",
                   help="give exactly twice, e.g. --cover 2,4 --cover 3,3")
    p.set_defaults(handler=_cmd_construct_two_cover)

    p = sub.add_parser("enumerate", help="list every class member (budgeted)")
    _add_pair_args(p)
    p.add_argument("--budget", type=int, default=None,
                   help=f"matrix cap (default {DEFAULT_BUDGET}, or ARS_BUDGET)")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("uniform-min", help="search for a matrix realizing every minimum rank")
    _add_pair_args(p)
    p.add_argument("--tmax", type=int, default=None,
                   help="check ranks 1..TMAX (default: largest row sum)")
    p.add_argument("--budget", type=int, default=None,
                   help=f"matrix cap (default {DEFAULT_BUDGET}, or ARS_BUDGET)")
    p.set_defaults(handler=_cmd_uniform_min)

    p = sub.add_parser(
        "verify-counterexample",
        help="recompute the reference class facts and the cover infeasibility search",
    )
    p.set_defaults(handler=_cmd_verify_counterexample)

    return parser


def _dispatch(args) -> CommandResult:
    try:
        return args.handler(args)
    except (EmptyClass, InfeasibleShift, ResidualInfeasible, WeightMismatch) as exc:
        # an unequal-weight class is empty
        return CommandResult("infeasible", {"kind": "message", "message": str(exc)})
    except (BadRange, BadCoverOrder, DimensionMismatch, ValueError) as exc:
        # indices out of range, uncrossed covers, t < 1 and the like are
        # usage errors
        raise SystemExitMessage(str(exc))
    except ArsError as exc:
        return CommandResult("error", {"kind": "message", "message": str(exc)})


def run(argv: list[str] | None = None) -> CommandResult:
    """Parse argv and execute; domain errors map onto result statuses
    (mathematical infeasibility is data, not a tool failure)."""
    return _dispatch(build_parser().parse_args(argv))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = _dispatch(args)
    except SystemExitMessage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render_json() if args.json else result.render_text())
    return 1 if result.status == "error" else 0


if __name__ == "__main__":
    sys.exit(main())
