"""Command-line surface: one subcommand per library operation plus the
reference-class verification.

Each handler imports the layers it calls, so one call loads only what
its command needs."""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any, NamedTuple

from .errors import ArsError, Infeasible
from .partition import Partition, is_nonempty

if TYPE_CHECKING:
    from .binmat import BinaryMatrix

DEFAULT_BUDGET = 1_000_000


class CommandResult(NamedTuple):
    """Outcome of one CLI invocation; the JSON and human renderings are
    produced from the same payload."""

    status: str  # ok | infeasible | undetermined | error
    payload: Any

    def render_json(self) -> str:
        return json.dumps({"status": self.status, "payload": self.payload}, sort_keys=True)

    def render_text(self) -> str:
        p = self.payload
        kind = p.get("kind") if isinstance(p, dict) else None
        if kind == "message":
            return f"{self.status}: {p['message']}"
        render = _TEXT.get(kind)
        return render(p) if render else json.dumps(p, sort_keys=True)


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


def _parse_partition(text: str, flag: str) -> Partition:
    try:
        return Partition.from_text(text)
    except ValueError as exc:
        raise ValueError(f"bad {flag}: {exc}")


def _load_matrix(path: str) -> BinaryMatrix:
    from .binmat import BinaryMatrix
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
        return BinaryMatrix.from_text(text)
    except OSError as exc:
        raise ValueError(f"cannot read matrix: {exc}")
    except ValueError as exc:
        raise ValueError(f"bad matrix file: {exc}")


def _budget(args) -> int:
    if args.budget < 0:
        raise ValueError("--budget must be nonnegative")
    return args.budget


def _message(status: str, text: str) -> CommandResult:
    return CommandResult(status, {"kind": "message", "message": text})


def _matrix_payload(a: BinaryMatrix, notes: list[str] | None = None) -> dict:
    payload = {"kind": "matrix", "matrix": a.to_json_obj()}
    if notes:
        payload["notes"] = notes
    return payload


def _cmd_nonempty(args, r: Partition, s: Partition) -> CommandResult:
    from . import structure
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


def _cmd_canonical(args, r: Partition, s: Partition) -> CommandResult:
    from . import construct
    return CommandResult("ok", _matrix_payload(construct.ryser_canonical(r, s)))


def _cmd_table(args, r: Partition, s: Partition) -> CommandResult:
    from . import structure
    builder = structure.phi_matrix if args.which == "phi" else structure.structure_matrix
    table = builder(r, s)
    return CommandResult("ok", {"kind": "table", "table": table.to_json_obj()})


def _cmd_psi(args, r: Partition, s: Partition) -> CommandResult:
    from . import structure
    value = structure.psi(r, s, args.a, args.b, args.c, args.d)
    return CommandResult("ok", {"kind": "value", "value": value})


def _cmd_min_rank(args, r: Partition, s: Partition) -> CommandResult:
    from . import structure
    value, (e, f) = structure.min_t_term_rank(r, s, args.t)
    payload = {"kind": "min_rank", "value": value, "witness": {"e": e, "f": f}}
    return CommandResult("ok", payload)


def _cmd_rank(args) -> CommandResult:
    from . import flow
    a = _load_matrix(args.matrix)
    value = flow.t_term_rank(a, args.t)
    cross_checked = False
    if a.m <= 6 and a.n <= 6:
        from . import oracle
        brute = oracle.brute_t_term_rank(a, args.t)
        if brute != value:
            return _message("error", f"flow rank {value} disagrees with brute force {brute}")
        cross_checked = True
    return CommandResult("ok", {"kind": "rank", "value": value, "cross_checked": cross_checked})


def _cmd_construct_cover(args, r: Partition, s: Partition) -> CommandResult:
    from . import construct
    a = construct.modified_ryser(r, s, args.e, args.f)
    notes = [f"covered by first {args.e} rows and first {args.f} columns"]
    return CommandResult("ok", _matrix_payload(a, notes))


def _parse_cover(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad --cover {text!r}: expected E,F")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"bad --cover {text!r}: expected integers")


def _cmd_construct_two_cover(args, r: Partition, s: Partition) -> CommandResult:
    from . import construct
    if len(args.cover) != 2:
        raise ValueError("exactly two --cover options are required")
    parts = construct.two_cover_parts(r, s, *map(_parse_cover, args.cover))
    (e1, f1), (e2, f2) = parts.cover_wide, parts.cover_tall
    notes = [f"covered by ({e1} rows, {f1} cols) and ({e2} rows, {f2} cols)"]
    return CommandResult("ok", _matrix_payload(parts.matrix, notes))


def _cmd_enumerate(args, r: Partition, s: Partition) -> CommandResult:
    from . import oracle
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


def _cmd_uniform_min(args, r: Partition, s: Partition) -> CommandResult:
    from . import oracle
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
    from . import counterexample
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
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help=f"matrix cap (default {DEFAULT_BUDGET})")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("uniform-min", help="search for a matrix realizing every minimum rank")
    _add_pair_args(p)
    p.add_argument("--tmax", type=int, default=None,
                   help="check ranks 1..TMAX (default: largest row sum)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help=f"matrix cap (default {DEFAULT_BUDGET})")
    p.set_defaults(handler=_cmd_uniform_min)

    p = sub.add_parser(
        "verify-counterexample",
        help="recompute the reference class facts and the cover infeasibility search",
    )
    p.set_defaults(handler=_cmd_verify_counterexample)

    return parser


def _dispatch(args) -> CommandResult:
    # every command given -r and -s gets them parsed, -r first
    pair = ()
    if hasattr(args, "row_sums"):
        pair = (_parse_partition(args.row_sums, "-r"), _parse_partition(args.col_sums, "-s"))
    try:
        return args.handler(args, *pair)
    except Infeasible as exc:
        return _message("infeasible", str(exc))
    except ValueError:
        raise  # a usage error, reported by main
    except ArsError as exc:
        return _message("error", str(exc))


def run(argv: list[str] | None = None) -> CommandResult:
    """Parse argv and execute; each error's class maps it onto a result
    status (see ars.errors), except a usage error, which raises ValueError."""
    return _dispatch(build_parser().parse_args(argv))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = _dispatch(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render_json() if args.json else result.render_text())
    return 1 if result.status == "error" else 0


if __name__ == "__main__":
    sys.exit(main())
