"""Command-line surface: one subcommand per library operation plus the
reference-class verification.

One table, `_commands()`, names each command's help line, handler and
options; `parse_args` reads argv against it, and `cli_text` draws the
help pages and usage lines from it.  Each handler imports the layers it
calls, so one call loads only what its command needs, and no call loads
argparse or the gettext and locale modules behind its messages."""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING, Any, NamedTuple, NoReturn

from .errors import ArsError, Infeasible, VerificationFailed
from .partition import Partition, decimal_integer, is_nonempty

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
        from .cli_text import render
        return render(self.status, self.payload)


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
        if by_table != verdict:
            raise VerificationFailed(
                f"Gale-Ryser says nonempty={verdict}, the structure table says {by_table}"
            )
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
    builder = structure.phi_matrix if args.command == "phi" else structure.structure_matrix
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
        return decimal_integer(parts[0], "E"), decimal_integer(parts[1], "F")
    except ValueError as exc:
        raise ValueError(f"bad --cover: {exc}")


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


# an option is (flag, dest, kind, default, help).  kind is str or int
# for a flag that takes one value, the last one given winning; list for
# a flag whose values are kept in order; bool for a switch.  A default
# of ... makes the option required.
_PAIR = (
    ("-r", "row_sums", str, ..., "row sums, comma-separated, e.g. 4,2,2,2,1,1,1"),
    ("-s", "col_sums", str, ..., "column sums, comma-separated"),
)
_BUDGET = ("--budget", "budget", int, DEFAULT_BUDGET, f"matrix cap (default {DEFAULT_BUDGET})")


def _ints(names: str) -> tuple:
    """A required integer option -x for each letter x of names."""
    return tuple((f"-{x}", x, int, ..., "") for x in names)


def _commands() -> dict:
    """name -> (help line, handler, options).  Built per call, so each
    handler is looked up when the call runs."""
    return {
        "nonempty": ("Gale-Ryser test with structure-matrix cross-check", _cmd_nonempty, _PAIR),
        "canonical": ("canonical matrix of the class", _cmd_canonical, _PAIR),
        "structure": ("print the structure matrix", _cmd_table, _PAIR),
        "phi": ("print the phi (cover certificate) table", _cmd_table, _PAIR),
        "psi": ("two-cover quantity psi_{a,b;c,d}", _cmd_psi, _PAIR + _ints("abcd")),
        "min-rank": ("minimum t-term rank over the class", _cmd_min_rank, _PAIR + _ints("t")),
        "rank": (
            "t-term rank of one matrix (flow computation)",
            _cmd_rank,
            _ints("t") + (("--matrix", "matrix", str, ..., "matrix file, or - for stdin"),),
        ),
        "construct-cover": (
            "class member covered by e rows + f columns",
            _cmd_construct_cover,
            _PAIR + _ints("ef"),
        ),
        "construct-two-cover": (
            "class member carrying two prefix covers at once",
            _cmd_construct_two_cover,
            _PAIR + (("--cover", "cover", list, ...,
                      "E,F; give exactly twice, e.g. --cover 2,4 --cover 3,3"),),
        ),
        "enumerate": (
            "list every class member (budgeted)",
            _cmd_enumerate,
            _PAIR + (_BUDGET, ("--count", "count", bool, False, "print only the count")),
        ),
        "uniform-min": (
            "search for a matrix realizing every minimum rank",
            _cmd_uniform_min,
            _PAIR + (("--tmax", "tmax", int, None,
                      "check ranks 1..TMAX (default: largest row sum)"), _BUDGET),
        ),
        "verify-counterexample": (
            "recompute the reference class facts and the cover infeasibility search",
            _cmd_verify_counterexample,
            (),
        ),
    }


class Args:
    """A parsed call: `json`, `command`, `handler` and one attribute per
    option of the command, named by its dest."""

    def __init__(self, **fields: Any):
        self.__dict__.update(fields)


def parse_args(argv: list[str] | None = None) -> Args:
    """The parsed call, read against the `_commands()` table:

        ars [-h|--help] [--json] COMMAND [options]

    An option's flag takes the next token as its value; that token may
    be "-" or a negative integer, but no other word that starts with "-".
    An integer value is read by `decimal_integer`.  Flags are matched
    whole: there are no abbreviations and no --flag=value or -t3 forms.
    -h or --help prints the help page of `ars` or of the command and
    exits 0.  A usage mistake prints the usage line and one error line
    to stderr and exits 2."""
    commands = _commands()
    tokens = iter(sys.argv[1:] if argv is None else argv)
    as_json = False
    for command in tokens:
        if command in ("-h", "--help"):
            _help(commands, None)
        if command != "--json":
            break
        as_json = True
    else:
        _usage_error(commands, None, "the following arguments are required: COMMAND")
    if command not in commands:
        message = (f"unrecognized argument {command!r}" if command.startswith("-")
                   else f"unknown command {command!r}; ars -h lists the commands")
        _usage_error(commands, None, message)
    _, handler, options = commands[command]
    by_flag = {option[0]: option for option in options}
    fields = {dest: default for _, dest, _, default, _ in options if default is not ...}
    for flag in tokens:
        if flag in ("-h", "--help"):
            _help(commands, command)
        if flag not in by_flag:
            _usage_error(commands, command, f"unrecognized argument {flag!r}")
        _, dest, kind, _, _ = by_flag[flag]
        if kind is bool:
            fields[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-") and value != "-" and not value[1:].isdigit():
            _usage_error(commands, command, f"argument {flag}: expected one argument")
        if kind is int:
            try:
                value = decimal_integer(value, "value")
            except ValueError as exc:
                _usage_error(commands, command, f"argument {flag}: {exc}")
        elif kind is list:
            value = [*fields.get(dest, ()), value]
        fields[dest] = value
    missing = [flag for flag, dest, *_ in options if dest not in fields]
    if missing:
        _usage_error(commands, command,
                     f"the following arguments are required: {', '.join(missing)}")
    return Args(json=as_json, command=command, handler=handler, **fields)


def _help(commands: dict, command: str | None) -> NoReturn:
    """Print the help page of ars (command None) or of command; exit 0."""
    from .cli_text import help_page
    sys.stdout.write(help_page(commands, command))
    raise SystemExit(0)


def _usage_error(commands: dict, command: str | None, message: str) -> NoReturn:
    """Print the usage line and the error to stderr; exit 2."""
    from .cli_text import usage_line
    prog = "ars" if command is None else f"ars {command}"
    sys.stderr.write(f"{usage_line(commands, command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


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
    return _dispatch(parse_args(argv))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        result = _dispatch(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render_json() if args.json else result.render_text())
    return 1 if result.status == "error" else 0


if __name__ == "__main__":
    sys.exit(main())
