"""Command-line front end.

Subcommands: formula, oracle, decompose, polytope, scan, verify-paper.
Results go to stdout (JSON unless --table), logs to stderr.  Exit codes:
0 success, 1 domain error (with a machine-readable error object on stdout),
2 usage error.  Every subcommand runs in a single thread.  `scan` and
`verify-paper` take diagrams of the labelled path ideal from the closed form
and those of any other ideal from the Koszul oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .decomposition import (
    build_polytope,
    candidate_degree_sequences,
    enumerate_vertices,
    greedy_decompose,
    prune,
)
from .diagram import BettiDiagram, render_table
from .errors import BettiStabError, InputError
from .koszul_oracle import oracle_plan
from .monomial_ideal import MonomialIdeal, parse_ideal, power
from .path_formula import path_diagram, path_ideal
from .stability import compare_reference, path6_reference, scan_powers


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit_json(obj, path=None) -> None:
    """Indented JSON and a newline, streamed to `path` or stdout: the text is
    never held whole, which on a large scan report would be several times
    the report's own size."""
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                _dump_json(obj, fh)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc
        _log(f"wrote {path}")
    else:
        _dump_json(obj, sys.stdout)


def _dump_json(obj, stream) -> None:
    json.dump(obj, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse_json(text: str, path: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    except ValueError as exc:  # an int over the interpreter's conversion limit
        raise InputError(
            f"an integer in {path} exceeds the {sys.get_int_max_str_digits()}-digit limit"
        ) from exc


def _load_ideal(path: str) -> MonomialIdeal:
    """Ideal files hold either the JSON schema or the generator text syntax
    that `parse_ideal` reads."""
    text = _read_text(path).strip()
    if text.startswith(("{", "[")):
        return MonomialIdeal.from_json_dict(_parse_json(text, path))
    return parse_ideal(text)


def _load_diagram(path: str) -> BettiDiagram:
    return BettiDiagram.from_json_dict(_parse_json(_read_text(path), path))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betti-stab",
        description="Exact Betti diagrams of monomial ideal powers, "
        "decomposition polytopes, and stabilization scans.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("formula", help="closed-form diagram for the path family")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--k", type=int, required=True, help="power of the ideal")
    p.add_argument("--table", action="store_true", help="pretty table, not JSON")

    p = sub.add_parser("oracle", help="Betti diagram via Koszul strand homology")
    p.add_argument("--ideal", required=True, help="ideal file (JSON or text syntax)")
    p.add_argument("--power", type=int, default=1, help="power of the ideal")

    p = sub.add_parser("decompose", help="greedy decomposition of a diagram")
    p.add_argument("--diagram", required=True, help="diagram JSON file")

    p = sub.add_parser("polytope", help="polytope of all decompositions")
    p.add_argument("--diagram", required=True, help="diagram JSON file")
    p.add_argument("--prune", action="store_true", help="drop always-zero coordinates")

    p = sub.add_parser("scan", help="stabilization scan over a power range")
    p.add_argument("--ideal", required=True, help="ideal file (JSON or text syntax)")
    p.add_argument("--kmin", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--json", metavar="OUT", help="write the report to this file")

    p = sub.add_parser(
        "verify-paper",
        help="scan the 6-variable path family and compare against the "
        "built-in reference vertex formulas",
    )
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--kmin", type=int, default=4)
    p.add_argument("--kmax", type=int, default=11)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: a parse leaves no
    state in it, and building one takes longer than most parses."""
    return build_parser()


def run(args: argparse.Namespace) -> int:
    if args.subcommand == "formula":
        diagram = path_diagram(args.n, args.k)
        if args.table:
            print(render_table(diagram))
        else:
            _emit_json(diagram.to_json_dict())
        return 0

    if args.subcommand == "oracle":
        ideal = power(_load_ideal(args.ideal), args.power)
        _log(f"oracle over {ideal.num_vars} variables, {len(ideal.generators)} generators")
        regularity, perms, order, diagram = oracle_plan(ideal)  # what the diagram uses
        _log(
            "no regularity bound"
            if regularity is None
            else f"regularity bound {regularity} (forest or cycle edge-ideal power)"
        )
        plural = "" if len(perms) == 1 else "s"
        _log(f"automorphism group of order {order} ({len(perms)} generator{plural})")
        _emit_json(diagram().to_json_dict())
        return 0

    if args.subcommand == "decompose":
        diagram = _load_diagram(args.diagram)
        _emit_json(greedy_decompose(diagram).to_json_dict())
        return 0

    if args.subcommand == "polytope":
        diagram = _load_diagram(args.diagram)
        polytope = enumerate_vertices(
            build_polytope(diagram, candidate_degree_sequences(diagram))
        )
        if args.prune:
            polytope = prune(polytope)
        _emit_json(polytope.to_json_dict())
        return 0

    if args.subcommand == "scan":
        ideal = _load_ideal(args.ideal)
        report = scan_powers(ideal, args.kmin, args.kmax)
        _log(
            "scan done: "
            + ("stable window %s..%s" % report.window if report.window else "not stabilized in range")
        )
        _emit_json(report.to_json_dict(), args.json)
        return 0

    if args.subcommand == "verify-paper":
        if args.n != 6:
            raise InputError("the built-in reference family covers n = 6 only")
        report = scan_powers(path_ideal(6), args.kmin, args.kmax)
        record = compare_reference(report, path6_reference())
        _log(
            "zero patterns match: %s; reconstruction ok: %s"
            % (record["all_zero_patterns_match"], record["reconstruction_ok"])
        )
        _emit_json(record)
        return 0

    raise InputError(f"unknown subcommand {args.subcommand!r}")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return run(args)
    except BettiStabError as exc:
        _emit_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
