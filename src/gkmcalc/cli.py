"""Command-line front end for batch computation and golden-table emission.

Subcommands: validate, betti, thom, table, pair, structconst, transfer,
integrate, demo.  Graphs come from builder specs (complete:N,
permutahedron:N) or files (file:PATH or a bare path).  Output is the
canonical polynomial rendering, deterministic across runs, written a line
at a time by _emit; --format structured mirrors the same content as JSON.
Exit status: 0 on success, 1 on validation or consistency failures (a
parsed xi of the wrong length or with a zero pairing among them, a transfer
over its path budget), on an exponent above 2**15 - 1 in one variable,
when the reader of standard output closes it early, and on a failed or
short write to it, 2 on usage errors (a malformed graph spec, --xi value
or transfer level, an unreadable graph file, an unreadable or malformed
class file, exactly one of pair's --p and --q).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .builders import build_graph
from .cohomology import CohomologyClass, cocycle_witness, integrate
from .crosssection import chamber_levels, compose_transfer, crossed_vertices
from .demo import run_demo
from .errors import GkmCalcError, InternalConsistencyError, PolarizationError
from .graph import GkmGraph, Polarization, betti, polarize, validate
from .render import _layout_lines, basis_renderer, parse_polynomial
from .symbolic import Polynomial, default_names, format_rational, rat
from .thom import ThomCalculator

USAGE_ERROR = 2
FAILURE = 1


class UsageError(Exception):
    """Malformed command-line input; main reports it and exits USAGE_ERROR."""


def _parse_xi(text: Optional[str]) -> Optional[tuple[Fraction, ...]]:
    if text is None:
        return None
    try:
        return tuple(rat(piece.strip()) for piece in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --xi value {text!r}: {exc}") from exc


def _parse_level(text: str, option: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad {option} value {text!r}: {exc}") from exc


def _build_graph(spec: str) -> GkmGraph:
    try:
        return build_graph(spec)
    except GkmCalcError:
        raise
    except ValueError as exc:  # a size that is not an integer, as in complete:abc
        raise UsageError(f"bad graph spec {spec!r}: {exc}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read graph file {spec!r}: {exc}") from exc


def _graph_and_polarization(args) -> tuple[GkmGraph, Polarization]:
    graph = _build_graph(args.graph)
    return graph, polarize(graph, _parse_xi(getattr(args, "xi", None)))


def _names_and_text(graph: GkmGraph, basis: str):
    """(names, text) for one command: text(value) is the value converted to
    the basis and rendered, each distinct value once per command."""
    names, convert = basis_renderer(graph, basis)
    if names is None:
        names = default_names(graph.dimension)

    @functools.cache
    def text(value: Polynomial) -> str:
        return convert(value).render(names)

    return names, text


def _calculator(args):
    """The set-up of a command on one polarized graph: the graph, its
    polarization, a calculator on it and the command's text function."""
    graph, pol = _graph_and_polarization(args)
    return graph, pol, ThomCalculator(pol), _names_and_text(graph, args.basis)[1]


class _WriteError(Exception):
    """A write to standard output failed or fell short; main reports it and exits FAILURE."""


def _emit(args, lines: Iterable[str], structured: dict) -> None:
    """The one writer to standard output: a write per text line (`lines` is
    read in the text format only), or the structured document in the chunks
    that json.dumps joins.  A closed pipe raises BrokenPipeError, any other
    failed or short write _WriteError."""
    if getattr(args, "format", "text") == "structured":
        chunks = itertools.chain(json.JSONEncoder(indent=2, sort_keys=True).iterencode(structured), ["\n"])
    else:
        chunks = (line + "\n" for line in lines)
    try:
        for chunk in chunks:
            if (written := sys.stdout.write(chunk)) != len(chunk):
                raise _WriteError(f"short write to standard output: {written} of {len(chunk)} characters")
        sys.stdout.flush()  # a failed or closed output raises here, not at interpreter exit
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise _WriteError(f"cannot write to standard output: {exc}") from exc


def cmd_validate(args) -> int:
    try:
        graph = _build_graph(args.graph)
    except GkmCalcError as exc:  # a load failure: one violation per line of its message
        violations = str(exc).splitlines()
    else:
        violations = validate(graph).violations
    if not violations:
        summary = (
            f"[OK] {args.graph}: {len(graph.vertices)} vertices, valence {graph.valence}, "
            f"dimension {graph.dimension}"
        )
        _emit(args, [summary], {"ok": True, "violations": []})
        return 0
    lines = (f"[FAIL] {line}" for line in violations)
    _emit(args, lines, {"ok": False, "violations": violations})
    return FAILURE


def cmd_betti(args) -> int:
    numbers = betti(_build_graph(args.graph), _parse_xi(args.xi))
    _emit(args, [" ".join(str(b) for b in numbers)], {"betti": list(numbers)})
    return 0


def cmd_thom(args) -> int:
    graph, pol, calc, text = _calculator(args)
    if args.minus:
        calc = calc.reversed_calculator()
    compute = calc.thom_class_paths if args.algorithm == "paths" else calc.thom_class_inductive
    cls = compute(graph.vertex_by_label(args.vertex))
    rendered = {graph.label(v): text(cls.values[v]) for v in pol.vertices_by_level()}
    lines = (f"{label}: {value}" for label, value in rendered.items())
    _emit(args, lines, {"vertex": args.vertex, "minus": bool(args.minus), "values": rendered})
    return 0


def _table_column(calc: ThomCalculator, text, base: str):
    """One Thom class rendered to strings: (base label, {vertex label: value})."""
    graph = calc.graph
    cls = calc.thom_class_inductive(base)
    return graph.label(base), {graph.label(v): text(cls.values[v]) for v in graph.vertices}


def cmd_table(args) -> int:
    graph, pol, calc, text = _calculator(args)
    order = pol.vertices_by_level()
    labels = [graph.label(v) for v in order]
    columns = dict(_table_column(calc, text, base) for base in order)
    headers = ["vertex"] + [f"tau[{label}]" for label in labels]
    rows = [[row] + [columns[col][row] for col in labels] for row in labels]
    _emit(args, _layout_lines(headers, rows), {"order": labels, "columns": columns})
    return 0


def cmd_pair(args) -> int:
    if (args.p is None) != (args.q is None):
        raise UsageError("pair takes both --p and --q, or neither")
    graph, pol, calc, text = _calculator(args)
    if args.p is not None:
        value = text(calc.pairing(graph.vertex_by_label(args.p), graph.vertex_by_label(args.q)))
        _emit(args, [value], {"p": args.p, "q": args.q, "integral": value})
        return 0
    order = pol.vertices_by_level()
    labels = [graph.label(v) for v in order]
    matrix = {
        f"{graph.label(p)},{graph.label(q)}": text(calc.pairing(p, q)) for p in order for q in order
    }
    rows = [[row] + [matrix[f"{row},{col}"] for col in labels] for row in labels]
    _emit(args, _layout_lines(["tau+ \\ tau-"] + labels, rows), {"order": labels, "matrix": matrix})
    return 0


def cmd_structconst(args) -> int:
    graph, pol, calc, text = _calculator(args)
    p = graph.vertex_by_label(args.p)
    q = graph.vertex_by_label(args.q)
    targets = [graph.vertex_by_label(args.r)] if args.r is not None else pol.vertices_by_level()
    coefficients = calc.multiplication_constants(p, q)
    lines = []
    structured = {}
    for r, path_value in calc.structure_constants(p, q, targets).items():
        expansion_value = coefficients[r]
        agree = path_value == expansion_value
        rendered = text(path_value)
        label = graph.label(r)
        marker = "" if agree else f"  [MISMATCH expansion: {text(expansion_value)}]"
        lines.append(f"c[{args.p},{args.q} -> {label}] = {rendered}{marker}")
        structured[label] = {
            "paths": rendered,
            "expansion": text(expansion_value),
            "agree": agree,
        }
    _emit(args, lines, {"p": args.p, "q": args.q, "constants": structured})
    return 0 if all(entry["agree"] for entry in structured.values()) else FAILURE


def cmd_transfer(args) -> int:
    graph, pol = _graph_and_polarization(args)
    levels = chamber_levels(pol)
    low = _parse_level(args.from_level, "--from-level") if args.from_level is not None else levels[1]
    if args.to_level is not None:
        high = _parse_level(args.to_level, "--to-level")
    elif not crossed_vertices(pol, levels[1], levels[-1]):
        raise PolarizationError("no vertex lies above the minimum level, so there is nothing to transfer")
    else:
        # below the top vertex, unless that leaves no vertex to cross
        high = levels[-2] if crossed_vertices(pol, levels[1], levels[-2]) else levels[-1]
    matrix = compose_transfer(pol, low, high)
    names, _ = _names_and_text(graph, args.basis)
    markov = matrix.is_markov()
    source, target = matrix.source, matrix.target
    rendered = {vw: value.render(names) for vw, value in matrix.entries.items()}  # each entry once
    key = {eid: graph.edges[eid].key() for eid in source.cut + target.cut}
    lines = [f"transfer {source.level} -> {target.level}: {len(source)} x {len(target)} cut edges"]
    lines += (  # the sweep stores nonzero entries only
        f"  T[{key[v]} -> {key[w]}] = {rendered[v, w]}"
        for w in target.cut
        for v in source.cut
        if (v, w) in rendered
    )
    lines.append(f"markov column sums: {'ok' if markov else 'VIOLATED'}")
    _emit(
        args,
        lines,
        {
            "from": format_rational(source.level),
            "to": format_rational(target.level),
            "entries": {f"{key[v]}|{key[w]}": value for (v, w), value in rendered.items()},
            "markov": markov,
        },
    )
    return 0 if markov else FAILURE


def cmd_integrate(args) -> int:
    graph = _build_graph(args.graph)
    _, text = _names_and_text(graph, args.basis)
    try:
        with open(args.class_file) as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError covers JSON and text decoding
        raise UsageError(f"cannot read class file {args.class_file!r}: {exc}") from exc
    if not isinstance(document, dict) or not all(isinstance(v, str) for v in document.values()):
        raise UsageError(f"class file {args.class_file!r} is not a map of vertex to polynomial")
    coordinate_names = default_names(graph.dimension)
    values = {
        graph.vertex_by_label(label): parse_polynomial(text, coordinate_names)
        for label, text in document.items()
    }
    witness = cocycle_witness(graph, values)
    if witness is not None:
        _emit(args, [f"[FAIL] not a cocycle: {witness}"], {"ok": False, "witness": str(witness)})
        return FAILURE
    value = text(integrate(CohomologyClass(graph, values)))
    _emit(args, [value], {"integral": value})
    return 0


def cmd_demo(args) -> int:
    results = run_demo()
    lines = (
        f"[{'PASS' if r.passed else 'FAIL'}] {r.name}" + (f" ({r.detail})" if r.detail else "")
        for r in results
    )
    checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    _emit(args, lines, {"checks": checks})
    return 0 if all(r.passed for r in results) else FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: every parse
    returns a fresh namespace, so no state passes between commands."""
    parser = argparse.ArgumentParser(
        prog="gkmcalc",
        description="Exact equivariant cohomology of GKM graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, xi=True, basis=True):
        p.add_argument("--graph", required=True, help="complete:N, permutahedron:N or file:PATH")
        if xi:
            p.add_argument("--xi", help="polarizing vector, comma-separated rationals")
        if basis:
            p.add_argument(
                "--basis",
                choices=["x", "roots", "auto"],
                default="auto",
                help="render in coordinates or simple roots (auto: roots for sum-zero weights)",
            )
        p.add_argument(
            "--format", choices=["text", "structured"], default="text", help="output format"
        )

    p = sub.add_parser("validate", help="check the GKM axioms and connection")
    add_common(p, xi=False, basis=False)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("betti", help="Betti numbers by Morse index")
    add_common(p, basis=False)
    p.set_defaults(handler=cmd_betti)

    p = sub.add_parser("thom", help="one Thom class, vertex by vertex")
    add_common(p)
    p.add_argument("--vertex", required=True, help="base vertex (label or name)")
    p.add_argument(
        "--algorithm",
        choices=["paths", "inductive"],
        default="inductive",
        help="inductive: the interpolation engine; paths: the path-sum verifier",
    )
    p.add_argument("--minus", action="store_true", help="descending class instead")
    p.set_defaults(handler=cmd_thom)

    p = sub.add_parser("table", help="all Thom classes as a table")
    add_common(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("pair", help="integrals of tau_p^+ tau_q^-")
    add_common(p)
    p.add_argument("--p", help="ascending base vertex")
    p.add_argument("--q", help="descending base vertex")
    p.set_defaults(handler=cmd_pair)

    p = sub.add_parser(
        "structconst",
        help="structure constants: integrals of Thom classes, each checked by path sums "
        "where the integrand can be nonzero, compared with the Thom-basis expansion",
    )
    add_common(p)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--r", help="target vertex; omit for all")
    p.set_defaults(handler=cmd_structconst)

    p = sub.add_parser("transfer", help="cross-section transfer matrix")
    add_common(p)
    p.add_argument("--from-level", dest="from_level", help="lower regular value")
    p.add_argument("--to-level", dest="to_level", help="upper regular value")
    p.set_defaults(handler=cmd_transfer)

    p = sub.add_parser("integrate", help="localization integral of a class file")
    add_common(p, xi=False)
    p.add_argument("--class-file", required=True, help="JSON map vertex -> polynomial string")
    p.set_defaults(handler=cmd_integrate)

    p = sub.add_parser("demo", help="run the worked-example suite")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(handler=cmd_demo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (BrokenPipeError, _WriteError) as exc:
        if isinstance(exc, _WriteError):  # a closed pipe has no reader to tell
            print(f"[FAIL] {exc}", file=sys.stderr)
        # later writes, the interpreter's final flush included, go nowhere
        with contextlib.suppress(AttributeError, OSError, ValueError):  # a stream without a descriptor
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return FAILURE
    except (GkmCalcError, OverflowError) as exc:
        consistency = isinstance(exc, InternalConsistencyError) and "graph" in args
        spec = f" (graph {args.graph})" if consistency else ""  # enough to reproduce it
        print(f"[FAIL] {type(exc).__name__}: {exc}{spec}", file=sys.stderr)
        return FAILURE
    except UsageError as exc:
        print(f"[FAIL] {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
