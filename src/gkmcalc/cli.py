"""Command-line front end for batch computation and golden-table emission.

Subcommands: validate, betti, thom, table, pair, structconst, transfer,
integrate, demo.  Graphs come from builder specs (complete:N,
permutahedron:N) or files (file:PATH or a bare path).  Output is the
canonical polynomial rendering, deterministic across runs; --format
structured mirrors the same content as JSON.  Exit status: 0 on success,
1 on validation or consistency failures (a parsed xi of the wrong length
or with a zero pairing among them), on an exponent above 2**15 - 1 in one
variable, and when the reader of standard output closes it early, 2 on
usage errors (a malformed graph spec, --xi value or transfer level, an
unreadable graph file, an unreadable or malformed class file, exactly one
of pair's --p and --q).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .builders import build_graph
from .cohomology import CohomologyClass, cocycle_witness, integrate
from .crosssection import chamber_levels, compose_transfer
from .demo import run_demo
from .errors import GkmCalcError
from .graph import GkmGraph, Polarization, betti, polarize, validate
from .render import basis_renderer, layout_table, parse_polynomial
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


def _emit(args, text: str, structured: dict) -> None:
    if getattr(args, "format", "text") == "structured":
        print(json.dumps(structured, indent=2, sort_keys=True))
    else:
        print(text)


def _names_and_convert(graph: GkmGraph, basis: str):
    names, convert = basis_renderer(graph, basis)
    if names is None:
        names = default_names(graph.dimension)
    return names, convert


def cmd_validate(args) -> int:
    try:
        graph = _build_graph(args.graph)
    except GkmCalcError as exc:
        _emit(args, f"[FAIL] {exc}", {"ok": False, "violations": [str(exc)]})
        return FAILURE
    report = validate(graph)
    if report.ok:
        _emit(
            args,
            f"[OK] {args.graph}: {len(graph.vertices)} vertices, valence {graph.valence}, "
            f"dimension {graph.dimension}",
            {"ok": True, "violations": []},
        )
        return 0
    text = "\n".join(f"[FAIL] {line}" for line in report.violations)
    _emit(args, text, {"ok": False, "violations": report.violations})
    return FAILURE


def cmd_betti(args) -> int:
    numbers = betti(_build_graph(args.graph), _parse_xi(args.xi))
    _emit(args, " ".join(str(b) for b in numbers), {"betti": list(numbers)})
    return 0


def _class_lines(
    graph: GkmGraph, pol: Polarization, values: dict[str, Polynomial], basis: str
) -> tuple[list[str], dict[str, str]]:
    names, convert = _names_and_convert(graph, basis)
    rendered = {
        graph.label(v): convert(values[v]).render(names) for v in pol.vertices_by_level()
    }
    lines = [f"{label}: {value}" for label, value in rendered.items()]
    return lines, rendered


def cmd_thom(args) -> int:
    graph, pol = _graph_and_polarization(args)
    calc = ThomCalculator(pol)
    if args.minus:
        calc = calc.reversed_calculator()
    vertex = graph.vertex_by_label(args.vertex)
    if args.algorithm == "paths":
        cls = calc.thom_class_paths(vertex)
    else:
        cls = calc.thom_class_inductive(vertex)
    lines, rendered = _class_lines(graph, pol, dict(cls.values), args.basis)
    _emit(
        args,
        "\n".join(lines),
        {"vertex": args.vertex, "minus": bool(args.minus), "values": rendered},
    )
    return 0


def _table_column(calc: ThomCalculator, names, convert, base: str):
    """One Thom class rendered to strings: (base label, {vertex label: value})."""
    graph = calc.graph
    cls = calc.thom_class_inductive(base)
    return graph.label(base), {
        graph.label(v): convert(cls.values[v]).render(names) for v in graph.vertices
    }


def cmd_table(args) -> int:
    graph, pol = _graph_and_polarization(args)
    calc = ThomCalculator(pol)
    names, convert = _names_and_convert(graph, args.basis)
    order = pol.vertices_by_level()
    labels = [graph.label(v) for v in order]
    columns = dict(_table_column(calc, names, convert, base) for base in order)
    headers = ["vertex"] + [f"tau[{label}]" for label in labels]
    rows = [[row_label] + [columns[col][row_label] for col in labels] for row_label in labels]
    _emit(args, layout_table(headers, rows), {"order": labels, "columns": columns})
    return 0


def cmd_pair(args) -> int:
    if (args.p is None) != (args.q is None):
        raise UsageError("pair takes both --p and --q, or neither")
    graph, pol = _graph_and_polarization(args)
    calc = ThomCalculator(pol)
    names, convert = _names_and_convert(graph, args.basis)
    if args.p is not None:
        value = calc.pairing(graph.vertex_by_label(args.p), graph.vertex_by_label(args.q))
        text = convert(value).render(names)
        _emit(args, text, {"p": args.p, "q": args.q, "integral": text})
        return 0
    order = pol.vertices_by_level()
    labels = [graph.label(v) for v in order]
    matrix = {}
    rows = []
    for p in order:
        row = []
        for q in order:
            text = convert(calc.pairing(p, q)).render(names)
            matrix[f"{graph.label(p)},{graph.label(q)}"] = text
            row.append(text)
        rows.append([graph.label(p)] + row)
    headers = ["tau+ \\ tau-"] + labels
    _emit(args, layout_table(headers, rows), {"order": labels, "matrix": matrix})
    return 0


def cmd_structconst(args) -> int:
    graph, pol = _graph_and_polarization(args)
    calc = ThomCalculator(pol)
    names, convert = _names_and_convert(graph, args.basis)
    p = graph.vertex_by_label(args.p)
    q = graph.vertex_by_label(args.q)
    targets = [graph.vertex_by_label(args.r)] if args.r else pol.vertices_by_level()
    coefficients = calc.multiplication_constants(p, q)
    lines = []
    structured = {}
    for r in targets:
        path_value = calc.structure_constant(p, q, r)
        expansion_value = coefficients[r]
        agree = path_value == expansion_value
        rendered = convert(path_value).render(names)
        label = graph.label(r)
        marker = "" if agree else f"  [MISMATCH expansion: {convert(expansion_value).render(names)}]"
        lines.append(f"c[{args.p},{args.q} -> {label}] = {rendered}{marker}")
        structured[label] = {
            "paths": rendered,
            "expansion": convert(expansion_value).render(names),
            "agree": agree,
        }
    _emit(args, "\n".join(lines), {"p": args.p, "q": args.q, "constants": structured})
    return 0 if all(entry["agree"] for entry in structured.values()) else FAILURE


def cmd_transfer(args) -> int:
    graph, pol = _graph_and_polarization(args)
    levels = chamber_levels(pol)
    low = _parse_level(args.from_level, "--from-level") if args.from_level else levels[1]
    if args.to_level:
        high = _parse_level(args.to_level, "--to-level")
    else:
        high = levels[-2] if len(levels) > 2 else levels[-1]
    matrix = compose_transfer(pol, low, high)
    names, _ = _names_and_convert(graph, args.basis)
    markov = matrix.is_markov()
    text = matrix.render(names) + f"\nmarkov column sums: {'ok' if markov else 'VIOLATED'}"
    entries = {
        f"{graph.edges[v].key()}|{graph.edges[w].key()}": value.render(names)
        for (v, w), value in sorted(matrix.entries.items())
    }
    _emit(
        args,
        text,
        {
            "from": format_rational(matrix.source.level),
            "to": format_rational(matrix.target.level),
            "entries": entries,
            "markov": markov,
        },
    )
    return 0 if markov else FAILURE


def cmd_integrate(args) -> int:
    graph, pol = _graph_and_polarization(args)
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
        _emit(args, f"[FAIL] not a cocycle: {witness}", {"ok": False, "witness": str(witness)})
        return FAILURE
    result = integrate(CohomologyClass(graph, values))
    names, convert = _names_and_convert(graph, args.basis)
    text = convert(result).render(names)
    _emit(args, text, {"integral": text})
    return 0


def cmd_demo(args) -> int:
    results = run_demo()
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        suffix = f" ({result.detail})" if result.detail else ""
        lines.append(f"[{status}] {result.name}{suffix}")
    ok = all(r.passed for r in results)
    _emit(
        args,
        "\n".join(lines),
        {"checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]},
    )
    return 0 if ok else FAILURE


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
        help="structure constants: integrals of Thom classes checked by path sums, "
        "compared with the Thom-basis expansion",
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
    add_common(p)
    p.add_argument("--class-file", required=True, help="JSON map vertex -> polynomial string")
    p.set_defaults(handler=cmd_integrate)

    p = sub.add_parser("demo", help="run the worked-example suite")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(handler=cmd_demo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # later writes, the interpreter's final flush included, go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return FAILURE
    except (GkmCalcError, OverflowError) as exc:
        print(f"[FAIL] {type(exc).__name__}: {exc}", file=sys.stderr)
        return FAILURE
    except UsageError as exc:
        print(f"[FAIL] {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
