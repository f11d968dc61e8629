"""Write perfbench/reference.json: the expected output of every command.

    python3 perfbench/make_reference.py

Run from the root of the repository.  Every command of every workload runs
once at the builder's default xi through ``gkmcalc.cli.main``; its standard
output is stored under the command line without ``--xi``.  Before writing,
each ``table`` output is checked against a table rebuilt from
``thom_class_inductive``, a route independent of the path sums the CLI
uses, and the S_3 table against ``tests/data/flag3_table.txt``.  Any
non-zero exit or mismatch aborts without writing.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from child import REFERENCE, import_program  # noqa: E402

FLAG3_GOLDEN = Path("tests/data/flag3_table.txt")


def inductive_table(spec: str) -> str:
    """The CLI's table layout, filled from thom_class_inductive."""
    from gkmcalc.builders import build_graph
    from gkmcalc.graph import polarize
    from gkmcalc.render import basis_renderer, layout_table
    from gkmcalc.symbolic import default_names
    from gkmcalc.thom import ThomCalculator

    graph = build_graph(spec)
    pol = polarize(graph)
    calc = ThomCalculator(pol)
    names, convert = basis_renderer(graph, "auto")
    names = names or default_names(graph.dimension)
    order = pol.vertices_by_level()
    labels = [graph.label(v) for v in order]
    columns = {v: calc.thom_class_inductive(v).values for v in order}
    rows = [
        [graph.label(row)] + [convert(columns[col][row]).render(names) for col in order]
        for row in order
    ]
    return layout_table(["vertex"] + [f"tau[{label}]" for label in labels], rows) + "\n"


def main() -> int:
    cli = import_program()
    reference: dict[str, str] = {}
    for workload in workloads.WORKLOADS:
        for argv in workloads.commands(workload, seed=0):
            key = workloads.reference_key(argv)
            if key in reference:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(key.split())
            if code != 0:
                print(f"{key}: exit {code}", file=sys.stderr)
                return 1
            reference[key] = out.getvalue()
            print(f"recorded {key}", file=sys.stderr)
    for key, text in reference.items():
        command, _, spec = key.split()[:3]
        if command == "table" and text != inductive_table(spec):
            print(f"{key}: differs from the table built by thom_class_inductive", file=sys.stderr)
            return 1
    if reference[f"table --graph {workloads.S3}"] != FLAG3_GOLDEN.read_text():
        print(f"S_3 table differs from {FLAG3_GOLDEN}", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} reference outputs to {REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
