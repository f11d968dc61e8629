#!/usr/bin/env python3
"""Multiplication table of the Thom basis on the flag variety of SL(3).

Prints, for every pair of basis classes, the expansion of their product in
the basis, computed two ways: by triangular expansion and by the
localization integrals of the classes that the path sums check.  The two
must agree at every r, zero coefficients included; on a disagreement the
script names it on stderr and exits 1.
"""

import sys

from gkmcalc.builders import permutahedron
from gkmcalc.graph import polarize
from gkmcalc.render import basis_renderer
from gkmcalc.thom import ThomCalculator


def main() -> int:
    graph = permutahedron(3)
    pol = polarize(graph)
    calc = ThomCalculator(pol)
    names, convert = basis_renderer(graph, "roots")
    order = pol.vertices_by_level()
    for p in order:
        for q in order:
            coefficients = calc.multiplication_constants(p, q)
            terms = []
            for r, integral in calc.structure_constants(p, q, order).items():
                if integral != coefficients[r]:
                    print(
                        f"c[{graph.label(p)},{graph.label(q)} -> {graph.label(r)}]: integral "
                        f"{integral.render()} but expansion {coefficients[r].render()}",
                        file=sys.stderr,
                    )
                    return 1
                if coefficients[r].is_zero:
                    continue
                rendered = convert(coefficients[r]).render(names)
                label = graph.label(r)
                if rendered == "1":
                    terms.append(f"tau[{label}]")
                elif "+" in rendered or "-" in rendered[1:]:
                    terms.append(f"({rendered})*tau[{label}]")
                else:
                    terms.append(f"{rendered}*tau[{label}]")
            product = " + ".join(terms) if terms else "0"
            print(f"tau[{graph.label(p)}] * tau[{graph.label(q)}] = {product}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
