"""The benchmark's workloads: seeded polarizing vectors and command lists.

Every workload is a closed loop with one client: commands run one after
another through ``gkmcalc.cli.main``, each waiting for the previous one.

The seed draws each graph's xi as distinct positive integers inside the
builder's chamber (increasing for ``permutahedron:n``, decreasing for
``complete:n``).  Inside that chamber Thom classes, pairings and structure
constants do not depend on xi, so one reference output serves every seed.
Transfer entries do depend on xi, so ``transfer`` runs at the builder's
default xi.

The draw also asks that all pairwise differences of xi be distinct.  Edge
weights of both builders are differences x_i - x_j, so this keeps the edge
pairings alpha(xi) distinct and keeps every seed away from the default xi
of ``complete:7``, whose gaps are all 1 and whose table took 1.6 times as
long as seeded draws in one measurement.
"""

from __future__ import annotations

import itertools
import random

XI_LIMIT = 64

S3 = "permutahedron:3"
S4 = "permutahedron:4"
K5 = "complete:5"
K7 = "complete:7"

S3_VERTICES = ["123", "213", "132", "231", "312", "321"]
S4_VERTICES = ["".join(p) for p in itertools.permutations("1234")]

WORKLOADS = ("session", "s4-table", "k7-table")


def draw_xi(rng: random.Random, spec: str) -> tuple[int, ...]:
    """Distinct positive integers in the builder's chamber, with distinct
    pairwise differences."""
    kind, _, size = spec.partition(":")
    n = int(size)
    while True:
        values = sorted(rng.sample(range(1, XI_LIMIT + 1), n))
        gaps = [b - a for a, b in itertools.combinations(values, 2)]
        if len(set(gaps)) == len(gaps):
            break
    if kind == "complete":
        values.reverse()
    return tuple(values)


def seeded_xi(seed: int, specs) -> dict[str, str]:
    """One xi per graph spec, as the CLI's comma-separated text."""
    rng = random.Random(seed)
    return {spec: ",".join(map(str, draw_xi(rng, spec))) for spec in specs}


def graphs(workload: str) -> tuple[str, ...]:
    """The graph specs a workload builds, in the order it first builds them."""
    return {
        "xi-check": (S3, K5),
        "session": (S3, K5, S4),
        "s4-table": (S4,),
        "k7-table": (K7,),
    }[workload]


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv lists one pass of a workload runs, in order."""
    xi = seeded_xi(seed, graphs(workload))
    if workload == "s4-table":
        return [["table", "--graph", S4, "--xi", xi[S4]]]
    if workload == "k7-table":
        return [["table", "--graph", K7, "--xi", xi[K7]]]
    if workload not in ("session", "xi-check"):
        raise ValueError(f"unknown workload {workload!r}")
    # xi-check: the commands on S_3 and K_5 whose output does not depend on xi
    session = [
        ["structconst", "--graph", S3, "--xi", xi[S3], "--p", p, "--q", q]
        for p in S3_VERTICES
        for q in S3_VERTICES
    ]
    session += [
        ["pair", "--graph", S3, "--xi", xi[S3]],
        ["table", "--graph", S3, "--xi", xi[S3]],
        ["pair", "--graph", K5, "--xi", xi[K5]],
    ]
    if workload == "xi-check":
        return session
    session += [
        ["thom", "--graph", S4, "--xi", xi[S4], "--vertex", v, "--algorithm", "inductive"]
        for v in S4_VERTICES
    ]
    session += [["transfer", "--graph", S3], ["transfer", "--graph", S4]]
    return session


def reference_key(argv: list[str]) -> str:
    """The key of a command's reference output: its argv without ``--xi``."""
    out = []
    skip = False
    for token in argv:
        if skip:
            skip = False
        elif token == "--xi":
            skip = True
        else:
            out.append(token)
    return " ".join(out)
