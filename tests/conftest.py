import json
from pathlib import Path

import pytest

from gkmcalc.builders import complete_graph, load_graph, permutahedron
from gkmcalc.graph import polarize
from gkmcalc.thom import ThomCalculator

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def flag3():
    return permutahedron(3)


@pytest.fixture(scope="session")
def flag3_calc(flag3):
    return ThomCalculator(polarize(flag3))


@pytest.fixture(scope="session")
def k5_calc():
    return ThomCalculator(polarize(complete_graph(5)))


@pytest.fixture(scope="session")
def s4_calc():
    return ThomCalculator(polarize(permutahedron(4)))


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture
def hirzebruch(tmp_path):
    """Builds F_a as TestHirzebruchSurfaces in test_cli.py builds it: a
    square with weights (1,0), (a,1), (-1,0), (0,-1) and no connection."""

    def build(a):
        edges = [("s1", "s2", (1, 0)), ("s2", "s3", (a, 1)), ("s3", "s4", (-1, 0)), ("s4", "s1", (0, -1))]
        document = {
            "dimension": 2,
            "vertices": ["s1", "s2", "s3", "s4"],
            "edges": [{"from": f, "to": t, "weight": [str(c) for c in w]} for f, t, w in edges],
        }
        path = tmp_path / f"hirzebruch{a}.graph"
        path.write_text(json.dumps(document))
        return load_graph(path)

    return build
