import json
import os
import random
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from gkmcalc import builders
from gkmcalc import graph as graph_module
from gkmcalc.cli import main
from gkmcalc.graph import polarize
from gkmcalc.thom import ThomCalculator

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestThomCommand:
    def test_flag_variety_class_listing(self, capsys):
        code, out, _ = run(
            capsys, "thom", "--graph", "permutahedron:3", "--vertex", "(12)"
        )
        assert code == 0
        assert "(13): -a1 - a2" in out
        assert len(out.strip().splitlines()) == 6

    def test_inductive_agrees(self, capsys):
        code, out_paths, _ = run(
            capsys,
            "thom",
            "--graph",
            "permutahedron:3",
            "--vertex",
            "(231)",
            "--algorithm",
            "paths",
        )
        code2, out_inductive, _ = run(
            capsys,
            "thom",
            "--graph",
            "permutahedron:3",
            "--vertex",
            "(231)",
            "--algorithm",
            "inductive",
        )
        assert code == code2 == 0
        assert out_paths == out_inductive

    def test_coordinate_basis(self, capsys):
        code, out, _ = run(
            capsys,
            "thom",
            "--graph",
            "complete:3",
            "--vertex",
            "p2",
            "--basis",
            "x",
        )
        assert code == 0
        assert "p2: -x1 + x2" in out

    def test_structured_output(self, capsys):
        code, out, _ = run(
            capsys,
            "thom",
            "--graph",
            "permutahedron:3",
            "--vertex",
            "(12)",
            "--format",
            "structured",
        )
        assert code == 0
        document = json.loads(out)
        assert document["values"]["(13)"] == "-a1 - a2"

    def test_class_serialization_golden(self, capsys, data_dir):
        code, out, _ = run(
            capsys,
            "thom",
            "--graph",
            "permutahedron:3",
            "--vertex",
            "(12)",
            "--format",
            "structured",
        )
        assert code == 0
        golden = json.loads((data_dir / "flag3_tau12.json").read_text())
        assert json.loads(out)["values"] == golden

    def test_minus_class(self, capsys):
        code, out, _ = run(
            capsys, "thom", "--graph", "permutahedron:3", "--vertex", "(13)", "--minus"
        )
        assert code == 0
        assert all(line.endswith(": 1") for line in out.strip().splitlines())

    def test_one_parser_per_process(self):
        from gkmcalc.cli import build_parser

        assert build_parser() is build_parser()

    def test_no_parsed_state_between_commands(self, capsys, data_dir):
        # the shared parser must not carry --minus over to the next command
        argv = ["thom", "--graph", "permutahedron:3", "--vertex", "(12)", "--format", "structured"]
        code, out, _ = run(capsys, *argv, "--minus")
        assert code == 0 and json.loads(out)["minus"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        document = json.loads(out)
        assert not document["minus"]
        assert document["values"] == json.loads((data_dir / "flag3_tau12.json").read_text())

    def test_minus_honours_algorithm(self, capsys, monkeypatch):
        from gkmcalc.thom import ThomCalculator

        argv = ["thom", "--graph", "permutahedron:3", "--vertex", "(12)", "--minus"]
        by_paths = run(capsys, *argv, "--algorithm", "paths")
        monkeypatch.setattr(ThomCalculator, "paths_from", None)
        assert run(capsys, *argv, "--algorithm", "inductive") == by_paths
        assert by_paths[0] == 0

    def test_table_worker_roundtrip(self):
        # the per-column renderer of the table command must be callable
        # standalone and deterministic
        from gkmcalc.cli import _names_and_text, _table_column
        from gkmcalc.builders import build_graph
        from gkmcalc.graph import polarize
        from gkmcalc.thom import ThomCalculator

        graph = build_graph("permutahedron:3")
        _, text = _names_and_text(graph, "auto")
        base = graph.vertex_by_label("(12)")

        def column():
            return _table_column(ThomCalculator(polarize(graph)), text, base)

        label, values = column()
        assert label == "(12)"
        assert values["(13)"] == "-a1 - a2"
        assert column()[1] == values


class TestSingleEngine:
    @pytest.fixture
    def no_paths(self, monkeypatch):
        from gkmcalc.thom import ThomCalculator

        def refuse(self, start):
            raise AssertionError("path enumeration reached from table or pair")

        monkeypatch.setattr(ThomCalculator, "paths_from", refuse)

    def test_table_without_paths(self, capsys, data_dir, no_paths):
        code, out, _ = run(capsys, "table", "--graph", "permutahedron:3")
        assert code == 0
        assert out == (data_dir / "flag3_table.txt").read_text()

    def test_pair_without_paths(self, capsys, no_paths):
        code, out, _ = run(capsys, "pair", "--graph", "permutahedron:3", "--format", "structured")
        assert code == 0
        for key, value in json.loads(out)["matrix"].items():
            p, q = key.split(",")
            assert value == ("1" if p == q else "0")


class TestBettiCommand:
    def test_complete_five(self, capsys):
        code, out, _ = run(capsys, "betti", "--graph", "complete:5")
        assert code == 0
        assert out.strip() == "1 1 1 1 1"

    def test_flag_variety(self, capsys):
        code, out, _ = run(capsys, "betti", "--graph", "permutahedron:3")
        assert code == 0
        assert out.strip() == "1 2 2 1"


class TestValidateCommand:
    def test_valid_graph(self, capsys):
        code, out, _ = run(capsys, "validate", "--graph", "complete:4")
        assert code == 0
        assert out.startswith("[OK]")

    def test_broken_file_nonzero_exit(self, capsys, data_dir):
        code, out, err = run(
            capsys, "validate", "--graph", str(data_dir / "broken.graph")
        )
        assert code != 0
        assert "reversed weight" in out + err

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_one_fail_line_per_file_violation(self, capsys, tmp_path, fmt):
        # a triangle whose weights are all multiples of x1: parallel at every vertex
        edges = [("a", "b", ["1", "0"]), ("b", "c", ["2", "0"]), ("a", "c", ["3", "0"])]
        document = {
            "dimension": 2,
            "vertices": ["a", "b", "c"],
            "edges": [{"from": f, "to": t, "weight": w} for f, t, w in edges],
        }
        path = tmp_path / "parallel.graph"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "validate", "--graph", str(path), "--format", fmt)
        assert (code, err) == (1, "")
        if fmt == "structured":
            result = json.loads(out)
            assert result["ok"] is False
            lines = [f"[FAIL] {violation}" for violation in result["violations"]]
        else:
            lines = out.splitlines()
        assert sum("GKM condition fails" in line for line in lines) == 3
        assert all(line.startswith("[FAIL] ") and "\n" not in line for line in lines)


    def test_a_graph_file_is_validated_once(self, capsys, monkeypatch, data_dir):
        calls = {"validate_axial": 0, "_validate_connection": 0}
        for name in calls:
            check = getattr(graph_module, name)

            def counted(*args, name=name, check=check):
                calls[name] += 1
                return check(*args)

            monkeypatch.setattr(graph_module, name, counted)
            monkeypatch.setattr(builders, name, counted, raising=False)  # a loader's own binding
        code, out, _ = run(capsys, "validate", "--graph", str(data_dir / "square_diagonal.graph"))
        assert (code, calls) == (0, {"validate_axial": 1, "_validate_connection": 1})
        assert out.startswith("[OK]")


class TestAmbiguousLabels:
    # cmd_table keys its columns and rows by label, and vertex_by_label
    # resolves a vertex name before a label, so either graph would print a
    # wrong table or class

    @pytest.mark.parametrize(
        "labels,message",
        [
            ({"p1": "x", "p2": "x"}, "label 'x' of p2 also names p1"),
            ({"p1": "p2", "p2": "p1"}, "label 'p2' of p1 also names p2"),
        ],
        ids=["shared", "swapped"],
    )
    def test_rejected_at_load(self, capsys, tmp_path, data_dir, labels, message):
        document = json.loads((data_dir / "square_diagonal.graph").read_text())
        path = tmp_path / "labelled.graph"
        path.write_text(json.dumps({**document, "labels": labels}))
        for argv in (["table"], ["thom", "--vertex", "p1"], ["table", "--format", "structured"]):
            assert run(capsys, *argv, "--graph", str(path)) == (1, "", f"[FAIL] FormatError: {message}\n")
        assert run(capsys, "validate", "--graph", str(path)) == (1, f"[FAIL] {message}\n", "")

    def test_a_label_may_be_the_vertex_name(self, capsys, tmp_path, data_dir):
        document = json.loads((data_dir / "square_diagonal.graph").read_text())
        path = tmp_path / "labelled.graph"
        path.write_text(json.dumps({**document, "labels": {"p1": "p1", "p2": "b"}}))
        code, out, _ = run(capsys, "thom", "--graph", str(path), "--vertex", "b")
        assert code == 0
        assert out.splitlines()[-2:] == ["b: 2*x1^2 - x1*x2 - x2^2", "p1: 2*x1^2 + 2*x1*x2"]


class TestTableCommand:
    def test_golden_flag_table(self, capsys, data_dir):
        code, out, _ = run(capsys, "table", "--graph", "permutahedron:3")
        assert code == 0
        golden = (data_dir / "flag3_table.txt").read_text()
        assert out == golden

    def test_determinism(self, capsys):
        first = run(capsys, "table", "--graph", "complete:4")
        second = run(capsys, "table", "--graph", "complete:4")
        assert first == second

    def test_each_distinct_value_converted_once(self, capsys, monkeypatch):
        # the S_4 table has 576 cells holding 42 distinct values
        import gkmcalc.render

        converted = []
        to_root_basis = gkmcalc.render.to_root_basis
        monkeypatch.setattr(
            gkmcalc.render,
            "to_root_basis",
            lambda poly: converted.append(poly) or to_root_basis(poly),
        )
        code, out, _ = run(capsys, "table", "--graph", "permutahedron:4")
        assert code == 0
        assert len(out.splitlines()) == 2 + 24
        assert len(converted) == len(set(converted)) == 42

    def test_each_interpolation_node_scaled_once(self, capsys, monkeypatch):
        # one node ahat_e = alpha_e/alpha_e(xi) per descending edge: the 72
        # edges of S_4, whichever classes and vertices share it
        from gkmcalc.symbolic import LinearForm

        scaled = []
        scale = LinearForm.scale
        monkeypatch.setattr(
            LinearForm, "scale", lambda form, factor: scaled.append(form) or scale(form, factor)
        )
        code, _, _ = run(capsys, "table", "--graph", "permutahedron:4")
        assert code == 0
        assert len(scaled) <= 72

    def test_class_the_engine_cannot_fix_fails_the_table(self, capsys, data_dir):
        # the pentagon's tau_E is not fixed at D (one descending edge); the
        # classes the engine can fix are still printed by thom
        spec = str(data_dir / "pentagon.graph")
        assert run(capsys, "table", "--graph", spec) == (
            1,
            "",
            "[FAIL] PolarizationError: Thom class of E is not fixed at D: "
            "degree 1 needs 2 descending edges there, and it has 1\n",
        )
        assert run(capsys, "thom", "--graph", spec, "--vertex", "B") == (
            0,
            "A: 0\nB: -x1\nE: 0\nD: 0\nC: -x1 + x2\n",
            "",
        )


class TestPairCommand:
    def test_single_entry(self, capsys):
        code, out, _ = run(
            capsys,
            "pair",
            "--graph",
            "permutahedron:3",
            "--p",
            "(12)",
            "--q",
            "(12)",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_matrix_is_identity(self, capsys):
        code, out, _ = run(capsys, "pair", "--graph", "complete:3", "--format", "structured")
        assert code == 0
        document = json.loads(out)
        for key, value in document["matrix"].items():
            p, q = key.split(",")
            assert value == ("1" if p == q else "0")


class TestStructconstCommand:
    def test_flag_product(self, capsys):
        code, out, _ = run(
            capsys,
            "structconst",
            "--graph",
            "permutahedron:3",
            "--p",
            "(12)",
            "--q",
            "(23)",
        )
        assert code == 0
        assert "c[(12),(23) -> (231)] = 1" in out
        assert "MISMATCH" not in out

    def test_mismatch_is_marked_and_fails(self, capsys, monkeypatch):
        # perturb one expansion coefficient: the integral must disagree there
        from gkmcalc.symbolic import Polynomial
        from gkmcalc.thom import ThomCalculator

        expand = ThomCalculator.multiplication_constants

        def perturbed(self, p, q):
            coefficients = expand(self, p, q)
            r = self.graph.vertex_by_label("(231)")
            coefficients[r] = coefficients[r] + Polynomial.one(self.graph.dimension)
            return coefficients

        monkeypatch.setattr(ThomCalculator, "multiplication_constants", perturbed)
        argv = ["structconst", "--graph", "permutahedron:3", "--p", "(12)", "--q", "(23)"]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert "c[(12),(23) -> (231)] = 1  [MISMATCH expansion: 2]" in out.splitlines()
        assert out.count("MISMATCH") == 1
        code, out, _ = run(capsys, *argv, "--format", "structured")
        assert code == 1
        constants = json.loads(out)["constants"]
        assert constants["(231)"] == {"paths": "1", "expansion": "2", "agree": False}
        assert [label for label, entry in constants.items() if not entry["agree"]] == ["(231)"]

    def test_path_classes_enumerate_no_path(self, capsys, monkeypatch):
        # path classes are carried edge by edge: neither command may walk
        # or weigh a single path
        from gkmcalc.thom import ThomCalculator

        def refuse(self, *args):
            raise AssertionError("a single path was enumerated or weighed")

        for name in ("paths_from", "path_weight", "path_sum"):
            monkeypatch.setattr(ThomCalculator, name, refuse)
        code, out, _ = run(
            capsys, "structconst", "--graph", "permutahedron:3", "--p", "(12)", "--q", "1"
        )
        assert code == 0 and "MISMATCH" not in out
        for minus in ([], ["--minus"]):
            code, _, _ = run(
                capsys,
                "thom",
                "--graph",
                "permutahedron:3",
                "--vertex",
                "(12)",
                "--algorithm",
                "paths",
                *minus,
            )
            assert code == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_all_targets_print_the_single_entries(self, capsys, seed):
        # one call over every r prints, line for line and entry for entry,
        # what the commands with one --r print
        graph = builders.permutahedron(4)
        rng = random.Random(seed)
        p, q = (graph.label(rng.choice(graph.vertices)) for _ in range(2))
        argv = ["structconst", "--graph", "permutahedron:4", "--p", p, "--q", q]
        code, text, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--format", "structured")
        assert code == 0
        document = json.loads(out)
        lines = text.splitlines()
        assert len(lines) == len(document["constants"]) == 24
        for line in lines:
            r = re.match(rf"c\[{p},{q} -> (\d+)\] = ", line).group(1)
            assert run(capsys, *argv, "--r", r) == (0, line + "\n", "")
            code, out, _ = run(capsys, *argv, "--r", r, "--format", "structured")
            assert code == 0
            assert json.loads(out) == {**document, "constants": {r: document["constants"][r]}}

    def test_sampled_s5_entries_equal_their_expansion(self, capsys):
        # exit 0 means the integral, read from the classes checked where its
        # integrand can be nonzero, equals the Thom-basis expansion; r is
        # drawn from up(p) & up(q), below the degree sigma_p + sigma_q
        graph = builders.permutahedron(5)
        pol = polarize(graph)
        calc = ThomCalculator(pol)
        order = pol.vertices_by_level()
        rng = random.Random(24)
        entries = [("21345", "13245", "32145")]
        for _ in range(5):
            p, q = rng.choice(order), rng.choice(order)
            up = calc.path_counts(p).keys() & calc.path_counts(q).keys()
            r = rng.choice([v for v in order if v in up and pol.sigma[v] <= pol.sigma[p] + pol.sigma[q]])
            entries.append(tuple(map(graph.label, (p, q, r))))
        nonzero = 0
        for p, q, r in entries:
            argv = ["structconst", "--graph", "permutahedron:5", "--p", p, "--q", q, "--r", r]
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert out.startswith(f"c[{p},{q} -> {r}] = ") and "MISMATCH" not in out
            nonzero += not out.endswith(" = 0\n")
        assert nonzero >= 3  # the sample is not all zeros


class TestTransferCommand:
    def test_markov_reported(self, capsys):
        code, out, _ = run(capsys, "transfer", "--graph", "permutahedron:3")
        assert code == 0
        assert "markov column sums: ok" in out

    @pytest.mark.parametrize("spec", ["complete:2", "permutahedron:2"])
    def test_default_levels_on_two_vertices(self, capsys, spec):
        # nothing lies between the two vertices, so the default sweep runs
        # past the top one
        code, out, err = run(capsys, "transfer", "--graph", spec)
        assert (code, err) == (0, "")
        assert out.splitlines() == ["transfer 2/3 -> 7/3: 1 x 0 cut edges", "markov column sums: ok"]
        explicit = run(capsys, "transfer", "--graph", spec, "--from-level", "2/3", "--to-level", "7/3")
        assert explicit == (0, out, "")

    def test_default_levels_on_one_vertex(self, capsys):
        code, out, err = run(capsys, "transfer", "--graph", "complete:1")
        assert code == 1
        assert out == ""
        assert "no vertex lies above the minimum level" in err
        assert "need c < c'" not in err


    def test_graph_without_vertices(self, capsys, tmp_path):
        path = tmp_path / "empty.graph"
        path.write_text(json.dumps({"dimension": 1, "vertices": [], "edges": [], "xi": ["1"]}))
        code, out, err = run(capsys, "transfer", "--graph", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "[FAIL] PolarizationError: the graph has no vertices, so it has no critical level\n"
        )

    def test_path_budget_refuses_the_default_s5_window(self):
        # the window holds 269,518 ascending paths; they are counted, not
        # listed, so the refusal comes at once
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "gkmcalc.cli", "transfer", "--graph", "permutahedron:5"],
            capture_output=True,
            env=env,
            timeout=30,
        )
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.decode() == (
            "[FAIL] PathBudgetError: the transfer check needs 269518 ascending paths, "
            "over the budget of 20000\n"
        )


class TestConnectionOnFirstRead:
    @pytest.mark.parametrize(
        "spec, p, q", [("permutahedron:4", "2134", "1324"), ("complete:5", "p2", "p3")]
    )
    def test_class_commands_build_no_connection(self, capsys, monkeypatch, spec, p, q):
        commands = [
            ["thom", "--vertex", p],
            ["table"],
            ["pair"],
            ["structconst", "--p", p, "--q", q],
            ["transfer"],
            ["betti"],
        ]
        expected = [run(capsys, command, "--graph", spec, *rest) for command, *rest in commands]

        def rule(graph):
            raise RuntimeError("the connection was read")

        monkeypatch.setattr(builders, "_reflection_rule", rule)
        monkeypatch.setattr(builders, "_vertex_rule", rule)
        with pytest.raises(RuntimeError):
            builders.build_graph(spec).connection
        for (command, *rest), before in zip(commands, expected):
            assert before[0] == 0
            assert run(capsys, command, "--graph", spec, *rest) == before


class TestIntegrateCommand:
    def test_class_file(self, capsys, tmp_path):
        # the coordinate class tau(p_i) = x_i on the triangle: low degree,
        # so the integral vanishes
        path = tmp_path / "cls.json"
        path.write_text(json.dumps({"p1": "x1", "p2": "x2", "p3": "x3"}))
        code, out, _ = run(
            capsys,
            "integrate",
            "--graph",
            "complete:3",
            "--class-file",
            str(path),
            "--basis",
            "x",
        )
        assert code == 0
        assert out.strip() == "0"

    def test_square_class(self, capsys, tmp_path):
        # tau^2 has degree d and integrates to a nonzero constant
        path = tmp_path / "cls.json"
        path.write_text(json.dumps({"p1": "x1^2", "p2": "x2^2", "p3": "x3^2"}))
        code, out, _ = run(
            capsys,
            "integrate",
            "--graph",
            "complete:3",
            "--class-file",
            str(path),
            "--basis",
            "x",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_coefficient_past_the_digit_limit(self, capsys, tmp_path):
        # the integral is N^2, 6,000 digits: more than str(int) writes
        n = "9" * 3000
        path = tmp_path / "cls.json"
        path.write_text(json.dumps({f"p{i}": f"{n}*{n}*x{i}^2" for i in (1, 2, 3)}))
        code, out, _ = run(
            capsys, "integrate", "--graph", "complete:3", "--basis", "x", "--class-file", str(path)
        )
        assert code == 0
        assert out.strip() == str(Decimal(int(n) ** 2))

    def test_non_cocycle_rejected(self, capsys, tmp_path):
        path = tmp_path / "cls.json"
        path.write_text(json.dumps({"p1": "x1", "p2": "0", "p3": "0"}))
        code, out, _ = run(
            capsys, "integrate", "--graph", "complete:3", "--class-file", str(path)
        )
        assert code != 0
        assert "not a cocycle" in out

    @pytest.fixture
    def hexagon(self, tmp_path):
        """A valid 6-cycle with weights x1, x2, -x1-x2 twice around: every xi
        gives two vertices of index zero, so the graph has no polarization."""
        weights = [(1, 0), (0, 1), (-1, -1)] * 2
        names = [f"v{i + 1}" for i in range(6)]
        document = {
            "dimension": 2,
            "vertices": names,
            "edges": [
                {"from": names[i], "to": names[(i + 1) % 6], "weight": [str(c) for c in w]}
                for i, w in enumerate(weights)
            ],
        }
        path = tmp_path / "hexagon.graph"
        path.write_text(json.dumps(document))
        return str(path)

    def test_needs_no_polarization(self, capsys, tmp_path, hexagon):
        code, out, _ = run(capsys, "validate", "--graph", hexagon)
        assert code == 0 and out.startswith("[OK] ")
        assert run(capsys, "betti", "--graph", hexagon)[0] == 1  # no polarization
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({f"v{i}": "0" for i in range(1, 7)}))
        assert run(capsys, "integrate", "--graph", hexagon, "--class-file", str(path)) == (0, "0\n", "")

    def test_takes_no_xi(self, capsys, tmp_path):
        path = tmp_path / "cls.json"
        path.write_text(json.dumps({"p1": "x1", "p2": "x2", "p3": "x3"}))
        with pytest.raises(SystemExit) as excinfo:
            main(["integrate", "--graph", "complete:3", "--xi", "3,2,1", "--class-file", str(path)])
        assert excinfo.value.code == 2


class TestDemoCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "demo")
        assert code == 0
        lines = [line for line in out.strip().splitlines() if line]
        assert len(lines) == 6
        assert all(line.startswith("[PASS]") for line in lines)


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_bad_graph_spec(self, capsys):
        code, out, err = run(capsys, "betti", "--graph", "icosahedron:1")
        assert code == 1
        assert "FAIL" in err + out

    def test_unknown_vertex(self, capsys):
        code, out, err = run(
            capsys, "thom", "--graph", "permutahedron:3", "--vertex", "(99)"
        )
        assert code == 1
        assert "unknown vertex" in err + out

    def test_empty_target_vertex(self, capsys):
        code, out, err = run(
            capsys, "structconst", "--graph", "permutahedron:3", "--p", "123", "--q", "123", "--r", ""
        )
        assert code == 1
        assert out == ""
        assert "unknown vertex ''" in err

    def test_critical_transfer_level(self, capsys):
        # phi of the identity vertex of the flag variety is 0
        code, out, err = run(
            capsys,
            "transfer",
            "--graph",
            "permutahedron:3",
            "--from-level",
            "0",
            "--to-level",
            "3",
        )
        assert code == 1
        assert "critical" in err + out

    @pytest.mark.parametrize(
        "option,value",
        [
            ("--from-level", "abc"),
            ("--to-level", "abc"),
            ("--from-level", "1/0"),
            ("--to-level", "1/0"),
            ("--from-level", ""),
            ("--to-level", ""),
        ],
    )
    def test_malformed_transfer_level(self, capsys, option, value):
        code, out, err = run(capsys, "transfer", "--graph", "permutahedron:3", option, value)
        assert code == 2
        assert out == ""
        assert err.startswith(f"[FAIL] bad {option} value") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "command,value",
        [("betti", "abc"), ("table", "1/0,2,3"), ("table", "1e20000,2,3")],
    )
    def test_malformed_xi(self, capsys, command, value):
        code, out, err = run(capsys, command, "--graph", "permutahedron:3", "--xi", value)
        assert code == 2
        assert out == ""
        assert err.startswith("[FAIL] bad --xi value") and len(err.strip().splitlines()) == 1

    def test_xi_of_wrong_length_fails(self, capsys):
        code, out, err = run(capsys, "betti", "--graph", "permutahedron:3", "--xi", "1,2")
        assert code == 1
        assert err.startswith("[FAIL] PolarizationError: xi has length 2")

    def test_zero_pairing_message_renders_xi(self, capsys):
        code, out, err = run(capsys, "betti", "--graph", "permutahedron:3", "--xi", "1,1,2")
        assert code == 1
        assert err == (
            "[FAIL] PolarizationError: not a polarization: weight of 123>213 "
            "pairs to zero with xi=(1, 1, 2)\n"
        )

    def test_closed_stdout_pipe(self):
        # the read end is closed before the child starts, so its first write
        # to standard output fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        try:
            result = subprocess.run(
                [sys.executable, "-m", "gkmcalc.cli", "table", "--graph", "permutahedron:4"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.returncode in (0, 1, 2)
        assert result.stderr == b""

    def test_malformed_graph_size(self, capsys):
        code, out, err = run(capsys, "table", "--graph", "complete:abc")
        assert code == 2
        assert out == ""
        assert err.startswith("[FAIL] ") and len(err.strip().splitlines()) == 1

    def test_exponent_past_packed_range(self, capsys, tmp_path):
        path = tmp_path / "cls.json"
        path.write_text(json.dumps({f"p{i}": "x1^40000" for i in (1, 2, 3)}))
        code, out, err = run(
            capsys, "integrate", "--graph", "complete:3", "--class-file", str(path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("[FAIL] OverflowError: ") and len(err.strip().splitlines()) == 1

    def test_graph_file_rational_in_exponent_notation(self, capsys, tmp_path, data_dir):
        # only "p" and "p/q" are rationals in text: "1e20000" would otherwise
        # be a 66,439-bit integer
        document = json.loads((data_dir / "square_diagonal.graph").read_text())
        document["xi"][0] = "1e20000"
        path = tmp_path / "big.graph"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "table", "--graph", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("[FAIL] FormatError: ") and len(err.strip().splitlines()) == 1

    def test_missing_class_file(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "integrate",
            "--graph",
            "complete:3",
            "--class-file",
            str(tmp_path / "absent.json"),
        )
        assert code == 2
        assert err.startswith("[FAIL] ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "command,spec",
        [
            ("betti", "file:{tmp}/absent.graph"),
            ("validate", "file:"),  # the current directory
            ("validate", "{tmp}"),  # a bare path to a directory
        ],
    )
    def test_unreadable_graph_file(self, capsys, tmp_path, command, spec):
        code, out, err = run(capsys, command, "--graph", spec.format(tmp=tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("[FAIL] cannot read graph file ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("option", ["--p", "--q"])
    def test_pair_with_one_base_vertex(self, capsys, option):
        code, out, err = run(capsys, "pair", "--graph", "permutahedron:3", option, "(12)")
        assert code == 2
        assert out == ""
        assert err == "[FAIL] pair takes both --p and --q, or neither\n"

    @pytest.mark.parametrize("text", ['{"p1": "x1",', '["x1", "x2", "x3"]'])
    def test_malformed_class_file(self, capsys, tmp_path, text):
        path = tmp_path / "cls.json"
        path.write_text(text)
        code, out, err = run(
            capsys, "integrate", "--graph", "complete:3", "--class-file", str(path)
        )
        assert code == 2
        assert err.startswith("[FAIL] ") and len(err.strip().splitlines()) == 1

    def test_consistency_failure_names_the_graph(self, capsys, monkeypatch):
        step = ThomCalculator._iota_step
        monkeypatch.setattr(ThomCalculator, "_iota_step", lambda calc, *edges: -step(calc, *edges))
        argv = ["thom", "--graph", "permutahedron:3", "--vertex", "(12)", "--algorithm", "paths"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("[FAIL] InternalConsistencyError: ")
        assert err.endswith(" (graph permutahedron:3)\n")

    @pytest.mark.parametrize(
        "spec", ["complete: 3", "complete:+3", "complete:0_3", "complete:\u0663", "permutahedron:3 "]
    )
    def test_graph_size_ascii_digits_only(self, capsys, spec):
        # int() would read each of these sizes as 3
        code, out, err = run(capsys, "betti", "--graph", spec)
        assert code == 2
        assert out == ""
        assert err.startswith("[FAIL] bad graph spec ") and len(err.splitlines()) == 1


class TestPolarizationFallback:
    def test_file_without_xi_uses_search(self, capsys, tmp_path, data_dir):
        import json as json_module

        document = json_module.loads((data_dir / "square_diagonal.graph").read_text())
        del document["xi"]
        path = tmp_path / "noxi.graph"
        path.write_text(json_module.dumps(document))
        code, out, _ = run(capsys, "betti", "--graph", str(path))
        assert code == 0
        assert out.strip() == "1 1 1 1"
        # deterministic across runs
        code2, out2, _ = run(capsys, "betti", "--graph", str(path))
        assert out == out2


class _Stdout:
    """A standard output stand-in that records each write and takes only
    `share` of it."""

    def __init__(self, share=1.0):
        self.writes = []
        self.share = share

    def write(self, text):
        self.writes.append(text)
        return int(len(text) * self.share)

    def flush(self):
        pass


class TestOutput:
    def test_table_writes_a_line_at_a_time(self, monkeypatch):
        stdout = _Stdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["table", "--graph", "permutahedron:4"]) == 0
        assert len(stdout.writes) == 2 + 24
        assert all(text.endswith("\n") and text.count("\n") == 1 for text in stdout.writes)

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_short_write_fails_with_one_line(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(sys, "stdout", _Stdout(share=0.5))
        assert main(["betti", "--graph", "complete:3", "--format", fmt]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[FAIL] short write to standard output: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_full_device_fails_with_one_line(self, fmt):
        # every write to /dev/full fails with ENOSPC
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = ["table", "--graph", "permutahedron:3", "--format", fmt]
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "gkmcalc.cli", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        err = result.stderr.decode()
        assert result.returncode == 1
        assert "Traceback" not in err
        assert err.startswith("[FAIL] cannot write to standard output: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["table", "pair"])
    def test_structured_lays_out_no_text_table(self, capsys, monkeypatch, command):
        import gkmcalc.cli

        def refuse(headers, rows):  # a generator, so the layout runs only when read
            raise AssertionError("text table laid out under --format structured")
            yield

        monkeypatch.setattr(gkmcalc.cli, "_layout_lines", refuse)
        code, out, _ = run(capsys, command, "--graph", "permutahedron:3", "--format", "structured")
        assert code == 0
        assert len(json.loads(out)["order"]) == 6

    def test_transfer_renders_each_entry_once(self, capsys, monkeypatch):
        from gkmcalc.symbolic import RationalExpr

        rendered = []
        render = RationalExpr.render
        monkeypatch.setattr(
            RationalExpr, "render", lambda value, names=None: rendered.append(value) or render(value, names)
        )
        code, out, _ = run(capsys, "transfer", "--graph", "permutahedron:4")
        assert code == 0
        assert len(rendered) == sum(line.startswith("  T[") for line in out.splitlines()) == 20


class TestHirzebruchSurfaces:
    """F_a as a square: weights (1,0), (a,1), (-1,0), (0,-1) on s1>s2>s3>s4>s1
    and no connection, so the loader derives one, with constants 0 and +-a.
    c[s2,s2 -> s1] = -a is the self-intersection of the negative section
    (Fulton, Introduction to Toric Varieties, 1993, ch. 5), an oracle
    independent of both Thom-class routes."""

    @pytest.fixture(params=[0, 1, 2, 5])
    def surface(self, request, tmp_path):
        a = request.param
        edges = [("s1", "s2", (1, 0)), ("s2", "s3", (a, 1)), ("s3", "s4", (-1, 0)), ("s4", "s1", (0, -1))]
        document = {
            "dimension": 2,
            "vertices": ["s1", "s2", "s3", "s4"],
            "edges": [{"from": f, "to": t, "weight": [str(c) for c in w]} for f, t, w in edges],
        }
        path = tmp_path / f"hirzebruch{a}.graph"
        path.write_text(json.dumps(document))
        return a, str(path)

    def test_closed_forms(self, capsys, surface):
        from gkmcalc.builders import load_graph
        from gkmcalc.graph import validate

        a, spec = surface
        assert {abs(c) for c in validate(load_graph(spec)).connection_constants.values()} == {0, a}
        code, out, _ = run(capsys, "validate", "--graph", spec)
        assert code == 0 and out.startswith("[OK] ")
        assert run(capsys, "betti", "--graph", spec) == (0, "1 2 1\n", "")
        code, out, _ = run(capsys, "structconst", "--graph", spec, "--p", "s2", "--q", "s2")
        assert code == 0 and "MISMATCH" not in out
        assert f"c[s2,s2 -> s1] = {-a}\n" in out

    def test_path_classes(self, capsys, surface):
        _, spec = surface
        for vertex in ("s1", "s2", "s3", "s4"):
            code, _, err = run(capsys, "thom", "--graph", spec, "--vertex", vertex, "--algorithm", "paths")
            assert (code, err) == (0, "")
