import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from gkmcalc.cli import main

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


class TestTransferCommand:
    def test_markov_reported(self, capsys):
        code, out, _ = run(capsys, "transfer", "--graph", "permutahedron:3")
        assert code == 0
        assert "markov column sums: ok" in out


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
