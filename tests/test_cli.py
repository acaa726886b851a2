import inspect
import json
import types

import pytest

import bettistab
from bettistab.cli import build_parser, main
from bettistab.diagram import BettiDiagram, parse_table
from bettistab.path_formula import path_diagram
from bettistab.stability import scan_powers


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_formula_json(capsys):
    code, out, _ = run_cli(capsys, "formula", "--n", "6", "--k", "2")
    assert code == 0
    assert BettiDiagram.from_json_dict(json.loads(out)) == path_diagram(6, 2)


def test_formula_table(capsys):
    code, out, _ = run_cli(capsys, "formula", "--n", "6", "--k", "2", "--table")
    assert code == 0
    assert parse_table(out) == path_diagram(6, 2)
    rows = {line.split("|")[0].strip(): line.split("|")[1].split() for line in out.splitlines()[2:]}
    assert rows["3"] == [".", "15", "20", "6", "."]
    assert rows["4"] == [".", ".", "8", "12", "4"]


def test_oracle_text_ideal(tmp_path, capsys):
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text("x1*x2, x2*x3, x3*x4\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "oracle", "--ideal", str(ideal_file))
    assert code == 0
    assert BettiDiagram.from_json_dict(json.loads(out)) == path_diagram(4, 1)


def test_oracle_json_ideal_with_power(tmp_path, capsys):
    ideal_file = tmp_path / "ideal.json"
    ideal_file.write_text(
        json.dumps({"num_vars": 3, "generators": [[1, 1, 0], [0, 1, 1]]}),
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "oracle", "--ideal", str(ideal_file), "--power", "2")
    assert code == 0
    assert BettiDiagram.from_json_dict(json.loads(out)) == path_diagram(3, 2)


def test_oracle_rejects_power_zero(tmp_path, capsys):
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text("x1*x2, x2*x3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "oracle", "--ideal", str(ideal_file), "--power", "0")
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {"type": "InputError", "message": "power exponent must be >= 1"}


def test_decompose_round_trip(tmp_path, capsys):
    diagram_file = tmp_path / "diagram.json"
    diagram_file.write_text(json.dumps(path_diagram(5, 1).to_json_dict()), encoding="utf-8")
    code, out, _ = run_cli(capsys, "decompose", "--diagram", str(diagram_file))
    assert code == 0
    terms = json.loads(out)["terms"]
    assert terms[0] == {"weight": "3/5", "degrees": [0, 2, 3, 5]}


def test_polytope_prune(tmp_path, capsys):
    diagram_file = tmp_path / "diagram.json"
    diagram_file.write_text(json.dumps(path_diagram(6, 4).to_json_dict()), encoding="utf-8")
    code, out, _ = run_cli(capsys, "polytope", "--diagram", str(diagram_file), "--prune")
    assert code == 0
    data = json.loads(out)
    assert len(data["candidates"]) == 8
    assert len(data["vertices"]) == 3
    assert data["dimension"] == 2


@pytest.mark.parametrize("flags", [(), ("--prune",)])
def test_polytope_of_infeasible_diagram_is_empty(tmp_path, capsys, flags):
    # w_(0,1) + w_(0,2) = 1, yet the (1, 1) and (1, 2) rows ask for 1 and 5
    diagram_file = tmp_path / "diagram.json"
    diagram_file.write_text(json.dumps({"entries": [[0, 0, "1"], [1, 1, "1"], [1, 2, "5"]]}))
    code, out, _ = run_cli(capsys, "polytope", "--diagram", str(diagram_file), *flags)
    assert code == 0
    assert json.loads(out) == {
        "candidates": [[0, 1], [0, 2]], "vertices": [], "rank": 2, "dimension": -1,
    }


def test_scan_writes_report(tmp_path, capsys):
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text("x1*x2", encoding="utf-8")
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys,
        "scan",
        "--ideal",
        str(ideal_file),
        "--kmin",
        "1",
        "--kmax",
        "5",
        "--json",
        str(out_file),
    )
    assert code == 0
    report = json.loads(out_file.read_text(encoding="utf-8"))
    assert report["stable_window"] == [1, 5]
    assert report["verdict"]["stabilized_in_range"]
    assert report["verdict"]["all_trajectories_fit"]
    assert "stable window" in err


def test_scan_deterministic_output(tmp_path, capsys):
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text("x1*x2, x2*x3", encoding="utf-8")
    _, first, _ = run_cli(
        capsys, "scan", "--ideal", str(ideal_file), "--kmin", "1", "--kmax", "5"
    )
    _, second, _ = run_cli(
        capsys, "scan", "--ideal", str(ideal_file), "--kmin", "1", "--kmax", "5"
    )
    assert first == second


def test_verify_paper(capsys):
    code, out, err = run_cli(capsys, "verify-paper", "--kmin", "4", "--kmax", "8")
    assert code == 0
    record = json.loads(out)
    assert record["all_zero_patterns_match"] is True
    assert record["reconstruction_ok"] is True
    assert "zero patterns match: True" in err


def test_verify_paper_rejects_other_sizes(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--n", "5")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InputError"


def test_domain_error_exit_code(tmp_path, capsys):
    ideal_file = tmp_path / "bad.txt"
    ideal_file.write_text("x1*y9", encoding="utf-8")
    code, out, _ = run_cli(capsys, "oracle", "--ideal", str(ideal_file))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "InputError"
    assert error["message"]


def test_missing_file_is_domain_error(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--ideal", "/nonexistent/ideal.txt")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InputError"


def test_scan_to_unwritable_path_is_domain_error(tmp_path, capsys):
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text("x1*x2", encoding="utf-8")
    out_file = tmp_path / "missing" / "report.json"
    code, out, _ = run_cli(
        capsys, "scan", "--ideal", str(ideal_file), "--kmin", "1", "--kmax", "5",
        "--json", str(out_file),
    )
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "InputError"
    assert str(out_file) in error["message"]
    assert not out_file.exists()


@pytest.mark.parametrize("subcommand", ["oracle", "scan"])
def test_num_vars_must_match_json_ideal(tmp_path, capsys, subcommand):
    ideal_file = tmp_path / "ideal.json"
    ideal_file.write_text(
        json.dumps({"num_vars": 2, "generators": [[1, 0], [0, 1]]}), encoding="utf-8"
    )
    argv = [subcommand, "--ideal", str(ideal_file)]
    if subcommand == "scan":
        argv += ["--kmin", "1", "--kmax", "5"]
    code, out, _ = run_cli(capsys, *argv, "--num-vars", "5")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "InputError"
    assert "--num-vars" in error["message"]
    # an agreeing count is accepted
    code, out, _ = run_cli(capsys, *argv, "--num-vars", "2")
    assert code == 0
    assert "error" not in json.loads(out)


def test_usage_error_exit_code(capsys):
    assert main(["formula", "--n", "6"]) == 2
    assert main([]) == 2
    assert main(["oracle", "--ideal", "ideal.txt", "--no-filter"]) == 2
    assert main(["formula", "--n", "6", "--k", "2", "--json"]) == 2
    assert main(
        ["scan", "--ideal", "ideal.txt", "--kmin", "1", "--kmax", "5", "--fit-deg", "1,1"]
    ) == 2
    assert main(
        ["scan", "--ideal", "ideal.txt", "--kmin", "1", "--kmax", "5", "--formula"]
    ) == 2


@pytest.mark.parametrize(
    "data",
    [
        {"num_vars": 2, "generators": [[1.7, 1], [0, 2]]},
        {"num_vars": 2.9, "generators": [[1, 1], [0, 2]]},
        {"num_vars": 2, "generators": [[True, 1], [0, 2]]},
        {"num_vars": 2, "generators": [["1", 1], [0, 2]]},
    ],
)
def test_oracle_rejects_non_integer_json(tmp_path, capsys, data):
    ideal_file = tmp_path / "ideal.json"
    ideal_file.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run_cli(capsys, "oracle", "--ideal", str(ideal_file))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InputError"


OPTION_INVENTORY = {
    "formula": ["--k", "--n", "--table"],
    "oracle": ["--degree-bound", "--ideal", "--num-vars", "--power"],
    "decompose": ["--diagram"],
    "polytope": ["--diagram", "--prune"],
    "scan": ["--ideal", "--json", "--kmax", "--kmin", "--num-vars"],
    "verify-paper": ["--kmax", "--kmin", "--n"],
}


def test_option_inventory():
    # Every settable value is listed here: a new knob needs a visible edit.
    subparsers = next(
        a for a in build_parser()._actions if a.dest == "subcommand"
    ).choices
    options = {
        name: sorted(
            s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")
        )
        for name, p in subparsers.items()
    }
    assert options == OPTION_INVENTORY
    assert str(inspect.signature(scan_powers)) == (
        "(ideal: 'MonomialIdeal', k_min: 'int', k_max: 'int') -> 'StabilityReport'"
    )


PUBLIC_API = [
    "BettiDiagram", "BettiStabError", "CombinatorialSignature", "ConeError",
    "Decomposition", "DecompositionPolytope", "InputError", "MonomialIdeal",
    "NotEquigeneratedError", "PureDiagram", "RationalFunctionFit",
    "ReferenceVertexFamily", "StabilityError", "StabilityReport",
    "TranslationTemplate", "betti_oracle", "binom", "build_polytope",
    "candidate_degree_sequences", "column_sums", "combinatorial_signature",
    "compare_reference", "enumerate_vertices", "fit_polynomial",
    "fit_rational_function", "format_rational", "greedy_decompose",
    "is_equigenerated", "make_ideal", "match_templates", "matrix_rank",
    "parse_ideal", "parse_rational", "parse_table", "path6_reference",
    "path_betti", "path_diagram", "path_family_size", "path_ideal", "power",
    "prune", "pure_diagram", "render_table", "scan_powers", "solve_exact",
    "strand_homology", "validate_cyclic", "verify_decomposition",
]


def test_public_api_inventory():
    # Every name the package exports is listed here: adding or removing one
    # needs a visible edit.  Submodules are attributes too, but not exports.
    names = sorted(
        name
        for name, value in vars(bettistab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_API
