import inspect
import json
import types

import pytest

import bettistab
from bettistab import cli, koszul_oracle
from bettistab.cli import build_parser, main
from bettistab.diagram import BettiDiagram
from bettistab.monomial_ideal import parse_ideal
from bettistab.path_formula import path_diagram
from bettistab.stability import scan_powers
from table_reference import parse_table


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


# The line after the regularity bound: the path's reversal, the 4-cycle's
# dihedral group and the swap of x1 and x2; a power has the group of its base.
GROUP_LINES = {
    "x3*x1, x1*x4, x4*x2": "automorphism group of order 2 (1 generator)",
    "x1*x2, x2*x3, x3*x4, x4*x1": "automorphism group of order 8 (2 generators)",
    "x1^2, x2^2": "automorphism group of order 2 (1 generator)",
}


@pytest.mark.parametrize(
    "text, power, line",
    [
        # a path labelled out of order: nu = 1, so reg(S/I^3) = 2*3 + 1 - 2
        ("x3*x1, x1*x4, x4*x2", "3", "regularity bound 5 (forest or cycle edge-ideal power)"),
        ("x1*x2, x2*x3, x3*x4, x4*x1", "2", "regularity bound 3 (forest or cycle edge-ideal power)"),
        ("x1*x2, x2*x3, x3*x4, x4*x1", "1", "no regularity bound"),
        ("x1^2, x2^2", "2", "no regularity bound"),
    ],
)
def test_oracle_logs_its_regularity_bound(tmp_path, capsys, text, power, line):
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text(text + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "oracle", "--ideal", str(ideal_file), "--power", power)
    assert code == 0
    assert err.splitlines()[1:] == [line, GROUP_LINES[text]]
    if text.startswith("x3"):
        assert out == json.dumps(path_diagram(4, 3).to_json_dict(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "text, line",
    [
        # the 5-cycle, labelled out of order: the dihedral group of order 10
        ("x2*x4, x4*x1, x1*x5, x5*x3, x3*x2", "automorphism group of order 10 (2 generators)"),
        # x2 is in no generator and stays fixed
        ("x1*x3", "automorphism group of order 2 (1 generator)"),
        ("x1^2*x2, x2^3", "automorphism group of order 1 (0 generators)"),
    ],
)
def test_oracle_logs_its_automorphism_group(tmp_path, capsys, text, line):
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text(text + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "oracle", "--ideal", str(ideal_file), "--power", "2")
    assert code == 0
    assert err.splitlines()[2:] == [line]


def test_oracle_output_does_not_depend_on_labels_or_order(tmp_path, capsys):
    # the 5-cycle squared, labelled in order and then relabelled with its
    # generators reordered: the same bytes on stdout
    outputs = []
    for text in ("x1*x2, x2*x3, x3*x4, x4*x5, x5*x1", "x3*x2, x2*x5, x5*x1, x1*x4, x4*x3"):
        ideal_file = tmp_path / "ideal.txt"
        ideal_file.write_text(text + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "oracle", "--ideal", str(ideal_file), "--power", "2")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["entries"]


def _count_searches(monkeypatch) -> dict:
    """Count the calls of the regularity recogniser and the group search,
    wherever the oracle or the CLI module binds them."""
    calls = {"edge_power_regularity": 0, "automorphisms": 0}
    for name in calls:
        def counted(ideal, name=name, original=getattr(koszul_oracle, name)):
            calls[name] += 1
            return original(ideal)
        for module in (koszul_oracle, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


def test_oracle_computes_its_bound_and_group_once(tmp_path, capsys, monkeypatch):
    # the stderr lines name the bound and the group that the diagram uses
    calls = _count_searches(monkeypatch)
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text("x1^1000000*x2^1000000\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "oracle", "--ideal", str(ideal_file))
    assert code == 0
    assert calls == {"edge_power_regularity": 1, "automorphisms": 1}
    assert err.splitlines()[1:] == [
        "regularity bound 1999999 (forest or cycle edge-ideal power)",
        "automorphism group of order 2 (1 generator)",
    ]
    assert json.loads(out)["entries"] == [[0, 0, "1"], [1, 2000000, "1"]]


def test_oracle_refuses_an_over_cap_ideal_before_either_search(tmp_path, capsys, monkeypatch):
    calls = _count_searches(monkeypatch)
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text("x1^10000000000, x2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "oracle", "--ideal", str(ideal_file))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InputError"
    assert calls == {"edge_power_regularity": 0, "automorphisms": 0}


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
    assert out == ""
    _, stdout, _ = run_cli(capsys, "scan", "--ideal", str(ideal_file), "--kmin", "1", "--kmax", "5")
    assert out_file.read_text(encoding="utf-8") == stdout


def test_json_is_streamed_not_built_whole(tmp_path, capsys, monkeypatch):
    # The text of a large report is several times its size: no output path
    # may build it with json.dumps.
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps builds the whole text")

    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text("x1*x2, x2*x3", encoding="utf-8")
    report = scan_powers(parse_ideal("x1*x2, x2*x3"), 1, 5).to_json_dict()
    expected = json.dumps(report, indent=2, sort_keys=True)
    monkeypatch.setattr(json, "dumps", refuse)
    out_file = tmp_path / "report.json"
    args = ("scan", "--ideal", str(ideal_file), "--kmin", "1", "--kmax", "5")
    assert run_cli(capsys, *args)[:2] == (0, expected + "\n")
    assert run_cli(capsys, *args, "--json", str(out_file))[:2] == (0, "")
    assert out_file.read_text(encoding="utf-8") == expected + "\n"


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
    # a text ideal has as many variables as its highest index, so the
    # labelled path(3) written as text takes the closed-form route
    report = json.loads(first)
    assert report["ideal"]["num_vars"] == 3
    assert report["use_formula"] is True


def test_scan_text_ideal_counts_up_to_the_highest_index(tmp_path, capsys):
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text("x1*x2, x2*x5", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "scan", "--ideal", str(ideal_file), "--kmin", "1", "--kmax", "5"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ideal"] == {"num_vars": 5, "generators": [[0, 1, 0, 0, 1], [1, 1, 0, 0, 0]]}
    assert report["use_formula"] is False


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
    # a text without variables fails in parse_ideal, like any other bad token
    for text, token in (("x1*y9", "y9"), ("7", "7")):
        ideal_file.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "oracle", "--ideal", str(ideal_file))
        assert code == 1
        error = json.loads(out)["error"]
        assert error == {"type": "InputError", "message": f"malformed token: {token!r}"}


def test_overlong_digit_runs_are_domain_errors(tmp_path, capsys):
    # without the length check, int() would raise a ValueError and a traceback
    ideal_file = tmp_path / "long.txt"
    for text in ("x1" + "0" * 5000, "x1^" + "7" * 4500):
        ideal_file.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "oracle", "--ideal", str(ideal_file))
        assert code == 1
        error = json.loads(out)["error"]
        assert error == {"type": "InputError",
                         "message": "digit run longer than 100 characters in a token"}


@pytest.mark.parametrize(
    "subcommand,flag,template",
    [
        ("decompose", "--diagram", '{"entries": [[0, 0, 1], [1, 2, BIG]]}'),
        ("oracle", "--ideal", '{"num_vars": 2, "generators": [[BIG, 1]]}'),
        ("oracle", "--ideal", "[BIG]"),
    ],
)
def test_json_integers_over_the_digit_limit_are_domain_errors(
    tmp_path, capsys, subcommand, flag, template
):
    # json.loads raises a plain ValueError, not a JSONDecodeError, on an
    # integer over the interpreter's 4,300-digit conversion limit
    path = tmp_path / "input.json"
    path.write_text(template.replace("BIG", "7" * 5000), encoding="utf-8")
    code, out, _ = run_cli(capsys, subcommand, flag, str(path))
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "InputError",
        "message": f"an integer in {path} exceeds the 4300-digit limit",
    }


@pytest.mark.parametrize("size", [5000, 1_000_000])
@pytest.mark.parametrize(
    "subcommand,flag,name,letter,content",
    [
        ("decompose", "--diagram", "diagram.json", "7",
         lambda v: json.dumps({"entries": [[0, 0, "1"], [1, 1, v]]})),
        ("decompose", "--diagram", "diagram.json", "x",
         lambda v: json.dumps({"entries": [[0, 0, "1"], [1, 1, v]]})),
        ("decompose", "--diagram", "diagram.json", "7",
         lambda v: json.dumps({"entries": [[v, 0, 1]]})),
        ("oracle", "--ideal", "ideal.txt", "y", lambda v: f"x1*{v}"),
    ],
    ids=["digits", "letters", "index", "token"],
)
def test_error_size_does_not_follow_the_value(
    tmp_path, capsys, subcommand, flag, name, letter, content, size
):
    # the message shows the rejected value's first characters and its length
    path = tmp_path / name
    path.write_text(content(letter * size), encoding="utf-8")
    code, out, _ = run_cli(capsys, subcommand, flag, str(path))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "InputError"
    assert error["message"].endswith(f"'{letter * 39}... ({size} characters)")
    assert len(out.encode()) < 200


@pytest.mark.parametrize("value", ["1e5", "1e5000", "0.5", " 7 ", "1_000"])
def test_decompose_rejects_rationals_outside_the_syntax(tmp_path, capsys, value):
    # "1e5000" once reached format_quotient and crashed it
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps({"entries": [[0, 0, "1"], [1, 1, value]]}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "decompose", "--diagram", str(path))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "InputError" and repr(value) in error["message"]


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
    # a variable no generator uses changes no Betti number: there is no --num-vars
    assert main(["oracle", "--ideal", "ideal.txt", "--num-vars", "7"]) == 2
    # the oracle always prints the whole diagram: there is no --degree-bound
    assert main(["oracle", "--ideal", "ideal.txt", "--degree-bound", "3"]) == 2
    assert main(
        ["scan", "--ideal", "ideal.txt", "--kmin", "1", "--kmax", "5", "--num-vars", "7"]
    ) == 2


def test_main_parses_with_one_parser_that_a_failed_parse_leaves_as_new(capsys):
    cases = [
        (["formula", "--n", "4", "--k", "2"], 0),
        (["formula", "--n", "6"], 2),
        (["verify-paper", "--n", "7"], 1),
    ]
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()
    assert main(["formula", "--n", "6", "--k", "x"]) == 2
    capsys.readouterr()
    shared = [run_cli(capsys, *argv) for argv, _ in cases]  # one parser, after a failure
    for (argv, code), result in zip(cases, shared):
        cli._parser.cache_clear()
        assert run_cli(capsys, *argv) == result, argv
        assert result[0] == code, argv


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


def test_oracle_reads_a_json_array_as_json(tmp_path, capsys):
    # a file that opens with "[" is JSON, not generator text, so the error is the schema's
    ideal_file = tmp_path / "ideal.json"
    ideal_file.write_text("[[1, 1]]", encoding="utf-8")
    code, out, _ = run_cli(capsys, "oracle", "--ideal", str(ideal_file))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "InputError"
    assert error["message"].startswith("malformed ideal JSON: ")


def test_oracle_rejects_a_variable_index_above_the_cap(tmp_path, capsys):
    # ten bytes of text must not ask for 10^8 exponents per generator
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text("x100000000", encoding="utf-8")
    code, out, _ = run_cli(capsys, "oracle", "--ideal", str(ideal_file))
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {
        "type": "InputError",
        "message": "variable index above 1000 in 'x100000000'",
    }


def test_oracle_rejects_a_packing_over_the_cap(tmp_path, capsys):
    # 19 bytes of text must not ask for a 10^10-bit int per lattice point
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text("x1^10000000000, x2", encoding="utf-8")
    code, out, _ = run_cli(capsys, "oracle", "--ideal", str(ideal_file))
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {
        "type": "InputError",
        "message": "a packed monomial would take 10000000003 bits, over the cap of 2^27",
    }


def test_formula_range_error_names_only_n_and_k(capsys):
    for n, k in (("6", "0"), ("1", "3")):
        code, out, _ = run_cli(capsys, "formula", "--n", n, "--k", k)
        assert code == 1
        error = json.loads(out)["error"]
        assert error == {
            "type": "InputError", "message": f"parameters out of range: n={n}, k={k}",
        }


OPTION_INVENTORY = {
    "formula": ["--k", "--n", "--table"],
    "oracle": ["--ideal", "--power"],
    "decompose": ["--diagram"],
    "polytope": ["--diagram", "--prune"],
    "scan": ["--ideal", "--json", "--kmax", "--kmin"],
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
    # a text ideal's variable count is its highest index, not a parameter
    assert str(inspect.signature(parse_ideal)) == "(text: 'str') -> 'MonomialIdeal'"


PUBLIC_API = [
    "BettiDiagram", "BettiStabError", "CombinatorialSignature", "ConeError",
    "Decomposition", "DecompositionPolytope", "InputError", "MonomialIdeal",
    "NotEquigeneratedError", "RationalFunctionFit",
    "ReferenceVertexFamily", "StabilityError", "StabilityReport",
    "TranslationTemplate", "betti_oracle", "binom", "build_polytope",
    "candidate_degree_sequences", "column_sums", "combinatorial_signature",
    "compare_reference", "enumerate_vertices", "fit_polynomial",
    "fit_rational_function", "format_rational", "greedy_decompose",
    "is_equigenerated", "make_ideal", "match_templates", "matrix_rank",
    "parse_ideal", "parse_rational", "path6_reference",
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
