"""Byte-for-byte golden outputs of four CLI runs.

Each `.json` file in `tests/golden/` holds the exact stdout of `cli.main`
for one run: the paper comparison over k = 4..11, an oracle-mode scan of
the 4-cycle over k = 1..7, a closed-form scan of the six-variable path
over k = 4..11, and the unpruned polytope of the seven-variable path's
diagram at k = 4 (29 vertices over 15 candidates, in vertex order).  A
refactor must leave all four unchanged.

The closed-form scan of the seven-variable path over k = 31..40 is pinned by
the SHA-256 of its stdout (about 265 KB), kept in `tests/golden/` as a
`.sha256` file, together with its window, vertex and candidate counts and
fits.  It pins a regression, not a truth: there is no n = 7 reference.

When a change alters an output on purpose, regenerate the three files and
the digest with

    PYTHONPATH=src python tests/test_golden_outputs.py

and review the diff of `tests/golden/` together with the change.  The input
files (ideals, and the one diagram) are written from `INPUTS` for each run.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from bettistab.cli import main
from bettistab.path_formula import path_diagram

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

INPUTS = {
    "c4": "x1*x2, x2*x3, x3*x4, x1*x4\n",
    "path6": "x1*x2, x2*x3, x3*x4, x4*x5, x5*x6\n",
    "path7": "x1*x2, x2*x3, x3*x4, x4*x5, x5*x6, x6*x7\n",
    "path7_k4_diagram": (
        '{"entries": [[0, 0, "1"], [1, 8, "126"], [2, 9, "280"], [2, 10, "84"], '
        '[3, 10, "210"], [3, 11, "180"], [4, 11, "60"], [4, 12, "120"], [5, 12, "5"], '
        '[5, 13, "24"]]}\n'
    ),
}

RUNS = {
    "verify_paper_n6_k4_11": ["verify-paper", "--n", "6", "--kmin", "4", "--kmax", "11"],
    "scan_c4_oracle_k1_7": ["scan", "--ideal", "{c4}", "--kmin", "1", "--kmax", "7"],
    "scan_path6_formula_k4_11": [
        "scan", "--ideal", "{path6}", "--kmin", "4", "--kmax", "11",
    ],
    "polytope_path7_k4": ["polytope", "--diagram", "{path7_k4_diagram}"],
}

DIGEST_RUNS = {
    "scan_path7_formula_k31_40": [
        "scan", "--ideal", "{path7}", "--kmin", "31", "--kmax", "40",
    ],
}


def run_stdout(name, input_dir):
    """Exit code and stdout of `cli.main` for the named run."""
    paths = {key: input_dir / f"{key}.txt" for key in INPUTS}
    for key, text in INPUTS.items():
        paths[key].write_text(text, encoding="utf-8")
    argv = [arg.format(**paths) for arg in {**RUNS, **DIGEST_RUNS}[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden(name, tmp_path):
    code, out = run_stdout(name, tmp_path)
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")


def test_polytope_input_is_the_path7_diagram():
    assert json.loads(INPUTS["path7_k4_diagram"]) == path_diagram(7, 4).to_json_dict()
    golden = json.loads((GOLDEN_DIR / "polytope_path7_k4.json").read_text(encoding="utf-8"))
    assert (len(golden["vertices"]), len(golden["candidates"])) == (29, 15)


def test_verify_paper_from_k1_matches_golden():
    # The window still starts at k = 4, so a scan from k = 1 prints the same
    # record as the default 4..11 run.
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify-paper", "--kmin", "1", "--kmax", "11"])
    assert code == 0
    golden = GOLDEN_DIR / "verify_paper_n6_k4_11.json"
    assert out.getvalue() == golden.read_text(encoding="utf-8")


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_path7_scan_matches_digest(tmp_path):
    name = "scan_path7_formula_k31_40"
    code, out = run_stdout(name, tmp_path)
    assert code == 0
    assert _digest(out) == (GOLDEN_DIR / f"{name}.sha256").read_text(encoding="utf-8").strip()
    report = json.loads(out)
    assert report["stable_window"] == [31, 40] and report["k0"] is None
    assert len(report["vertex_labels"]) == 24
    for record in report["per_k"]:
        assert len(record["polytope"]["candidates"]) == 13
        assert record["signature"]["vertex_count"] == 24
    assert len(report["trajectories"]) == 24 * 13 == 312
    assert all(t["fit"] is not None and t["validated"] for t in report["trajectories"])
    assert report["column_sums"]
    assert all(c["fit"] is not None for c in report["column_sums"])
    assert report["verdict"] == {
        "all_column_sums_fit": True,
        "all_trajectories_fit": True,
        "stabilized_in_range": True,
    }


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS) + sorted(DIGEST_RUNS):
            code, out = run_stdout(name, pathlib.Path(tmp))
            if code != 0:
                sys.exit(f"{name}: exit code {code}")
            if name in RUNS:
                path = GOLDEN_DIR / f"{name}.json"
                path.write_text(out, encoding="utf-8")
            else:
                path = GOLDEN_DIR / f"{name}.sha256"
                path.write_text(_digest(out) + "\n", encoding="utf-8")
            print(f"wrote {path}", file=sys.stderr)
