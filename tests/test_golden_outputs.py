"""Byte-for-byte golden outputs of three CLI runs.

Each file in `tests/golden/` holds the exact stdout of `cli.main` for one
run: the paper comparison over k = 4..11, an oracle-mode scan of the
4-cycle over k = 1..7, and a closed-form scan of the six-variable path
over k = 4..11.  A refactor must leave all three unchanged.  When a change
alters the output on purpose, regenerate the files with

    PYTHONPATH=src python tests/test_golden_outputs.py

and review the diff of `tests/golden/` together with the change.
"""

import contextlib
import io
import pathlib
import sys
import tempfile

import pytest

from bettistab.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

IDEALS = {
    "c4": "x1*x2, x2*x3, x3*x4, x1*x4\n",
    "path6": "x1*x2, x2*x3, x3*x4, x4*x5, x5*x6\n",
}

RUNS = {
    "verify_paper_n6_k4_11": ["verify-paper", "--n", "6", "--kmin", "4", "--kmax", "11"],
    "scan_c4_oracle_k1_7": ["scan", "--ideal", "{c4}", "--kmin", "1", "--kmax", "7"],
    "scan_path6_formula_k4_11": [
        "scan", "--ideal", "{path6}", "--kmin", "4", "--kmax", "11",
    ],
}


def run_stdout(name, ideal_dir):
    """Exit code and stdout of `cli.main` for the named run."""
    paths = {key: ideal_dir / f"{key}.txt" for key in IDEALS}
    for key, text in IDEALS.items():
        paths[key].write_text(text, encoding="utf-8")
    argv = [arg.format(**paths) for arg in RUNS[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden(name, tmp_path):
    code, out = run_stdout(name, tmp_path)
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")


def test_verify_paper_from_k1_matches_golden():
    # The window still starts at k = 4, so a scan from k = 1 prints the same
    # record as the default 4..11 run.
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify-paper", "--kmin", "1", "--kmax", "11"])
    assert code == 0
    golden = GOLDEN_DIR / "verify_paper_n6_k4_11.json"
    assert out.getvalue() == golden.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS):
            code, out = run_stdout(name, pathlib.Path(tmp))
            if code != 0:
                sys.exit(f"{name}: exit code {code}")
            (GOLDEN_DIR / f"{name}.json").write_text(out, encoding="utf-8")
            print(f"wrote {GOLDEN_DIR / name}.json", file=sys.stderr)
