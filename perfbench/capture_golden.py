"""Write golden.json: the outputs the benchmark checks against.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/capture_golden.py

It keeps only the values the checks compare: the pruned polytopes of
`polytope-path7`, and for the two CLI commands the per-k diagrams, pruned
vertex sets, fitted trajectories, verdict and reference-comparison fields.
The scan's `ideal` field is left out because it depends on the seed's
variable permutation.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bettistab  # noqa: E402
import bettistab.cli  # noqa: E402

import workloads  # noqa: E402


def cli_json(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = bettistab.cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited with {code}")
    return json.loads(out.getvalue())


def polytope_golden() -> dict:
    golden = {}
    for k in workloads.POLYTOPE_VERTICES:
        diagram = bettistab.path_diagram(workloads.POLYTOPE_N, k)
        polytope = bettistab.prune(
            bettistab.enumerate_vertices(
                bettistab.build_polytope(diagram, bettistab.candidate_degree_sequences(diagram))
            )
        ).to_json_dict()
        golden[f"path{workloads.POLYTOPE_N}-k{k}"] = {
            "candidates": polytope["candidates"],
            "vertices": polytope["vertices"],
        }
    return golden


def verify_paper_golden() -> dict:
    report = cli_json(workloads.VERIFY_PAPER_ARGV)
    return {
        "window": report["window"],
        "reconstruction_ok": report["reconstruction_ok"],
        "all_zero_patterns_match": report["all_zero_patterns_match"],
        "vertices": [
            {
                "reference": v["reference"],
                "computed": v["computed"],
                "zero_pattern_match": v["zero_pattern_match"],
                "coordinates": [
                    {
                        "template": c["template"],
                        "exact_equal": c["exact_equal"],
                        "computed_fit": c["computed_fit"],
                    }
                    for c in v["coordinates"]
                ],
            }
            for v in report["vertices"]
        ],
    }


def scan_golden(workdir: Path) -> dict:
    path = workdir / "c4.json"
    ideal = bettistab.make_ideal(4, workloads.C4_GENERATORS)
    path.write_text(json.dumps(ideal.to_json_dict()), encoding="utf-8")
    lo, hi = workloads.SCAN_RANGE
    report = cli_json(["scan", "--ideal", str(path), "--kmin", lo, "--kmax", hi])
    return {
        "per_k": [
            {
                "k": r["k"],
                "diagram": r["diagram"],
                "polytope": {
                    "candidates": r["polytope"]["candidates"],
                    "vertices": r["polytope"]["vertices"],
                },
            }
            for r in report["per_k"]
        ],
        "trajectories": [
            {"vertex": t["vertex"], "coordinate": t["coordinate"], "fit": t["fit"]}
            for t in report["trajectories"]
        ],
        "verdict": report["verdict"],
    }


def main() -> None:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        golden = {
            "polytope-path7": polytope_golden(),
            "cli": {
                "verify-paper": verify_paper_golden(),
                "scan-c4": scan_golden(Path(tmp)),
            },
        }
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
