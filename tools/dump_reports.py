"""Dump verification reports as JSON lines, for bit-identity checks.

    python3 tools/dump_reports.py [--max-n N] [--mode exact|heuristic] > out.jsonl

For every connected labeled graph with n <= N (default 6) it writes one line
per `verify_theorem1(g, k, mode)` report, k = 1..n-1, and one line per
`verify_corollary1(g)` report, n >= 3.  After each theorem line with
a + b >= 1 it writes one line of `run_checks` on `build_proof_objects` for
the report's classes, the path that `verify-proof` takes, which evaluates
each class with `phi` rather than reading the search's cuts; each check
with its flags.  Every float is written as
`float.hex`, so two dumps are equal exactly when every report is equal bit
for bit, signed zeros included.  Run it from the root of a checkout (the
package is imported from ./src) on two revisions and `diff` the outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from nodal_expansion.certificate import (  # noqa: E402
    build_proof_objects,
    run_checks,
    verify_corollary1,
    verify_theorem1,
)
from nodal_expansion.generators import enumerate_connected_graphs  # noqa: E402


def hexed(obj):
    """`obj` with every float replaced by its `float.hex` string."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {key: hexed(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [hexed(v) for v in obj]
    return obj


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    args = ap.parse_args()
    out = sys.stdout
    for n in range(2, args.max_n + 1):
        for g in enumerate_connected_graphs(n):
            for k in range(1, n):
                report = verify_theorem1(g, k, mode=args.mode)
                out.write(json.dumps(["theorem", hexed(report.as_dict())]) + "\n")
                if report.a + report.b >= 1:
                    p = build_proof_objects(g, k, report.pos_classes, report.neg_classes)
                    checks = [{**c.as_dict(), "flags": list(c.flags)} for c in run_checks(p)]
                    out.write(json.dumps(["proof", hexed(checks)]) + "\n")
            if n >= 3:
                report = verify_corollary1(g)
                out.write(json.dumps(["corollary", hexed(report.as_dict())]) + "\n")


if __name__ == "__main__":
    main()
