"""The bit-identity tool `tools/dump_reports.py` runs from the repository
root and writes every kind of line.  It loads `tests/proof_graphs.py` and
`tests/split_cases.py` by path, so a rename there would break it."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = {
    "theorem",
    "proof",
    "search",
    "corollary",
    "split-table",
    "demo-counterexample",
    "demo-support",
    "expander-check",
}


def test_dump_reports_writes_every_line_kind():
    res = subprocess.run(
        [sys.executable, "tools/dump_reports.py", "--max-n", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    kinds = {json.loads(line)[0] for line in res.stdout.splitlines()}
    assert KINDS <= kinds
