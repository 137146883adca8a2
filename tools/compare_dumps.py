"""Compare the report dumps of a revision and of the working tree.

    python3 tools/compare_dumps.py [REV] [--max-n N]

Runs the working tree's `tools/dump_reports.py`, with the working tree's
`tests/` helper modules, on REV's `src/` (taken by `git archive`, default
HEAD) and on the working tree's `src/`, in exact and in heuristic mode,
passing `--max-n` through.  The two sides of a mode run side by side.
For each mode it prints the line count of each side and the number of
differing lines of each line kind (`theorem`, `proof`, `search`, ...), and
it exits 1 when any line differs.  Of the differing `theorem` lines it also
counts those whose a + b is higher, equal and lower in the working tree,
and those whose set of failing checks changed, so that "a + b never falls
and no check flips" can be read off its output.  The dump script pins
BLAS to one thread itself, so both sides sum in the same order.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def checkout(rev: str, dest: Path) -> None:
    """REV's src/ under a new directory dest, beside a link to the working
    tree's tests/."""
    dest.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src"], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    (dest / "tests").symlink_to(ROOT / "tests")


def dump(cwd: Path, mode: str, max_n: int, out: Path) -> subprocess.Popen:
    """The dump script, run from cwd, writing to out."""
    argv = [sys.executable, str(ROOT / "tools" / "dump_reports.py"),
            "--max-n", str(max_n), "--mode", mode]
    with open(out, "w") as f:
        return subprocess.Popen(argv, cwd=cwd, stdout=f)


def differing_kinds(old: Path, new: Path) -> tuple[int, int, Counter, Counter]:
    """Line counts of both dumps, the differing lines per line kind, and the
    tallies of `theorem_change` over the pairs of differing `theorem`
    lines; a line that only one dump has counts under its own kind."""
    lines, kinds, theorems = [0, 0], Counter(), Counter()
    with open(old) as a, open(new) as b:
        for la, lb in itertools.zip_longest(a, b):
            lines[0] += la is not None
            lines[1] += lb is not None
            if la != lb:
                kinds[json.loads(la or lb)[0]] += 1
                if la is not None and lb is not None:
                    theorems.update(theorem_change(json.loads(la), json.loads(lb)))
    return lines[0], lines[1], kinds, theorems


def theorem_change(old: list, new: list) -> list[str]:
    """How a pair of `theorem` lines differs: whether a + b is higher, equal
    or lower in the new line, and whether its set of failing checks
    changed; nothing for other lines."""
    if old[0] != "theorem" or new[0] != "theorem":
        return []
    ra, rb = old[1], new[1]
    step = (rb["a"] + rb["b"]) - (ra["a"] + ra["b"])
    out = ["a + b higher" if step > 0 else "a + b lower" if step < 0 else "a + b equal"]

    def failing(report):
        return {c["name"] for c in report["checks"] if not c["passed"]}

    if failing(ra) != failing(rb):
        out.append("failing checks changed")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", default="HEAD")
    ap.add_argument("--max-n", type=int, default=6)
    args = ap.parse_args()
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = tmp / "rev"
        checkout(args.rev, base)
        for mode in ("exact", "heuristic"):
            old, new = tmp / f"rev-{mode}.jsonl", tmp / f"tree-{mode}.jsonl"
            runs = [dump(base, mode, args.max_n, old), dump(ROOT, mode, args.max_n, new)]
            if any([run.wait() for run in runs]):  # wait for both
                raise SystemExit(f"{mode}: a dump failed")
            n_old, n_new, kinds, theorems = differing_kinds(old, new)
            print(f"{mode}: {n_old} lines at {args.rev}, {n_new} in the working tree, "
                  f"{sum(kinds.values())} differing")
            for kind, count in sorted(kinds.items()):
                print(f"  {kind}: {count}")
            if kinds["theorem"]:
                tallies = ("a + b higher", "a + b equal", "a + b lower", "failing checks changed")
                print("  theorem lines: " + ", ".join(f"{t} {theorems[t]}" for t in tallies))
            differ |= bool(kinds)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
