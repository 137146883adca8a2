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
and of the differing `theorem` and `proof` lines those whose set of failing
checks changed, so that "a + b never falls and no check flips" can be read
off its output.  The dump script pins BLAS to one thread itself, so both
sides sum in the same order.
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
# the tallies printed for the differing lines of each kind
TALLIES = {
    "theorem": ("a + b higher", "a + b equal", "a + b lower", "failing checks changed"),
    "proof": ("failing checks changed",),
}


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
    tallies of `line_change` over the pairs of differing lines, keyed by
    kind; a line that only one dump has counts under its own kind."""
    lines, kinds, changes = [0, 0], Counter(), Counter()
    with open(old) as a, open(new) as b:
        for la, lb in itertools.zip_longest(a, b):
            lines[0] += la is not None
            lines[1] += lb is not None
            if la != lb:
                kinds[json.loads(la or lb)[0]] += 1
                if la is not None and lb is not None:
                    changes.update(line_change(json.loads(la), json.loads(lb)))
    return lines[0], lines[1], kinds, changes


def line_change(old: list, new: list) -> list[tuple[str, str]]:
    """How a pair of `theorem` or `proof` lines differs, as (kind, tally)
    pairs: for `theorem` whether a + b is higher, equal or lower in the new
    line, and for both whether the set of failing checks changed; nothing
    for other lines."""
    kind = old[0]
    if kind != new[0] or kind not in TALLIES:
        return []
    out = []
    checks = old[1], new[1]
    if kind == "theorem":
        step = sum(new[1][side] - old[1][side] for side in "ab")
        out.append("a + b higher" if step > 0 else "a + b lower" if step < 0 else "a + b equal")
        checks = old[1]["checks"], new[1]["checks"]
    if failing(checks[0]) != failing(checks[1]):
        out.append("failing checks changed")
    return [(kind, tally) for tally in out]


def failing(checks: list) -> set:
    """The names of the failing checks; a `proof` line's exception outcome,
    [class, message], counts as itself."""
    if checks and isinstance(checks[0], str):
        return {tuple(checks)}
    return {c["name"] for c in checks if not c["passed"]}


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
            n_old, n_new, kinds, changes = differing_kinds(old, new)
            print(f"{mode}: {n_old} lines at {args.rev}, {n_new} in the working tree, "
                  f"{sum(kinds.values())} differing")
            for kind, count in sorted(kinds.items()):
                print(f"  {kind}: {count}")
            for kind, tallies in TALLIES.items():
                if kinds[kind]:
                    print(f"  {kind} lines: "
                          + ", ".join(f"{t} {changes[kind, t]}" for t in tallies))
            differ |= bool(kinds)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
