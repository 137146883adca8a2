"""Dump verification reports and search results as JSON lines, for
bit-identity checks.

    python3 tools/dump_reports.py [--max-n N] [--mode exact|heuristic] > out.jsonl

For every connected labeled graph with n <= N (default 6) it writes one line
per `verify_theorem1(g, k, mode)` report, k = 1..n-1, and one line per
`verify_corollary1(g)` report, n >= 3.  After each theorem line with
a + b >= 1 it writes one line of `run_checks` on `build_proof_objects` for
the report's classes, the path that `verify-proof` takes, which evaluates
each class by the cut kernel rather than reading the search's cuts; each
check with its flags.

Eigenvector weights never put a zero-weight node in a support, so each graph
also gets seeded weights of its own, about a quarter of them zero, and one
`search` line per call of the public search API on them: `phi` of the
odd-numbered nodes, `sweep_cut` on the Fiedler order (positive-weight nodes
first), and at each threshold in THRESHOLDS `is_expander`,
`max_partitionable` and `find_partition` at k = 1..n, in the given mode.  A
call that raises is written as its exception's class and message.

A fixed section of larger graphs follows, so that the dump also reaches the
index route (order 64 and above) and the certified low end (order 600 and
above) of the spectral solve: the `tests/proof_graphs.py` graphs of orders
600, 800 and 1200, a path on 300 nodes and a random 4-regular graph on 400.
For each it writes a heuristic `theorem` line at k = 2..4 with the `proof`
line of the report's classes, a `proof` line for each `proof_partition` of
y_k at (k, a, b) in PARTS, and an `expander-check` line with the stdout of
the in-process `expander-check --eigvec k --c 0.05 --mode heuristic`.

A last fixed section reaches the exact engine's split table (more than
13 positive-weight nodes): an exact `is_expander` line at each threshold in
THRESHOLDS for each `tests/split_cases.py` input (14 to 20 nodes), a
`corollary` line for each G(36, 0.2) graph in COROLLARY_SEEDS (both y_2
supports of 18 nodes), and for each argument list in DEMOS a
`demo-counterexample` line with the in-process command's exit code and
stdout, then a `demo-support` line with the exact verdicts that the
command prints, on the positive support at the half-gap c, weighted and
unweighted (null when the gap is degenerate).  The defaults give a 20-node
support.

A last fixed section reaches sweeps over near-zero weights: for each graph
and k in SWEEPS, an `expander-check` line with the in-process
`expander-check --eigvec k --c 0.05 --mode heuristic`'s exit code and
stdout.  Entries of y_k near a zero crossing give weights below one ulp of
the total: on the 160-cycle at k = 3 and on G(120, 0.05) seed 1 at k = 2.

Every float is written as `float.hex`, so two dumps are equal exactly when
every report is equal bit for bit, signed zeros included.  Run it from the
root of a checkout (the package is imported from ./src) on two revisions and
`diff` the outputs, or let `tools/compare_dumps.py [REV] [--max-n N]` do
it: it runs this script on REV's src/ (default HEAD) and on the working
tree's, in both modes, counts the differing lines of each kind and exits 1
on any difference.

The script pins BLAS to one thread (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS set to 1 before numpy is imported), whatever the
environment says.  A threaded BLAS sums in another order: on a 2-core
machine a run with the default thread count and a one-thread run of
`--max-n 3` differ in 24 `theorem`, 15 `proof` and 3 `expander-check`
lines of the larger graphs' section, so a diff between two dumps means
something only when both pinned the same count.  A dump from a revision
whose script does not pin it must be run with the three variables set to 1.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from nodal_expansion import cli, fileio  # noqa: E402
from nodal_expansion.certificate import (  # noqa: E402
    EigenSplit,
    build_proof_objects,
    run_checks,
    verify_corollary1,
    verify_theorem1,
)
from nodal_expansion.expansion import (  # noqa: E402
    MODES,
    find_partition,
    is_expander,
    max_partitionable,
    phi,
    sweep_cut,
)
from nodal_expansion.generators import (  # noqa: E402
    enumerate_connected_graphs,
    gen_cycle,
    gen_expander_path_expander,
    gen_gnp,
    gen_path,
    gen_random_regular,
)
from nodal_expansion.graph import laplacian  # noqa: E402
from nodal_expansion.spectral import canonical_sign  # noqa: E402

THRESHOLDS = (0.6, 1.5)
# (k, a, b) of the given partitions checked on the larger graphs
PARTS = ((2, 1, 1), (3, 2, 2), (2, 2, 1))
# G(36, 0.2) seeds whose y_2 supports both have 18 nodes
COROLLARY_SEEDS = (7, 17, 18, 30)
# demo-counterexample arguments: the defaults, and a degenerate gap
DEMOS = ((), ("--n-block", "4", "--d", "0"))
# (graph, k) of the sweeps over near-zero eigenvector weights
SWEEPS = ((gen_cycle(160), 3), (gen_gnp(120, 0.05, 1), 2))


def hexed(obj):
    """`obj` with every float replaced by its `float.hex` string."""
    if dataclasses.is_dataclass(obj):
        return hexed(dataclasses.asdict(obj))
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {key: hexed(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [hexed(v) for v in obj]
    return obj


def outcome(call):
    """The hexed result of `call()`, or its exception's class and message."""
    try:
        return hexed(call())
    except ValueError as e:
        return [type(e).__name__, str(e)]


def search_lines(g, w, mode):
    """(name, arguments, outcome) of each public search call on (g, w)."""
    f = np.linalg.eigh(laplacian(g))[1][:, 1]
    order = sorted(range(g.n), key=lambda i: (w[i] <= 0, float(f[i]), i))
    S = list(range(1, g.n, 2))
    yield "phi", S, outcome(lambda: phi(g, w, S))
    yield "sweep_cut", order, outcome(lambda: sweep_cut(g, w, order))
    for c in THRESHOLDS:
        yield "is_expander", c, outcome(lambda: is_expander(g, w, c, mode))
        yield "max_partitionable", c, outcome(lambda: max_partitionable(g, w, c, mode))
        for k in range(1, g.n + 1):
            yield "find_partition", [k, c], outcome(lambda: find_partition(g, w, k, c, mode))


def load_tests_module(name):
    """tests/<name>.py, loaded from its path."""
    path = Path.cwd() / "tests" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli_stdout(argv):
    """Exit code and stdout of the in-process command line `argv`."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.run(argv)
    return code, stdout.getvalue()


def proof_line(g, k, pos, neg):
    """The `run_checks` outcome on `build_proof_objects`, each check with
    its flags."""

    def checks():
        p = build_proof_objects(g, k, pos, neg)
        return [{**c.as_dict(), "flags": list(c.flags)} for c in run_checks(p)]

    return ["proof", outcome(checks)]


def large_lines(tmp: Path):
    """The lines of the larger graphs' section, in order."""
    pg = load_tests_module("proof_graphs")
    graphs = [pg.proof_graph(family, n) for n in pg.SIZES for family in pg.FAMILIES]
    for g in (gen_path(300), gen_random_regular(400, 4, 1)):
        vectors = np.linalg.eigh(laplacian(g))[1]
        graphs.append((g, {k: canonical_sign(vectors[:, k - 1]) for k in pg.KS}))
    graph = str(tmp / "g.txt")
    for g, ys in graphs:
        fileio.write_edge_list(g, graph)
        for k in (2, 3, 4):
            report = verify_theorem1(g, k, mode="heuristic")
            yield ["theorem", hexed(report.as_dict())]
            if report.a + report.b >= 1:
                yield proof_line(g, k, report.pos_classes, report.neg_classes)
        for k, a, b in PARTS:
            yield proof_line(g, k, *pg.proof_partition(ys[k], a, b))
        for k in (2, 3, 4):
            yield expander_check_line(graph, k)


def expander_check_line(graph, k):
    """The exit code and stdout of the in-process heuristic
    `expander-check --eigvec k --c 0.05` on the edge-list file `graph`."""
    argv = ["expander-check", graph, "--eigvec", str(k), "--c", "0.05", "--mode", "heuristic"]
    return ["expander-check", k, *cli_stdout(argv)]


def sweep_lines(tmp: Path):
    """The lines of the near-zero sweep section, in order."""
    graph = str(tmp / "g.txt")
    for g, k in SWEEPS:
        fileio.write_edge_list(g, graph)
        yield expander_check_line(graph, k)


def split_lines():
    """The lines of the split-table section, in order."""
    for name, g, w in load_tests_module("split_cases").split_cases():
        for c in THRESHOLDS:
            yield ["split-table", name, hexed(c), hexed(is_expander(g, w, c, "exact"))]
    for seed in COROLLARY_SEEDS:
        report = verify_corollary1(gen_gnp(36, 0.2, seed))
        yield ["corollary", hexed(report.as_dict())]
    for argv in DEMOS:
        args = cli.build_parser().parse_args(["demo-counterexample", *argv])
        yield ["demo-counterexample", list(argv), *cli_stdout(["demo-counterexample", *argv])]
        s = EigenSplit(gen_expander_path_expander(args.n_block, args.d, args.path_len,
                                                  args.seed), 2)
        sub, w_sub = s.side(0)
        verdicts = None
        if not s.degenerate:
            verdicts = [is_expander(sub.graph, v, s.c, "exact")
                        for v in (w_sub, np.ones(sub.graph.n))]
        yield ["demo-support", hexed(verdicts)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--mode", choices=MODES, default="exact")
    args = ap.parse_args()
    out = sys.stdout
    rng = np.random.default_rng(0)
    for n in range(2, args.max_n + 1):
        for g in enumerate_connected_graphs(n):
            for k in range(1, n):
                report = verify_theorem1(g, k, mode=args.mode)
                out.write(json.dumps(["theorem", hexed(report.as_dict())]) + "\n")
                if report.a + report.b >= 1:
                    line = proof_line(g, k, report.pos_classes, report.neg_classes)
                    out.write(json.dumps(line) + "\n")
            if n >= 3:
                report = verify_corollary1(g)
                out.write(json.dumps(["corollary", hexed(report.as_dict())]) + "\n")
            w = rng.random(n) * (rng.random(n) >= 0.25)
            for line in search_lines(g, w, args.mode):
                out.write(json.dumps(["search", *hexed(line)]) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        for line in large_lines(Path(tmp)):
            out.write(json.dumps(line) + "\n")
        for line in split_lines():
            out.write(json.dumps(line) + "\n")
        for line in sweep_lines(Path(tmp)):
            out.write(json.dumps(line) + "\n")


if __name__ == "__main__":
    main()
