"""Command-line front end.

JSON results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure (theorem / corollary / proof-step violation),
2 usage or input error, 3 a valid input beyond an exact-search cap.  Floats
are printed with 12 significant digits so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import certificate as ct
from . import expansion as xp
from . import fileio
from . import generators as gen
from .graph import GraphError
from .spectral import laplacian_decomposition

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round_floats(obj):
    """Normalize every float to 12 significant digits for stable output."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, (np.floating,)):
        return float(fmt(float(obj)))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def emit_json(obj) -> None:
    print(json.dumps(_round_floats(obj), indent=2))


def _load_weights(args, g):
    if args.weights is not None:
        return fileio.read_weights(args.weights, g.n)
    # EigenSplit raises IndexError, which `run` does not report as a usage error
    if not 1 <= args.eigvec <= g.n:
        raise ValueError(f"--eigvec {args.eigvec} outside [1,{g.n}]")
    return ct.EigenSplit(g, args.eigvec).w


def cmd_spectrum(args) -> int:
    g = fileio.read_edge_list(args.file)
    d = laplacian_decomposition(g)
    print(",".join(fmt(v) for v in d.values))
    return EXIT_OK


def cmd_analyze(args) -> int:
    g = fileio.read_edge_list(args.file)
    report = ct.verify_theorem1(g, args.k, mode=args.mode)
    emit_json(report.as_dict())
    return EXIT_OK if report.theorem_holds else EXIT_CHECK_FAILED


def cmd_expander_check(args) -> int:
    g = fileio.read_edge_list(args.file)
    w = _load_weights(args, g)
    v = xp.is_expander(g, w, args.c, mode=args.mode)
    emit_json(
        {
            "is_expander": bool(v.is_expander),
            "c": args.c,
            "mode": v.mode,
            "min_phi": None if v.min_phi is None else float(v.min_phi),
            "witness": None if v.witness is None else list(v.witness),
        }
    )
    return EXIT_OK


def cmd_partition(args) -> int:
    g = fileio.read_edge_list(args.file)
    w = _load_weights(args, g)
    cert = xp.find_partition(g, w, args.k, args.c, mode=args.mode)
    if cert is None:
        emit_json({"found": False, "k": args.k, "c": args.c, "mode": args.mode})
    else:
        emit_json(
            {
                "found": True,
                "k": args.k,
                "c": args.c,
                "mode": args.mode,
                "classes": [list(cls) for cls in cert.classes],
                "phis": [float(p) for p in cert.phis],
                "valid": bool(cert.valid),
            }
        )
    return EXIT_OK


def cmd_verify_proof(args) -> int:
    g = fileio.read_edge_list(args.file)
    pos = fileio.read_partition(args.pos)
    neg = fileio.read_partition(args.neg)
    p = ct.build_proof_objects(g, args.k, pos, neg)
    checks = ct.run_checks(p)
    emit_json({"k": args.k, "a": p.a, "b": p.b, "checks": [c.as_dict() for c in checks]})
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED


# each `gen` family: its generator, the kinds of its parameters ("i" an
# integer literal, "f" a finite float), how many of them it needs (the rest
# are None when left out) and whether it takes --seed
_GEN_FAMILIES = {
    "path": (gen.gen_path, "i", 1, False),
    "cycle": (gen.gen_cycle, "i", 1, False),
    "complete": (gen.gen_complete, "i", 1, False),
    "gnp": (gen.gen_gnp, "if", 2, True),
    "random-regular": (gen.gen_random_regular, "ii", 2, True),
    "expander-path-expander": (gen.gen_expander_path_expander, "iii", 2, True),
}


def _gen_params(family: str, texts: list[str]) -> list:
    """The parameters of a `gen` family, parsed strictly and padded with
    None; GenerationError on a wrong count, a non-integer literal or a
    non-finite float."""
    _, kinds, least, _ = _GEN_FAMILIES[family]
    if not least <= len(texts) <= len(kinds):
        count = f"{least} or {len(kinds)}" if least < len(kinds) else str(least)
        raise gen.GenerationError(f"{family} takes {count} parameters, got {len(texts)}")
    out = []
    for kind, text in zip(kinds, texts):
        if kind == "i":
            if not re.fullmatch(r"[+-]?[0-9]+", text):
                raise gen.GenerationError(f"expected an integer, got {text!r}")
            out.append(int(text))
            continue
        try:
            x = float(text)
        except ValueError:
            raise gen.GenerationError(f"expected a number, got {text!r}") from None
        if not math.isfinite(x):
            raise gen.GenerationError(f"expected a finite number, got {text!r}")
        out.append(x)
    return out + [None] * (len(kinds) - len(out))


def cmd_gen(args) -> int:
    generator, _, _, seeded = _GEN_FAMILIES[args.family]
    params = _gen_params(args.family, args.params)
    g = generator(*params, *([args.seed] if seeded else []))
    text = fileio.format_edge_list(g)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_demo_counterexample(args) -> int:
    g = gen.gen_expander_path_expander(args.n_block, args.d, args.path_len, args.seed)
    s = ct.EigenSplit(g, 2)
    lambda_2, lambda_3 = (float(v) for v in s.spectrum.values[1:3])
    c = s.c
    out = {
        "n": g.n,
        "m": g.m,
        "lambda_2": lambda_2,
        "lambda_3": lambda_3,
        "c": float(c),
        # a degenerate gap takes no verdict, the gap ordering's neither
        "gap_ordering_holds": None if s.degenerate else lambda_2 < lambda_3 - lambda_2,
        "positive_support": list(s.support.positive),
    }
    if s.degenerate:
        no_verdict = {"min_phi": None, "is_expander": None}
        emit_json({**out, "weighted": no_verdict,
                   "unweighted": {**no_verdict, "witness": None},
                   "flags": ["degenerate_gap"]})
        return EXIT_OK
    sub, w_sub = s.side(0)
    weighted = xp.is_expander(sub.graph, w_sub, c, mode="exact")
    ones = np.ones(sub.graph.n)
    unweighted = xp.is_expander(sub.graph, ones, c, mode="exact")
    emit_json(
        {
            **out,
            "weighted": {
                "min_phi": None if weighted.min_phi is None else float(weighted.min_phi),
                "is_expander": bool(weighted.is_expander),
            },
            "unweighted": {
                "min_phi": None if unweighted.min_phi is None else float(unweighted.min_phi),
                "is_expander": bool(unweighted.is_expander),
                "witness": None
                if unweighted.witness is None
                else sub.to_parent_set(unweighted.witness),
            },
        }
    )
    return EXIT_OK


def cmd_batch_verify(args) -> int:
    violations = 0
    for n in range(2, args.max_n + 1):
        if n <= 6:
            graphs = gen.enumerate_connected_graphs(n)
        else:
            graphs = gen.sample_connected_graphs(n, args.sample, args.seed)
        tested = 0
        for g in graphs:
            for k in range(2, n):
                report = ct.verify_theorem1(g, k, mode="exact")
                if report.degenerate_gap_flag:
                    continue
                tested += 1
                if not report.theorem_holds:
                    violations += 1
                    print(
                        f"VIOLATION n={n} k={k} edges={list(g.edges)}",
                        file=sys.stderr,
                    )
        print(f"n={n}: {tested} instances verified")
    print(f"violations: {violations}")
    return EXIT_OK if violations == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nodal-expansion",
        description="Weighted expansion of Laplacian eigenvector supports, "
        "with mechanical theorem verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="print Laplacian eigenvalues as CSV")
    p.add_argument("file")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("analyze", help="verify the main theorem for (graph, k)")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=xp.MODES, default="exact")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("expander-check", help="c-expander verdict under weights")
    p.add_argument("file")
    p.add_argument("--c", type=float, required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--eigvec", type=int, help="use squared k-th eigenvector")
    grp.add_argument("--weights", help="weights file")
    p.add_argument("--mode", choices=xp.MODES, default="exact")
    p.set_defaults(func=cmd_expander_check)

    p = sub.add_parser("partition", help="search a (k,c)-partition")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--eigvec", type=int)
    grp.add_argument("--weights")
    p.add_argument("--mode", choices=xp.MODES, default="exact")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("verify-proof", help="run all proof-step checks")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pos", required=True, help="positive-side partition file")
    p.add_argument("--neg", required=True, help="negative-side partition file")
    p.set_defaults(func=cmd_verify_proof)

    p = sub.add_parser("gen", help="generate a graph family edge list")
    p.add_argument("family", choices=list(_GEN_FAMILIES))
    p.add_argument("params", nargs="+")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "demo-counterexample",
        help="weighted vs unweighted expansion of the bridged-expanders family",
    )
    p.add_argument("--n-block", type=int, default=10)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--path-len", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_demo_counterexample)

    p = sub.add_parser("batch-verify", help="exhaustive small-graph theorem sweep")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample", type=int, default=50000)
    p.set_defaults(func=cmd_batch_verify)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except xp.ExactCapExceeded as e:
        # a valid input too large for a proof, not a usage error
        hint = "; --mode heuristic gives a lower bound" if hasattr(args, "mode") else ""
        print(f"error: {e}{hint}", file=sys.stderr)
        return EXIT_CAP
    except (OSError, fileio.ParseError, GraphError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
