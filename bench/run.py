"""Benchmark of the nodal-expansion verifier.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the package is imported from
./src, not from an installed copy.  One workload runs as a closed loop, one
client issuing the workload's fixed list of operations back to back, in
whole rounds, until --seconds have passed.  Outputs are checked after the
timed phase by code that does not use the package (checks.py).  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
a traced phase gives the per-layer ones.  --workload all (the default) runs
each workload in its own process, one after another.
"""

from __future__ import annotations

import os

# One BLAS thread: with two threads on a shared two-core machine, a busy
# neighbour process made a 300-node heuristic verify_theorem1 take 2.1 s
# instead of 0.03 s, as the BLAS threads spin waiting for each other.  Set
# before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import glob
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from speed import Sampler
from tracing import OP_KEY, Tracer, layer_metrics

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
KEEP_SPANS = 200_000


def import_package():
    """Import nodal_expansion from ./src of the checkout, or exit 2."""
    src = ROOT / "src"
    if not (src / "nodal_expansion" / "__init__.py").is_file():
        print(f"error: no package source at {src}/nodal_expansion; "
              "run from the root of a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import nodal_expansion

    if Path(nodal_expansion.__file__).resolve().parent != (src / "nodal_expansion").resolve():
        print(f"error: imported {nodal_expansion.__file__}, not the checkout's copy",
              file=sys.stderr)
        sys.exit(2)
    return nodal_expansion


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                return int(fn())
    return None


def git_revision() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{model} ({platform.system()} {platform.release()})"


def metadata(args) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "git_revision": git_revision(),
    }


def warm_up(max_order: int) -> None:
    """First eigh calls were seen to take ~1 s at order 400, against ~0.02 s
    afterwards; pay that before the timed phase."""
    rng = np.random.default_rng(0)
    for n in sorted({min(400, max_order), max_order}):
        a = rng.standard_normal((n, n))
        np.linalg.eigh(a + a.T)


def fingerprint(op, result):
    """A summary of an operation's result that must repeat in every round."""
    if op.kind == "theorem":
        return (result.a, result.b, result.pos_classes, result.neg_classes,
                tuple(ch.passed for ch in result.checks))
    if op.kind == "corollary":
        return (result.holds, result.positive_verdict, result.negative_verdict)
    return result


def timed_phase(ops, sampler, seconds=None, rounds=None, tracer=None):
    """Issue the operation list in whole rounds until `seconds` have passed
    (or for `rounds` rounds).  Keeps the first round's results for checking
    and a fingerprint of every later one.  Latencies are on the sampler's
    clock, each with the speed factor of the readings around it."""
    calls = [op.call if tracer is None else tracer.span(OP_KEY, op.call) for op in ops]
    clock = sampler.clock
    latencies, marks = [], []
    first = [None] * len(ops)
    failures = []
    mismatches = 0
    done = 0
    start = perf_counter()
    while True:
        for i, call in enumerate(calls):
            if tracer is not None:
                tracer.op = done * len(ops) + i
            m0, t0 = sampler.mark(), clock()
            try:
                result = call()
            except Exception as exc:  # a failed operation is counted, not fatal
                result = exc
            latencies.append(clock() - t0)
            marks.append((m0, sampler.mark()))
            if isinstance(result, Exception):
                failures.append(f"{ops[i].label}: {type(result).__name__}: {result}")
            elif done == 0:
                first[i] = result
            elif first[i] is not None and fingerprint(ops[i], result) != fingerprint(ops[i], first[i]):
                mismatches += 1
        done += 1
        if rounds is not None and done >= rounds:
            break
        if rounds is None and perf_counter() - start >= seconds:
            break
    wall = perf_counter() - start
    while sampler.mark() <= marks[-1][1]:
        signal.pause()  # the reading after the last operation
    return {"latencies": latencies, "factors": [sampler.factor(*m) for m in marks],
            "first": first, "failures": failures, "mismatches": mismatches,
            "rounds": done, "wall": wall}


def check_outputs(ops, results) -> tuple[list[str], int]:
    """Errors from the independent checks, and the classes a + b summed over
    the round's theorem and proof operations."""
    from checks import GraphRef, check_corollary, check_proof, check_theorem

    errors, classes = [], 0
    refs = {}
    for op, res in zip(ops, results):
        if res is None:
            continue
        ref = refs.get(id(op.graph))
        if ref is None:
            ref = refs[id(op.graph)] = GraphRef.from_edges(op.graph.n, op.graph.edges)
        if op.kind == "theorem":
            errors += check_theorem(ref, op.k, res, op.mode, op.label)
            classes += res.a + res.b
        elif op.kind == "corollary":
            errors += check_corollary(ref, res, op.label)
        else:
            rc, text = res
            try:
                output = json.loads(text)
            except ValueError:
                output = None
            errors += check_proof(ref, op.k, op.pos, op.neg, rc, output, op.label)
            if output is not None:
                classes += output["a"] + output["b"]
    return errors, classes


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def per_op_medians(latencies, n_ops: int):
    """Each operation's median latency over the run's rounds.  The latency
    percentiles are taken over these, so that one instance caught in a burst
    of host load does not become the tail."""
    return np.median(np.asarray(latencies).reshape(-1, n_ops), axis=0)


def run_workload(args) -> int:
    ne = import_package()
    meta = metadata(args)
    meta["package"] = ne.__version__
    print("meta " + json.dumps(meta), flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    build = workloads.WORKLOADS[args.workload]
    setup_raw, setup_marks, workdir, wl = [], [], None, None
    sampler = Sampler()
    try:
        with sampler:
            for _ in range(SETUP_REPEATS if not args.trace else 1):
                if workdir is not None:
                    shutil.rmtree(workdir, ignore_errors=True)
                m0, t0 = sampler.mark(), sampler.clock()
                workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
                wl = build(args.seed, workdir)
                setup_raw.append(sampler.clock() - t0)
                setup_marks.append((m0, sampler.mark()))
            warm_up(wl.max_order)
            setup_times = [t * sampler.factor(*m) for t, m in zip(setup_raw, setup_marks)]

            if not args.trace:
                ph = timed_phase(wl.ops, sampler, seconds=args.seconds)
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            else:
                plain = timed_phase(wl.ops, sampler, seconds=args.seconds)
                tracer = Tracer(KEEP_SPANS, sampler.clock)
                patches = tracer.install()
                try:
                    ph = timed_phase(wl.ops, sampler, rounds=plain["rounds"], tracer=tracer)
                finally:
                    Tracer.uninstall(patches)
        if args.trace:
            tracer.write_spans(OUT_DIR / f"trace-{args.workload}.csv")
        errors, classes = check_outputs(wl.ops, ph["first"])
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    if ph["mismatches"]:
        errors.append(f"{ph['mismatches']} results differ from the first round's")
    attempted = len(ph["latencies"])
    failed = len(ph["failures"])
    for line in (ph["failures"][:5] + errors[:20]):
        print("error: " + line, file=sys.stderr)

    raw = ph["latencies"]
    scaled = [t * f for t, f in zip(raw, ph["factors"])]
    typical_raw = per_op_medians(raw, len(wl.ops))
    typical = per_op_medians(scaled, len(wl.ops))
    print(f"raw wall times: ops_per_s {attempted / sum(raw):.6g}, op_p50_ms "
          f"{percentile(typical_raw, 50) * 1e3:.6g}, op_p99_ms "
          f"{percentile(typical_raw, 99) * 1e3:.6g}, setup_s "
          f"{statistics.median(setup_raw):.6g}; mean speed factor "
          f"{sum(scaled) / sum(raw):.4f}")
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (attempted / sum(scaled), "1/s"),
            "op_p50_ms": (percentile(typical, 50) * 1e3, "ms"),
            "op_p99_ms": (percentile(typical, 99) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "heuristic_classes": (float(classes), "count"),
        }
    else:
        traced_s = sum(scaled)
        plain_s = sum(t * f for t, f in zip(plain["latencies"], plain["factors"]))
        metrics = layer_metrics(tracer, ph["rounds"], traced_s / sum(raw), traced_s - plain_s)
        covered = sum(v for k, v in tracer.self_s.items() if k != OP_KEY)
        print(f"trace: {ph['rounds']} rounds; operations took {sum(raw):.3f} s traced, "
              f"{sum(plain['latencies']):.3f} s untraced; layer self time {covered:.3f} s "
              f"({100 * covered / sum(raw):.1f}% of traced); "
              f"{len(tracer.spans)} spans kept, {tracer.dropped} dropped")

    print(f"{args.workload} seed={args.seed}: {attempted} operations in "
          f"{ph['rounds']} rounds of {len(wl.ops)}, {ph['wall']:.2f} s; "
          f"failed {failed}; checks {'passed' if not errors else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:16.6f} {unit}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    status = 0
    summary = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            summary[name] = {"exit": proc.returncode}
            continue
        summary[name] = json.loads(lines[-1])
        if not summary[name]["correct"] or summary[name]["failed"]:
            status = 1
    print(json.dumps(summary), flush=True)
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
