"""In-memory span tracing of the package's public functions, installed from
outside the package.

Each traced function is replaced by a wrapper at every place a caller looks
it up: the defining module, each module that imported it by name, and the
package namespace.  A span records its name, start, end, parent span and
operation.  Self time is a span's duration minus the time its child spans
cover; it is summed per layer key, so the keys' self times add up to the
traced wall time less the benchmark's own loop.
"""

from __future__ import annotations

import csv
import importlib
from collections import defaultdict
from pathlib import Path

PACKAGE = "nodal_expansion"
MODULES = ("graph", "spectral", "expansion", "certificate", "fileio", "cli", "generators")

# (defining module, function, layer key)
TARGETS = (
    ("graph", "laplacian", "graph.laplacian"),
    ("graph", "sign_support", "graph.sign_support"),
    ("graph", "induced_subgraph", "graph.induced_subgraph"),
    ("spectral", "eigendecompose", "spectral.eigendecompose"),
    ("spectral", "select_eigenpair", "spectral.select_eigenpair"),
    ("expansion", "max_partitionable", "expansion.max_partitionable"),
    ("expansion", "find_partition", "expansion.find_partition"),
    ("expansion", "is_expander", "expansion.is_expander"),
    ("expansion", "phi", "expansion.phi"),
    ("expansion", "sweep_cut", "expansion.sweep_cut"),
    ("certificate", "build_proof_objects", "certificate.build_proof_objects"),
    ("certificate", "build_C", "certificate.checks"),
    ("certificate", "check_B_sign_pattern", "certificate.checks"),
    ("certificate", "check_Bz_zero", "certificate.checks"),
    ("certificate", "check_interlacing", "certificate.checks"),
    ("certificate", "check_C_diagonal", "certificate.checks"),
    ("certificate", "check_CminusB_psd", "certificate.checks"),
    ("certificate", "check_lambda_max_C", "certificate.checks"),
    ("certificate", "class_expansions", "certificate.class_expansions"),
    ("certificate", "verify_theorem1", "certificate.verify"),
    ("certificate", "verify_corollary1", "certificate.verify"),
    ("certificate", "verify_prop_sum", "certificate.verify"),
    ("fileio", "read_edge_list", "fileio.read"),
    ("fileio", "read_partition", "fileio.read"),
    ("fileio", "read_weights", "fileio.read"),
    ("cli", "run", "cli"),
    ("cli", "emit_json", "cli.emit_json"),
)

# The benchmark's own span around each operation; its self time is the part
# of an operation no layer accounts for.
OP_KEY = "bench.op"


class Tracer:
    """Span store and per-key aggregates for one traced phase."""

    def __init__(self, keep_spans: int, clock):
        self.keep_spans = keep_spans
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.rows = 0  # sum of matrix orders passed to eigendecompose
        self.hits = 0  # find_partition calls that returned a certificate
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = -1
        self._stack: list[list] = []
        self._next_id = 0

    def span(self, key: str, fn):
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = self._next_id
            self._next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                self.self_s[key] += dur - frame[0]
                self.calls[key] += 1
                if len(self.spans) < self.keep_spans:
                    self.spans.append(
                        (sid, parent[1] if parent else -1, self.op, key, t0, t1)
                    )
                else:
                    self.dropped += 1
            if key == "spectral.eigendecompose":
                self.rows += len(args[0])
            elif key == "expansion.find_partition" and result is not None:
                self.hits += 1
            return result

        return traced

    def install(self) -> list[tuple]:
        """Wrap every target at every lookup site; returns what `uninstall`
        needs to put the originals back."""
        mods = [importlib.import_module(PACKAGE)]
        mods += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        patches = []
        for home, name, key in TARGETS:
            orig = getattr(importlib.import_module(f"{PACKAGE}.{home}"), name)
            wrapped = self.span(key, orig)
            for mod in mods:
                for attr in [a for a, v in vars(mod).items() if v is orig]:
                    patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        return patches

    @staticmethod
    def uninstall(patches: list[tuple]) -> None:
        for mod, attr, orig in reversed(patches):
            setattr(mod, attr, orig)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["span", "parent", "op", "name", "start_s", "end_s"])
            t_base = self.spans[0][4] if self.spans else 0.0
            for sid, parent, op, key, t0, t1 in self.spans:
                out.writerow([sid, parent, op, key, f"{t0 - t_base:.9f}", f"{t1 - t_base:.9f}"])


def layer_metrics(tr: Tracer, rounds: int, speed: float,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round of the operation list: the traced phase's
    sums divided by the rounds it completed, so counts repeat exactly.  Self
    times are scaled by the phase's mean speed factor `speed`; the overhead
    is already in reference-speed seconds."""
    per = 1.0 / rounds

    def s(key):
        return (tr.self_s.get(key, 0.0) * per * speed, "s")

    def n(key):
        return (tr.calls.get(key, 0) * per, "count")

    fp_calls = tr.calls.get("expansion.find_partition", 0)
    return {
        "graph.laplacian_s": s("graph.laplacian"),
        "graph.laplacian_calls": n("graph.laplacian"),
        "graph.sign_support_s": s("graph.sign_support"),
        "graph.sign_support_calls": n("graph.sign_support"),
        "graph.induced_subgraph_s": s("graph.induced_subgraph"),
        "graph.induced_subgraph_calls": n("graph.induced_subgraph"),
        "spectral.eigendecompose_s": s("spectral.eigendecompose"),
        "spectral.eigendecompose_calls": n("spectral.eigendecompose"),
        "spectral.eigendecompose_rows": (tr.rows * per, "count"),
        "spectral.select_eigenpair_s": s("spectral.select_eigenpair"),
        "expansion.max_partitionable_s": s("expansion.max_partitionable"),
        "expansion.max_partitionable_calls": n("expansion.max_partitionable"),
        "expansion.find_partition_s": s("expansion.find_partition"),
        "expansion.find_partition_calls": n("expansion.find_partition"),
        "expansion.find_partition_hit_ratio": (tr.hits / fp_calls if fp_calls else 0.0, "ratio"),
        "expansion.is_expander_s": s("expansion.is_expander"),
        "expansion.is_expander_calls": n("expansion.is_expander"),
        "expansion.phi_s": s("expansion.phi"),
        "expansion.phi_calls": n("expansion.phi"),
        "expansion.sweep_cut_s": s("expansion.sweep_cut"),
        "expansion.sweep_cut_calls": n("expansion.sweep_cut"),
        "certificate.build_proof_objects_s": s("certificate.build_proof_objects"),
        "certificate.build_proof_objects_calls": n("certificate.build_proof_objects"),
        "certificate.checks_s": s("certificate.checks"),
        "certificate.checks_calls": n("certificate.checks"),
        "certificate.class_expansions_s": s("certificate.class_expansions"),
        "certificate.verify_self_s": s("certificate.verify"),
        "fileio.read_s": s("fileio.read"),
        "fileio.read_calls": n("fileio.read"),
        "cli.self_s": s("cli"),
        "cli.emit_json_s": s("cli.emit_json"),
        "trace.overhead_s": (overhead_s * per, "s"),
    }
