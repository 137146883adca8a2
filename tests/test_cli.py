import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_expansion import cli
from nodal_expansion import fileio
from nodal_expansion import spectral
from nodal_expansion.expansion import is_expander
from nodal_expansion.generators import (
    gen_cycle,
    gen_expander_path_expander,
    gen_gnp,
    gen_path,
    gen_random_regular,
)
from nodal_expansion.graph import build_graph, is_connected
from nodal_expansion.spectral import laplacian_decomposition

from proof_graphs import FAMILIES, SIZES, proof_graph, proof_partition


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    fileio.write_edge_list(gen_path(3), path)
    return str(path)


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    fileio.write_edge_list(gen_path(4), path)
    return str(path)


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out


def test_spectrum_golden(capsys, p3_file):
    code, out = run_capture(capsys, ["spectrum", p3_file])
    assert code == 0
    # frozen from a reference run; the eigenvalues are 0, 1, 3 to rounding
    assert out == "9.99658224412e-17,1,3\n"


def test_analyze_p4(capsys, p4_file):
    code, out = run_capture(capsys, ["analyze", p4_file, "--k", "2", "--mode", "exact"])
    assert code == 0
    report = json.loads(out)
    assert report["theorem_holds"] is True
    assert report["a"] == 1 and report["b"] == 1


def test_byte_identical_reruns(capsys, p4_file):
    _, out1 = run_capture(capsys, ["analyze", p4_file, "--k", "2"])
    _, out2 = run_capture(capsys, ["analyze", p4_file, "--k", "2"])
    assert out1 == out2


def test_gen_path_golden(tmp_path, capsys):
    out_file = tmp_path / "out.txt"
    code, _ = run_capture(capsys, ["gen", "path", "2", "-o", str(out_file)])
    assert code == 0
    assert out_file.read_text() == "2 1\n0 1\n"


def test_gen_to_stdout(capsys):
    code, out = run_capture(capsys, ["gen", "cycle", "3"])
    assert code == 0
    assert out == "3 3\n0 1\n0 2\n1 2\n"


def test_expander_check_eigvec(capsys, p3_file):
    code, out = run_capture(
        capsys, ["expander-check", p3_file, "--eigvec", "2", "--c", "0.5"]
    )
    assert code == 0
    assert json.loads(out)["mode"] == "exact"


@pytest.mark.parametrize(
    "g, k",
    [(gen_cycle(160), 3), (gen_gnp(120, 0.05, 1), 2)],
    ids=["cycle160-k3", "gnp120-seed1-k2"],
)
def test_expander_check_eigvec_near_zero_weights(capsys, tmp_path, g, k):
    """y_k has entries near its zero crossings, whose squares lie below one
    ulp of the total weight; every sweep prefix that leaves a positive
    weight on both sides is still a proper cut, and the search has one."""
    path = tmp_path / "g.txt"
    fileio.write_edge_list(g, path)
    code, out = run_capture(
        capsys,
        ["expander-check", str(path), "--eigvec", str(k), "--c", "0.05", "--mode", "heuristic"],
    )
    assert code == 0
    res = json.loads(out)
    assert res["is_expander"] is False and res["min_phi"] < 1e-16


@st.composite
def eigvec_instances(draw):
    """A cycle, path, G(n, 6/n) or 3-regular graph of 20 to 200 nodes, and
    an index k of 2 to 4.  n is drawn uniformly, from a seed, so that the
    examples spread over the whole range."""
    family = draw(st.sampled_from(["cycle", "path", "gnp", "regular"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 2 * int(rng.integers(10, 101))
    seed = int(rng.integers(10))
    g = {
        "cycle": lambda: gen_cycle(n),
        "path": lambda: gen_path(n),
        "gnp": lambda: gen_gnp(n, 6 / n, seed),
        "regular": lambda: gen_random_regular(n, 3, seed),
    }[family]()
    return g, draw(st.integers(2, 4))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(eigvec_instances())
def test_eigvec_weights_never_a_usage_error(gk):
    """Valid eigenvector weights: the heuristic search never raises, and
    `expander-check --eigvec` never exits with the usage-error code."""
    g, k = gk
    is_expander(g, cli.ct.EigenSplit(g, k).w, 0.05, mode="heuristic")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        fileio.write_edge_list(g, path)
        argv = ["expander-check", str(path), "--eigvec", str(k), "--c", "0.05",
                "--mode", "heuristic"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(argv) == 0


@pytest.mark.parametrize(
    "g, k",
    [(gen_random_regular(400, 4, 1), 2), (gen_random_regular(400, 4, 1), 3),
     (gen_cycle(160), 3)],
    ids=["regular400-k2", "regular400-k3", "cycle160-k3"],
)
def test_eigvec_reads_the_theorems_weights(capsys, tmp_path, monkeypatch, g, k):
    """`expander-check --eigvec k` and `partition --eigvec k` search the
    weights that `analyze --k k` reads: EigenSplit(g, k).w, byte for byte.
    At order 400 that is the index route's y_k; the 160-cycle's lambda_3 is
    repeated, so it takes the full decomposition."""
    graph = tmp_path / "g.txt"
    fileio.write_edge_list(g, graph)
    searched = []
    for name in ("is_expander", "find_partition"):
        real = getattr(cli.xp, name)

        def spy(h, w, *args, _real=real, **kwargs):
            searched.append(np.array(w))
            return _real(h, w, *args, **kwargs)

        monkeypatch.setattr(cli.xp, name, spy)
    tail = ["--eigvec", str(k), "--c", "0.05", "--mode", "heuristic"]
    assert run_capture(capsys, ["expander-check", str(graph), *tail])[0] == 0
    assert run_capture(capsys, ["partition", str(graph), "--k", "2", *tail])[0] == 0
    expected = cli.ct.EigenSplit(fileio.read_edge_list(graph), k).w
    assert len(searched) == 2
    assert all(w.tobytes() == expected.tobytes() for w in searched)


def gap_verdicts(g):
    """Whether the y_2 gap of g is degenerate, asserted to be the same from
    EigenSplit, verify_theorem1 and verify_corollary1."""
    ct = cli.ct
    degenerate = ct.EigenSplit(g, 2).degenerate
    assert ct.verify_theorem1(g, 2, mode="heuristic").degenerate_gap_flag == degenerate
    assert ("degenerate_gap" in ct.verify_corollary1(g).flags) == degenerate
    return degenerate


@pytest.mark.parametrize(
    "argv, degenerate",
    [(("--n-block", "2", "--d", "0"), True), (("--n-block", "4", "--d", "0"), True),
     ((), False)],
    ids=["one-node-support", "edgeless-blocks", "defaults"],
)
def test_one_gap_rule_at_every_entry(capsys, argv, degenerate):
    """The split, the theorem, the corollary and `demo-counterexample`
    agree on whether the y_2 gap is degenerate."""
    args = cli.build_parser().parse_args(["demo-counterexample", *argv])
    g = gen_expander_path_expander(args.n_block, args.d, args.path_len, args.seed)
    assert gap_verdicts(g) is degenerate
    code, out = run_capture(capsys, ["demo-counterexample", *argv])
    assert code == 0
    assert ("degenerate_gap" in json.loads(out).get("flags", [])) is degenerate


def test_one_gap_rule_on_an_edgeless_graph():
    # L = 0: c = 0, a degenerate gap
    assert gap_verdicts(build_graph(3, [])) is True


def test_no_command_takes_a_budget(capsys, p3_file):
    # the greedy moves' cap is a constant, so no command takes --budget
    for argv in (
        ["expander-check", p3_file, "--eigvec", "2", "--c", "0.5", "--budget", "5"],
        ["analyze", p3_file, "--k", "2", "--mode", "heuristic", "--budget", "5"],
        ["partition", p3_file, "--k", "2", "--c", "9", "--eigvec", "2", "--budget", "5"],
    ):
        assert cli.run(argv) == 2, argv
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv", [["expander-check"], ["partition", "--k", "2"]], ids=["expander-check", "partition"]
)
def test_nan_threshold_is_a_usage_error(capsys, p3_file, argv):
    for c in ("nan", "inf"):
        code, out = run_capture(capsys, [*argv, p3_file, "--eigvec", "2", "--c", c])
        assert code == 2 and out == "", c


def test_expander_check_weights_file(capsys, p3_file, tmp_path):
    wfile = tmp_path / "w.txt"
    wfile.write_text("1.0\n1.0\n1.0\n")
    code, out = run_capture(
        capsys, ["expander-check", p3_file, "--weights", str(wfile), "--c", "1.1"]
    )
    assert code == 0
    v = json.loads(out)
    assert v["is_expander"] is False and v["witness"] is not None


def test_partition_command(capsys, p3_file, tmp_path):
    wfile = tmp_path / "w.txt"
    wfile.write_text("1.0\n1.0\n1.0\n")
    code, out = run_capture(
        capsys,
        ["partition", p3_file, "--k", "2", "--c", "1.5", "--weights", str(wfile)],
    )
    assert code == 0
    res = json.loads(out)
    assert res["found"] is True and res["valid"] is True
    code, out = run_capture(
        capsys,
        ["partition", p3_file, "--k", "2", "--c", "0.5", "--weights", str(wfile)],
    )
    assert code == 0
    assert json.loads(out)["found"] is False


def test_partition_rejects_non_finite_weights(capsys, p3_file, tmp_path):
    wfile = tmp_path / "w.txt"
    for bad in ("nan", "inf"):
        wfile.write_text(f"{bad}\n1.0\n1.0\n")
        code = cli.run(
            ["partition", p3_file, "--k", "2", "--c", "0.5", "--weights", str(wfile)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "non-finite weight" in err


def test_verify_proof(capsys, p4_file, tmp_path):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("0\n1\n")
    neg.write_text("2 3\n")
    code, out = run_capture(
        capsys,
        ["verify-proof", p4_file, "--k", "2", "--pos", str(pos), "--neg", str(neg)],
    )
    assert code == 0
    res = json.loads(out)
    names = [c["name"] for c in res["checks"]]
    assert "prop_sum" in names  # a+b = k+1 here
    assert all(c["passed"] for c in res["checks"])


def test_verify_proof_decomposes_once(capsys, p4_file, tmp_path, monkeypatch):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("0\n1\n")
    neg.write_text("2 3\n")
    calls = []
    real = spectral.eigendecompose

    def spy(A, *args, **kwargs):
        calls.append(A.shape)
        return real(A, *args, **kwargs)

    monkeypatch.setattr(spectral, "eigendecompose", spy)
    code, out = run_capture(
        capsys,
        ["verify-proof", p4_file, "--k", "2", "--pos", str(pos), "--neg", str(neg)],
    )
    assert code == 0
    assert calls == [(4, 4)]
    # the CLI's shared-object check agrees with the public entry point
    (rec,) = [c for c in json.loads(out)["checks"] if c["name"] == "prop_sum"]
    ref = cli.ct.verify_prop_sum(gen_path(4), 2, [[0], [1]], [[2, 3]])
    assert rec == cli._round_floats(ref.as_dict())


def test_verify_proof_matches_verify_theorem1_on_index_path(capsys, tmp_path):
    # 400 nodes: both entry points take y_3 from the index path
    g = gen_random_regular(400, 4, 0)
    assert laplacian_decomposition(g, 3).index == 3
    report = cli.ct.verify_theorem1(g, 3, mode="heuristic")
    assert report.checks
    graph, pos, neg = (str(tmp_path / f) for f in ("g.txt", "pos.txt", "neg.txt"))
    fileio.write_edge_list(g, graph)
    fileio.write_partition(report.pos_classes, pos)
    fileio.write_partition(report.neg_classes, neg)
    code, out = run_capture(
        capsys, ["verify-proof", graph, "--k", "3", "--pos", pos, "--neg", neg]
    )
    res = json.loads(out)
    assert code == 0
    assert (res["a"], res["b"]) == (report.a, report.b)
    assert res["checks"] == cli._round_floats([c.as_dict() for c in report.checks])


# (k, a, b): a + b = k + 1 runs prop_sum and the chain check; a + b = 6 at
# k = 4 makes the checks read lambda_1..lambda_6, past lambda_{k+1}
LOW_END_PARTS = ((2, 2, 1), (3, 1, 1), (4, 3, 3))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", SIZES)
def test_verify_proof_low_end_matches_dense_route(capsys, tmp_path, monkeypatch, family, n):
    g, ys = proof_graph(family, n)
    graph, pos, neg = (str(tmp_path / f) for f in ("g.txt", "pos.txt", "neg.txt"))
    fileio.write_edge_list(g, graph)
    routes = []
    real = cli.ct.laplacian_decomposition

    def spy(*args, **kwargs):
        d = real(*args, **kwargs)
        routes.append(d.radii is not None)
        return d

    monkeypatch.setattr(cli.ct, "laplacian_decomposition", spy)
    low_end_min = spectral.LOW_END_MIN_ORDER
    for k, a, b in LOW_END_PARTS:
        pos_cls, neg_cls = proof_partition(ys[k], a, b)
        fileio.write_partition(pos_cls, pos)
        fileio.write_partition(neg_cls, neg)
        argv = ["verify-proof", graph, "--k", str(k), "--pos", pos, "--neg", neg]
        results = []
        for order in (low_end_min, n + 1):
            monkeypatch.setattr(spectral, "LOW_END_MIN_ORDER", order)
            code, out = run_capture(capsys, argv)
            res = json.loads(out)
            results.append(
                (code, res["a"], res["b"], [(c["name"], c["passed"]) for c in res["checks"]])
            )
        assert routes[-2:] == [True, False]
        assert results[0] == results[1]
        assert results[0][0] == 0 and (results[0][1], results[0][2]) == (a, b)


def test_spectral_routes(capsys, tmp_path, dense_solves):
    """The dense n x n solves each entry point makes: the full route (one
    eigh), the index route (eigvalsh, then inverse iteration's solves) or
    the certified low end (none)."""

    def square(call, n):
        dense_solves.clear()
        call()
        return [name for name, shape in dense_solves if shape == (n, n)]

    assert square(lambda: cli.ct.verify_theorem1(gen_path(7), 2), 7) == ["eigh"]
    g = gen_random_regular(100, 4, 0)
    made = square(lambda: cli.ct.verify_theorem1(g, 2, mode="heuristic"), 100)
    assert made[0] == "eigvalsh" and set(made[1:]) == {"solve"}
    g600, ys = proof_graph("gnp", 600)
    pos, neg = proof_partition(ys[2], 2, 1)
    assert square(lambda: cli.ct.build_proof_objects(g600, 2, pos, neg), 600) == []
    graph = str(tmp_path / "g.txt")
    fileio.write_edge_list(g, graph)
    argv = ["expander-check", graph, "--eigvec", "2", "--c", "0.05", "--mode", "heuristic"]
    # the index route for the weights, as verify_theorem1 takes them; the
    # heuristic's Fiedler order reads the same kept eigenvalues and runs its
    # own inverse iteration, with no eigh
    made = square(lambda: run_capture(capsys, argv), 100)
    assert made[0] == "eigvalsh" and set(made[1:]) == {"solve"}


def test_verify_proof_runs_verify_theorem1_checks(capsys, tmp_path):
    # both entry points run the same check sequence on the same partition
    ct = cli.ct
    graph, pos, neg = (str(tmp_path / f) for f in ("g.txt", "pos.txt", "neg.txt"))
    seen = set()
    for seed in range(12):
        g = gen_gnp(9, 0.5, seed)
        if not is_connected(g):
            continue
        fileio.write_edge_list(g, graph)
        for k in (2, 3, 4):
            report = ct.verify_theorem1(g, k)
            if report.degenerate_gap_flag:
                continue
            fileio.write_partition(report.pos_classes, pos)
            fileio.write_partition(report.neg_classes, neg)
            code, out = run_capture(
                capsys, ["verify-proof", graph, "--k", str(k), "--pos", pos, "--neg", neg]
            )
            res = json.loads(out)
            assert code == 0
            assert (res["a"], res["b"]) == (report.a, report.b)
            assert res["checks"] == cli._round_floats([c.as_dict() for c in report.checks])
            seen.update(c["name"] for c in res["checks"])
            # C is built with the proof objects exactly when it exists
            p = ct.build_proof_objects(g, k, report.pos_classes, report.neg_classes)
            assert (p.C is not None) == (p.a + p.b >= 2)
            if p.C is not None:
                C = p.C
                assert np.array_equal(C, ct.build_C(p))
    assert "lambda_max_C" in seen and "CminusB_psd" in seen
    # one class: no C, so the checks that need it refuse
    g = gen_path(4)
    p = ct.build_proof_objects(g, 1, [range(4)], [])
    assert p.C is None
    with pytest.raises(ct.CertificateError):
        ct.check_C_diagonal(p)
    with pytest.raises(ct.CertificateError):
        ct.check_CminusB_psd(p)
    with pytest.raises(ct.CertificateError):
        ct.check_lambda_max_C(p)
    with pytest.raises(ct.CertificateError):
        ct.build_C(p)


def test_exit_code_cap_exceeded(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    assert cli.run(["gen", "gnp", "20", "0.3", "--seed", "0", "-o", str(graph)]) == 0
    assert cli.run(["analyze", str(graph), "--k", "2"]) == cli.EXIT_CAP == 3
    err = capsys.readouterr().err
    assert "cap 12" in err and "--mode heuristic" in err


def test_demo_counterexample_small(capsys):
    code, out = run_capture(
        capsys,
        ["demo-counterexample", "--n-block", "4", "--d", "3", "--path-len", "4",
         "--seed", "0"],
    )
    assert code == 0
    res = json.loads(out)
    assert res["n"] == 12
    assert res["weighted"]["is_expander"] is True  # corollary guarantee


def test_demo_counterexample_one_node_support(capsys):
    # the positive support of y_2 is one node, where no cut has a value
    code, out = run_capture(capsys, ["demo-counterexample", "--n-block", "2", "--d", "0"])
    assert code == 0
    res = json.loads(out)
    assert len(res["positive_support"]) == 1
    assert res["weighted"]["min_phi"] is None
    assert res["unweighted"]["min_phi"] is None


def test_demo_counterexample_degenerate_gap(capsys):
    """Blocks without edges give c = 0: the demo reports the degenerate
    gap, as verify_corollary1 does, and takes no verdict."""
    code, out = run_capture(capsys, ["demo-counterexample", "--n-block", "4", "--d", "0"])
    assert code == 0
    res = json.loads(out)
    assert res["c"] == 0.0 and res["flags"] == ["degenerate_gap"]
    assert res["weighted"] == {"min_phi": None, "is_expander": None}
    assert res["unweighted"] == {"min_phi": None, "is_expander": None, "witness": None}


def test_demo_counterexample_degenerate_gap_takes_no_ordering(capsys):
    """lambda_2 = 0 and lambda_3 = 2.3e-16 are both rounding noise: the gap
    ordering is a verdict too, and a degenerate gap takes none."""
    code, out = run_capture(capsys, ["demo-counterexample", "--n-block", "2", "--d", "0"])
    assert code == 0
    res = json.loads(out)
    assert res["flags"] == ["degenerate_gap"]
    assert res["lambda_2"] < res["lambda_3"] - res["lambda_2"]
    assert res["gap_ordering_holds"] is None


def test_batch_verify_small(capsys):
    code, out = run_capture(capsys, ["batch-verify", "--max-n", "4"])
    assert code == 0
    assert "violations: 0" in out


def test_exit_code_usage_errors(capsys, p4_file, tmp_path):
    assert cli.run(["spectrum", "/nonexistent/file.txt"]) == 2
    capsys.readouterr()
    assert cli.run(["analyze", "--bogus-flag"]) == 2
    capsys.readouterr()
    assert cli.run(["gen", "nosuchfamily", "3"]) == 2
    capsys.readouterr()
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("0 1\n")
    neg.write_text("2 3\n")
    parts = ["--pos", str(pos), "--neg", str(neg)]
    for argv in (
        ["verify-proof", p4_file, "--k", "9", *parts],
        ["verify-proof", p4_file, "--k", "0", *parts],
        ["expander-check", p4_file, "--c", "0.5", "--eigvec", "0"],
        ["partition", p4_file, "--k", "2", "--c", "0.5", "--eigvec", "7"],
        ["gen", "gnp", "20"],
        ["gen", "path", "inf"],
        ["gen", "path", "2.5"],
        ["gen", "path", "2.0"],
        ["gen", "path", "3", "4"],
        ["gen", "gnp", "4", "0.5", "9", "9"],
        ["gen", "gnp", "4", "nan"],
        ["gen", "expander-path-expander", "4", "3", "2", "1"],
    ):
        assert cli.run(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_unreadable_path_is_a_usage_error(capsys, p4_file, tmp_path):
    """A directory where a file is named raises an OSError other than
    FileNotFoundError; it exits 2 with a message, not 1 with a traceback."""
    neg = tmp_path / "neg.txt"
    neg.write_text("2 3\n")
    for argv in (
        ["analyze", str(tmp_path), "--k", "2"],
        ["verify-proof", p4_file, "--k", "2", "--pos", str(tmp_path), "--neg", str(neg)],
        ["gen", "path", "3", "-o", str(tmp_path)],
    ):
        assert cli.run(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:"), argv


@pytest.mark.parametrize(
    "argv", [["expander-check"], ["partition", "--k", "2"]], ids=["expander-check", "partition"]
)
def test_empty_weights_path_is_a_usage_error(capsys, p3_file, argv):
    """`--weights ""` names no file: it exits 2 with a message, and is not
    taken for an absent `--weights`."""
    code = cli.run([*argv, p3_file, "--c", "0.5", "--weights", ""])
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and out.err.startswith("error:")


def test_exit_code_check_failure(capsys, p4_file, monkeypatch):
    # force a failing report to exercise the exit-code contract
    real = cli.ct.verify_theorem1

    def fake(g, k, mode="exact"):
        report = real(g, k, mode=mode)
        report.a_plus_b_le_k = False
        report.degenerate_gap_flag = False
        return report

    monkeypatch.setattr(cli.ct, "verify_theorem1", fake)
    code, _ = run_capture(capsys, ["analyze", p4_file, "--k", "2"])
    assert code == 1


def test_malformed_edge_list_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n1 x\n")
    assert cli.run(["spectrum", str(bad)]) == 2
    err = capsys.readouterr().err
    assert ":3:" in err
