"""Command-line driver: subcommands, exit codes, determinism."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glspaths
from glspaths import cli, gls
from glspaths.character import CharacterComparison, CharacterSeries, NonIntegralOffset
from glspaths.gls import GLSPath, NotAGLSPath
from glspaths.rootdata import InvariantViolation, context_with_base


@pytest.fixture
def matrices(tmp_path):
    files = {}
    files["im"] = tmp_path / "im.mat"
    files["im"].write_text("1\n-1\n")
    files["sl2"] = tmp_path / "sl2.mat"
    files["sl2"].write_text("1\n2\n")
    files["mixed"] = tmp_path / "mixed.mat"
    files["mixed"].write_text("2\n2 -1\n-1 -2\n")
    files["bad"] = tmp_path / "bad.mat"
    files["bad"].write_text("2\n2 -1\n0 -2\n")
    files["withbases"] = tmp_path / "withbases.mat"
    files["withbases"].write_text("1\n2\nbases:\nnu 3\n")
    return files


def test_validate(matrices, capsys):
    assert cli.run(["validate", "-m", str(matrices["im"])]) == 0
    assert "imaginary {1}" in capsys.readouterr().out
    assert cli.run(["validate", "-m", str(matrices["bad"])]) == 1
    assert "AsymmetricZero(1,2)" in capsys.readouterr().err


def test_reject_zero_diag(tmp_path, capsys):
    # zero diagonal entries are accepted by default; the flag refuses them
    # and nothing else
    zero = tmp_path / "zero.mat"
    zero.write_text("1\n0\n")
    assert cli.run(["validate", "--reject-zero-diag", "-m", str(zero)]) == 1
    assert "AxisViolation(1,1)" in capsys.readouterr().err
    for flags, matrix in ((["--reject-zero-diag"], "-1"), ([], "0")):
        path = tmp_path / "ok.mat"
        path.write_text(f"1\n{matrix}\n")
        assert cli.run(["validate", *flags, "-m", str(path)]) == 0
        assert capsys.readouterr().out == "ok: rank 1, real {-}, imaginary {1}\n"


def test_missing_file_is_io_error(matrices, capsys):
    assert cli.run(["validate", "-m", str(matrices["im"]) + ".absent"]) == 3


def test_usage_error(matrices):
    assert cli.run(["enumerate", "-m", str(matrices["im"])]) == 1
    assert cli.run(["orbit", "-m", str(matrices["im"]), "-l", "x", "-d", "2"]) == 1
    assert cli.run(["nonsense"]) == 1


def test_negative_depth_is_a_usage_error(matrices, capsys):
    assert cli.run(["orbit", "-m", str(matrices["im"]), "-l", "2", "-d", "-1"]) == 1
    assert "depth must be nonnegative" in capsys.readouterr().err


def test_orbit_output(matrices, capsys):
    assert cli.run(["orbit", "-m", str(matrices["im"]), "-l", "2", "-d", "6"]) == 0
    assert capsys.readouterr().out == "lambda\nlambda-2*a1\nlambda-6*a1\n"


def test_enumerate_and_dot(matrices, tmp_path, capsys):
    dot = tmp_path / "out.dot"
    assert cli.run(["enumerate", "-m", str(matrices["sl2"]), "-l", "2", "-d", "4",
                    "--export-dot", str(dot)]) == 0
    assert capsys.readouterr().out == "nodes 3 edges 2 frontier 0\n"
    text = dot.read_text()
    assert text.count("->") == 2 and 'label="1"' in text


def test_enumerate_counts_come_from_the_bfs(matrices, monkeypatch, capsys):
    # without --export-dot no node table is built: no eps and no key call,
    # and the line is the one the node table gives
    calls = []
    for owner, name in ((gls, "gls_epsilon"), (GLSPath, "key")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, f=original: calls.append(a) or f(*a))
    for name, lam, depth in (("im", "2", 3), ("sl2", "2", 4), ("mixed", "1 1", 4)):
        assert cli.run(["enumerate", "-m", str(matrices[name]), "-l", lam, "-d", str(depth)]) == 0
        assert calls == []
        ctx = cli.load_context(str(matrices[name]), True, {"lambda": tuple(map(int, lam.split()))})
        graph = gls.enumerate_crystal(ctx, ctx.base("lambda"), depth)
        frontier = sum(node.frontier for node in graph.nodes)
        assert capsys.readouterr().out == (
            f"nodes {len(graph.nodes)} edges {len(graph.f_edges)} frontier {frontier}\n")
        assert calls and frontier == graph.depths.count(depth)
        calls.clear()


def test_char_and_compare(matrices, capsys):
    assert cli.run(["char", "-m", str(matrices["im"]), "-l", "2", "-d", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "# base=lambda depth=3"
    assert cli.run(["compare-char", "-m", str(matrices["im"]), "-l", "2", "-d", "3"]) == 0
    assert capsys.readouterr().out == "equal, 4 terms\n"


def test_compare_mismatch_exit_code(matrices, monkeypatch, capsys):
    zero = context_with_base([[-1]], [2])[0].weight()
    fake = CharacterComparison(
        equal=False, differences=(((0,), 1, 2),),
        crystal=CharacterSeries.from_dict(zero, 1, 1, {(0,): 1}),
        formula=CharacterSeries.from_dict(zero, 1, 1, {(0,): 2}))
    monkeypatch.setattr(cli, "compare_characters", lambda *a, **k: fake)
    assert cli.run(["compare-char", "-m", str(matrices["im"]), "-l", "2", "-d", "3"]) == 2
    assert "MISMATCH" in capsys.readouterr().out


def test_tensor_iso(matrices, capsys):
    assert cli.run(["tensor-iso", "-m", str(matrices["mixed"]), "-l", "1 0",
                    "-r", "0 1", "-d", "3"]) == 0
    assert "isomorphic" in capsys.readouterr().out


def test_tensor_iso_exit_codes(tmp_path, monkeypatch, capsys):
    # a weight outside P+ and an empty pairing vector exit 1; a mismatch exits 2
    rank3 = tmp_path / "rank3.mat"
    rank3.write_text("3\n2 -1 -1\n-1 -2 0\n-1 0 -1\n")
    base = ["tensor-iso", "-m", str(rank3), "-d", "3"]
    assert cli.run(base + ["-l", "1 1 1", "-r", "0 0 -1"]) == 1
    assert "both weights must lie in P+" in capsys.readouterr().err
    assert cli.run(base + ["-l", "", "-r", "0 0 1"]) == 1
    assert "empty pairing vector" in capsys.readouterr().err
    monkeypatch.setattr(cli, "hw_crystal_isomorphic", lambda *a, **k: False)
    assert cli.run(base + ["-l", "1 1 1", "-r", "0 0 1"]) == 2
    assert "NOT isomorphic" in capsys.readouterr().out


def test_binf(matrices, capsys):
    assert cli.run(["binf", "-m", str(matrices["mixed"]), "-d", "2"]) == 0
    out = capsys.readouterr().out
    assert "weight-zero 1" in out and "axiom-violations 0" in out


def test_binf_rejects_a_malformed_or_partial_period(tmp_path, capsys):
    rank3 = tmp_path / "rank3.mat"
    rank3.write_text("3\n2 -1 -1\n-1 -2 0\n-1 0 -1\n")
    for period, message in (("1 x", "invalid index list"),
                            ("1 2", "period must cover all indices")):
        assert cli.run(["binf", "-m", str(rank3), "-d", "2", "--period", period]) == 1
        assert message in capsys.readouterr().err


def test_the_package_runs_as_a_module(matrices):
    # python -m glspaths runs the same front end as python -m glspaths.cli
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(glspaths.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    runs = [subprocess.run([sys.executable, "-m", module, "validate", "-m", str(matrices[name])],
                           capture_output=True, text=True, env=env)
            for name in ("mixed", "bad") for module in ("glspaths", "glspaths.cli")]
    assert [run.returncode for run in runs] == [0, 0, 1, 1]
    assert runs[0].stdout == runs[1].stdout == "ok: rank 2, real {1}, imaginary {2}\n"
    assert runs[2].stderr == runs[3].stderr and "AsymmetricZero(1,2)" in runs[2].stderr


def test_file_bases_are_available(matrices, capsys):
    # -l declares "lambda" alongside bases read from the file
    assert cli.run(["char", "-m", str(matrices["withbases"]), "-l", "2", "-d", "1"]) == 0


def test_outputs_are_deterministic(matrices, capsys):
    args = ["char", "-m", str(matrices["mixed"]), "-l", "1 1", "-d", "3"]
    assert cli.run(args) == 0
    first = capsys.readouterr().out
    assert cli.run(args) == 0
    assert capsys.readouterr().out == first


def test_suite_reports_every_failure(monkeypatch, capsys):
    checks = [("first", []), ("second", ["bad a"]), ("third", ["bad b", "bad c"])]
    monkeypatch.setattr(cli.checks, "run_suite", lambda seed: iter(checks))
    assert cli.run(["suite"]) == 1
    assert capsys.readouterr().out == ("ok first\nFAIL second\n  bad a\n"
                                       "FAIL third\n  bad b\n  bad c\n")
    monkeypatch.setattr(cli.checks, "run_suite", lambda seed: iter(checks[:1]))
    assert cli.run(["suite"]) == 0
    assert capsys.readouterr().out == "ok first\n"


def test_invariant_violation_exit_code(matrices, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InvariantViolation("parity is ill-defined")
    monkeypatch.setattr(cli, "compare_characters", broken)
    assert cli.run(["compare-char", "-m", str(matrices["im"]), "-l", "2", "-d", "3"]) == 2
    assert "invariant violated: parity is ill-defined" in capsys.readouterr().err


def test_not_a_gls_path_exit_code(matrices, monkeypatch, capsys):
    # a ValueError, yet no CLI input reaches it: it is a broken invariant, not a domain error
    def broken(*args, **kwargs):
        raise NotAGLSPath("path is not integral; not a GLS path")
    monkeypatch.setattr(cli, "enumerate_crystal", broken)
    assert cli.run(["enumerate", "-m", str(matrices["im"]), "-l", "2", "-d", "3"]) == 2
    assert "invariant violated: path is not integral" in capsys.readouterr().err


def test_compare_char_exits_2_on_a_path_of_the_wrong_weight(tmp_path, monkeypatch, capsys):
    # real input: f_1 of the straight path answers with f_2 of it, so the path
    # found on the edge 0 -1-> 1 has weight lambda - alpha_2, not lambda - alpha_1
    matrix = tmp_path / "two_imaginary.mat"
    matrix.write_text("3\n2 -1 -1\n-1 -2 0\n-1 0 -1\n")
    args = ["compare-char", "-m", str(matrix), "-l", "1 1 1", "-d", "3"]
    assert cli.run(args) == 0
    real_f = gls.gls_f

    def wrong(ctx, i, pi):
        return real_f(ctx, 2 if i == 1 and len(pi.weights) == 1 and pi.weights[0] == pi.shape
                      else i, pi)

    monkeypatch.setattr(gls, "gls_f", wrong)
    capsys.readouterr()
    assert cli.run(args) == 2
    err = capsys.readouterr().err
    assert "invariant violated: node 1 " in err
    assert "offset (0, 1, 0) from its path, depth vector (1, 0, 0)" in err


def test_non_integral_offset_exit_code(matrices, monkeypatch, capsys):
    # a broken invariant of the character: exit code 2, not a traceback
    def broken(*args, **kwargs):
        raise NonIntegralOffset("node of weight lambda-1/2*a1: offset (1/2,)")
    monkeypatch.setattr(cli, "compare_characters", broken)
    assert cli.run(["compare-char", "-m", str(matrices["im"]), "-l", "2", "-d", "3"]) == 2
    assert "invariant violated: node of weight" in capsys.readouterr().err


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_benchmark_tracer_wraps_the_cli_without_changing_its_output(capsys, monkeypatch):
    # perfbench/tracing.py wraps the package's functions by name and signature from
    # outside; a change to what it wraps fails here, not first in the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under perfbench/
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    matrix = str(PERFBENCH / "fixtures" / "two_imaginary.txt")
    commands = [["compare-char", "-m", matrix, "-l", "1 1 1", "-d", "4"],
                ["tensor-iso", "-m", matrix, "-l", "1 1 1", "-r", "1 1 1", "-d", "2"],
                ["binf", "-m", matrix, "-d", "3"]]

    def outputs():
        return [(cli.run(argv), capsys.readouterr().out) for argv in commands]

    def membership():  # the membership workload's calls, on mixed_rank2 at depth 5
        ctx = cli.load_context(str(PERFBENCH / "fixtures" / "mixed_rank2.txt"), True,
                               {"lambda": (1, 1)})
        elements = gls.enumerate_crystal(ctx, ctx.base("lambda"), 5).elements
        return ([bool(gls.verify_gls(ctx, pi)) for pi in elements],
                [gls.gls_e(ctx, i, pi) for pi in elements for i in ctx.matrix.indices])

    plain, gls_f, tracer = outputs(), gls.gls_f, tracing.Tracer()
    plain_membership = membership()
    with tracer:
        assert glspaths.gls.gls_f is not gls_f
        traced, traced_membership = outputs(), membership()
    assert glspaths.gls.gls_f is gls_f
    assert traced == plain and all(code == 0 for code, _ in plain)
    assert traced_membership == plain_membership and all(plain_membership[0])
    metrics = tracing.snapshot(tracer)
    assert metrics["gls.bfs.nodes"] > 0 and metrics["gls.gls_f.calls"] > 0
    # verify_gls reaches the a-chain memo through torbit.find_a_chain, so the
    # benchmark's membership predictions on it hold
    assert metrics["gls.verify_gls.calls"] > 0 and metrics["gls.gls_e.calls"] > 0
    assert metrics["torbit.find_a_chain.calls"] > 0
    assert metrics["torbit.find_a_chain.found_ratio"] > 0
    assert metrics["torbit.roots_builds_per_chain"] > 0
