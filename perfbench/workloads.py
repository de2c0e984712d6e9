"""The benchmark's three workloads and the output gate they pass through.

Every workload runs in one process and one thread, with ``--parallel`` off,
on the bundled fixtures of ``glspaths.checks`` (stored as matrix files in
``fixtures/``).  A pass returns one outcome per output it checks; an outcome
holds the value observed and the value recorded when the benchmark was
defined.  Any difference, exception or nonzero exit status is a failure.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, List, Tuple

from guard import FIXTURES

TWO_IMAGINARY = str(FIXTURES / "two_imaginary.txt")
MIXED_RANK2 = str(FIXTURES / "mixed_rank2.txt")

# (label, observed, recorded)
Outcome = Tuple[str, object, object]

SUITE_CHECKS = 103


@dataclass(frozen=True)
class Workload:
    name: str
    # crystal nodes completed by one pass (the numerator of nodes_per_ref)
    nodes: int
    # (matrix file, extra bases) loaded through the CLI's loader at set-up
    contexts: Tuple[Tuple[str, dict], ...]
    run: Callable[[object, int], List[Outcome]]
    # outputs one pass checks, so a pass that raises counts them all as failed
    outputs: int


def cli(glspaths, argv: List[str]) -> Tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, standard output)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = glspaths.cli.run(argv)
    return code, out.getvalue()


def run_crystal(glspaths, seed: int) -> List[Outcome]:
    result = cli(glspaths, ["compare-char", "-m", TWO_IMAGINARY, "-l", "1 1 1", "-d", "9"])
    return [("compare-char", result, (0, "equal, 180 terms\n"))]


def run_membership(glspaths, seed: int) -> List[Outcome]:
    gls = glspaths.gls
    ctx = glspaths.cli.load_context(MIXED_RANK2, True, {"lambda": (1, 1)})
    graph = gls.enumerate_crystal(ctx, ctx.base("lambda"), 9)
    verified = sum(1 for node in graph.nodes if gls.verify_gls(ctx, node.element))
    raised = on_edges = 0
    for idx, node in enumerate(graph.nodes):
        for i in ctx.matrix.indices:
            up = gls.gls_e(ctx, i, node.element)
            if up is None:
                continue
            raised += 1
            parent = graph.e_image(idx, i)
            if parent is not None and graph.nodes[parent].element == up:
                on_edges += 1
    return [("nodes", len(graph), 231), ("verified", verified, 231),
            ("raisings", raised, 258), ("raisings on e-edges", on_edges, 258)]


def run_battery(glspaths, seed: int) -> List[Outcome]:
    code, text = cli(glspaths, ["suite", "--seed", str(seed)])
    lines = text.splitlines()
    outcomes: List[Outcome] = [("suite exit", code, 0)]
    for k in range(SUITE_CHECKS):
        line = lines[k] if k < len(lines) else "missing"
        outcomes.append((f"suite check {k}: {line}", line.startswith("ok "), True))
    outcomes.append(("suite length", len(lines), SUITE_CHECKS))
    outcomes.append(("tensor-iso", cli(glspaths, [
        "tensor-iso", "-m", TWO_IMAGINARY, "-l", "1 1 1", "-r", "1 1 1", "-d", "6"]),
        (0, "isomorphic, 345 nodes\n")))
    outcomes.append(("binf", cli(glspaths, ["binf", "-m", TWO_IMAGINARY, "-d", "7"]),
                     (0, "nodes 824 edges 1128 weight-zero 1 axiom-violations 0\n")))
    return outcomes


WORKLOADS = {
    "crystal": Workload("crystal", 3045,
                        ((TWO_IMAGINARY, {"lambda": (1, 1, 1)}),), run_crystal, 1),
    "membership": Workload("membership", 231,
                           ((MIXED_RANK2, {"lambda": (1, 1)}),), run_membership, 4),
    # both tensor-iso graphs (345 nodes each) and the binf graph (824 nodes)
    "battery": Workload("battery", 345 + 345 + 824,
                        ((TWO_IMAGINARY, {"lambda": (1, 1, 1), "mu": (1, 1, 1)}),),
                        run_battery, SUITE_CHECKS + 4),
}


def failures(outcomes: List[Outcome]) -> List[str]:
    """Labels of the outcomes that differ from the recorded values."""
    return [f"{label}: got {got!r}, want {want!r}"
            for label, got, want in outcomes if got != want]
