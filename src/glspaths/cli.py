"""Command-line front end.

Exit codes: 0 success, 1 domain error (bad matrix, weight outside P+,
malformed input, usage), 2 comparison failure (compare-char or tensor-iso
mismatch, suite violation is 1), 3 I/O error.  All outputs are
deterministic: identical inputs give byte-identical results.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from . import checks
from .character import compare_characters, char_of_graph, series_text
from .crystals import (GeneratorSequence, TensorElement, bj_word,
                       generate_from, hw_crystal_isomorphic, validate_axioms)
from .gls import GLSPath, enumerate_crystal, export_dot
from .rootdata import (MatrixError, MatrixFormatError, Weight, WeightContext,
                       format_weight, load_context, offset_vector)
from .torbit import orbit


class UsageError(ValueError):
    pass


class ComparisonFailure(Exception):
    """Raised by comparison commands; maps to exit code 2."""


@dataclass
class JobConfig:
    """Validated invocation parameters shared by the subcommands."""

    command: str
    matrix_path: Optional[str] = None
    pairings: Optional[Tuple[int, ...]] = None
    right_pairings: Optional[Tuple[int, ...]] = None
    depth: int = 0
    output: Optional[str] = None
    dot_output: Optional[str] = None
    imaginary_diag_zero_allowed: bool = True
    seed: int = 0
    preperiod: Tuple[int, ...] = ()
    period: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.depth < 0:
            raise UsageError("depth must be nonnegative")


def _parse_pairings(text: str) -> Tuple[int, ...]:
    out = []
    for tok in text.split():
        try:
            out.append(int(tok))
        except ValueError:
            raise UsageError(f"pairings must be integers, got {tok!r}") from None
    if not out:
        raise UsageError("empty pairing vector")
    return tuple(out)


def _parse_indices(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError:
        raise UsageError(f"invalid index list {text!r}") from None


def _context(cfg: JobConfig) -> WeightContext:
    extra_bases = {}
    if cfg.pairings is not None:
        extra_bases["lambda"] = cfg.pairings
    if cfg.right_pairings is not None:
        extra_bases["mu"] = cfg.right_pairings
    ctx = load_context(cfg.matrix_path, cfg.imaginary_diag_zero_allowed, extra_bases)
    if cfg.pairings is not None and len(cfg.pairings) != ctx.matrix.n:
        raise UsageError(f"pairing vector has {len(cfg.pairings)} entries, "
                         f"matrix rank is {ctx.matrix.n}")
    if cfg.right_pairings is not None and len(cfg.right_pairings) != ctx.matrix.n:
        raise UsageError("second pairing vector does not match the matrix rank")
    return ctx


def _emit(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_validate(cfg: JobConfig) -> int:
    ctx = _context(cfg)
    m = ctx.matrix
    real = ",".join(str(i) for i in sorted(m.real_indices)) or "-"
    imag = ",".join(str(i) for i in sorted(m.imaginary_indices)) or "-"
    _emit(f"ok: rank {m.n}, real {{{real}}}, imaginary {{{imag}}}\n", cfg.output)
    return 0


def _cmd_orbit(cfg: JobConfig) -> int:
    ctx = _context(cfg)
    lam = ctx.base("lambda")
    weights = orbit(ctx, lam, cfg.depth)
    rows = sorted((sum(offset_vector(lam, w, ctx.matrix.n)), w.sort_key(),
                   format_weight(w)) for w in weights)
    _emit("".join(f"{r[2]}\n" for r in rows), cfg.output)
    return 0


def _cmd_enumerate(cfg: JobConfig) -> int:
    ctx = _context(cfg)
    lam = ctx.base("lambda")
    graph = enumerate_crystal(ctx, lam, cfg.depth)
    frontier = sum(1 for node in graph.nodes if node.frontier)
    _emit(f"nodes {len(graph)} edges {len(graph.f_edges)} frontier {frontier}\n",
          cfg.output)
    if cfg.dot_output:
        _emit(export_dot(graph), cfg.dot_output)
    return 0


def _cmd_export_dot(cfg: JobConfig) -> int:
    ctx = _context(cfg)
    graph = enumerate_crystal(ctx, ctx.base("lambda"), cfg.depth)
    _emit(export_dot(graph), cfg.output)
    return 0


def _cmd_char(cfg: JobConfig) -> int:
    ctx = _context(cfg)
    lam = ctx.base("lambda")
    graph = enumerate_crystal(ctx, lam, cfg.depth)
    _emit(series_text(char_of_graph(graph), label=format_weight(lam)), cfg.output)
    return 0


def _cmd_compare_char(cfg: JobConfig) -> int:
    ctx = _context(cfg)
    lam = ctx.base("lambda")
    report = compare_characters(ctx, lam, cfg.depth)
    if report.equal:
        _emit(f"equal, {len(report.crystal)} terms\n", cfg.output)
        return 0
    lines = [f"MISMATCH: {len(report.differences)} differing terms"]
    for c, got, want in report.differences:
        lines.append(f"  {' '.join(map(str, c))} : crystal {got}, formula {want}")
    _emit("\n".join(lines) + "\n", cfg.output)
    raise ComparisonFailure("character mismatch")


def _cmd_tensor_iso(cfg: JobConfig) -> int:
    ctx = _context(cfg)
    lam, mu = ctx.base("lambda"), ctx.base("mu")
    if not (ctx.is_P_plus(lam) and ctx.is_P_plus(mu)):
        raise ValueError("both weights must lie in P+")
    left = generate_from(ctx, TensorElement(GLSPath.linear(lam), GLSPath.linear(mu)),
                         cfg.depth)
    right = enumerate_crystal(ctx, lam + mu, cfg.depth)
    if hw_crystal_isomorphic(left, right):
        _emit(f"isomorphic, {len(left)} nodes\n", cfg.output)
        return 0
    _emit(f"NOT isomorphic: {len(left)} vs {len(right)} nodes\n", cfg.output)
    raise ComparisonFailure("tensor crystal differs from the sum crystal")


def _cmd_binf(cfg: JobConfig) -> int:
    ctx = _context(cfg)
    n = ctx.matrix.n
    period = cfg.period or tuple(range(1, n + 1))
    seq = GeneratorSequence(n, cfg.preperiod, period)
    graph = generate_from(ctx, bj_word(seq, []), cfg.depth)
    zeros = sum(1 for node in graph.nodes if node.wt.is_zero())
    violations = validate_axioms(ctx, graph)
    lines = [f"nodes {len(graph)} edges {len(graph.f_edges)} "
             f"weight-zero {zeros} axiom-violations {len(violations)}"]
    for v in violations:
        lines.append(f"  {v}")
    _emit("\n".join(lines) + "\n", cfg.output)
    return 0 if zeros == 1 and not violations else 1


def _cmd_suite(cfg: JobConfig) -> int:
    for name, violations in checks.run_suite(seed=cfg.seed):
        if violations:
            sys.stdout.write(f"FAIL {name}\n")
            for v in violations:
                sys.stdout.write(f"  {v}\n")
            return 1
        sys.stdout.write(f"ok {name}\n")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "orbit": _cmd_orbit,
    "enumerate": _cmd_enumerate,
    "export-dot": _cmd_export_dot,
    "char": _cmd_char,
    "compare-char": _cmd_compare_char,
    "tensor-iso": _cmd_tensor_iso,
    "binf": _cmd_binf,
    "suite": _cmd_suite,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="glspaths", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_lambda=False, needs_depth=False):
        p.add_argument("-m", "--matrix", required=True, help="matrix file")
        p.add_argument("--reject-zero-diag", action="store_true",
                       help="reject a_ii = 0 for imaginary indices")
        p.add_argument("-o", "--output", help="write the report to a file")
        if needs_lambda:
            p.add_argument("-l", "--highest-weight", required=True,
                           help="pairing vector of the base 'lambda', e.g. \"2\"")
        if needs_depth:
            p.add_argument("-d", "--depth", type=int, required=True)

    common(sub.add_parser("validate", help="check the matrix axioms"))
    p = sub.add_parser("orbit", help="enumerate the T-orbit of lambda")
    common(p, needs_lambda=True, needs_depth=True)
    p = sub.add_parser("enumerate", help="enumerate the GLS crystal")
    common(p, needs_lambda=True, needs_depth=True)
    p.add_argument("--export-dot", dest="dot_output", help="also write a DOT file")
    p = sub.add_parser("export-dot", help="write the crystal graph as DOT")
    common(p, needs_lambda=True, needs_depth=True)
    p = sub.add_parser("char", help="truncated crystal character")
    common(p, needs_lambda=True, needs_depth=True)
    p = sub.add_parser("compare-char", help="crystal character against the formula")
    common(p, needs_lambda=True, needs_depth=True)
    p = sub.add_parser("tensor-iso", help="tensor crystal against the sum crystal")
    common(p, needs_lambda=True, needs_depth=True)
    p.add_argument("-r", "--second-weight", required=True,
                   help="pairing vector of the base 'mu'")
    p = sub.add_parser("binf", help="truncated limit crystal over a generator sequence")
    common(p, needs_depth=True)
    p.add_argument("--preperiod", default="", help="space-separated indices")
    p.add_argument("--period", default="", help="space-separated indices")
    p = sub.add_parser("suite", help="run the bundled invariant suites")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _config_from_args(args) -> JobConfig:
    cfg = JobConfig(command=args.command)
    cfg.matrix_path = getattr(args, "matrix", None)
    if getattr(args, "highest_weight", None) is not None:
        cfg.pairings = _parse_pairings(args.highest_weight)
    if getattr(args, "second_weight", None) is not None:
        cfg.right_pairings = _parse_pairings(args.second_weight)
    cfg.depth = getattr(args, "depth", 0)
    cfg.output = getattr(args, "output", None)
    cfg.dot_output = getattr(args, "dot_output", None)
    cfg.imaginary_diag_zero_allowed = not getattr(args, "reject_zero_diag", False)
    cfg.seed = getattr(args, "seed", 0)
    cfg.preperiod = _parse_indices(getattr(args, "preperiod", ""))
    cfg.period = _parse_indices(getattr(args, "period", ""))
    cfg.__post_init__()
    return cfg


def run(argv: Sequence[str]) -> int:
    """Parse arguments, dispatch, and map failures to the exit-code contract."""
    try:
        args = _build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except ComparisonFailure as exc:
        print(f"comparison failed: {exc}", file=sys.stderr)
        return 2
    except (MatrixError, MatrixFormatError, UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
