"""Command-line front end.

Exit codes: 0 success, 1 domain error (bad matrix, weight outside P+,
malformed input, usage), a binf count of weight-zero nodes other than 1 or
a binf axiom violation, or a suite violation, 2 comparison failure
(compare-char or tensor-iso mismatch) or a broken internal invariant
(``InvariantViolation``, ``NonIntegralOffset`` among them, or
``NotAGLSPath``, which no command's input can cause: every command starts
from straight paths of weights in P+), 3 I/O error.  All outputs are
deterministic: identical inputs give byte-identical results.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Tuple

from . import checks
from .character import compare_characters, char_of_graph, series_text
from .crystals import (GeneratorSequence, TensorElement, bj_word,
                       generate_from, hw_crystal_isomorphic, validate_axioms)
from .gls import GLSPath, NotAGLSPath, enumerate_crystal, export_dot
from .rootdata import (InvariantViolation, MatrixError, MatrixFormatError,
                       WeightContext, format_weight, load_context, offset_vector)
from .torbit import orbit


class UsageError(ValueError):
    pass


class ComparisonFailure(Exception):
    """Raised by comparison commands; maps to exit code 2."""


def _parse_pairings(text: str) -> Tuple[int, ...]:
    """Argument type of -l and -r; argparse reports an ArgumentTypeError
    through the parser's error, that is as a usage error."""
    out = []
    for tok in text.split():
        try:
            out.append(int(tok))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"pairings must be integers, got {tok!r}") from None
    if not out:
        raise argparse.ArgumentTypeError("empty pairing vector")
    return tuple(out)


def _parse_indices(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid index list {text!r}") from None


def _context(args) -> WeightContext:
    """The matrix file's context with the bases given by -l and -r; the
    context rejects a pairing vector whose length is not the rank."""
    extra_bases = {}
    for name, pairings in (("lambda", getattr(args, "highest_weight", None)),
                           ("mu", getattr(args, "second_weight", None))):
        if pairings is not None:
            extra_bases[name] = pairings
    return load_context(args.matrix, not args.reject_zero_diag, extra_bases)


def _crystal(args):
    """The GLS crystal of the base lambda at the requested depth."""
    ctx = _context(args)
    return enumerate_crystal(ctx, ctx.base("lambda"), args.depth)


def _emit(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_validate(args) -> int:
    ctx = _context(args)
    m = ctx.matrix
    real = ",".join(str(i) for i in sorted(m.real_indices)) or "-"
    imag = ",".join(str(i) for i in sorted(m.imaginary_indices)) or "-"
    _emit(f"ok: rank {m.n}, real {{{real}}}, imaginary {{{imag}}}\n", args.output)
    return 0


def _cmd_orbit(args) -> int:
    ctx = _context(args)
    lam = ctx.base("lambda")
    weights = orbit(ctx, lam, args.depth)
    rows = sorted((sum(offset_vector(lam, w)), w.sort_key(),
                   format_weight(w)) for w in weights)
    _emit("".join(f"{r[2]}\n" for r in rows), args.output)
    return 0


def _cmd_enumerate(args) -> int:
    graph = _crystal(args)
    frontier = graph.depths.count(args.depth)  # from the BFS: no node table
    _emit(f"nodes {len(graph)} edges {len(graph.f_edges)} frontier {frontier}\n", args.output)
    if args.dot_output:
        _emit(export_dot(graph), args.dot_output)
    return 0


def _cmd_export_dot(args) -> int:
    _emit(export_dot(_crystal(args)), args.output)
    return 0


def _cmd_char(args) -> int:
    _emit(series_text(char_of_graph(_crystal(args))), args.output)
    return 0


def _cmd_compare_char(args) -> int:
    report = compare_characters(_crystal(args))
    if report.equal:
        _emit(f"equal, {len(report.crystal)} terms\n", args.output)
        return 0
    lines = [f"MISMATCH: {len(report.differences)} differing terms"]
    for c, got, want in report.differences:
        lines.append(f"  {' '.join(map(str, c))} : crystal {got}, formula {want}")
    _emit("\n".join(lines) + "\n", args.output)
    raise ComparisonFailure("character mismatch")


def _cmd_tensor_iso(args) -> int:
    ctx = _context(args)
    lam, mu = ctx.base("lambda"), ctx.base("mu")
    if not (ctx.is_P_plus(lam) and ctx.is_P_plus(mu)):
        raise ValueError("both weights must lie in P+")
    left = generate_from(ctx, TensorElement(GLSPath.linear(lam), GLSPath.linear(mu)),
                         args.depth)
    right = enumerate_crystal(ctx, lam + mu, args.depth)
    if hw_crystal_isomorphic(left, right):
        _emit(f"isomorphic, {len(left)} nodes\n", args.output)
        return 0
    _emit(f"NOT isomorphic: {len(left)} vs {len(right)} nodes\n", args.output)
    raise ComparisonFailure("tensor crystal differs from the sum crystal")


def _cmd_binf(args) -> int:
    ctx = _context(args)
    n = ctx.matrix.n
    period = args.period or tuple(range(1, n + 1))
    seq = GeneratorSequence(n, args.preperiod, period)
    graph = generate_from(ctx, bj_word(seq, []), args.depth)
    zeros = sum(1 for node in graph.nodes if node.wt.is_zero())
    violations = validate_axioms(graph)
    lines = [f"nodes {len(graph)} edges {len(graph.f_edges)} "
             f"weight-zero {zeros} axiom-violations {len(violations)}"]
    for v in violations:
        lines.append(f"  {v}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if zeros == 1 and not violations else 1


def _cmd_suite(args) -> int:
    """Run every check, print a FAIL block for each failing one, and exit 1
    at the end if any failed."""
    failed = False
    for name, violations in checks.run_suite(seed=args.seed):
        if violations:
            failed = True
            sys.stdout.write(f"FAIL {name}\n")
            for v in violations:
                sys.stdout.write(f"  {v}\n")
        else:
            sys.stdout.write(f"ok {name}\n")
    return 1 if failed else 0


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
            p.add_argument("-l", "--highest-weight", required=True, type=_parse_pairings,
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
    p.add_argument("-r", "--second-weight", required=True, type=_parse_pairings,
                   help="pairing vector of the base 'mu'")
    p = sub.add_parser("binf", help="truncated limit crystal over a generator sequence")
    common(p, needs_depth=True)
    p.add_argument("--preperiod", default=(), type=_parse_indices,
                   help="space-separated indices")
    p.add_argument("--period", default=(), type=_parse_indices,
                   help="space-separated indices")
    p = sub.add_parser("suite", help="run the bundled invariant suites")
    p.add_argument("--seed", type=int, default=0)
    return parser


def run(argv: Sequence[str]) -> int:
    """Parse arguments, dispatch, and map failures to the exit-code contract."""
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "depth", 0) < 0:
            raise UsageError("depth must be nonnegative")
        return _COMMANDS[args.command](args)
    except ComparisonFailure as exc:
        print(f"comparison failed: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, NotAGLSPath) as exc:  # NotAGLSPath is a ValueError
        print(f"invariant violated: {exc}", file=sys.stderr)
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
