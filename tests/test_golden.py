"""CLI outputs compared byte for byte with files recorded under tests/golden/.

The recorded files hold DOT graphs whose breaks have denominators up to 10,
two truncated characters, one of a non-symmetrizable matrix, a tensor
isomorphism on that matrix, the B_J(infinity) counts on that matrix over a
sequence with a preperiod, and the report of ``glspaths suite --seed 0``;
any drift in node order, break points, weights, terms, counts or checks
fails here.
To record them again after an intended change, run the command of each case
with ``-o tests/golden/<file>``, and redirect the suite's standard output.
"""

from pathlib import Path

import pytest

from glspaths import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    (["export-dot", "-m", "two_imaginary.mat", "-l", "1 1 1", "-d", "6"],
     "two_imaginary_111_d6.dot"),
    (["export-dot", "-m", "two_imaginary.mat", "-l", "2 1 3", "-d", "5"],
     "two_imaginary_213_d5.dot"),
    (["export-dot", "-m", "mixed_rank2.mat", "-l", "1 1", "-d", "7"],
     "mixed_rank2_11_d7.dot"),
    (["char", "-m", "two_imaginary.mat", "-l", "1 1 1", "-d", "7"],
     "two_imaginary_111_d7.char"),
    # a matrix that is not symmetrizable: a_12 a_23 a_31 = -1, a_21 a_32 a_13 = -2
    (["char", "-m", "nonsym_a.mat", "-l", "1 1 1", "-d", "6"],
     "nonsym_a_111_d6.char"),
    # the tensor isomorphism on the same matrix, 447 nodes per side
    (["tensor-iso", "-m", "nonsym_a.mat", "-l", "1 0 1", "-r", "0 1 0", "-d", "6"],
     "nonsym_a_101_010_d6.iso"),
    # B_J(infinity) over the sequence 2, (3, 1, 2)^infinity: 644 nodes
    (["binf", "-m", "nonsym_a.mat", "-d", "6", "--preperiod", "2", "--period", "3 1 2"],
     "nonsym_a_2_312_d6.binf"),
]


@pytest.mark.parametrize("argv, expected", CASES, ids=[name for _, name in CASES])
def test_cli_output_matches_golden_file(argv, expected, tmp_path):
    argv = [str(GOLDEN / a) if a.endswith(".mat") else a for a in argv]
    out = tmp_path / expected
    assert cli.run(argv + ["-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / expected).read_bytes()


def test_suite_output_matches_golden_file(capsys):
    assert cli.run(["suite", "--seed", "0"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "suite_seed0.txt").read_text(encoding="utf-8")
