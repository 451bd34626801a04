#!/usr/bin/env python3
"""Write the Dawson-function Taylor table that ``atompairs.faddeeva`` reads.

    python3 scripts/faddeeva_table.py [path]

Row i holds F^(k)(x0)/k! for k = 0 .. TERMS - 1 at the node x0 = i / 50 (the
float), i = 0 .. 360, where F(x) = exp(-x^2) int_0^x exp(t^2) dt is the Dawson
function.  F(x0) comes from mpmath's erfi, the derivatives from F' = 1 - 2xF
and F^(k+1) = -2x F^(k) - 2k F^(k-1).  That recurrence loses about a factor
2 x0^2 a step to cancellation, so it runs at 60 digits.  Nodes below zero
follow from F being odd.  The path defaults to the package's copy.
"""

import sys
from pathlib import Path

import mpmath

NODES_PER_UNIT = 50
LAST_NODE = 360  # x0 = 7.2
TERMS = 12
DIGITS = 60
PATH = Path(__file__).resolve().parents[1] / "src" / "atompairs" / "data" / "dawson_taylor.txt"


def coefficients(x0: float) -> list[float]:
    """F^(k)(x0)/k!, k = 0 .. TERMS - 1, each rounded once to a float."""
    with mpmath.workdps(DIGITS):
        x = mpmath.mpf(x0)
        f = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * mpmath.erfi(x)
        derivatives = [f, 1 - 2 * x * f]
        for k in range(1, TERMS - 1):
            derivatives.append(-2 * x * derivatives[k] - 2 * k * derivatives[k - 1])
        return [float(d / mpmath.factorial(k)) for k, d in enumerate(derivatives)]


def main(argv: list[str]) -> None:
    path = Path(argv[0]) if argv else PATH
    lines = [
        "# Dawson function F: row i holds F^(k)(x0)/k!, k = 0 .. %d, at x0 = i/%d" % (TERMS - 1, NODES_PER_UNIT),
        "# written by scripts/faddeeva_table.py from mpmath at %d digits" % DIGITS,
    ]
    lines += [" ".join(repr(c) for c in coefficients(i / NODES_PER_UNIT)) for i in range(LAST_NODE + 1)]
    path.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
