"""Exact solves of the float matrices the package solves, for the tests.

Every float64 is an exact rational, so Gaussian elimination in
``fractions.Fraction`` solves the float system with no rounding at all:
the oracle that a float solve's error is measured against.  A complex
vector is an (re, im) pair of lists of Fractions.
"""

from fractions import Fraction


def solve(a, columns):
    """The exact solution x of a x = b for each b of ``columns``, as a
    list of Fractions per column.  ``a`` is a real square matrix and each
    b a real vector, of floats or Fractions.  Gaussian elimination takes
    the first nonzero pivot of each column; a singular ``a`` raises
    StopIteration."""
    n = len(a)
    rows = [[Fraction(v) for v in row] + [Fraction(b[i]) for b in columns]
            for i, row in enumerate(a)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, n):
            factor = rows[i][k] / rows[k][k]
            if factor:
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    solutions = []
    for j in range(n, n + len(columns)):
        x = [None] * n
        for i in reversed(range(n)):
            x[i] = (rows[i][j] - sum(rows[i][c] * x[c]
                                     for c in range(i + 1, n))) / rows[i][i]
        solutions.append(x)
    return solutions


def solve_real(a, b):
    """The exact solution of the real system a x = b for a complex
    right-hand side ``b`` of floats, Re b and Im b solved separately."""
    return tuple(solve(a, [[v.real for v in b], [v.imag for v in b]]))


def solve_complex(a, b):
    """The exact solution of the complex system a x = b, for ``a`` a
    complex matrix of floats and ``b`` an (re, im) pair: the real system
    [[Re a, -Im a], [Im a, Re a]] [Re x; Im x] = [Re b; Im b]."""
    n = len(a)
    block = [[v.real for v in row] + [-v.imag for v in row] for row in a] + \
        [[v.imag for v in row] + [v.real for v in row] for row in a]
    (x,) = solve(block, [list(b[0]) + list(b[1])])
    return x[:n], x[n:]


def matvec(a, x):
    """a x, exactly, for ``a`` a complex matrix of floats and ``x`` an
    (re, im) pair."""
    xr, xi = x
    return ([sum(Fraction(v.real) * r - Fraction(v.imag) * i
                 for v, r, i in zip(row, xr, xi)) for row in a],
            [sum(Fraction(v.real) * i + Fraction(v.imag) * r
                 for v, r, i in zip(row, xr, xi)) for row in a])


def directivity(w, e, z, self_power):
    """|w^T e|^2 / (w^T Z w* self_power), exactly, for the currents ``w``
    as an (re, im) pair, ``e`` a complex vector and ``z`` a real
    symmetric matrix of floats: the quotient ``beamforming.directivity``
    takes in floats."""
    wr, wi = w
    er = [Fraction(v.real) for v in e]
    ei = [Fraction(v.imag) for v in e]
    beam_re = sum(r * a - i * b for r, i, a, b in zip(wr, wi, er, ei))
    beam_im = sum(r * b + i * a for r, i, a, b in zip(wr, wi, er, ei))
    # the imaginary part of w^T Z w* cancels for a symmetric Z
    power = sum(Fraction(z[m][n]) * (wr[m] * wr[n] + wi[m] * wi[n])
                for m in range(len(z)) for n in range(len(z)))
    return (beam_re ** 2 + beam_im ** 2) / (power * Fraction(self_power))
