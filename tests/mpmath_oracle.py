"""High-precision reference for the fundamental solution, used only by tests.

``eval_via_mpmath`` evaluates Opitz' representation (Z**m expm(x Z))[0, n]
directly in mpmath, so unlike partial fractions it needs no distinct
frequencies and unlike the power series no small |x|.  A 12 x 12 exponential
at 50 digits takes about a tenth of a second; it is cached per frequency
vector, abscissa and precision, so the orders at one point cost one.
``expm_via_mpmath`` exponentiates a given matrix, such as the tridiagonal
matrix an evaluator realizes a frequency vector by.
"""

from functools import lru_cache

import mpmath


def _bidiagonal(entries):
    dim = len(entries)
    z = mpmath.zeros(dim, dim)
    for i, v in enumerate(entries):
        z[i, i] = mpmath.mpc(v.real, v.imag)
        if i + 1 < dim:
            z[i, i + 1] = 1
    return z


def _order_row(z, m):
    """e_0 Z**m, in the working precision."""
    row = mpmath.zeros(1, z.rows)
    row[0, 0] = 1
    for _ in range(m):
        row = row * z
    return row


@lru_cache(maxsize=None)
def _last_column(entries, x, dps):
    with mpmath.workdps(dps):
        z = _bidiagonal(entries)
        return mpmath.expm(mpmath.mpf(x) * z)[:, len(entries) - 1]


def eval_via_mpmath(freq, m: int, x: float, dps: int = 50) -> complex:
    """m-th derivative of Phi at x: (Z**m expm(x Z))[0, n] at ``dps`` digits.

    Z is the upper bidiagonal matrix with the frequencies on its diagonal
    and ones above it; the result is rounded to a Python complex.
    """
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    entries = tuple(complex(v) for v in freq)
    col = _last_column(entries, float(x), dps)
    with mpmath.workdps(dps):
        return complex((_order_row(_bidiagonal(entries), m) * col)[0, 0])


def zero_via_mpmath(freq, m: int, x0: float, dps: int = 40) -> float:
    """The zero of Re Phi^(m) that mpmath's secant iteration reaches from x0, at ``dps`` digits."""
    entries = tuple(complex(v) for v in freq)
    with mpmath.workdps(dps):
        z = _bidiagonal(entries)
        row = _order_row(z, m)
        value = lambda x: (row * mpmath.expm(x * z)[:, len(entries) - 1])[0, 0].real
        return float(mpmath.findroot(value, mpmath.mpf(x0)))


def expm_via_mpmath(matrix, x: float, dps: int = 40) -> list:
    """Every entry of expm(x A) at ``dps`` digits, A a square numpy array taken exactly.

    Returns rows of Python complex numbers.
    """
    dim = len(matrix)
    with mpmath.workdps(dps):
        a = mpmath.zeros(dim, dim)
        for i in range(dim):
            for j in range(dim):
                v = complex(matrix[i][j])
                a[i, j] = mpmath.mpc(v.real, v.imag)
        e = mpmath.expm(mpmath.mpf(x) * a)
        return [[complex(e[i, j]) for j in range(dim)] for i in range(dim)]
