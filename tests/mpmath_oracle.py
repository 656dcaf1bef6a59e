"""High-precision reference for the fundamental solution, used only by tests.

``eval_via_mpmath`` evaluates Opitz' representation (Z**m expm(x Z))[0, n]
directly in mpmath, so unlike partial fractions it needs no distinct
frequencies and unlike the power series no small |x|.  A 12 x 12 exponential
at 50 digits takes about a tenth of a second; it is cached per frequency
vector, abscissa and precision, so the orders at one point cost one.
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
        z = _bidiagonal(entries)
        row = mpmath.zeros(1, len(entries))
        row[0, 0] = 1
        for _ in range(m):
            row = row * z
        return complex((row * col)[0, 0])


def expm_via_mpmath(freq, x: float, dps: int = 40) -> list:
    """Every entry of expm(x Z) at ``dps`` digits, as rows of Python complex numbers."""
    entries = tuple(complex(v) for v in freq)
    with mpmath.workdps(dps):
        e = mpmath.expm(mpmath.mpf(x) * _bidiagonal(entries))
        return [[complex(e[i, j]) for j in range(len(entries))] for i in range(len(entries))]
