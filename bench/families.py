"""Seeded frequency families and intervals for the benchmark workloads.

Every draw goes through a ``random.Random`` owned by the caller, so one seed
gives the same vectors, orders and intervals on every machine.  Frequencies
within a vector are at least a quarter of the base scale apart, which keeps
the partial-fraction references well defined.
"""

from __future__ import annotations

import math

import numpy as np

FAMILIES = ("symmetric", "pair_chain", "one_nonneg", "all_negative", "conjugate")
REAL_FAMILIES = FAMILIES[:4]
SIZES = (2, 3, 4, 6, 8, 12)

#: Norm up to which the library's Pade(13) kernel runs unscaled.
THETA_13 = 5.371920351148152

#: Deepest scaling-and-squaring depth of each family.  Families with a
#: positive frequency stop early so that |Phi| stays near or below 1e20.
MAX_DEPTH = {"symmetric": 3, "pair_chain": 3, "one_nonneg": 4,
             "all_negative": 6, "conjugate": 6}

#: All-negative vectors start deeper, so that their tail reaches |Phi| ~ 1e-40.
MIN_DEPTH = {"all_negative": 4}


def slot_depth(family: str, slot: int) -> int:
    """Scaling depth of a pool slot: fixed by the slot, so a pass costs the same for every seed."""
    low = MIN_DEPTH.get(family, 0)
    return MAX_DEPTH[family] - slot % (MAX_DEPTH[family] - low + 1)


def _ladder(rng, base, count):
    """count magnitudes base * (i + 1 +- 0.25), pairwise at least base / 2 apart."""
    return [base * (i + 1 + rng.uniform(-0.25, 0.25)) for i in range(count)]


def frequencies(rng, family: str, size: int, base: float) -> list:
    """A frequency vector of the given family and length, as complex numbers."""
    if family == "symmetric":
        mags = _ladder(rng, base, size // 2)
        out = [0.0] * (size % 2) + [s * a for a in mags for s in (1.0, -1.0)]
    elif family == "pair_chain":
        # Pairs (q + d, -q) with d > 0: nonnegative sums, never symmetric.
        mags = _ladder(rng, base, size // 2 + size % 2)
        out = []
        for q in mags[:size // 2]:
            out += [q + base * rng.uniform(0.05, 0.2), -q]
        if size % 2:
            out.append(-mags[-1] - base * 0.5)
    elif family == "one_nonneg":
        # One entry in [0, 0.4 base]; every negative entry is below -0.75 base,
        # so no pair has a nonnegative sum.
        out = [base * rng.uniform(0.0, 0.4)] + [-a for a in _ladder(rng, base, size - 1)]
    elif family == "all_negative":
        out = [-a for a in _ladder(rng, base, size)]
    elif family == "conjugate":
        out = []
        for b in _ladder(rng, base, size // 2):
            a = base * rng.uniform(-0.6, 0.2)
            out += [complex(a, b), complex(a, -b)]
        if size % 2:
            out.append(-base * rng.uniform(0.1, 1.0))
    else:
        raise ValueError(f"unknown family {family!r}")
    return [complex(v) for v in out]


def opitz_norm(freqs) -> float:
    """Spectral norm of the bidiagonal matrix with the frequencies on its diagonal."""
    count = len(freqs)
    z = np.diag(np.asarray(freqs, dtype=complex)) + np.diag(np.ones(count - 1), 1)
    return float(np.linalg.norm(z, 2))


#: Where hi sits in its depth's band of norms, as a share of theta_13 (depth 0)
#: or of the band's lower edge theta_13 * 2**(depth - 1).
DEPTH0_SHARE, BAND_SHARE = 0.6, 1.5

#: lo / hi of an all-negative interval, and of the other families' intervals
#: by slot: both-sided, then short of 0, then well clear of it.
TAIL_LO_SHARE = 0.65
LO_SHARES = (-0.25, 0.125, 0.5)


def interval_for_depth(freqs, family: str, depth: int, slot: int):
    """[lo, hi] whose right end needs ``depth`` squarings in the library's expm.

    The squaring count is ceil(log2(|x| |Z|_2 / theta_13)), so hi is placed
    inside the band of norms that gives ``depth``.  The interval's shape is
    fixed by the family, depth and slot, not drawn: every grid point then
    needs the same number of squarings for every seed, and so a slot costs
    the same whatever its frequencies.  All-negative vectors get an interval
    in their decaying tail; the others may start left of 0.
    """
    if depth == 0:
        target = THETA_13 * DEPTH0_SHARE
    else:
        target = THETA_13 * 2 ** (depth - 1) * BAND_SHARE
    hi = target / opitz_norm(freqs)
    if family == "all_negative":
        return hi * TAIL_LO_SHARE, hi
    return hi * LO_SHARES[slot % len(LO_SHARES)], hi


def log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def as_pairs(freqs) -> list:
    """JSON form used by the CLI: reals as numbers, complex entries as [re, im]."""
    return [v.real if v.imag == 0.0 else [v.real, v.imag] for v in freqs]
