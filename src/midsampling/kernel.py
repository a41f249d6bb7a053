"""Numerically stable binomial and hypergeometric tail probabilities.

Probability mass terms are evaluated in log space through the log-gamma
function and exponentiated term by term.  The scalar cores sum them with
``math.fsum``; the array paths sum them left to right (``+=`` per x,
``np.cumsum``).  Every path stays within tol(N), below.  Direct factorials
would overflow long before the lot sizes this package has to handle.

Every log-factorial comes from ``math.lgamma``, whether read from the table
built at import, from its numpy copy (which the array paths extend on
demand) or computed past the table's end, so no value depends on the path
or on earlier calls.  Public functions check their arguments, then call one
of four unchecked cores: ``_lot_tails`` (scalar hypergeometric tails,
resolved once per lot and then evaluated per plan), ``_binomial_curve`` (the
binomial tails of one plan over a grid of proportions, resolved once per
plan, and the only routine that sums binomial terms: a scalar binomial tail
is its value at one point), ``_hypergeometric_cdf_bulk`` (tails over arrays,
with an acceptance number shared by every lane or one per lane) and
``_interpolated_terms`` (terms at real defect counts).

A computed tail is within tol(N) = ``_tail_tolerance(N)`` = 2**-46 *
(1 + N ln(N+1)) of the exact one, an a-priori bound of order eps * ln N!:
a log term sums at most nine log-factorials, each at most ln N! and within
a few ulps, and exponentiation turns that error into a relative error of
terms that sum to at most 1.  tol(N) and the binomial bounds are stdlib
floats, so no scalar decision path uses numpy.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Union

import numpy as np

__all__ = [
    "LotSize",
    "INFINITE_LOT",
    "Plan",
    "binomial_cdf",
    "hypergeometric_cdf",
    "interpolated_acceptance",
    "interpolated_acceptance_curve",
]

# Summation noise this far past the unit interval is clipped silently;
# anything beyond it indicates a logic error, not rounding.
_PROB_GROSS_ERROR = 1e-6
# Elements per block of the bulk tail: 64 KiB float64 temporaries.
_BULK_BLOCK = 8192
# Error of a tail per unit of log-term magnitude: 64 ulp(1).
_ERROR_PER_LOG_UNIT = 2.0 ** -46
# The scalar core's term loops read these as globals: faster than math.exp.
_exp, _fsum = math.exp, math.fsum


def _lgamma_fill(start: int, stop: int) -> array:
    """ln(k!) for start <= k < stop: how the table is filled and grown."""
    return array("d", map(math.lgamma, map(float, range(start + 1, stop + 1))))


# _LOG_FACTORIAL[k] == ln(k!), a flat array of doubles: scalar lookups index
# it several times faster than a numpy array, at a quarter of the memory of a
# list of floats, and the vectorized paths view the same buffer (and grow a
# copy when they need more).  The lots of up to 2**14 items that make up
# most tables read a list copy of its head, faster still.
_TABLE_SIZE = 100_002
_LOG_FACTORIAL = _lgamma_fill(0, _TABLE_SIZE)
_LOG_FACTORIAL_NP = np.frombuffer(_LOG_FACTORIAL)
_SMALL_SIZE = 1 << 14
_SMALL_LOG_FACTORIAL = _LOG_FACTORIAL[:_SMALL_SIZE].tolist()


class _LgammaPastTable:
    """ln(k!) for k past the table's end, from the function that filled it."""

    def __getitem__(self, k: int) -> float:
        return math.lgamma(k + 1.0)


_PAST_TABLE = _LgammaPastTable()


def _log_factorials(N: int):
    """ln(k!) for 0 <= k <= N, indexable like a list."""
    if N < _SMALL_SIZE:
        return _SMALL_LOG_FACTORIAL
    return _LOG_FACTORIAL if N < _TABLE_SIZE else _PAST_TABLE


def _log_factorial_array(N: int) -> np.ndarray:
    """The numpy table, extended to cover 0..N if it does not yet.  Extending
    rebinds the name to a longer copy, so readers of the old one are safe."""
    global _LOG_FACTORIAL_NP
    table = _LOG_FACTORIAL_NP
    if N >= len(table):
        tail = np.frombuffer(_lgamma_fill(len(table), max(N + 1, 2 * len(table))))
        table = _LOG_FACTORIAL_NP = np.concatenate([table, tail])
    return table


def _tail_tolerance(N: int) -> float:
    """A-priori bound on |computed - exact| for any tail of a lot of N items,
    the one tol(N) of every path.  It does not decrease with N, so tol of a
    range's largest lot covers every lot of the range."""
    return _ERROR_PER_LOG_UNIT * (1.0 + N * math.log1p(N))  # N ln(N+1) >= ln N!


def _binomial_tolerances(n: int, ps) -> tuple:
    """The bound on |computed - exact| for any binomial tail of at most n
    draws at each exact proportion p of ps, as floats, with n ln(n+1) taken
    once for all of them.  ln p and ln(1 - p) come from the exact ratio of
    p, so a proportion within an ulp of 0 or 1 still has them."""
    scale = n * math.log1p(n)  # >= ln n!, the largest log-factorial a term uses
    tols = []
    for p in ps:
        a, b = p.as_integer_ratio()
        ln_pq = math.log(a) + math.log(b - a) - 2 * math.log(b)  # ln p(1 - p)
        tols.append(_ERROR_PER_LOG_UNIT * (1.0 + (scale - n * ln_pq)))
    return tuple(tols)


def _clamp_probability(value: float) -> float:
    if 0.0 <= value <= 1.0:
        return value
    if -_PROB_GROSS_ERROR <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + _PROB_GROSS_ERROR:
        return 1.0
    raise ArithmeticError(f"probability {value!r} outside [0, 1] beyond rounding noise")


LevelLike = Union[Fraction, float, int, str]


def as_exact_level(value: LevelLike) -> Fraction:
    """Convert a quality level or risk bound to an exact Fraction.

    Floats go through their shortest decimal representation, so the
    literal a user typed (0.07) becomes the rational they meant (7/100)
    rather than the nearest binary double.  Malformed strings, "1/0"
    included, raise ``ValueError``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"level {value!r} is not a finite number")
        return Fraction(Decimal(repr(value)))
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"level {value!r} has a zero denominator") from exc


def _check_count(name: str, value, least: int = 0) -> int:
    """``value`` as an int, or ValueError unless it is a whole number >= least."""
    if isinstance(value, bool) or value != int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LotSize:
    """Size of the lot under inspection.

    ``count`` is a positive integer for a finite lot, or ``None`` for the
    idealized infinite lot, which selects the binomial sampling model
    instead of the hypergeometric one.
    """

    count: Optional[int] = None

    def __post_init__(self):
        if self.count is not None:
            object.__setattr__(self, "count", _check_count("lot size", self.count, 1))

    @property
    def is_finite(self) -> bool:
        return self.count is not None

    @classmethod
    def of(cls, value: Union["LotSize", int, float, str, None]) -> "LotSize":
        """Coerce ints, whole floats, ``float('inf')``, ``'inf'`` or ``None``
        to a LotSize; fractional sizes raise ``ValueError``."""
        if isinstance(value, LotSize):
            return value
        if value is None:
            return INFINITE_LOT
        if isinstance(value, str):
            if value.strip().lower() in ("inf", "infinite", "infinity"):
                return INFINITE_LOT
            return cls(int(value.strip()))
        if isinstance(value, float) and math.isinf(value):
            return INFINITE_LOT
        return cls(value)

    def __str__(self) -> str:
        return "inf" if self.count is None else str(self.count)


INFINITE_LOT = LotSize(None)


@dataclass(frozen=True)
class Plan:
    """Attribute sampling plan: inspect ``n`` items, accept on <= ``c`` defects."""

    n: int
    c: int

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count("sample size n", self.n))
        object.__setattr__(self, "c", _check_count("acceptance number c", self.c))
        if self.c > self.n:
            raise ValueError(f"acceptance number c={self.c} exceeds sample size n={self.n}")

    def __str__(self) -> str:
        return f"({self.n},{self.c})"


# ---------------------------------------------------------------------------
# The scalar core
# ---------------------------------------------------------------------------

def _lot_tails(level, N: Optional[int]):
    """The scalar core for one lot, unchecked: a function tail(c, n) that
    returns P(X <= c) for a sample of n items.

    X is hypergeometric over a lot of N items holding ``level`` defectives,
    or binomial with defective proportion ``level`` when N is None, where
    the tail is ``_binomial_curve`` at that one proportion.  For a finite
    lot, what does not depend on (c, n), the log-factorial view and the
    lot's own log terms, is resolved here, once per lot.  Terms are
    evaluated in log space and compensated-summed in ascending order of x;
    callers guarantee 0 <= c <= n (<= N) and 0 <= level (<= N, or <= 1.0
    for a proportion).
    """
    if N is None:
        return lambda c, n: _binomial_curve(c, n, (level,))[0]
    K, good = level, N - level
    t = _log_factorials(N)
    ln_k, ln_good, ln_N = t[K], t[good], t[N]

    def hypergeometric_tail(c, n):
        if c >= K or c >= n:
            return 1.0  # support of X is [max(0, n-(N-K)), min(K, n)]
        x_lo = n - good
        if c < x_lo:
            return 0.0
        ln_denom = ln_N - t[n] - t[N - n]
        terms = []  # a plain loop: a comprehension's call costs more than 1-4 terms
        for x in range(x_lo if x_lo > 0 else 0, c + 1):
            terms.append(
                _exp(ln_k - t[x] - t[K - x] + (ln_good - t[n - x] - t[x - x_lo]) - ln_denom)
            )
        total = _fsum(terms)
        return total if 0.0 <= total <= 1.0 else _clamp_probability(total)

    return hypergeometric_tail


def _binomial_curve(c: int, n: int, ps) -> list:
    """P(X <= c) for X ~ Binomial(n, p) at each float proportion p of ps,
    unchecked, with (c, n) resolved once for the whole grid: the one binomial
    term expression, compensated-summed in ascending order of x."""
    if c >= n:
        return [1.0] * len(ps)
    t = _log_factorials(n)
    ln_n = t[n]
    curve = []
    for p in ps:
        if not 0.0 < p < 1.0:  # X is 0 at p = 0, and X is n > c at p = 1
            curve.append(1.0 - p)
            continue
        log_p, log_q = math.log(p), math.log1p(-p)
        total = _fsum([
            _exp(ln_n - t[x] - t[n - x] + x * log_p + (n - x) * log_q) for x in range(c + 1)
        ])
        curve.append(total if 0.0 <= total <= 1.0 else _clamp_probability(total))
    return curve


# ---------------------------------------------------------------------------
# Binomial model (infinite lots)
# ---------------------------------------------------------------------------

def binomial_cdf(c: int, n: int, p: float) -> float:
    """P(X <= c) for X ~ Binomial(n, p), i.e. the acceptance probability of
    plan (n, c) against an infinite lot with defective proportion p.

    Absolute error stays below ``_binomial_tolerances(n, (p,))``.
    """
    c = _check_count("c", c)
    n = _check_count("n", n)
    if c > n:
        raise ValueError(f"c={c} exceeds n={n}")
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    return _binomial_curve(c, n, (p,))[0]


# ---------------------------------------------------------------------------
# Hypergeometric model (finite lots)
# ---------------------------------------------------------------------------

def hypergeometric_cdf(c: int, n: int, K: int, N: int) -> float:
    """P(X <= c) under the hypergeometric model: acceptance probability of
    plan (n, c) against a finite lot of N items with K defectives.

    Terms outside the support use the zero convention C(a, b) = 0 for
    b > a.  Absolute error stays below ``_tail_tolerance(N)``: about
    1e-12 at N = 25, 1e-9 at N = 10**4 and 2e-7 at N = 10**6; observed
    errors are some forty times smaller.
    """
    c = _check_count("c", c)
    n = _check_count("n", n)
    K = _check_count("K", K)
    N = _check_count("N", N)
    if K > N:
        raise ValueError(f"defective count K={K} exceeds lot size N={N}")
    if n > N:
        raise ValueError(f"sample size n={n} exceeds lot size N={N}")
    if c > n:
        raise ValueError(f"c={c} exceeds n={n}")
    return _lot_tails(K, N)(c, n)


def _hypergeometric_terms(x, n, K, N, lf: np.ndarray, ln_denom, c=None) -> np.ndarray:
    """P(X == x) over broadcast integer arrays, zero outside the support and,
    given acceptance numbers c, where x > c; ``lf`` covers 0..max(N) and
    ``ln_denom`` is ln C(N, n)."""
    valid = (x <= K) & (x <= n) & (n - x <= N - K)
    if c is not None:
        valid &= x <= c
    x = np.where(valid, x, 0)  # keep table indices in range on dead lanes
    rest = n - x
    log_terms = (
        lf[K] - lf[x] - lf[K - x]
        + lf[N - K] - lf[rest] - lf[np.maximum(N - K - rest, 0)]
        - ln_denom
    )
    terms = np.zeros(log_terms.shape)
    np.exp(log_terms, out=terms, where=valid)
    return terms


def _hypergeometric_cdf_bulk(c, n, K, N) -> np.ndarray:
    """hypergeometric_cdf over aligned integer arrays n, K, N, unchecked, with
    an acceptance number c shared by every lane or one per lane (an aligned
    array; a lane adds an exact 0.0 for each x past its own c).  Works through
    blocks of _BULK_BLOCK elements and loops over x within each, so its
    temporaries stay below malloc's mmap threshold and reuse heap pages: at
    10^5 lots, page faults on freshly mapped temporaries cost as much as the
    arithmetic.  With per-lane c, a block whose lanes all have n <= N - K adds
    its terms x <= min(c, K, n) without the support mask: the same
    expression, so the same floats."""
    n, K, N = np.broadcast_arrays(
        np.asarray(n, dtype=np.int64),
        np.asarray(K, dtype=np.int64),
        np.asarray(N, dtype=np.int64),
    )
    shape = N.shape
    n, K, N = n.reshape(-1), K.reshape(-1), N.reshape(-1)
    if np.ndim(c):
        c = np.asarray(c, dtype=np.int64).reshape(-1)
    lf = _log_factorial_array(int(N.max(initial=1)))
    total = np.zeros(N.shape, dtype=np.float64)
    for start in range(0, N.size, _BULK_BLOCK):
        block = slice(start, start + _BULK_BLOCK)
        nb, Kb, Nb, total_b = n[block], K[block], N[block], total[block]
        ln_denom = lf[Nb] - lf[nb] - lf[Nb - nb]
        cb, top, whole = None, c, -1  # a shared c always takes the mask
        if np.ndim(c):
            cb, good = c[block], Nb - Kb
            top = int(cb.max())
            whole = int(np.minimum(np.minimum(cb, Kb), nb).min()) if (nb <= good).all() else -1
        for x in range(top + 1):
            if x <= whole:  # lanes in the support and in the tail: no mask
                rest = nb - x
                total_b += np.exp(
                    lf[Kb] - lf[x] - lf[Kb - x] + lf[good] - lf[rest] - lf[good - rest] - ln_denom
                )
            else:
                total_b += _hypergeometric_terms(x, nb, Kb, Nb, lf, ln_denom, cb)
    return np.minimum(total, 1.0).reshape(shape)


# ---------------------------------------------------------------------------
# Gamma-interpolated hypergeometric model (WELMEC-style continuous risks)
# ---------------------------------------------------------------------------

def _defect_count(p: LevelLike, N: int) -> tuple:
    """(p*N as a float, the whole count p*N or None) for a quality level p
    in [0, 1], the one reader of a realizable defect count; ValueError
    outside [0, 1].  Fractions, ints and strings are read exactly.  A float
    names count k only when it is the double nearest k/N, ``k / N == p``;
    otherwise p*N is its float product."""
    if isinstance(p, float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quality level {p!r} outside [0, 1]")
        k = round(p * N)
        return p * N, (k if k / N == p else None)
    a, b = as_exact_level(p).as_integer_ratio()
    if not 0 <= a <= b:
        raise ValueError(f"quality level {p!r} outside [0, 1]")
    count, rest = divmod(a * N, b)
    return a * N / b, (None if rest else count)


def _checked_interpolation_args(n: int, N, p) -> tuple:
    N = _check_count("lot size N", N, 1)
    if n > N:
        raise ValueError(f"sample size n={n} exceeds lot size N={N}")
    pN, count = _defect_count(p, N)
    if count is None and pN.is_integer():
        count = int(pN)  # a level that rounds onto a whole count is read there
    return N, pN, count


def _interpolated_terms(c: int, n: int, N: int, pN: float) -> list:
    """Mass terms x = 0..c of the hypergeometric law continued to the real,
    non-integer defect count pN by replacing factorials with Gamma
    functions, unchecked.

    The continued terms are signed, as Gamma is negative where its argument
    is negative with an odd floor.  A Gamma argument still rounds onto a
    pole when pN lies within an ulp of a whole count; 1/Gamma is zero
    there, and so is the term.
    """
    lgamma = math.lgamma
    t, t_lot = _log_factorials(n), _log_factorials(N)
    ln_defective = lgamma(pN + 1.0)
    ln_good = lgamma(N - pN + 1.0)
    ln_denom = t_lot[N] - t_lot[n] - t_lot[N - n]
    terms = []
    for x in range(c + 1):
        z1 = pN - x + 1.0
        z2 = N - pN - (n - x) + 1.0
        if (z1 <= 0.0 and z1.is_integer()) or (z2 <= 0.0 and z2.is_integer()):
            terms.append(0.0)
            continue
        term = math.exp(
            (ln_defective - t[x] - lgamma(z1)) + (ln_good - t[n - x] - lgamma(z2)) - ln_denom
        )
        for z in (z1, z2):
            if z < 0.0 and math.floor(z) % 2:
                term = -term
        terms.append(term)
    return terms


def interpolated_acceptance(plan: Plan, N: int, p) -> float:
    """Acceptance probability of ``plan`` against a finite lot of size N
    whose defective count is the (possibly non-integer) real number p*N.

    The hypergeometric mass function is continued to real defective counts
    by replacing factorials with Gamma functions; at integer p*N this
    reduces exactly to ``hypergeometric_cdf``.  ``p`` is read as
    ``_defect_count`` reads it: a Fraction, int or string exactly, and a
    float as a whole count k only when it is the double nearest k/N.

    The continued mass terms are signed, so partial sums can leave the
    unit interval for acceptance numbers well beyond p*N (most visibly
    for near-full inspections of small lots); results are clipped into
    [0, 1].  At the acceptance numbers of practically relevant plans the
    continuation is probability-like and the clip is inactive.
    """
    N, pN, integer_count = _checked_interpolation_args(plan.n, N, p)
    if integer_count is not None:
        return _lot_tails(integer_count, N)(plan.c, plan.n)
    total = math.fsum(_interpolated_terms(plan.c, plan.n, N, pN))
    return min(max(total, 0.0), 1.0)


def interpolated_acceptance_curve(n: int, N: int, p) -> np.ndarray:
    """Gamma-interpolated acceptance probabilities for c = 0..n at once.

    ``out[c]`` equals ``interpolated_acceptance(Plan(n, c), N, p)`` up to
    rounding, clipped into [0, 1] like the scalar version.  At a whole
    defect count K = p*N the curve is the hypergeometric one, ``out[c]`` ==
    ``hypergeometric_cdf(c, n, K, N)`` up to rounding, in one vectorized pass.
    """
    n = _check_count("n", n)
    N, pN, integer_count = _checked_interpolation_args(n, N, p)
    if integer_count is not None:
        lf = _log_factorial_array(N)
        terms = _hypergeometric_terms(
            np.arange(n + 1), n, integer_count, N, lf, lf[N] - lf[n] - lf[N - n]
        )
        return np.minimum(np.cumsum(terms), 1.0)
    return np.clip(np.cumsum(_interpolated_terms(n, n, N, pN)), 0.0, 1.0)
