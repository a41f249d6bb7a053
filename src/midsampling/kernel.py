"""Numerically stable binomial and hypergeometric tail probabilities.

Probability mass terms are evaluated in log space through the log-gamma
function and exponentiated term by term.  The scalar cores sum them with
``math.fsum``; the array paths sum them left to right (``+=`` per x,
``np.cumsum``).  Every path stays within tol(N), below.  Direct factorials
would overflow long before the lot sizes this package has to handle.

Every log-factorial comes from ``math.lgamma``, whether read from the table
built at import, from its numpy copy (which the array paths extend on
demand) or computed past the table's end, so no value depends on the path
or on earlier calls.  Public functions check their arguments, then call
unchecked cores, each named with a leading underscore and documented where
it is defined.

A computed tail is within tol(N) = ``_tail_tolerance(N)`` = 2**-46 *
(1 + N ln(N+1)) of the exact one, an a-priori bound of order eps * ln N!:
a log term sums at most nine log-factorials, each at most ln N! and within
a few ulps, and exponentiation turns that error into a relative error of
terms that sum to at most 1.  tol(N) and the binomial bounds are stdlib
floats, so no scalar decision path uses numpy.
"""

from __future__ import annotations

import math
import numbers
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
    the one tol(N) of every path.  It does not decrease with N [F8]."""
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

    Floats, numpy's included, go through their shortest decimal
    representation, so the literal a user typed (0.07) becomes the rational
    they meant (7/100) rather than the nearest binary double; any other
    real that is not rational, such as ``np.float32``, is read as the float
    it converts to.  Malformed strings, "1/0" and any with '_' or a
    non-ASCII character included, raise ``ValueError``.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"level {value!r} is not a finite number")
        return Fraction(Decimal(float.__repr__(value)))  # np.float64's repr names its type
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational):
        return as_exact_level(float(value))
    if isinstance(value, str) and not (value.isascii() and "_" not in value):
        raise ValueError(f"level {value!r} is not written in ASCII digits without '_'")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"level {value!r} has a zero denominator") from exc


def _check_count(name: str, value, least: int = 0) -> int:
    """``value`` as an int, or ValueError unless it is a whole number >= least."""
    try:
        if isinstance(value, (bool, str)) or value != int(value):
            raise ValueError
    except (OverflowError, ValueError):  # int() of an infinity or a NaN raises too
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    value = int(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _read_count(name: str, token: str, least: int = 0) -> int:
    """A count written as text in ASCII digits (``int`` also takes '_' and
    other scripts' digits), read as ``_check_count`` reads a value."""
    try:
        value = int(token) if token.isascii() and "_" not in token else token
    except ValueError:
        value = token  # _check_count refuses a str by name
    return _check_count(name, value, least)


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
            return cls(_read_count("lot size", value.strip(), 1))
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
    """The scalar core of one level, unchecked: a function tail(c, n) that
    returns P(X <= c) for a sample of n items.

    X is hypergeometric over a lot of N items holding ``level`` defectives,
    or binomial with the exact proportion ``level`` when N is None, where
    the tail is ``_binomial_tail`` at its float, taken once.  A finite core
    resolves what does not depend on (c, n) once: per defect count K the
    coefficients (ln K! - ln x!) - ln (K-x)! of its terms, each x as a tail
    first reads it, and per lot the log-factorial view, ln N! and ln (N-K)!.
    ``tail.move(M)`` takes it to a lot of M items with the same K by
    updating only the latter, so a run of lots of one count shares the
    coefficients.  Terms are evaluated in log space and compensated-summed
    in ascending order of x; callers guarantee 0 <= c <= n (<= N) and
    0 <= level (<= N, or <= 1 for a proportion).
    """
    if N is None:
        p = float(level)
        return lambda c, n: _binomial_tail(c, n, p)
    K = level
    coeffs = []  # by x; every view of the table holds the same floats
    t = good = ln_good = ln_N = None

    def hypergeometric_tail(c, n):
        if c >= K or c >= n:
            return 1.0  # support of X is [max(0, n-(N-K)), min(K, n)]
        x_lo = n - good
        if c < x_lo:
            return 0.0
        ln_denom = ln_N - t[n] - t[N - n]
        if c >= len(coeffs):
            for x in range(len(coeffs), c + 1):
                coeffs.append(t[K] - t[x] - t[K - x])
        terms = []  # a plain loop: a comprehension's call costs more than 1-4 terms
        for x in range(x_lo if x_lo > 0 else 0, c + 1):
            terms.append(_exp(coeffs[x] + (ln_good - t[n - x] - t[x - x_lo]) - ln_denom))
        total = _fsum(terms)
        return total if 0.0 <= total <= 1.0 else _clamp_probability(total)

    def move(lot: int) -> None:
        nonlocal N, t, good, ln_good, ln_N
        N, t, good = lot, _log_factorials(lot), lot - K
        ln_good, ln_N = t[good], t[lot]

    move(N)
    hypergeometric_tail.move = move
    return hypergeometric_tail


def _binomial_tail(c: int, n: int, p: float) -> float:
    """P(X <= c) for X ~ Binomial(n, p) at one float proportion p, unchecked:
    the binomial term expression, compensated-summed in ascending order of x."""
    if c >= n:
        return 1.0
    if not 0.0 < p < 1.0:  # X is 0 at p = 0, and X is n > c at p = 1
        return 1.0 - p
    t = _log_factorials(n)
    ln_n = t[n]
    log_p, log_q = math.log(p), math.log1p(-p)
    total = _fsum([
        _exp(ln_n - t[x] - t[n - x] + x * log_p + (n - x) * log_q) for x in range(c + 1)
    ])
    return total if 0.0 <= total <= 1.0 else _clamp_probability(total)


def _binomial_logs(ps) -> list:
    """(ln p, ln(1 - p)) for each float proportion p of ps inside (0, 1)."""
    return [(math.log(p), math.log1p(-p)) for p in ps if 0.0 < p < 1.0]


def _binomial_curve(c: int, n: int, ps, logs=None) -> list:
    """``_binomial_tail`` at each float proportion p of ps, unchecked, with
    (c, n) resolved once for the whole grid and ``logs``, if given, the
    ``_binomial_logs`` of ps.  The grid is evaluated x-major: each x takes
    its coefficient ln n! - ln x! - ln (n-x)! once and adds one term per p,
    the tail's expression with the same association, and each p sums its
    column with ``math.fsum``, which rounds correctly whatever the order, so
    every point equals the tail bit for bit."""
    if c >= n:
        return [1.0] * len(ps)
    if logs is None:
        logs = _binomial_logs(ps)
    t = _log_factorials(n)
    ln_n = t[n]
    rows = []
    for x in range(c + 1):
        a, m = ln_n - t[x] - t[n - x], n - x
        rows.append([_exp(a + x * log_p + m * log_q) for log_p, log_q in logs])
    sums = iter([_fsum(column) for column in zip(*rows)])
    curve = []
    for p in ps:
        if not 0.0 < p < 1.0:
            curve.append(1.0 - p)
            continue
        total = next(sums)
        curve.append(total if 0.0 <= total <= 1.0 else _clamp_probability(total))
    return curve


# ---------------------------------------------------------------------------
# Binomial model (infinite lots)
# ---------------------------------------------------------------------------

def binomial_cdf(c: int, n: int, p: LevelLike) -> float:
    """P(X <= c) for X ~ Binomial(n, p), i.e. the acceptance probability of
    plan (n, c) against an infinite lot with defective proportion p, a level.

    Absolute error stays below ``_binomial_tolerances(n, (p,))``.
    """
    plan = Plan(n, c)
    return _binomial_tail(plan.c, plan.n, _defect_count(p, None)[0])


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
    plan = Plan(n, c)
    K, N = _check_count("defective count K", K), _check_count("lot size N", N, 1)
    if K > N:
        raise ValueError(f"defective count K={K} exceeds lot size N={N}")
    if plan.n > N:
        raise ValueError(f"sample size n={plan.n} exceeds lot size N={N}")
    return _lot_tails(K, N)(plan.c, plan.n)


def _hypergeometric_terms(x, n, K, N, lf: np.ndarray, ln_denom, c) -> np.ndarray:
    """P(X == x) over broadcast integer arrays, zero outside the support and
    where x > c, the acceptance numbers; ``lf`` covers 0..max(N) and
    ``ln_denom`` is ln C(N, n)."""
    valid = (x <= K) & (x <= n) & (n - x <= N - K) & (x <= c)
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
    """hypergeometric_cdf over aligned integer arrays c, n, K, N, unchecked
    (a scalar is broadcast to every lane; a lane adds an exact 0.0 for each
    x past its own c).  Works through blocks of _BULK_BLOCK elements and
    loops over x within each, so its temporaries stay below malloc's mmap
    threshold and reuse heap pages: at 10^5 lots, page faults on freshly
    mapped temporaries cost as much as the arithmetic.  A block whose lanes
    all have n <= N - K adds its terms x <= min(c, K, n) without the support
    mask: the same expression, so the same floats."""
    c, n, K, N = np.broadcast_arrays(*(np.asarray(a, dtype=np.int64) for a in (c, n, K, N)))
    shape = N.shape
    c, n, K, N = c.reshape(-1), n.reshape(-1), K.reshape(-1), N.reshape(-1)
    lf = _log_factorial_array(int(N.max(initial=1)))
    total = np.zeros(N.shape, dtype=np.float64)
    for start in range(0, N.size, _BULK_BLOCK):
        block = slice(start, start + _BULK_BLOCK)
        cb, nb, Kb, Nb, total_b = c[block], n[block], K[block], N[block], total[block]
        ln_denom = lf[Nb] - lf[nb] - lf[Nb - nb]
        good = Nb - Kb
        whole = int(np.minimum(np.minimum(cb, Kb), nb).min()) if (nb <= good).all() else -1
        for x in range(int(cb.max()) + 1):
            if x <= whole:  # lanes in the support and in the tail: no mask
                rest = nb - x
                total_b += np.exp(
                    lf[Kb] - lf[x] - lf[Kb - x] + lf[good] - lf[rest] - lf[good - rest] - ln_denom
                )
            else:
                total_b += _hypergeometric_terms(x, nb, Kb, Nb, lf, ln_denom, cb)
    return np.minimum(total, 1.0).reshape(shape)


def _hypergeometric_cdf_all_counts(c: int, n: int, N: int) -> np.ndarray:
    """hypergeometric_cdf(c, n, K, N) at every defect count K = 0..N,
    unchecked, bit for bit as ``_hypergeometric_cdf_bulk(c, n, np.arange(N +
    1), N)`` computes it.  At each x the support is the contiguous range
    x <= K <= x + N - n, so every table read of the term expression is a
    slice of the log-factorial table (K - x runs up from 0, N - K and
    N - K - n + x run down) and each x adds its terms to a slice of the
    totals, without a gather or a mask; a lane outside the support, which
    the bulk path adds an exact 0.0 to, is left as it is."""
    lf = _log_factorial_array(N)
    m = N - n
    ln_denom = lf[N] - lf[n] - lf[m]
    total = np.zeros(N + 1)
    for x in range(c + 1):
        total[x : x + m + 1] += np.exp(
            lf[x : x + m + 1] - lf[x] - lf[: m + 1]
            + lf[n - x : N - x + 1][::-1] - lf[n - x] - lf[m::-1]
            - ln_denom
        )
    return np.minimum(total, 1.0)


# ---------------------------------------------------------------------------
# Gamma-interpolated hypergeometric model (WELMEC-style continuous risks)
# ---------------------------------------------------------------------------

def _defect_count(p: LevelLike, N: Optional[int]) -> tuple:
    """(p*N as a float, the whole count p*N or None) for a quality level p
    in [0, 1] against a lot of N items, and (p as a float, None) at an
    infinite lot, N None: the one reader of a level; ValueError outside
    [0, 1].  Fractions, ints and strings are read exactly.  A float names
    count k only when it is the double nearest k/N, ``k / N == p``;
    otherwise p*N is its float product."""
    if isinstance(p, float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quality level {p!r} outside [0, 1]")
        if N is None:
            return float(p) + 0.0, None  # a Python float; -0.0 reads as the level 0
        k = round(p * N)
        return p * N, (k if k / N == p else None)
    a, b = as_exact_level(p).as_integer_ratio()
    if not 0 <= a <= b:
        raise ValueError(f"quality level {p} outside [0, 1]")
    if N is None:
        return a / b, None
    count, rest = divmod(a * N, b)
    return a * N / b, (None if rest else count)


def _realizable_count(p: LevelLike, N: int) -> int:
    """Defective count k with p == k/N, or ValueError if p is not realizable."""
    k = _defect_count(p, N)[1]
    if k is None:
        raise ValueError(f"quality level {p} is not a multiple of 1/{N}")
    return k


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
    n = _check_count("sample size n", n)
    N, pN, integer_count = _checked_interpolation_args(n, N, p)
    if integer_count is not None:
        lf = _log_factorial_array(N)
        terms = _hypergeometric_terms(
            np.arange(n + 1), n, integer_count, N, lf, lf[N] - lf[n] - lf[N - n], n
        )
        return np.minimum(np.cumsum(terms), 1.0)
    return np.clip(np.cumsum(_interpolated_terms(n, n, N, pN)), 0.0, 1.0)
