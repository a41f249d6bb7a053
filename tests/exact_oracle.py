"""Exact reference for the planner's decisions, sharing no arithmetic with it.

Nothing here comes from midsampling.  A risk is a ratio of whole sample
counts from ``math.comb``; comparing it with a bound is an integer
cross-multiplication; and every quality level and bound is read as the
decimal it is written as (0.05 is 1/20).
"""

import math
from fractions import Fraction


def decimal(value) -> Fraction:
    """A level or bound as the decimal it is written as: 0.05 is 1/20."""
    return Fraction(str(value))


def realized_counts(N, aql, lq) -> tuple:
    """floor(aql*N) and ceil(lq*N), the defect counts the risks are judged at."""
    a, b = decimal(aql), decimal(lq)
    return a.numerator * N // a.denominator, -(-b.numerator * N // b.denominator)


def accepting_samples(c, n, K, N) -> int:
    """How many size-n samples of N items, K of them defective, hold at most
    c defectives: the tail P(X <= c) times C(N, n)."""
    return sum(math.comb(K, x) * math.comb(N - K, n - x) for x in range(min(c, K, n) + 1))


def exact_hypergeometric_tail(c, n, K, N) -> Fraction:
    """P(X <= c) for n items drawn without replacement from N, K defective."""
    return Fraction(accepting_samples(c, n, K, N), math.comb(N, n))


def exact_binomial_tail(c, n, p: Fraction) -> Fraction:
    """P(X <= c) for n independent items, each defective with probability
    p = a/b: the share of the b**n ordered draws with replacement from b
    items, a of them defective, that hold at most c defectives."""
    a, b = p.numerator, p.denominator
    return Fraction(sum(math.comb(n, x) * a**x * (b - a) ** (n - x) for x in range(c + 1)), b**n)


def exact_continued_acceptance(c, n, N, a, b) -> Fraction:
    """P(X <= c) of the hypergeometric law continued by Gamma functions to
    the defect count K = a*N/b, whole or not, unclipped.  C(K, x) is the
    falling product K(K - 1)...(K - x + 1)/x!, so term x is C(n, x) times
    the product of aN - ib over i < x and of (b - a)N - jb over j < n - x,
    over b**n n! C(N, n): integers throughout."""
    total = 0
    for x in range(c + 1):
        defective = math.prod(a * N - i * b for i in range(x))
        good = math.prod((b - a) * N - j * b for j in range(n - x))
        total += math.comb(n, x) * defective * good
    return Fraction(total, b**n * math.factorial(n) * math.comb(N, n))


def within(count, total, bound: Fraction) -> bool:
    """count/total <= bound, by cross-multiplication."""
    return count * bound.denominator <= bound.numerator * total


def judge(n, c, N, aql=0.01, lq=0.07, alpha_max=0.05, beta_max=0.05) -> tuple:
    """(alpha within alpha_max, beta within beta_max) for plan (n, c) at lot size N."""
    k_alpha, k_beta = realized_counts(N, aql, lq)
    total = math.comb(N, n)
    return (
        within(total - accepting_samples(c, n, k_alpha, N), total, decimal(alpha_max)),
        within(accepting_samples(c, n, k_beta, N), total, decimal(beta_max)),
    )


def largest_beta_feasible_c(n, N, lq=0.07, beta_max=0.05):
    """Largest c <= n whose consumers' risk is within beta_max, or None."""
    _, k_beta = realized_counts(N, 0, lq)
    total, beta_max = math.comb(N, n), decimal(beta_max)
    c = -1
    for accepted in _accepting_samples_by_c(n, k_beta, N):
        if not within(accepted, total, beta_max):
            break
        c += 1
    return None if c < 0 else c


def _accepting_samples_by_c(n, K, N):
    """Yields accepting_samples(c, n, K, N) for c = 0, 1, ..., n."""
    running = 0
    for x in range(n + 1):
        if x <= K:
            running += math.comb(K, x) * math.comb(N - K, n - x)
        yield running


def exact_optimal_plan(N, aql=0.01, lq=0.07, alpha_max=0.05, beta_max=0.05) -> tuple:
    """(n, c) of the admissible plan with the smallest n, ties going to the
    largest c, found by judging every plan with c <= n <= N."""
    k_alpha, k_beta = realized_counts(N, aql, lq)
    alpha_max, beta_max = decimal(alpha_max), decimal(beta_max)
    for n in range(1, N + 1):
        total = math.comb(N, n)
        accept_alpha = list(_accepting_samples_by_c(n, k_alpha, N))
        accept_beta = list(_accepting_samples_by_c(n, k_beta, N))
        admissible = [
            c
            for c in range(n + 1)
            if within(total - accept_alpha[c], total, alpha_max)
            and within(accept_beta[c], total, beta_max)
        ]
        if admissible:
            return n, max(admissible)
    raise AssertionError(f"no admissible plan for lot size {N}, not even full inspection")
