"""Interval-based simplified sampling schemes and their validation.

A scheme maps every lot size N >= 1 to a plan through an ordered list of
contiguous lot-size intervals, each carrying a plan rule (fixed sample
size, full inspection, or a lot-offset sample size).  The built-in scheme
is the ten-row recommendation for MID modules F/F1 whose producers' and
consumers' risks stay below 5% for every lot size.

Validation proves "for every lot size" without visiting every lot: a
row's risks are extreme at the ends of its runs of constant realized count
([F5] and [F9] in the ledger of ``risks``).  One scheme check evaluates
every row there, in one pass per side, at about 2*(p_aql + p_lq) lots per
lot covered: O(runs), not O(lots).

Schemes can be read from and written to a one-row-per-line text format::

    from,to,rule,c        # to is a lot size or "inf"; rule is n:<int> | full | offset:<int>
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .kernel import LotSize, Plan, _check_count, _read_count
from .risks import QualitySpec, RiskBounds, _scheme_risks

__all__ = [
    "PlanRule",
    "SchemeRow",
    "Scheme",
    "RowValidation",
    "SchemeParseError",
    "SchemeCoverageError",
    "SchemeRuleError",
    "default_mid_scheme",
    "scheme_lookup",
    "validate_scheme",
    "parse_scheme",
    "format_scheme",
]

#: Lot sizes checked explicitly for a scheme's unbounded final interval;
#: beyond this the binomial limit covers the remaining tail.
DEFAULT_VALIDATION_CAP = 100_000


class SchemeParseError(ValueError):
    """Malformed scheme text; carries the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SchemeCoverageError(ValueError):
    """Scheme rows do not contiguously cover all lot sizes from 1."""


class SchemeRuleError(ValueError):
    """A rule yields an invalid plan somewhere in its interval."""

    def __init__(self, row_index: int, message: str):
        super().__init__(f"row {row_index}: {message}")
        self.row_index = row_index


@dataclass(frozen=True)
class PlanRule:
    """How to build a plan from a lot size: kind 'n' uses a fixed sample
    size, 'full' inspects the whole lot, 'offset' samples N - value items."""

    kind: str
    c: int
    value: int = 0

    #: Per kind, the sample-size label of scheme tables (58, N, N-4) and the
    #: rule token of the text format, each with the value filled in.
    _FORMATS = {"n": ("{}", "n:{}"), "full": ("N", "full"), "offset": ("N-{}", "offset:{}")}

    def __post_init__(self):
        if self.kind not in self._FORMATS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        what, least = ("fixed sample size", 1) if self.kind == "n" else ("offset", 0)
        object.__setattr__(self, "value", _check_count(what, self.value, least))
        object.__setattr__(self, "c", _check_count("acceptance number", self.c))
        if self.kind == "full" and self.value:
            raise ValueError(f"a full-inspection rule takes no value, got {self.value}")

    @classmethod
    def fixed(cls, n: int, c: int) -> "PlanRule":
        return cls(kind="n", c=c, value=n)

    @classmethod
    def full_inspection(cls, c: int) -> "PlanRule":
        return cls(kind="full", c=c)

    @classmethod
    def lot_offset(cls, k: int, c: int) -> "PlanRule":
        return cls(kind="offset", c=c, value=k)

    def sample_size(self, N):
        """Sample size at lot size N, an int or an integer array: full
        inspection is the offset 0."""
        return self.value if self.kind == "n" else N - self.value

    def plan_for(self, N: int) -> Plan:
        return Plan(self.sample_size(N), self.c)

    def label(self) -> str:
        """Sample-size column as shown in scheme tables: 58, N, or N-4."""
        return self._FORMATS[self.kind][0].format(self.value)

    def token(self) -> str:
        return self._FORMATS[self.kind][1].format(self.value)

    @classmethod
    def from_token(cls, token: str, c: int) -> "PlanRule":
        token = token.strip()
        if token == "full":
            return cls.full_inspection(c)
        if token.startswith("n:"):
            return cls.fixed(_read_count("fixed sample size", token[2:], 1), c)
        if token.startswith("offset:"):
            return cls.lot_offset(_read_count("offset", token[7:]), c)
        raise ValueError(f"unknown rule token {token!r}")


@dataclass(frozen=True)
class SchemeRow:
    """One lot-size interval [n_from, n_to] and its plan rule.

    ``n_to is None`` marks an interval open to infinity.
    """

    n_from: int
    n_to: Optional[int]
    rule: PlanRule

    def __post_init__(self):
        if self.n_from < 1:
            raise ValueError("interval must start at a lot size >= 1")
        if self.n_to is not None and self.n_to < self.n_from:
            raise ValueError(f"empty interval [{self.n_from}, {self.n_to}]")


@dataclass(frozen=True)
class Scheme:
    """Contiguous, non-overlapping rows covering every lot size from 1 up."""

    rows: Tuple[SchemeRow, ...]

    def __post_init__(self):
        if not self.rows:
            raise SchemeCoverageError("scheme has no rows")
        if self.rows[0].n_from != 1:
            raise SchemeCoverageError(
                f"coverage must start at lot size 1, first row starts at {self.rows[0].n_from}"
            )
        for i, row in enumerate(self.rows[:-1]):
            if row.n_to is None:
                raise SchemeCoverageError(f"row {i} is unbounded but not last")
            nxt = self.rows[i + 1]
            if nxt.n_from != row.n_to + 1:
                raise SchemeCoverageError(
                    f"gap or overlap between rows {i} and {i + 1}: "
                    f"[..,{row.n_to}] followed by [{nxt.n_from},..]"
                )
        if self.rows[-1].n_to is not None:
            raise SchemeCoverageError("last row must extend to infinity")


@dataclass(frozen=True)
class RowValidation:
    """Risk extrema of one scheme row over every lot size it covers.

    The extrema are taken over the lots that start or end a run of constant
    realized count, which bound every lot's risk [F5], [F9], and are within
    the kernel's tolerance tol(N) of the exact extrema over all lots.  ``*_at``
    fields give the lot size attaining each extremum: the first such lot, in
    N order, whose float risk is extreme, with None, the infinite-lot
    (binomial) limit, coming after every finite lot.
    """

    row: SchemeRow
    alpha_min: float
    alpha_max: float
    beta_min: float
    beta_max: float
    alpha_min_at: Optional[int]
    alpha_max_at: Optional[int]
    beta_min_at: Optional[int]
    beta_max_at: Optional[int]
    admissible: bool


_DEFAULT_ROWS = (
    SchemeRow(1, 14, PlanRule.full_inspection(0)),
    SchemeRow(15, 18, PlanRule.fixed(14, 0)),
    SchemeRow(19, 25, PlanRule.lot_offset(4, 0)),
    SchemeRow(26, 35, PlanRule.fixed(22, 0)),
    SchemeRow(36, 54, PlanRule.fixed(28, 0)),
    SchemeRow(55, 99, PlanRule.fixed(34, 0)),
    SchemeRow(100, 199, PlanRule.fixed(58, 1)),
    SchemeRow(200, 449, PlanRule.fixed(82, 2)),
    SchemeRow(450, 1499, PlanRule.fixed(86, 2)),
    SchemeRow(1500, None, PlanRule.fixed(109, 3)),
)

_DEFAULT_SCHEME = Scheme(rows=_DEFAULT_ROWS)


def default_mid_scheme() -> Scheme:
    """The built-in simplified scheme for MID modules F/F1 (ten rows,
    both risks below 5% for every lot size)."""
    return _DEFAULT_SCHEME


def _row_plan(index: int, row: SchemeRow, N: int) -> Plan:
    """The plan row ``index`` prescribes at lot size N, or SchemeRuleError
    unless it is a usable one: 1 <= n <= N and c <= n."""
    n = row.rule.sample_size(N)
    if not 1 <= n <= N or row.rule.c > n:
        raise SchemeRuleError(
            index,
            f"rule {row.rule.token()} yields an invalid plan (n={n}, c={row.rule.c}) at N={N}",
        )
    return Plan(n, row.rule.c)


def scheme_lookup(N: int, scheme: Scheme) -> Plan:
    """Plan prescribed by the scheme for a lot of size N."""
    N = _check_count("lot size", N, 1)
    # the rows cover [1, inf) contiguously, so the first not ending below N holds it
    for index, row in enumerate(scheme.rows):
        if row.n_to is None or N <= row.n_to:
            return _row_plan(index, row, N)


def validate_scheme(
    scheme: Scheme,
    spec: QualitySpec = QualitySpec(),
    bounds: RiskBounds = RiskBounds(),
    n_cap: int = DEFAULT_VALIDATION_CAP,
) -> List[RowValidation]:
    """Compute each row's risk extrema over every covered lot size.

    Every lot a row covers is decided exactly [T], at the run ends that the
    module docstring describes [F5], [F9].  The final unbounded row is
    checked up to ``n_cap`` and in the binomial (infinite-lot) limit, which
    convergence makes a faithful stand-in for the remaining tail.  A rule is
    checked at its row's first lot, where n > N, n < 1 and c > n first show.
    """
    n_cap = _check_count("n_cap", n_cap)
    last_from = scheme.rows[-1].n_from
    if n_cap < last_from:
        raise ValueError(f"n_cap={n_cap} below the unbounded row's first lot size {last_from}")
    for index, row in enumerate(scheme.rows):
        _row_plan(index, row, row.n_from)
        if row.n_to is None and row.rule.kind != "n":
            raise SchemeRuleError(index, "an unbounded interval requires a fixed sample size rule")
    verdicts = _scheme_risks(scheme.rows, n_cap, spec, bounds)
    return [RowValidation(row=row, **verdict) for row, verdict in zip(scheme.rows, verdicts)]


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def parse_scheme(text: str) -> Scheme:
    """Parse the line-based scheme format.

    Each non-empty, non-comment line reads ``from,to,rule,c`` where ``to``
    is a lot size as ``LotSize.of`` reads it (``inf`` for an open row) and
    ``rule`` is ``n:<int>``, ``full`` or ``offset:<int>``.  Raises
    :class:`SchemeParseError` with the offending line number, or
    :class:`SchemeCoverageError` if the rows do not cover [1, inf)
    contiguously.
    """
    rows = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [part.strip() for part in line.split(",")]
        if len(parts) != 4:
            raise SchemeParseError(line_number, f"expected 'from,to,rule,c', got {raw!r}")
        try:
            n_from = _read_count("interval start", parts[0], -math.inf)  # SchemeRow checks >= 1
            n_to = LotSize.of(parts[1]).count
            c = _read_count("acceptance number", parts[3])
            rule = PlanRule.from_token(parts[2], c)
            rows.append(SchemeRow(n_from=n_from, n_to=n_to, rule=rule))
        except (ValueError, TypeError) as exc:
            raise SchemeParseError(line_number, str(exc)) from exc
    return Scheme(rows=tuple(rows))


def format_scheme(scheme: Scheme) -> str:
    lines = []
    for row in scheme.rows:
        to = "inf" if row.n_to is None else str(row.n_to)
        lines.append(f"{row.n_from},{to},{row.rule.token()},{row.rule.c}")
    return "\n".join(lines) + "\n"

