"""The three benchmark workloads: a seeded block of requests for each, the
timed call for a request, correctness checks and rendered outputs.

Requests are plain values (ints, fraction strings, plan tuples).  Library
objects (``LotSize``, ``QualitySpec``, ``Scheme`` ...) are built inside the
timed call, as a real caller's would be.  The timed loop draws a fresh block
for each pass, so requests are not replayed.  A block has a fixed
composition and spreads its lot sizes evenly over their ranges (one draw per
stratum), so blocks from different seeds carry the same mix of work.  Library functions
are looked up on the package at call time (``ms.optimal_plan``), so the
tracer's wrappers on the package namespace see the benchmark's calls.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

#: Plans still change with N throughout this region of small lots.
DENSE_END = 2000
#: Largest lot covered by the kernel's log-factorial table at import time.
#: Table and compare lots stay at or below it, so no request grows the
#: table in the middle of a run.
TABLE_CAP = 100_000
#: Largest lot of single-plan queries, lookups and risk evaluations.
QUERY_CAP = 1_000_000

#: Custom (p_aql, p_lq, alpha_max, beta_max) specs; each keeps the infinite-lot
#: plan below a few hundred items, so a single query stays short.
CUSTOM_SPECS = (
    ("1/50", "1/10", "0.10", "0.05"),
    ("3/200", "2/25", "0.05", "0.10"),
    ("1/200", "1/20", "0.05", "0.05"),
    ("1/50", "3/25", "0.05", "0.05"),
)
DEFAULT_SPEC = ("1/100", "7/100", "0.05", "0.05")

#: Values quoted by the paper and the README, checked whenever drawn:
#: (kind, lot) -> (n, c).
QUOTED = {("plan", 258): (57, 1), ("plan", None): (109, 3), ("lookup", 22): (18, 0)}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """count log-uniform values on [lo, hi], one from each of count strata of
    equal log-width, in random order."""
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / count
    values = [
        min(hi, max(lo, int(round(math.exp(a + width * (i + rng.random()))))))
        for i in range(count)
    ]
    rng.shuffle(values)
    return values


def _lot(ms, N):
    return ms.INFINITE_LOT if N is None else ms.LotSize(N)


def _spec(ms, spec):
    aql, lq, alpha_max, beta_max = spec
    return (
        ms.QualitySpec(Fraction(aql), Fraction(lq)),
        ms.RiskBounds(float(alpha_max), float(beta_max)),
    )


def _plan_line(N, result) -> str:
    lot = "inf" if N is None else N
    return (
        f"{lot},{result.plan.n},{result.plan.c},"
        f"{result.risks.alpha:.6f},{result.risks.beta:.6f}\n"
    )


class Workload:
    """One workload: a seeded block of requests and the handling of one.

    A request is a tuple ``(kind, units, *params)``; ``units`` is the work it
    counts toward the workload's throughput.
    """

    name = ""
    #: (python, numpy) weights of the reference task, after the workload's mix
    reference_weights = (1.0, 0.0)

    def warm_up(self, ms) -> None:
        raise NotImplementedError

    def block(self, ms, rng: random.Random, tiny: bool) -> list:
        raise NotImplementedError

    def execute(self, ms, request):
        raise NotImplementedError

    def check(self, ms, request, result, rng: random.Random) -> list:
        """Failure messages for one result (empty when correct)."""
        raise NotImplementedError

    def render(self, ms, request, result) -> str:
        raise NotImplementedError


class TableSweep(Workload):
    """``plan_table`` over consecutive 20-row chunks: the ``midsampling
    table`` use.  A block covers the dense region 1..DENSE_END, cut into
    chunks at a seeded phase, and one seeded 100-row window of large lots in
    each of 20 strata up to TABLE_CAP.  Every table from N = 1 holds the
    small lots, so they recur from block to block, as in real table traffic;
    the chunks themselves differ."""

    name = "table_sweep"

    def warm_up(self, ms) -> None:
        ms.plan_table(1, 40)
        ms.plan_table(50_000, 50_004)

    def block(self, ms, rng, tiny):
        chunk, dense_end, windows, window_rows = (
            (5, 60, 2, 10) if tiny else (20, DENSE_END, 20, 100)
        )
        phase = rng.randrange(chunk)
        cuts = sorted({1, *range(1 + phase, dense_end + 1, chunk)})
        spans = list(zip(cuts, [lo - 1 for lo in cuts[1:]] + [dense_end]))
        stratum = (TABLE_CAP - dense_end - window_rows) // windows
        for i in range(windows):
            start = dense_end + 1 + i * stratum + rng.randrange(stratum)
            spans.extend((lo, lo + chunk - 1) for lo in range(start, start + window_rows, chunk))
        return [("table", hi - lo + 1, lo, hi) for lo, hi in spans]

    def execute(self, ms, request):
        _, _, lo, hi = request
        return ms.plan_table(lo, hi)

    def check(self, ms, request, table, rng):
        _, _, lo, hi = request
        failures = []
        if [N for N, _ in table] != list(range(lo, hi + 1)):
            return [f"table {lo}..{hi}: rows do not cover the chunk in order"]
        for N, result in table:
            lot = ms.LotSize(N)
            if not ms.is_admissible(result.plan, lot):
                failures.append(f"table N={N}: plan {result.plan} not admissible")
            quoted = QUOTED.get(("plan", N))
            if quoted and (result.plan.n, result.plan.c) != quoted:
                failures.append(f"table N={N}: plan {result.plan}, quoted {quoted}")
        N, result = table.rows[rng.randrange(len(table.rows))]
        failures.extend(_minimality_failures(ms, N, result))
        return failures

    def render(self, ms, request, table):
        return table.to_csv()


def _minimality_failures(ms, N, result) -> list:
    """The plan uses the largest feasible c at its n, reports its own risks,
    and no plan of size n-1 is admissible."""
    lot = _lot(ms, N)
    plan = result.plan
    failures = []
    if ms.max_acceptance_number(plan.n, lot) != plan.c:
        failures.append(f"N={N}: c={plan.c} is not the largest feasible at n={plan.n}")
    pair = ms.risk_pair(plan, lot)
    if (pair.alpha, pair.beta) != (result.risks.alpha, result.risks.beta):
        failures.append(f"N={N}: reported risks differ from risk_pair")
    if plan.n > 1:
        c_below = ms.max_acceptance_number(plan.n - 1, lot)
        if c_below is not None and ms.is_admissible(ms.Plan(plan.n - 1, c_below), lot):
            failures.append(f"N={N}: plan ({plan.n - 1},{c_below}) is admissible and smaller")
    return failures


class LotQueries(Workload):
    """A stream of independent requests, as from an interactive user or a
    service: single plans, interpretation comparisons, risk evaluations, OC
    curves and scheme lookups, with lots on both sides of TABLE_CAP."""

    name = "lot_queries"
    reference_weights = (0.7, 0.3)

    def warm_up(self, ms) -> None:
        for request in (
            ("plan", 1, 500, DEFAULT_SPEC),
            ("plan", 1, None, CUSTOM_SPECS[0]),
            ("compare", 1, 2000, (48, 0)),
            ("admissible", 1, 300, (50, 1)),
            ("risk_pair", 1, None, (50, 1)),
            ("oc", 1, 200, (30, 1)),
            ("oc", 1, None, (60, 2)),
            ("lookup", 1, 700),
        ):
            self.execute(ms, request)

    def block(self, ms, rng, tiny):
        """Per 20 requests: 8 finite and 1 infinite plan, 3 compares, 3 risk
        evaluations, 2 finite and 1 infinite OC curve and 2 lookups; plus the
        quoted values.  These counts give compare, plan and OC requests about
        58 %, 27 % and 14 % of the time, the shares of a prototype request
        stream, with the rest well under 2 %; run.py prints the shares."""
        k, top, compare_top, oc_top = (1, 10_000, 2_000, 200) if tiny else (
            100, QUERY_CAP, TABLE_CAP, 2_000)
        requests = [("plan", 1, 258, DEFAULT_SPEC), ("plan", 1, None, DEFAULT_SPEC),
                    ("lookup", 1, 22)]
        for i, N in enumerate(_spread(rng, 1, top, 8 * k)):
            requests.append(("plan", 1, N, rng.choice(CUSTOM_SPECS) if i % 3 == 0
                             else DEFAULT_SPEC))
        for i in range(k):
            requests.append(("plan", 1, None, CUSTOM_SPECS[i % 4] if i % 2 else DEFAULT_SPEC))
        for N in _spread(rng, 2, compare_top, 3 * k):
            reference = ms.optimal_plan(ms.LotSize(N)).plan
            requests.append(("compare", 1, N, (reference.n, reference.c)))
        for i, N in enumerate(_spread(rng, 1, top, 3 * k)):
            N = None if i % 10 == 0 else N
            n = _log_uniform(rng, 1, 400 if N is None else min(N, 400))
            requests.append((("admissible", "risk_pair")[i % 2], 1, N,
                             (n, rng.randint(0, min(n, 6)))))
        for N in _spread(rng, 2, oc_top, 2 * k):
            n = _log_uniform(rng, 1, min(N, 150))
            requests.append(("oc", 1, N, (n, rng.randint(0, min(n, 4)))))
        for n in _spread(rng, 1, 300, k):
            requests.append(("oc", 1, None, (n, rng.randint(0, min(n, 5)))))
        requests.extend(("lookup", 1, N) for N in _spread(rng, 1, top, 2 * k))
        rng.shuffle(requests)
        return requests

    def execute(self, ms, request):
        kind, _, N = request[:3]
        if kind == "plan":
            spec, bounds = _spec(ms, request[3])
            return ms.optimal_plan(_lot(ms, N), spec, bounds)
        if kind == "compare":
            n, c = request[3]
            return ms.compare_interpretations(
                ms.LotSize(N), candidate_plans=[ms.Plan(n, c), ms.Plan(n - 1, c)]
            )
        if kind == "admissible":
            return ms.is_admissible(ms.Plan(*request[3]), _lot(ms, N))
        if kind == "risk_pair":
            return ms.risk_pair(ms.Plan(*request[3]), _lot(ms, N))
        if kind == "oc":
            return ms.oc_curve(ms.Plan(*request[3]), _lot(ms, N))
        if kind == "lookup":
            return ms.scheme_lookup(N, ms.default_mid_scheme())
        raise ValueError(f"unknown request kind {kind!r}")

    def check(self, ms, request, result, rng):
        kind, _, N = request[:3]
        failures = []
        if kind == "plan":
            spec, bounds = _spec(ms, request[3])
            if not ms.is_admissible(result.plan, _lot(ms, N), spec, bounds):
                failures.append(f"plan N={N}: {result.plan} not admissible")
            quoted = QUOTED.get(("plan", N))
            if quoted and request[3] == DEFAULT_SPEC and (result.plan.n, result.plan.c) != quoted:
                failures.append(f"plan N={N}: {result.plan}, quoted {quoted}")
        elif kind == "compare":
            reference = result.hypothesis_plan
            if (reference.plan.n, reference.plan.c) != request[3]:
                failures.append(f"compare N={N}: reference {reference.plan} != optimal_plan")
            first = result.evaluated_plans[0]
            if first.risks != reference.risks:
                failures.append(f"compare N={N}: candidate risks differ from the reference")
        elif kind == "admissible":
            pair = ms.risk_pair(ms.Plan(*request[3]), _lot(ms, N))
            if result != (pair.alpha <= 0.05 and pair.beta <= 0.05):
                failures.append(f"admissible N={N} {request[3]}: disagrees with risk_pair")
        elif kind == "risk_pair":
            if not (0.0 <= result.alpha <= 1.0 and 0.0 <= result.beta <= 1.0):
                failures.append(f"risk_pair N={N} {request[3]}: risk outside [0, 1]")
        elif kind == "oc":
            pacs = [pac for _, pac in result]
            expected = 151 if N is None else N + 1
            if len(pacs) != expected or pacs[0] != 1.0:
                failures.append(f"oc N={N}: {len(pacs)} points, first {pacs[:1]}")
            if any(b > a + 1e-9 for a, b in zip(pacs, pacs[1:])):  # rounding noise
                failures.append(f"oc N={N}: acceptance increases with p")
        elif kind == "lookup":
            if not ms.is_admissible(result, ms.LotSize(N)):
                failures.append(f"lookup N={N}: built-in plan {result} not admissible")
            quoted = QUOTED.get(("lookup", N))
            if quoted and (result.n, result.c) != quoted:
                failures.append(f"lookup N={N}: {result}, quoted {quoted}")
        return failures

    def render(self, ms, request, result):
        kind, _, N = request[:3]
        if kind == "plan":
            return _plan_line(N, result)
        if kind == "compare":
            return ms.comparison_to_json(result) + "\n"
        if kind == "admissible":
            return f"{result}\n"
        if kind == "risk_pair":
            return f"{result.alpha:.6f},{result.beta:.6f}\n"
        if kind == "oc":
            return ms.oc_curve_to_csv(result, _lot(ms, N))
        return f"{N},{result.n},{result.c}\n"

    @staticmethod
    def cli_argv(request):
        """The ``midsampling`` command line for a request, or None when the
        command line has no equivalent (risk evaluation of a given plan)."""
        kind, _, N = request[:3]
        lot = "inf" if N is None else str(N)
        if kind == "plan":
            aql, lq, alpha_max, beta_max = request[3]
            return ["plan", "--lot-size", lot, "--aql", aql, "--lq", lq,
                    "--alpha-max", alpha_max, "--beta-max", beta_max]
        if kind == "compare":
            n, c = request[3]
            return ["compare", "--lot-size", lot, "--candidates", f"{n}:{c},{n - 1}:{c}"]
        if kind == "oc":
            n, c = request[3]
            return ["oc", "--n", str(n), "--c", str(c), "--lot-size", lot, "--format", "csv"]
        if kind == "lookup":
            return ["scheme", "lookup", "--builtin", "--lot-size", lot]
        return None


class SchemeValidate(Workload):
    """``validate_scheme`` over seeded variants of the built-in scheme, each
    parsed from its text form as ``midsampling scheme validate --file`` does.

    Variants shift row boundaries, change n and c, and switch small rows to
    offset rules.  All use the default n_cap of 10^5, which leaves the
    log-factorial table at its import-time size.
    """

    name = "scheme_validate"
    reference_weights = (0.5, 0.5)
    n_cap = TABLE_CAP

    #: (n_from, kind, value, c) of the built-in scheme; the last row is open
    BUILTIN = (
        (1, "full", 0, 0), (15, "n", 14, 0), (19, "offset", 4, 0), (26, "n", 22, 0),
        (36, "n", 28, 0), (55, "n", 34, 0), (100, "n", 58, 1), (200, "n", 82, 2),
        (450, "n", 86, 2), (1500, "n", 109, 3),
    )

    def warm_up(self, ms) -> None:
        ms.validate_scheme(ms.default_mid_scheme())

    def variant(self, rng: random.Random, index: int) -> str:
        """Scheme text of a random valid variant of the built-in scheme.  The
        open row's c, which sets most of the cost, cycles with ``index``."""
        starts = [row[0] for row in self.BUILTIN]
        for i in range(1, len(starts)):
            shift = rng.randint(-starts[i] // 10, starts[i] // 10)
            starts[i] = max(starts[i - 1] + 1, starts[i] + shift)
        rows = []
        last = len(self.BUILTIN) - 1
        for i, (_, kind, value, c) in enumerate(self.BUILTIN):
            n_from = starts[i]
            if kind == "n":
                value = max(1, value + rng.randint(-4, 4))
                c = max(0, c + ((-1, 0, 1, 0)[index % 4] if i == last
                                else rng.choice((-1, 0, 0, 1))))
                if i < last and value > n_from:
                    # a fixed sample may not exceed the smallest lot of its row
                    kind, value = ("offset", rng.randint(0, min(4, n_from - 1)))
            if kind == "offset":
                value = min(value, n_from - 1)
            smallest_sample = {"n": value, "full": n_from, "offset": n_from - value}[kind]
            rows.append((n_from, kind, value, min(c, smallest_sample)))
        lines = []
        for i, (n_from, kind, value, c) in enumerate(rows):
            to = "inf" if i == len(rows) - 1 else str(starts[i + 1] - 1)
            token = {"n": f"n:{value}", "full": "full", "offset": f"offset:{value}"}[kind]
            lines.append(f"{n_from},{to},{token},{c}")
        return "\n".join(lines) + "\n"

    def block(self, ms, rng, tiny):
        """The built-in scheme, then seeded variants of it."""
        texts = [ms.format_scheme(ms.default_mid_scheme())]
        texts.extend(self.variant(rng, i) for i in range(1 if tiny else 31))
        return [("validate", self.n_cap, text) for text in texts]

    def execute(self, ms, request):
        scheme = ms.parse_scheme(request[2])
        return scheme, ms.validate_scheme(scheme, n_cap=self.n_cap)

    def check(self, ms, request, result, rng):
        text = request[2]
        scheme, rows = result
        failures = []
        if ms.format_scheme(scheme) != text or ms.parse_scheme(ms.format_scheme(scheme)) != scheme:
            failures.append("scheme text does not round-trip through format/parse")
        if scheme == ms.default_mid_scheme():
            failures.extend(f"built-in row {res.row.n_from}: not admissible"
                            for res in rows if not res.admissible)
        for res in rows:
            for value, N, which in (
                (res.alpha_min, res.alpha_min_at, "alpha"),
                (res.alpha_max, res.alpha_max_at, "alpha"),
                (res.beta_min, res.beta_min_at, "beta"),
                (res.beta_max, res.beta_max_at, "beta"),
            ):
                plan = (res.row.rule.plan_for(N) if N is not None
                        else ms.Plan(res.row.rule.value, res.row.rule.c))
                expected = getattr(ms.risk_pair(plan, _lot(ms, N)), which)
                if abs(expected - value) > 1e-9:
                    failures.append(
                        f"row {res.row.n_from}: {which}={value!r} at N={N}, "
                        f"risk_pair gives {expected!r}"
                    )
        return failures

    def render(self, ms, request, result):
        return request[2] + ms.validation_report_csv(result[1])


WORKLOADS = {w.name: w for w in (TableSweep(), LotQueries(), SchemeValidate())}
