"""One workload in a fresh interpreter, started by run.py.

    worker.py {setup,run,trace} WORKLOAD SEED SECONDS TINY

Imports midsampling from the checkout's ``src``, warms the workload up and
prints ``ready``; run.py times set-up up to that line.  ``setup`` stops there.
``run`` then draws a fresh seeded block of requests for each pass until
SECONDS have passed; ``trace`` runs the first block once to check it, then
each of its requests untraced and traced.
Both end by printing one JSON line with their results.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
import resource
import statistics
import sys
import traceback
from array import array
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

from reference import Reference
from workloads import WORKLOADS, LotQueries, SchemeValidate

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

#: lot_queries requests replayed through cli.main in a traced run.
CLI_REPLAY = 24


def import_package():
    package_dir = SRC / "midsampling"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"worker: no midsampling package at {package_dir}")
    sys.path.insert(0, str(SRC))
    import midsampling

    if Path(midsampling.__file__).resolve().parent != package_dir:
        sys.exit(f"worker: imported midsampling from {midsampling.__file__}, not {package_dir}")
    return midsampling


def timed_call(wl, ms, request):
    """(result, seconds, error); the error is a traceback or None."""
    start = perf_counter()
    try:
        result = wl.execute(ms, request)
    except Exception:  # counted as a failed operation, the run goes on
        return None, perf_counter() - start, traceback.format_exc()
    return result, perf_counter() - start, None


def pass_block(wl, ms, seed: int, number: int, tiny: bool) -> list:
    """The requests of pass ``number``: fresh lots on every pass, the same
    mix of work.  Pass 0 is the block that traced runs use."""
    return wl.block(ms, random.Random(f"{seed}-{number}"), tiny)


class Outcomes:
    """Attempted and failed operations, failure messages, and the rendered
    output of each request of the first block, hashed."""

    def __init__(self, wl, ms, seed: int):
        self.wl, self.ms = wl, ms
        self.check_rng = random.Random(f"check-{seed}")
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.outputs = {}

    def check(self, request, result, error, index=None) -> None:
        """Check a result; with ``index``, keep its rendered output."""
        self.attempted += 1
        problems = [error] if error else self.wl.check(self.ms, request, result, self.check_rng)
        if problems:
            self.fail(*problems)
        elif index is not None:
            self.outputs[index] = self.rendered(request, result)

    def again(self, index: int, request, result, error) -> None:
        """A repeated request must give the output it gave the first time."""
        self.attempted += 1
        if error:
            self.fail(error)
        elif self.rendered(request, result) != self.outputs.get(index):
            self.fail(f"request {index} gave another output when repeated")

    def rendered(self, request, result) -> bytes:
        return hashlib.sha256(self.wl.render(self.ms, request, result).encode()).digest()

    def fail(self, *messages) -> None:
        self.failed += 1
        self.messages.extend(messages)

    def summary(self) -> dict:
        for message in self.messages[:20]:
            print(f"worker: check failed: {message}", file=sys.stderr)
        digest = hashlib.sha256(b"".join(self.outputs[i] for i in sorted(self.outputs)))
        return {"attempted": self.attempted, "failed": self.failed,
                "digest": digest.hexdigest()}


def run_loop(wl, ms, seed: int, seconds: float, tiny: bool) -> dict:
    """Closed loop with one client: one pass over a fresh block of requests
    after another, each request timed once.  Passes are whole, so a run
    carries the block's mix of work; the next one starts only while at least
    half the last one's time is left of ``seconds``.  Each call's time is read
    in units of the reference task around it.  Checks, block generation and
    reference samples run between calls."""
    outcomes = Outcomes(wl, ms, seed)
    reference = Reference(wl.reference_weights)
    kinds, starts, took_s = [], array("d"), array("d")
    units = 0
    deadline = perf_counter() + seconds
    for number in itertools.count():
        begun = perf_counter()
        for index, request in enumerate(pass_block(wl, ms, seed, number, tiny)):
            start = perf_counter()
            result, took, error = timed_call(wl, ms, request)
            kinds.append(request[0])
            starts.append(start)
            took_s.append(took)
            units += request[1]
            outcomes.check(request, result, error, index if number == 0 else None)
            reference.poll()
        now = perf_counter()
        if now + (now - begun) / 2 >= deadline:
            break
    in_ref = [took / reference.seconds_at(start) for start, took in zip(starts, took_s)]
    shares = {}
    for kind, value in zip(kinds, in_ref):
        shares[kind] = shares.get(kind, 0.0) + value
    cuts = statistics.quantiles(in_ref, n=20, method="inclusive")
    return {
        **outcomes.summary(),
        "passes": number + 1,
        "calls": len(in_ref),
        "work_per_ref": units / sum(in_ref),
        "latency_p50_ref": statistics.median(in_ref),
        "latency_p95_ref": cuts[18],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "time_shares": {kind: value / sum(in_ref) for kind, value in sorted(shares.items())},
        "wall_work_per_s": units / sum(took_s),
        "wall_p50_ms": 1e3 * statistics.median(took_s),
        "host_ref_per_s": reference.rate(),
    }


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def trace_run(wl, ms, seed: int, tiny: bool) -> dict:
    """The first block of the timed run: a checked pass; then each request
    once more untraced and once traced, back to back, so that the tracing overhead is
    not confounded with slow phases of the host; then a replay of
    lot_queries requests through cli.main."""
    from tracing import Tracer, cli_metrics, layer_metrics

    block = pass_block(wl, ms, seed, 0, tiny)
    outcomes = Outcomes(wl, ms, seed)
    reference = Reference(wl.reference_weights)
    faults = 0
    for index, request in enumerate(block):
        before = minor_faults()
        result, _, error = timed_call(wl, ms, request)
        faults += minor_faults() - before
        outcomes.check(request, result, error, index)
        reference.poll()

    tracer = Tracer()
    plain_s = traced_s = 0.0
    for index, request in enumerate(block):
        result, took, error = timed_call(wl, ms, request)
        plain_s += took
        outcomes.again(index, request, result, error)
        tracer.request_id = index
        with tracer:
            result, took, error = timed_call(wl, ms, request)
        traced_s += took
        outcomes.again(index, request, result, error)
        reference.poll()

    metrics = layer_metrics(tracer)
    lots = sum(request[1] for request in block)
    metrics["scheme.minor_faults_per_lot"] = (
        (faults / lots, "faults/lot", None) if isinstance(wl, SchemeValidate)
        else (0.0, "faults/lot", "no validate_scheme calls on this workload")
    )
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "fraction", None)
    metrics["host.ref_per_s"] = (reference.rate(), "1/s", None)

    cli_tracer, replayed, cli_failures = replay_cli(ms, seed, tiny)
    outcomes.attempted += replayed
    if cli_failures:
        outcomes.fail(*cli_failures)
    metrics.update(cli_metrics(cli_tracer))

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{wl.name}-{seed}.jsonl")
    cli_tracer.write_spans(OUT_DIR / f"spans-{wl.name}-{seed}-cli.jsonl")
    return {
        **outcomes.summary(),
        "requests": len(block),
        "metrics": {
            name: {"value": value, "unit": unit, "absent": reason}
            for name, (value, unit, reason) in metrics.items()
        },
    }


def replay_cli(ms, seed: int, tiny: bool):
    """Replay seeded lot_queries requests through cli.main in-process, with
    stdout captured.  Returns the tracer, the number of commands replayed and
    failure messages."""
    import importlib

    from tracing import Tracer

    cli = importlib.import_module("midsampling.cli")
    queries = LotQueries()
    block = queries.block(ms, random.Random(f"cli-{seed}"), tiny)
    argvs = [argv for argv in map(queries.cli_argv, block) if argv]
    del argvs[4 if tiny else CLI_REPLAY:]
    failures = []
    tracer = Tracer()
    with tracer:
        for index, argv in enumerate(argvs):
            tracer.request_id = index
            captured = io.StringIO()
            with redirect_stdout(captured):
                code = cli.main(argv)
            if code != 0 or not captured.getvalue():
                failures.append(f"cli {' '.join(argv)}: exit code {code}")
    return tracer, len(argvs), failures


def main(argv) -> int:
    mode, name, seed, seconds, tiny = argv
    wl = WORKLOADS[name]
    ms = import_package()
    wl.warm_up(ms)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    if mode == "run":
        result = run_loop(wl, ms, int(seed), float(seconds), tiny == "1")
    else:
        result = trace_run(wl, ms, int(seed), tiny == "1")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
