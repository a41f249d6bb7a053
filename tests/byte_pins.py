"""The slow byte pins, which the tier-1 suite leaves out: the sha256 of the
10^6-point OC curve of (109, 3) in CSV, text and JSON, of the CLI table
over lots 1 to 10^5 at two specs, and of the table over lots 99 000 to
102 000, whose rows past 100 001 read log-factorials past the kernel's
table.

Run from anywhere, with the package's dependencies installed:

    python tests/byte_pins.py

It prints one line per pin and exits 1 if any output differs from its pin.
After each table it also prints the peak resident memory of the table
processes so far, and exits 1 if it exceeds 100 MB: a table holds one
small record per lot.  The tables run first, while this process is small,
as a child's peak also counts the memory it shares with its parent before
it starts the program.  The OC curve, which peaks near 0.5 GB of memory
(its JSON render), runs in this process and is not counted.
"""

import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from midsampling import LotSize, Plan, oc_curve, oc_curve_to_csv  # noqa: E402
from midsampling.render import render  # noqa: E402

OC_PINS = {
    "csv": "c7a2994bc5520a530402bff7799a6987e425ad063b1d08b10ec54d5f5c9a002b",
    "text": "9fe10ec10622c6c73a0fed7be8ff0600d184ed30ab1d7e2b959f1ba31794cd32",
    "json": "17f9d6c037e5b94fbe7f8d5fa71f5bd463a9de696be97bec27d97ef43778ec19",
}
TABLE_PINS = {
    ("--from", "1", "--to", "100000"):
        "414399e7b6b4c42dfe186214fd8bbe2160641fb6fc058e4b540aa1a0108884fb",
    ("--from", "1", "--to", "100000", "--aql", "0.015", "--lq", "0.08", "--beta-max", "0.1"):
        "405f20a0b192603c6fa1e07af2d49316f96b15810bd30cbd02174a9a98df3b80",
    ("--from", "99000", "--to", "102000"):
        "17560153851eb2438e8a95b69580acd2b76b13e86f448539cb4062ad1425a662",
}
#: Peak resident memory allowed to a table process, in MB (2**20 bytes).
TABLE_RSS_MB = 100


def check(name: str, output: bytes, pin: str) -> bool:
    digest = hashlib.sha256(output).hexdigest()
    held = digest == pin
    print(f"{name}: {digest} {'ok' if held else 'DIFFERS from ' + pin}")
    return held


def children_peak_rss_mb() -> float:
    """The largest resident set of the finished child processes, in MB:
    getrusage gives KiB on Linux and bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def main() -> int:
    held = True
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for flags, pin in TABLE_PINS.items():
        argv = ["table", *flags]
        table = subprocess.run(
            [sys.executable, "-m", "midsampling", *argv], env=env, capture_output=True, check=True
        ).stdout
        held &= check(" ".join(argv), table, pin)
        rss = children_peak_rss_mb()
        within = rss <= TABLE_RSS_MB
        print(f"  peak RSS of the table processes: {rss:.1f} MB "
              f"{'ok' if within else f'ABOVE {TABLE_RSS_MB} MB'}")
        held &= within
    lot = LotSize(10**6)
    points = oc_curve(Plan(109, 3), lot)
    for fmt, pin in OC_PINS.items():
        output = oc_curve_to_csv(points, lot) if fmt == "csv" else render("oc", fmt, points, lot)
        held &= check(f"oc (109, 3) at N = 10^6, {fmt}", output.encode(), pin)
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main())
