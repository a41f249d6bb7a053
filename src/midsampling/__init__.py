"""Acceptance sampling plans for MID modules F/F1 under the
hypothesis-test interpretation of the statistical verification conditions.

The package computes exact producers'/consumers' risks for finite and
infinite lots, searches minimal-sample-size admissible plans, ships and
validates an interval-based simplified sampling scheme, and evaluates
plans under the WELMEC guide 8.10 interpretation for comparison.
"""

from . import kernel, planner, render, risks, scheme, welmec
from .kernel import *  # noqa: F401,F403
from .planner import *  # noqa: F401,F403
from .render import *  # noqa: F401,F403
from .risks import *  # noqa: F401,F403
from .scheme import *  # noqa: F401,F403
from .welmec import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sum((m.__all__ for m in (kernel, risks, planner, scheme, welmec, render)), [])
