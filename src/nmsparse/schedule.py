"""Incremental sparsification schedules.

``delta(t, sched)`` is the fraction of blocks under the N:M constraint at
epoch t. It ramps from exactly 0 at t_i to exactly 1 at t_f and stays there.
The cubic ramp front-loads sparsification; linear and cosine are gentler
alternatives (cubic >= linear >= cosine on the first half of the ramp).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FieldError

KINDS = ("cubic", "linear", "cosine")
ORDERINGS = ("l1_descending", "l1_ascending")
MODES = ("block_percentage", "block_width")


@dataclass(frozen=True)
class Schedule:
    t_i: int
    t_f: int
    kind: str = "cubic"
    ordering: str = "l1_descending"
    mode: str = "block_percentage"

    def __post_init__(self):
        if not (0 <= self.t_i < self.t_f):
            raise FieldError(
                "t_i" if self.t_i < 0 else "t_f",
                f"invalid schedule: need 0 <= t_i < t_f, got ({self.t_i}, {self.t_f})",
            )
        if self.kind not in KINDS:
            raise FieldError("kind", f"unknown schedule kind {self.kind!r}, expected one of {KINDS}")
        if self.ordering not in ORDERINGS:
            raise FieldError("ordering", f"unknown ordering {self.ordering!r}, expected one of {ORDERINGS}")
        if self.mode not in MODES:
            raise FieldError("mode", f"unknown mode {self.mode!r}, expected one of {MODES}")


def delta(t: float, sched: Schedule) -> float:
    """Fraction of blocks sparsified at epoch t, in [0, 1] and nondecreasing."""
    if t < 0:
        raise ValueError(f"epoch must be nonnegative, got {t}")
    if t >= sched.t_f:
        return 1.0
    if t <= sched.t_i:
        return 0.0
    x = (t - sched.t_i) / (sched.t_f - sched.t_i)
    if sched.kind == "cubic":
        return 1.0 - (1.0 - x) ** 3
    if sched.kind == "linear":
        return x
    return 1.0 - 0.5 * (1.0 + math.cos(math.pi * x))
