"""Absolute-tolerance policy shared by every identity check.

All sums in this package are accumulated in double precision from
unit-magnitude roots of unity, so rounding error grows like the number of
terms; a failed identity, by contrast, shows up as a deviation of order 1.
The policy below leaves about six orders of magnitude of margin on each side.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TolerancePolicy:
    """abs_tol(q, n_terms) = max(floor, scale * n_terms * sqrt(q)); floor and
    scale must be finite and >= 0, or ValueError."""

    floor: float = 1e-6
    scale: float = 1e-12

    def __post_init__(self):
        for name in ("floor", "scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"tolerance {name} must be finite and >= 0, got {value}")

    def abs_tol(self, q: int, n_terms: int) -> float:
        return max(self.floor, self.scale * n_terms * math.sqrt(q))


DEFAULT_POLICY = TolerancePolicy()
