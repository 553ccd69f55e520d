"""Report containers shared by the estimator modules."""
from __future__ import annotations

import dataclasses
import math
from typing import Optional

RESIDUAL_FLOOR = 1e-14


def relative_residual(lhs: float, rhs: float, floor: float = RESIDUAL_FLOOR) -> float:
    """|lhs - rhs| / max(lhs, rhs, floor); the floor avoids 0/0 at exact pairs."""
    return abs(lhs - rhs) / max(lhs, rhs, floor)


@dataclasses.dataclass
class EqualityReport:
    """Both sides of an error equality, with named component breakdowns."""

    lhs_components: dict
    rhs_components: dict
    lhs_total: float
    rhs_total: float
    rel_residual: float
    checks: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def summed(cls, lhs: dict, rhs: dict,
               checks: Optional[dict] = None) -> "EqualityReport":
        """Report whose totals are the fsum of each side's components."""
        lhs_total = math.fsum(lhs.values())
        rhs_total = math.fsum(rhs.values())
        return cls(lhs, rhs, lhs_total, rhs_total,
                   relative_residual(lhs_total, rhs_total), checks or {})

    def to_record(self) -> dict:
        rec = {"lhs_total": self.lhs_total, "rhs_total": self.rhs_total,
               "rel_residual": self.rel_residual}
        rec.update({f"lhs.{k}": v for k, v in self.lhs_components.items()})
        rec.update({f"rhs.{k}": v for k, v in self.rhs_components.items()})
        rec.update({f"check.{k}": v for k, v in self.checks.items()})
        return rec


@dataclasses.dataclass
class BoundReport:
    """Guaranteed bounds around a true error, with efficiency indices."""

    lower_bounds: dict
    true_error: dict
    upper_bound: float
    gamma: Optional[float] = None
    efficiency_upper: Optional[float] = None
    efficiency_lower: Optional[float] = None
    ordering_ok: Optional[bool] = None
    checks: dict = dataclasses.field(default_factory=dict)

    @property
    def true_total(self) -> float:
        return self.true_error["total"]

    @property
    def lower_bound(self) -> float:
        return max(self.lower_bounds.values()) if self.lower_bounds else 0.0

    def finalize(self, slack: float = 1e-9) -> "BoundReport":
        true = self.true_total
        if true > RESIDUAL_FLOOR:
            self.efficiency_upper = self.upper_bound / true
            self.efficiency_lower = self.lower_bound / true
        self.ordering_ok = (self.lower_bound <= true + slack
                            and true <= self.upper_bound + slack)
        return self

    def to_record(self) -> dict:
        rec = {"upper_bound": self.upper_bound, "true_total": self.true_total,
               "lower_bound": self.lower_bound, "gamma": self.gamma,
               "efficiency_upper": self.efficiency_upper,
               "efficiency_lower": self.efficiency_lower,
               "ordering_ok": self.ordering_ok}
        rec.update({f"lower.{k}": v for k, v in self.lower_bounds.items()})
        rec.update({f"true.{k}": v for k, v in self.true_error.items()})
        rec.update({f"check.{k}": v for k, v in self.checks.items()})
        return rec
