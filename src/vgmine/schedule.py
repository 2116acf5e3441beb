"""Multi-task loss composition and the attention-weight decay schedule.

The total loss is classification cross-entropy plus an attention KL term
weighted by alpha(t); alpha follows a cosine decay over the training steps
or stays fixed. Samples without grounding supervision force alpha to 0 so
their loss reduces to the classification term.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

MODE_COSINE = "cosine"
MODE_FIXED = "fixed"


@dataclass(frozen=True)
class Schedule:
    t_max: int
    mode: str = MODE_COSINE
    fixed_value: float = 1.0
    _clamp_warned: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.mode not in (MODE_COSINE, MODE_FIXED):
            raise ValueError(f"unknown schedule mode: {self.mode}")
        if self.mode == MODE_FIXED and not 0.0 <= self.fixed_value <= 1.0:
            raise ValueError("fixed alpha must be in [0, 1]")

    def alpha(self, t: int) -> float:
        """Attention-loss weight at step t: 0.5*(1 + cos(pi*t/t_max)) for
        cosine decay, the fixed value otherwise. Steps past t_max clamp
        to 0 (decay complete), with one warning per schedule."""
        if t < 0:
            raise ValueError("step must be >= 0")
        if self.mode == MODE_FIXED:
            return self.fixed_value
        if t > self.t_max:
            if not self._clamp_warned:
                log.warning("step %d past t_max=%d; alpha clamped to 0 from here on",
                            t, self.t_max)
                object.__setattr__(self, "_clamp_warned", True)
            return 0.0
        return 0.5 * (1.0 + math.cos(math.pi * t / self.t_max))


@dataclass(frozen=True)
class LossBreakdown:
    ce: float
    kl: float
    alpha: float
    total: float


def total_loss(ce: float, kl: float | None, schedule: Schedule, t: int) -> LossBreakdown:
    """ce + alpha(t)*kl; a missing kl (no grounding label) forces alpha=0."""
    if math.isnan(ce) or (kl is not None and math.isnan(kl)):
        raise ValueError("loss inputs must not be NaN")
    if kl is None:
        return LossBreakdown(ce=ce, kl=0.0, alpha=0.0, total=ce)
    alpha = schedule.alpha(t)
    return LossBreakdown(ce=ce, kl=kl, alpha=alpha, total=ce + alpha * kl)
