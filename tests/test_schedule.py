import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vgmine.schedule import Schedule, total_loss


class TestAlpha:
    def test_endpoints_and_midpoint(self):
        sched = Schedule(t_max=190_000)
        assert sched.alpha(0) == pytest.approx(1.0, abs=1e-12)
        assert sched.alpha(190_000) == pytest.approx(0.0, abs=1e-12)
        assert sched.alpha(95_000) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_non_increasing(self):
        sched = Schedule(t_max=1000)
        values = [sched.alpha(t) for t in range(1001)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_past_t_max_clamps_to_zero(self, caplog):
        sched = Schedule(t_max=10)
        with caplog.at_level("WARNING"):
            assert sched.alpha(11) == 0.0
        assert "clamped" in caplog.text

    def test_clamp_warns_once_per_schedule(self, caplog):
        sched = Schedule(t_max=10)
        with caplog.at_level("WARNING", logger="vgmine.schedule"):
            assert [sched.alpha(t) for t in range(11, 60)] == [0.0] * 49
            assert len(caplog.records) == 1
            Schedule(t_max=10).alpha(12)
        assert len(caplog.records) == 2
        assert all("clamped" in record.getMessage() for record in caplog.records)

    def test_fixed_mode_ignores_t(self):
        sched = Schedule(t_max=10, mode="fixed", fixed_value=0.25)
        assert sched.alpha(0) == sched.alpha(10) == 0.25

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            Schedule(t_max=10).alpha(-1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Schedule(t_max=0)
        with pytest.raises(ValueError):
            Schedule(t_max=5, mode="linear")
        with pytest.raises(ValueError):
            Schedule(t_max=5, mode="fixed", fixed_value=1.5)

    def test_matches_cosine_formula(self):
        sched = Schedule(t_max=7)
        for t in range(8):
            assert sched.alpha(t) == pytest.approx(
                0.5 * (1 + math.cos(math.pi * t / 7)), abs=1e-15)


class TestTotalLoss:
    def test_missing_kl_reduces_to_classification(self):
        breakdown = total_loss(2.0, None, Schedule(t_max=10), 3)
        assert breakdown.total == 2.0
        assert breakdown.alpha == 0.0

    def test_fixed_one(self):
        sched = Schedule(t_max=10, mode="fixed", fixed_value=1.0)
        breakdown = total_loss(1.0, 3.0, sched, 7)
        assert breakdown.total == 4.0

    def test_cosine_midpoint(self):
        breakdown = total_loss(1.0, 2.0, Schedule(t_max=10), 5)
        assert breakdown.total == pytest.approx(2.0, abs=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            total_loss(float("nan"), 1.0, Schedule(t_max=10), 0)
        with pytest.raises(ValueError):
            total_loss(1.0, float("nan"), Schedule(t_max=10), 0)

    @given(kl=st.floats(0, 100), t=st.integers(0, 50))
    def test_linear_in_kl(self, kl, t):
        sched = Schedule(t_max=50)
        base = total_loss(1.5, 0.0, sched, t)
        breakdown = total_loss(1.5, kl, sched, t)
        assert breakdown.total == pytest.approx(
            base.total + sched.alpha(t) * kl, rel=1e-12, abs=1e-12)
        assert breakdown.total == breakdown.ce + breakdown.alpha * breakdown.kl
