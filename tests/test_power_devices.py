"""Device power models."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import PowerModelError
from repro.hardware.catalog import DRAM_64GB, GPU_A100, HDD_16TB
from repro.power.devices import DevicePowerModel, power_model_for


class TestDevicePowerModel:
    def test_affine_interpolation(self):
        model = DevicePowerModel("x", idle_w=50.0, max_w=250.0)
        assert model.power_w(0.0) == 50.0
        assert model.power_w(1.0) == 250.0
        assert model.power_w(0.5) == 150.0

    def test_busy_power(self):
        model = DevicePowerModel("x", 50.0, 250.0, busy_utilization=0.9)
        assert model.busy_w == pytest.approx(50.0 + 0.9 * 200.0)

    def test_average_power_duty_cycle(self):
        model = DevicePowerModel("x", 50.0, 250.0, busy_utilization=1.0)
        assert model.average_power_w(0.4) == pytest.approx(0.4 * 250 + 0.6 * 50)

    def test_out_of_range_utilization_rejected(self):
        model = DevicePowerModel("x", 10.0, 20.0)
        with pytest.raises(PowerModelError):
            model.power_w(1.5)
        with pytest.raises(PowerModelError):
            model.average_power_w(-0.1)

    def test_max_below_idle_rejected(self):
        with pytest.raises(PowerModelError):
            DevicePowerModel("x", idle_w=100.0, max_w=50.0)

    @given(u=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_power_within_envelope(self, u):
        model = DevicePowerModel("x", 30.0, 300.0)
        assert 30.0 <= model.power_w(u) <= 300.0

    def test_power_model_for_processor(self):
        model = power_model_for(GPU_A100)
        assert model.idle_w == pytest.approx(GPU_A100.idle_w)
        assert model.max_w == GPU_A100.tdp_w

    def test_power_model_for_memory_and_storage(self):
        dram = power_model_for(DRAM_64GB)
        assert dram.idle_w == DRAM_64GB.idle_w
        hdd = power_model_for(HDD_16TB)
        assert hdd.max_w == HDD_16TB.active_w
