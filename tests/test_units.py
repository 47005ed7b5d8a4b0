"""Unit value types: frequency, size, bandwidth arithmetic."""

import pytest

from repro.errors import ReproError, UnitError
from repro.units import (
    DataSize,
    Frequency,
    bandwidth_mbps,
    ceil_div,
    ms,
    ns,
    ps_to_ms,
    ps_to_us,
    theoretical_bandwidth_mbps,
    us,
)


class TestFrequency:
    def test_from_mhz(self):
        assert Frequency.from_mhz(100).hertz == 100_000_000

    def test_fractional_mhz(self):
        assert Frequency.from_mhz(362.5).hertz == 362_500_000

    def test_mhz_roundtrip(self):
        assert Frequency.from_mhz(255).mhz == 255.0

    def test_period_100mhz(self):
        assert Frequency.from_mhz(100).period_ps == 10_000

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            Frequency(0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("build", [
        Frequency, Frequency.from_mhz, Frequency.from_khz,
    ], ids=["hertz", "from_mhz", "from_khz"])
    def test_non_finite_rejected_with_a_typed_error(self, build, value):
        with pytest.raises(UnitError, match="must be finite"):
            build(float(value))
        assert issubclass(UnitError, ReproError)

    def test_ordering(self):
        assert Frequency.from_mhz(100) < Frequency.from_mhz(200)

    def test_scaled_dcm_equation(self):
        # The paper's headline synthesis: 100 MHz x 29 / 8 = 362.5 MHz.
        assert Frequency.from_mhz(100).scaled(29, 8) == \
            Frequency.from_mhz(362.5)

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            Frequency.from_mhz(100).scaled(0, 1)

    def test_duration_of_cycles(self):
        assert Frequency.from_mhz(100).duration_of(3) == 30_000

    def test_duration_of_negative_raises(self):
        with pytest.raises(ValueError):
            Frequency.from_mhz(100).duration_of(-1)

    def test_cycles_in(self):
        assert Frequency.from_mhz(100).cycles_in(95_000) == 9


class TestDataSize:
    def test_from_kb_binary(self):
        assert DataSize.from_kb(1).bytes == 1024

    def test_fractional_kb(self):
        assert DataSize.from_kb(216.5).bytes == 221_696

    def test_words_rounds_up(self):
        assert DataSize(5).words == 2

    def test_from_words(self):
        assert DataSize.from_words(10).bytes == 40

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DataSize(-1)

    def test_add_sub(self):
        assert (DataSize(100) + DataSize(28)).bytes == 128
        assert (DataSize(100) - DataSize(28)).bytes == 72

    def test_str_scales(self):
        assert str(DataSize(512)) == "512 B"
        assert "KB" in str(DataSize.from_kb(8))
        assert "MB" in str(DataSize.from_mb(2))


class TestBandwidth:
    def test_bandwidth_simple(self):
        # 1 MiB in 1 second.
        assert bandwidth_mbps(DataSize.from_mb(1), 10**12) == \
            pytest.approx(1.0)

    def test_bandwidth_zero_duration_raises(self):
        with pytest.raises(ValueError):
            bandwidth_mbps(DataSize(1), 0)

    def test_theoretical_at_362_5(self):
        # 4 B x 362.5 MHz = 1.45e9 B/s = 1382.8 binary MB/s.
        value = theoretical_bandwidth_mbps(Frequency.from_mhz(362.5))
        assert value == pytest.approx(1382.8, rel=1e-3)


class TestHelpers:
    def test_time_conversions(self):
        assert us(1.5) == 1_500_000
        assert ms(2) == 2_000_000_000
        assert ns(3) == 3_000
        assert ps_to_us(1_000_000) == 1.0
        assert ps_to_ms(5_000_000_000) == 5.0

    def test_ceil_div(self):
        assert ceil_div(10, 3) == 4
        assert ceil_div(9, 3) == 3
        with pytest.raises(ValueError):
            ceil_div(1, 0)


class TestSmallHelpers:
    def test_from_khz(self):
        assert Frequency.from_khz(500).hertz == 500_000

    def test_datasize_mb_property(self):
        assert DataSize.from_mb(3).mb == 3.0

    def test_isclose_rel(self):
        from repro.units import isclose_rel
        assert isclose_rel(1433.0, 1438.4, rel=0.01)
        assert not isclose_rel(1433.0, 1600.0, rel=0.01)
