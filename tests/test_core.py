import numpy as np
import pytest
from hypothesis import given, strategies as st

from fdecanc import (
    ComplexResponse,
    DegenerateResponseError,
    FrequencyGrid,
    InsufficientGridError,
    InvalidArgumentError,
    amplitude_db,
    db_to_linear,
    group_delay,
    linear_to_db,
    unwrapped_phase,
)
from fdecanc.core import MAX_POINTS


def make_resp(values, start=900e6, step=1e6):
    vals = np.asarray(values, dtype=complex)
    grid = FrequencyGrid(start + step * np.arange(vals.size))
    return ComplexResponse(grid, vals)


class TestFrequencyGrid:
    def test_too_few_points(self):
        with pytest.raises(InvalidArgumentError):
            FrequencyGrid(np.array([900e6]))

    def test_non_increasing(self):
        with pytest.raises(InvalidArgumentError):
            FrequencyGrid(np.array([900e6, 900e6, 910e6]))

    def test_non_uniform(self):
        with pytest.raises(InvalidArgumentError):
            FrequencyGrid(np.array([900e6, 901e6, 903e6]))

    @pytest.mark.parametrize("ends", [(np.inf, np.inf), (-np.inf, 1e9), (8e8, np.nan)])
    def test_linspace_rejects_non_finite_ends(self, ends):
        # before numpy computes the points, so no RuntimeWarning either
        with pytest.raises(InvalidArgumentError):
            FrequencyGrid.linspace(*ends, 11)

    @pytest.mark.parametrize("count", [MAX_POINTS + 1, 100_000_000_000])
    def test_linspace_rejects_a_count_above_the_bound(self, monkeypatch, count):
        # before numpy allocates the points
        def no_alloc(*args, **kwargs):
            raise AssertionError("points allocated")

        monkeypatch.setattr(np, "linspace", no_alloc)
        with pytest.raises(InvalidArgumentError, match="exceeds"):
            FrequencyGrid.linspace(850e6, 950e6, count)

    def test_properties(self):
        g = FrequencyGrid.linspace(850e6, 950e6, 101)
        assert g.count == 101
        assert g.spacing == pytest.approx(1e6)
        assert g.bandwidth == pytest.approx(100e6)


class TestComplexResponse:
    def test_length_mismatch(self):
        g = FrequencyGrid.linspace(900e6, 910e6, 11)
        with pytest.raises(InvalidArgumentError):
            ComplexResponse(g, np.ones(5, dtype=complex))

    def test_non_finite(self):
        g = FrequencyGrid.linspace(900e6, 910e6, 2)
        with pytest.raises(InvalidArgumentError):
            ComplexResponse(g, np.array([1.0, np.nan], dtype=complex))


class TestDbConversion:
    def test_zero_db(self):
        assert db_to_linear(0.0) == 1.0

    def test_minus_twenty(self):
        assert db_to_linear(-20.0) == pytest.approx(0.1, abs=1e-15)

    def test_six_db_is_two(self):
        assert db_to_linear(6.0206) == pytest.approx(2.0, abs=1e-4)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            db_to_linear(np.inf)

    def test_linear_to_db_zero_is_minus_inf(self):
        assert linear_to_db(0.0) == -np.inf

    @given(st.floats(min_value=-100, max_value=100))
    def test_round_trip(self, x):
        assert linear_to_db(db_to_linear(x)) == pytest.approx(x, abs=1e-12)


class TestAmplitudeDb:
    def test_unity(self):
        r = make_resp([1 + 0j] * 4)
        assert np.allclose(amplitude_db(r), 0.0)

    def test_tenth(self):
        r = make_resp([0.1 + 0j] * 4)
        assert np.allclose(amplitude_db(r), -20.0)

    def test_three_four_j(self):
        r = make_resp([3 + 4j, 1])
        assert amplitude_db(r)[0] == pytest.approx(20 * np.log10(5.0), abs=1e-12)

    def test_zero_maps_to_minus_inf(self):
        r = make_resp([0, 1])
        assert amplitude_db(r)[0] == -np.inf


class TestUnwrappedPhase:
    def test_constant(self):
        r = make_resp([1 + 0j] * 5)
        assert np.allclose(unwrapped_phase(r), 0.0)

    def test_linear_ramp_no_jumps(self):
        g = FrequencyGrid.linspace(850e6, 950e6, 201)
        tau = 10e-9
        r = ComplexResponse(g, np.exp(-2j * np.pi * g.points * tau))
        ph = unwrapped_phase(r)
        d = np.diff(ph)
        assert np.all(np.abs(d - d[0]) < 1e-6)

    def test_jump_removal(self):
        r = make_resp([np.exp(3.0j), np.exp(-3.0j)])
        ph = unwrapped_phase(r)
        assert ph[0] == pytest.approx(3.0, abs=1e-12)
        assert ph[1] == pytest.approx(2 * np.pi - 3.0, abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(DegenerateResponseError):
            unwrapped_phase(make_resp([1, 0]))

    def test_product_phase_additivity(self):
        g = FrequencyGrid.linspace(850e6, 950e6, 101)
        r1 = ComplexResponse(g, np.exp(-2j * np.pi * g.points * 4e-9))
        r2 = ComplexResponse(g, np.exp(-2j * np.pi * g.points * 7e-9) * (0.5 - 0.2j))
        p12 = unwrapped_phase(r1 * r2)
        psum = unwrapped_phase(r1) + unwrapped_phase(r2)
        offs = p12 - psum
        k = offs[0] / (2 * np.pi)
        assert k == pytest.approx(round(k), abs=1e-9)
        assert np.allclose(offs, offs[0], atol=1e-9)


class TestGroupDelay:
    def test_constant_is_zero(self):
        r = make_resp([0.3 + 0.4j] * 7)
        assert np.allclose(group_delay(r), 0.0, atol=1e-18)

    def test_recovers_4p2_ns(self):
        g = FrequencyGrid.linspace(850e6, 950e6, 101)
        r = ComplexResponse(g, np.exp(-2j * np.pi * g.points * 4.2e-9))
        assert np.max(np.abs(group_delay(r)[1:-1] - 4.2e-9)) < 1e-15

    def test_recovers_10_ns(self):
        g = FrequencyGrid.linspace(850e6, 950e6, 101)
        r = ComplexResponse(g, np.exp(-2j * np.pi * g.points * 10e-9))
        assert np.max(np.abs(group_delay(r) - 10e-9)) < 1e-15

    def test_needs_three_points(self):
        with pytest.raises(InsufficientGridError):
            group_delay(make_resp([1, 1]))

    def test_invariant_to_constant_scaling(self):
        g = FrequencyGrid.linspace(850e6, 950e6, 51)
        r = ComplexResponse(g, np.exp(-2j * np.pi * g.points * 6e-9))
        scaled = r * (0.3 - 1.7j)
        assert np.allclose(group_delay(r), group_delay(scaled), atol=1e-18)
