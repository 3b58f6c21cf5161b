import numpy as np
import pytest

from fdecanc import (
    ComplexResponse,
    FrequencyGrid,
    amplitude_db,
    db_to_linear,
    isolation_db,
    rf_sic_db,
)


def resp(values):
    vals = np.asarray(values, dtype=complex)
    grid = FrequencyGrid(900e6 + 1e6 * np.arange(vals.size))
    return ComplexResponse(grid, vals)


class TestIsolation:
    def test_flat_minus_twenty(self):
        assert np.allclose(isolation_db(resp([0.1] * 5)), -20.0)

    def test_unity(self):
        assert np.allclose(isolation_db(resp([1.0] * 3)), 0.0)

    def test_matches_amplitude_db(self):
        r = resp([0.3 + 0.1j, 1.2 - 0.4j, 0.05j])
        assert np.array_equal(isolation_db(r), amplitude_db(r))


class TestRfSic:
    def test_flat_52_db(self):
        s = rf_sic_db(resp([db_to_linear(-52.0)] * 4))
        assert s.avg_db == pytest.approx(52.0, abs=1e-12)
        assert s.avg_power_db == pytest.approx(52.0, abs=1e-12)

    def test_no_canceller_baseline(self):
        s = rf_sic_db(resp([0.1] * 6))
        assert s.avg_db == pytest.approx(20.0, abs=1e-12)

    def test_db_domain_average(self):
        s = rf_sic_db(resp([db_to_linear(-40.0), db_to_linear(-60.0)]))
        assert s.avg_db == pytest.approx(50.0, abs=1e-12)

    def test_negated_isolation(self):
        r = resp([0.2, 0.4j, 0.01 - 0.3j])
        assert np.array_equal(rf_sic_db(r).per_point_db, -isolation_db(r))

    def test_zero_residual_excluded_with_count(self):
        s = rf_sic_db(resp([0.0, 0.1, 0.1]))
        assert s.excluded_count == 1
        assert s.per_point_db[0] == np.inf
        assert s.avg_db == pytest.approx(20.0, abs=1e-12)

