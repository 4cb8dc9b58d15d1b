"""Operator kernel: parameter validation, golden values, algebraic laws."""

import numpy as np
import pytest

from wpmfre import (
    DomainError,
    NoSolutionError,
    ParameterDomainError,
    WpmParams,
    wpm,
    wpm_inverse,
)

P = WpmParams(0.75, 3.0)


class TestParams:
    @pytest.mark.parametrize("w", [0.0, 1.0, -0.1, 1.1, float("nan"), float("inf")])
    def test_weight_out_of_range_rejected(self, w):
        with pytest.raises(ParameterDomainError):
            WpmParams(w, 3.0)

    @pytest.mark.parametrize("p", [0.0, -1.0, -3.0, float("nan"), float("inf")])
    def test_exponent_out_of_range_rejected(self, p):
        with pytest.raises(ParameterDomainError):
            WpmParams(0.5, p)

    def test_valid_params_frozen(self):
        params = WpmParams(0.5, 2.0)
        assert params.w == 0.5 and params.p == 2.0
        with pytest.raises(AttributeError):
            params.w = 0.6

    def test_blocking_scale(self):
        assert WpmParams(0.75, 3.0).blocking_scale == pytest.approx(0.75 ** (1 / 3))


class TestForward:
    def test_reference_entry(self):
        # the value that the largest point of the reference instance's
        # first row attains through its second column
        assert wpm(0.8969, 0.7552, P) == pytest.approx(0.8657, abs=1e-3)

    def test_idempotence_spot(self):
        for t in (0.0, 0.25, 0.5, 1.0):
            assert wpm(t, t, P) == pytest.approx(t, abs=1e-12)

    def test_zero_coefficient_closed_form(self):
        # (0.25 * 0.5**3) ** (1/3) == 2 ** (-5/3)
        assert wpm(0.0, 0.5, P) == pytest.approx(2.0 ** (-5.0 / 3.0), abs=1e-12)
        assert wpm(0.0, 0.5, P) == pytest.approx(0.3149802624737183, abs=1e-12)

    @pytest.mark.parametrize("a,x", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.2)])
    def test_domain_errors(self, a, x):
        with pytest.raises(DomainError):
            wpm(a, x, P)

    def test_domain_error_names_the_first_bad_entry(self):
        A = np.full((3, 4), 0.5)
        A[1, 2], A[2, 0] = 1.25, -1.0
        with pytest.raises(DomainError, match=r"^a\[1, 2\] = 1\.25 lies outside \[0, 1\]$"):
            wpm(A, 0.5, P)
        with pytest.raises(DomainError, match=r"^x = nan lies outside \[0, 1\]$"):
            wpm(0.5, float("nan"), P)

    def test_array_broadcast_matches_scalar(self):
        # Vectorized powers may take a SIMD code path, so allow one ulp.
        rng = np.random.default_rng(7)
        a = rng.uniform(size=32)
        x = rng.uniform(size=32)
        vec = wpm(a, x, P)
        for k in range(a.size):
            scalar = wpm(float(a[k]), float(x[k]), P)
            assert vec[k] == pytest.approx(scalar, rel=1e-15, abs=1e-15)


class TestInverse:
    def test_reference_entries(self):
        assert wpm_inverse(0.8969, 0.8657, P) == pytest.approx(0.7552, abs=1e-4)
        assert wpm_inverse(0.9090, 0.8833, P) == pytest.approx(0.7955, abs=1e-4)

    def test_idempotent_target(self):
        rng = np.random.default_rng(11)
        for t in rng.uniform(size=200):
            assert wpm_inverse(t, t, P) == pytest.approx(t, abs=1e-12)

    def test_overshooting_coefficient_rejected(self):
        # target 0.5 cannot be met when the coefficient alone pushes higher
        with pytest.raises(NoSolutionError):
            wpm_inverse(1.0, 0.5, P)

    def test_unreachable_target_rejected(self):
        # 0.9**3 >= 1 - w, and 0.1 sits far below the reachability bound
        with pytest.raises(NoSolutionError):
            wpm_inverse(0.1, 0.9, P)

    def test_boundary_band_clamps_into_unit_interval(self):
        # at the exact solvability edges the result must stay inside [0, 1];
        # a cube root amplifies the last-ulp numerator noise to about 1e-6
        target = 0.5
        edge = target / P.blocking_scale
        assert 0.0 <= wpm_inverse(edge, target, P) <= 1e-5
        reach_edge = ((0.9**3 + P.w - 1.0) / P.w) ** (1.0 / 3.0)
        assert wpm_inverse(reach_edge, 0.9, P) == pytest.approx(1.0, abs=1e-5)
        assert wpm_inverse(reach_edge, 0.9, P) <= 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            wpm_inverse(1.5, 0.5, P)
        with pytest.raises(DomainError):
            wpm_inverse(0.5, -0.2, P)


class TestRowComposition:
    def test_reference_row(self, golden_problem):
        x_max = np.array([0.9982, 0.7552, 0.7955, 0.7456, 0.9908, 0.9107, 1.0])
        value = np.max(wpm(golden_problem.A[0], x_max, golden_problem.params))
        assert value == pytest.approx(0.8657, abs=1e-3)

    def test_zero_point_closed_form(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            row = rng.uniform(size=rng.integers(1, 6))
            expected = P.blocking_scale * row.max()
            value = np.max(wpm(row, np.zeros(row.size), P))
            assert value == pytest.approx(expected, abs=1e-12)


class TestOperatorLaws:
    """Algebraic laws sampled over the full admissible parameter box."""

    def test_internality(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            params = WpmParams(rng.uniform(0.05, 0.95), rng.uniform(0.5, 6.0))
            a, x = rng.uniform(), rng.uniform()
            v = wpm(a, x, params)
            assert min(a, x) - 1e-12 <= v <= max(a, x) + 1e-12

    def test_idempotence(self):
        rng = np.random.default_rng(43)
        for _ in range(10_000):
            params = WpmParams(rng.uniform(0.05, 0.95), rng.uniform(0.5, 6.0))
            t = rng.uniform()
            assert abs(wpm(t, t, params) - t) <= 1e-12

    def test_strict_monotonicity_in_x(self):
        rng = np.random.default_rng(44)
        for _ in range(10_000):
            params = WpmParams(rng.uniform(0.05, 0.95), rng.uniform(0.5, 6.0))
            a = rng.uniform()
            x1, x2 = sorted(rng.uniform(size=2))
            if x1 == x2:
                continue
            assert wpm(a, x1, params) < wpm(a, x2, params)

    def test_monotonicity_in_a(self):
        rng = np.random.default_rng(45)
        for _ in range(10_000):
            params = WpmParams(rng.uniform(0.05, 0.95), rng.uniform(0.5, 6.0))
            x = rng.uniform()
            a1, a2 = sorted(rng.uniform(size=2))
            assert wpm(a1, x, params) <= wpm(a2, x, params)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(46)
        for _ in range(10_000):
            params = WpmParams(rng.uniform(0.05, 0.95), rng.uniform(0.5, 6.0))
            a, x = rng.uniform(), rng.uniform()
            target = wpm(a, x, params)
            recovered = wpm_inverse(a, target, params)
            assert abs(wpm(a, recovered, params) - target) <= 1e-10

    def test_inverse_round_trip_extreme_parameters(self):
        rng = np.random.default_rng(47)
        for w, p in [(0.05, 0.5), (0.05, 6.0), (0.95, 0.5), (0.95, 6.0)]:
            params = WpmParams(w, p)
            for _ in range(500):
                a, x = rng.uniform(), rng.uniform()
                target = wpm(a, x, params)
                recovered = wpm_inverse(a, target, params)
                assert abs(wpm(a, recovered, params) - target) <= 1e-10
