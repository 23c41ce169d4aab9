import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angsync.core import InvalidInputError
from angsync.theory import (
    FLAG_BELOW_THRESHOLD,
    FLAG_NEAR_EXACT,
    FLAG_VACUOUS,
    correlation_prediction,
    entropy_HLp,
    fano_error_bound,
    lambda1_law,
    lambda1_sparse_bad,
    mutual_info_ILp,
    mutual_info_taylor,
    p_threshold_complete,
    p_threshold_individual,
    p_threshold_info,
    predictions_table,
    small_world_gap,
    small_world_threshold,
    threshold_ratio,
    wigner_edge,
)


class TestWignerEdge:
    def test_values(self):
        assert wigner_edge(400, 0.0) == pytest.approx(40.0)
        assert wigner_edge(123, 1.0) == 0.0
        assert wigner_edge(100, 0.6) == pytest.approx(16.0)

    def test_rejects_bad_p(self):
        with pytest.raises(InvalidInputError):
            wigner_edge(10, 1.5)


class TestLambda1Law:
    def test_reference_values(self):
        pred = lambda1_law(400, 0.15)
        assert pred.value == pytest.approx(67.28, abs=0.005)
        assert pred.aux == pytest.approx(0.93, abs=0.005)
        assert pred.flag is None
        pred = lambda1_law(400, 0.1)
        assert pred.value == pytest.approx(50.15, abs=0.005)
        assert pred.aux == pytest.approx(0.86, abs=0.005)

    def test_below_threshold_returns_bulk_edge(self):
        pred = lambda1_law(400, 0.04)  # n p = 16 < sqrt(n (1-p^2)) ~ 19.98
        assert pred.flag == FLAG_BELOW_THRESHOLD
        assert pred.value == pytest.approx(wigner_edge(400, 0.04))
        assert pred.aux is None

    def test_exact_limit_flagged(self):
        pred = lambda1_law(400, 1.0)
        assert pred.flag == FLAG_NEAR_EXACT
        assert math.isinf(pred.value)

    def test_spike_exceeds_bulk_edge_on_grid(self):
        for n in (100, 400, 1600):
            for p in np.linspace(0.05, 0.95, 19):
                pred = lambda1_law(n, float(p))
                if pred.flag is None:
                    assert pred.value >= wigner_edge(n, float(p)) / 1.0 - 1e-9


class TestThresholds:
    def test_complete_threshold(self):
        assert p_threshold_complete(400) == pytest.approx(0.05)
        assert p_threshold_complete(100) == pytest.approx(0.1)
        assert p_threshold_complete(1) == 1.0

    def test_correlation_prediction(self):
        # table column (1 + 1/(n p^2))^(-1/2) at np^2 = 16, 1
        assert correlation_prediction(400, 0.2) == pytest.approx(0.97, abs=0.005)
        assert correlation_prediction(400, 0.05) == pytest.approx(0.71, abs=0.005)
        assert correlation_prediction(10**8, 0.9) == pytest.approx(1.0, abs=1e-6)
        assert correlation_prediction(400, 0.0) == 0.0

    def test_sparse_outlier_norm(self):
        assert lambda1_sparse_bad(400, 800) == pytest.approx(4.0)
        assert lambda1_sparse_bad(400, 0) == 0.0
        assert lambda1_sparse_bad(4000, 2 * 10**5) == pytest.approx(20.0)

    def test_small_world_gap(self):
        assert small_world_gap(400, 8000, 1.0) == pytest.approx(4.0)
        assert small_world_gap(400, 8000, 0.0) == 0.0
        assert small_world_gap(100, 750, 0.8) == pytest.approx(1.8)

    def test_small_world_threshold_vacuous_flags(self):
        pred = small_world_threshold(400, 8000)
        assert pred.value == pytest.approx(math.sqrt(2.5), rel=1e-12)
        assert pred.flag == FLAG_VACUOUS  # above 1: meaningless as a probability
        pred = small_world_threshold(100, 750)
        assert pred.value == pytest.approx(1.7213, abs=5e-4)
        assert pred.flag == FLAG_VACUOUS
        pred = small_world_threshold(100, 10**6)
        assert pred.value < 1e-3
        assert pred.flag is None


class TestEntropyInformation:
    def test_entropy_extremes(self):
        for L in (2, 4, 100):
            assert entropy_HLp(L, 0.0) == pytest.approx(math.log2(L))
            assert entropy_HLp(L, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_entropy_binary_value(self):
        # distribution {0.25, 0.75} for L=2, p=0.5
        oracle = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert entropy_HLp(2, 0.5) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(0.8113, abs=5e-5)

    def test_mutual_info_extremes(self):
        assert mutual_info_ILp(4, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert mutual_info_ILp(4, 1.0) == pytest.approx(2.0)

    def test_taylor_approximation_small_p(self):
        # the quadratic term expands the information in nats; mutual_info_ILp
        # reports bits, so convert with ln 2 before comparing
        exact_nats = mutual_info_ILp(4, 0.01) * math.log(2.0)
        approx = mutual_info_taylor(4, 0.01)
        assert approx == pytest.approx(1.5e-4)
        assert abs(exact_nats - approx) / approx < 0.05

    def test_taylor_cubic_remainder(self):
        # |I_nats - (1/2)(L-1)p^2| <= C p^3 over p in [1e-4, 1e-2]; the cubic
        # coefficient works out to (L-1)(L-2)/6 (zero for L=2, where the
        # remainder is quartic)
        for L in (2, 4, 7):
            C = (L - 1) * (L - 2) / 6.0
            ratios = []
            for p in np.logspace(-4, -2, 9):
                exact_nats = mutual_info_ILp(L, float(p)) * math.log(2.0)
                ratios.append(abs(exact_nats - mutual_info_taylor(L, float(p))) / p**3)
            ratios = np.array(ratios)
            assert ratios.max() <= C + 0.01
            if L > 2:
                # the implied constant is stable, i.e. the remainder is cubic
                assert ratios.max() / ratios.min() < 1.1

    @given(st.integers(min_value=2, max_value=64),
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=80)
    def test_entropy_and_information_bounds(self, L, p):
        H = entropy_HLp(L, p)
        info = mutual_info_ILp(L, p)
        assert -1e-12 <= H <= math.log2(L) + 1e-12
        assert -1e-12 <= info <= math.log2(L) + 1e-12

    def test_monotonicity_on_grid(self):
        for L in (2, 5, 32):
            grid = np.linspace(0.0, 1.0, 101)
            H = np.array([entropy_HLp(L, float(p)) for p in grid])
            info = np.array([mutual_info_ILp(L, float(p)) for p in grid])
            assert np.all(np.diff(H) <= 1e-12)
            assert np.all(np.diff(info) >= -1e-12)


class TestFanoBound:
    def test_vacuous_at_p_one(self):
        assert fano_error_bound(100, 4950, 2, 1.0) == 0.0

    def test_no_information_limit(self):
        assert fano_error_bound(10**6, 3 * 10**6, 2, 0.0) == pytest.approx(1.0, abs=1e-5)

    def test_plugin_oracle(self):
        n, m, L, p = 100, 4950, 2, 0.01
        info = math.log2(L) - entropy_HLp(L, p)
        oracle = 1.0 - (m / n) * info / math.log2(L) - 1.0 / (n * math.log2(L))
        assert fano_error_bound(n, m, L, p) == pytest.approx(oracle, rel=1e-12)


class TestInformationThresholds:
    def test_ratio_of_thresholds_is_sqrt2(self):
        for n, m, L in ((100, 4000, 2), (400, 79800, 7), (50, 300, 100)):
            ratio = p_threshold_info(n, m, L) / p_threshold_individual(n, m, L)
            assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_spectral_vs_individual_ratio_complete_graph(self):
        # p_c^spectral / p_c^individual approaches sqrt((L-1)/(2 log2 L))
        n = 10**6
        m = n * (n - 1) // 2
        ratio = p_threshold_complete(n) / p_threshold_individual(n, m, 2)
        assert ratio == pytest.approx(math.sqrt(0.5), abs=1e-3)

    def test_threshold_ratio_values(self):
        assert threshold_ratio(2) == pytest.approx(0.7071, abs=5e-5)
        assert threshold_ratio(100) == pytest.approx(2.73, abs=0.005)

    def test_threshold_ratio_sign_change_between_6_and_7(self):
        assert threshold_ratio(6) < 1.0
        assert threshold_ratio(7) > 1.0

    @pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf])
    def test_L_non_finite(self, L):
        with pytest.raises(InvalidInputError, match="L must be an integer >= 2"):
            threshold_ratio(L)

    def test_L_validation(self):
        with pytest.raises(InvalidInputError):
            threshold_ratio(1)
        with pytest.raises(InvalidInputError):
            entropy_HLp(1, 0.5)
        with pytest.raises(InvalidInputError):
            p_threshold_info(10, 45, 1)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: p_threshold_complete(0), "n must be >= 1", id="p_threshold_complete"),
    pytest.param(lambda: lambda1_sparse_bad(10, -1), "need m_bad >= 0 and n >= 1",
                 id="lambda1_sparse_bad-m_bad"),
    pytest.param(lambda: lambda1_sparse_bad(0, 5), "need m_bad >= 0 and n >= 1",
                 id="lambda1_sparse_bad-n"),
    pytest.param(lambda: small_world_threshold(0, 5), "need n >= 1 and m >= 1",
                 id="small_world_threshold-n"),
    pytest.param(lambda: small_world_threshold(5, 0), "need n >= 1 and m >= 1",
                 id="small_world_threshold-m"),
    pytest.param(lambda: fano_error_bound(0, 5, 4, 0.5), "need n >= 1 and m >= 0",
                 id="fano_error_bound-n"),
    pytest.param(lambda: fano_error_bound(5, -1, 4, 0.5), "need n >= 1 and m >= 0",
                 id="fano_error_bound-m"),
    pytest.param(lambda: p_threshold_info(0, 5, 4), "need n >= 1 and m >= 1",
                 id="p_threshold_info-n"),
    pytest.param(lambda: p_threshold_info(5, 0, 4), "need n >= 1 and m >= 1",
                 id="p_threshold_info-m"),
    pytest.param(lambda: p_threshold_individual(0, 5, 4), "need n >= 1 and m >= 1",
                 id="p_threshold_individual-n"),
    pytest.param(lambda: p_threshold_individual(5, 0, 4), "need n >= 1 and m >= 1",
                 id="p_threshold_individual-m"),
])
def test_argument_check_messages(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()


def test_predictions_table_complete():
    rows = predictions_table(400, 79800, 4, 0.1)
    names = {r.name for r in rows}
    assert {"wigner_edge", "lambda1_law", "p_threshold_complete",
            "correlation_prediction", "lambda1_sparse_bad", "small_world_gap",
            "small_world_threshold", "entropy_HLp", "mutual_info_ILp",
            "mutual_info_taylor", "fano_error_bound", "p_threshold_info",
            "p_threshold_individual", "threshold_ratio"} <= names
    for r in rows:
        assert math.isfinite(r.value) or r.flag is not None
