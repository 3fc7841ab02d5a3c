import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vecmkit as vk
from vecmkit import (
    adf_test,
    fit_vecm,
    information_criteria,
    jarque_bera_components,
    lag_order_selection,
    lm_autocorrelation,
    normality_suite,
    vecm_stability,
)
from vecmkit.diagnostics import ADF_CRITICAL_VALUES
from vecmkit.errors import (
    DegenerateInputError,
    DomainError,
    InsufficientDataError,
    SingularDesignError,
)

from vecmkit.numerics import LOG_2PI, ols

from conftest import make_frame, simulate_var, well_specified_vecm_fit

def lagged_design(values, max_lag, lag):
    """[1, X_{t-1} .. X_{t-lag}] over the rows t >= max_lag, from explicit
    index slices."""
    t = values.shape[0]
    return np.hstack([np.ones((t - max_lag, 1)), *(values[max_lag - j : t - j] for j in range(1, lag + 1))])


# Published reference rows used throughout: log likelihoods by lag and the
# (skewness, kurtosis) inputs of the normality table, both at T_eff = 65.
REFERENCE_LL = [-1223.9, -919.13, -850.65, -805.93, -699.43]


class TestInformationCriteria:
    def test_reference_values_at_lag_4(self):
        crit = information_criteria(REFERENCE_LL[4], 4, 6, 65)
        assert crit["aic"] == pytest.approx(26.14, abs=0.01)
        assert crit["hqic"] == pytest.approx(28.12, abs=0.01)

    def test_reference_sbic_at_lag_1(self):
        crit = information_criteria(REFERENCE_LL[1], 1, 6, 65)
        assert crit["sbic"] == pytest.approx(30.98, abs=0.01)

    def test_reference_lr_at_lag_4(self):
        lr = 2.0 * (REFERENCE_LL[4] - REFERENCE_LL[3])
        assert lr == pytest.approx(213.00, abs=0.01)

    def test_penalty_ordering(self):
        # for T_eff >= 16, ln T >= 2 ln ln T, so SBIC >= HQIC >= AIC
        for t_eff in (16, 40, 65, 400):
            for lag in (1, 3):
                crit = information_criteria(-500.0, lag, 4, t_eff)
                assert crit["sbic"] >= crit["hqic"] >= crit["aic"]

    @pytest.mark.parametrize("lag, n_vars, t_eff", [(5, 2, 3), (0, 2, 1), (3, 4, 13)])
    def test_too_few_observations_for_the_lag(self, lag, n_vars, t_eff):
        # T_eff must exceed K j + 1, as in the lag search
        with pytest.raises(InsufficientDataError, match="^t_eff must exceed"):
            information_criteria(1.0, lag, n_vars, t_eff)


class TestLagOrderSelection:
    def test_common_sample_convention(self, panel69):
        report = lag_order_selection(panel69, 4)
        assert report.t_eff == 65
        assert [r.lag for r in report.rows] == [0, 1, 2, 3, 4]

    def test_lr_degrees_of_freedom(self, panel69):
        report = lag_order_selection(panel69, 3)
        assert all(r.lr_df == 36 for r in report.rows if r.lr_df is not None)

    def test_ll_increases_with_lag(self, panel69):
        lls = [r.log_likelihood for r in lag_order_selection(panel69, 4).rows]
        assert all(a <= b + 1e-9 for a, b in zip(lls, lls[1:]))

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            lag_order_selection(make_frame(np.random.default_rng(0).standard_normal((12, 3))), 4)

    def test_collinear_column_raises(self):
        data = np.random.default_rng(5).standard_normal((60, 2))
        frame = make_frame(np.column_stack([data, data[:, 0] - 3.0 * data[:, 1]]))
        with pytest.raises(SingularDesignError):
            lag_order_selection(frame, 2)

    def test_rows_match_separate_fits(self, panel69):
        report = lag_order_selection(panel69, 4)
        targets = panel69.values[4:]
        t = report.t_eff
        for row in report.rows:
            design = lagged_design(panel69.values, 4, row.lag)
            ld = np.linalg.slogdet(vk.ols(targets, design).sigma)[1]
            assert row.log_likelihood == pytest.approx(-0.5 * t * (6 * LOG_2PI + 6 + ld), rel=1e-10)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(1, 5),
        max_lag=st.integers(1, 6),
    )
    @settings(max_examples=40)
    def test_log_likelihoods_equal_per_width_fits(self, seed, n_vars, max_lag):
        """The stacked log-determinants give each lag's log likelihood bit
        for bit as the widest fit's call for that width alone, and to
        rounding as the formula on a separate fit's own sigma."""
        frame = make_frame(np.random.default_rng(seed).standard_normal((90, n_vars)).cumsum(axis=0))
        report = lag_order_selection(frame, max_lag)
        t = report.t_eff
        targets = frame.values[max_lag:]
        widest = ols(targets, lagged_design(frame.values, max_lag, max_lag))
        for row in report.rows:
            design = lagged_design(frame.values, max_lag, row.lag)
            ld = np.linalg.slogdet(ols(targets, design).sigma)[1]
            assert row.log_likelihood == widest.log_likelihoods([design.shape[1]])[0]
            assert row.log_likelihood == pytest.approx(
                -0.5 * t * (n_vars * LOG_2PI + n_vars + ld), rel=1e-10
            )

    def test_degenerate_lag_raises(self, rng):
        """A variable that its own first lag fits exactly leaves the VAR(1)
        covariance singular: the stacked Cholesky names that lag's slice."""
        walks = rng.standard_normal((60, 2)).cumsum(axis=0)
        frame = make_frame(np.column_stack([walks, 0.9 ** np.arange(60.0)]))
        with pytest.raises(DegenerateInputError, match="residual covariance is singular") as err:
            lag_order_selection(frame, 1)
        assert "(slice 1)" in str(err.value.__cause__) and err.value.__cause__.pivot == 2

    def test_sbic_picks_zero_on_white_noise(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            frame = make_frame(rng.standard_normal((400, 2)), names=("a", "b"))
            if lag_order_selection(frame, 4).selected["sbic"] == 0:
                hits += 1
        assert hits >= 90

    def test_selected_marks_minima(self, panel69):
        report = lag_order_selection(panel69, 4)
        for crit in ("aic", "hqic", "sbic", "fpe"):
            picked = report.selected[crit]
            values = [getattr(r, crit) for r in report.rows]
            assert values[picked] == min(values)


class TestLmAutocorrelation:
    def test_published_p_value_layer(self):
        # the statistic column is software-specific; its p-values are not
        assert vk.chi_square_sf(33.8489, 36) == pytest.approx(0.5713, abs=5e-4)
        assert vk.chi_square_sf(46.3709, 36) == pytest.approx(0.1154, abs=5e-4)

    def test_df_is_k_squared(self, rng):
        res = lm_autocorrelation(rng.standard_normal((120, 3)), 2)
        assert res.df == 9
        assert res.p_value == pytest.approx(vk.chi_square_sf(res.statistic, 9), rel=1e-12)

    def test_zero_residuals_degenerate(self):
        with pytest.raises(DegenerateInputError):
            lm_autocorrelation(np.zeros((80, 2)), 1)

    def test_zero_column_degenerate(self, rng):
        u = np.column_stack([rng.standard_normal(80), np.zeros(80)])
        with pytest.raises(DegenerateInputError):
            lm_autocorrelation(u, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["residuals", "design"])
    def test_non_finite_input_rejected(self, rng, bad, where):
        u = rng.standard_normal((80, 2))
        design = np.column_stack([np.ones(80), rng.standard_normal(80)])
        (u if where == "residuals" else design)[40, 1] = bad
        with pytest.raises(DomainError, match=f"^{where} contains non-finite entries$"):
            lm_autocorrelation(u, 1, design)

    @pytest.mark.parametrize("lag", [1, 3])
    def test_one_factorization_matches_two_fits(self, rng, lag):
        u = rng.standard_normal((100, 3))
        design = np.column_stack([np.ones(100), rng.standard_normal(100)])
        lagged = np.zeros_like(u)
        lagged[lag:] = u[:-lag]
        s_r = ols(u, design).sigma
        s_u = ols(u, np.hstack([design, lagged])).sigma
        want = (100 - 5 - 0.5 * 4) * (3 - np.trace(np.linalg.solve(s_r, s_u)))
        got = lm_autocorrelation(u, lag, design)
        assert got.statistic == pytest.approx(want, rel=1e-12)

    def test_overflowing_covariance_rejected(self, rng):
        # The residual cross-product overflows to inf: with warnings as
        # errors, the error itself is what raises, not numpy's warning.
        u = rng.standard_normal((80, 3)) * 1e160
        with warnings.catch_warnings(), pytest.raises(
            DomainError, match="^A contains non-finite entries$"
        ):
            warnings.simplefilter("error")
            lm_autocorrelation(u, 1)

    def test_detects_autocorrelated_residuals(self, rng):
        t = 400
        e = np.zeros((t, 2))
        shocks = rng.standard_normal((t, 2))
        for s in range(1, t):
            e[s] = 0.6 * e[s - 1] + shocks[s]
        res = lm_autocorrelation(e, 1)
        assert res.p_value < 0.01

    def test_size_on_iid_residuals(self):
        rejections = 0
        for seed in range(500):
            rng = np.random.default_rng(42_000 + seed)
            res = lm_autocorrelation(rng.standard_normal((200, 2)), 1)
            rejections += res.p_value < 0.05
        assert 0.02 <= rejections / 500 <= 0.09

    def test_with_original_design(self, rng):
        t = 150
        design = np.hstack([np.ones((t, 1)), rng.standard_normal((t, 3))])
        y = rng.standard_normal((t, 2))
        resid = vk.ols(y, design).residuals
        res = lm_autocorrelation(resid, 1, design=design)
        assert res.df == 4
        assert 0.0 <= res.p_value <= 1.0


class TestNormalitySuite:
    # (equation, skewness, kurtosis, skew chi2, kurt chi2, jb) at n_eff 65
    REFERENCE_ROWS = [
        ("exchange_rate", -0.007, 2.952, 0.001, 0.006, 0.007),
        ("wages", 0.133, 3.618, 0.191, 1.035, 1.226),
        ("output", -0.508, 4.523, 2.796, 6.280, 9.075),
    ]

    @pytest.mark.parametrize("name,s,kappa,skew_chi2,kurt_chi2,jb", REFERENCE_ROWS)
    def test_reference_rows(self, name, s, kappa, skew_chi2, kurt_chi2, jb):
        got_skew, got_kurt, got_jb = jarque_bera_components(s, kappa, 65)
        assert got_skew == pytest.approx(skew_chi2, abs=0.003)
        assert got_kurt == pytest.approx(kurt_chi2, abs=0.003)
        assert got_jb == pytest.approx(jb, abs=0.003)

    def test_reference_p_value(self):
        _, _, jb = jarque_bera_components(-0.007, 2.952, 65)
        assert vk.chi_square_sf(jb, 2) == pytest.approx(0.997, abs=0.002)

    def test_two_point_sample_moments(self):
        data = np.tile([-1.0, 1.0], 20).reshape(-1, 1)
        report = normality_suite(data)
        assert report.rows[0].skewness == pytest.approx(0.0, abs=1e-12)
        assert report.rows[0].kurtosis == pytest.approx(1.0, rel=1e-12)

    def test_joint_is_sum_of_equations(self, rng):
        report = normality_suite(rng.standard_normal((100, 4)))
        assert report.joint["jb"] == pytest.approx(sum(r.jb for r in report.rows), rel=1e-12)
        assert report.joint["skew_chi2"] == pytest.approx(
            sum(r.skew_chi2 for r in report.rows), rel=1e-12
        )

    def test_jb_is_sum_of_components(self, rng):
        report = normality_suite(rng.standard_normal((90, 2)))
        for row in report.rows:
            assert row.jb == pytest.approx(row.skew_chi2 + row.kurt_chi2, rel=1e-12)

    def test_gaussian_residuals_rarely_reject(self, rng):
        report = normality_suite(rng.standard_normal((5000, 2)))
        assert report.joint["jb_p"] > 0.01

    def test_n_eff_override_scales_statistics(self, rng):
        data = rng.standard_normal((100, 2))
        full = normality_suite(data)
        half = normality_suite(data, n_eff=50)
        assert half.rows[0].skew_chi2 == pytest.approx(full.rows[0].skew_chi2 / 2, rel=1e-9)

    def test_zero_variance_column(self):
        data = np.column_stack([np.ones(50), np.random.default_rng(3).standard_normal(50)])
        with pytest.raises(DegenerateInputError):
            normality_suite(data)

    def test_minimum_sample(self):
        with pytest.raises(InsufficientDataError):
            normality_suite(np.random.default_rng(0).standard_normal((30, 1)), n_eff=5)

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t=st.integers(20, 300),
        k=st.integers(1, 12),
        fortran=st.booleans(),
    )
    def test_moments_equal_per_column_means(self, seed, t, k, fortran):
        """Each equation's moments equal the mean over its own column of the
        orthogonalized residuals, bit for bit, whatever the input layout."""
        rng = np.random.default_rng(seed)
        u = rng.standard_t(5, (t, k))
        if fortran:
            u = np.asfortranarray(u)
        report = normality_suite(u)
        centered = u - u.mean(axis=0)
        sigma = centered.T @ centered / t
        w = np.linalg.solve(np.linalg.cholesky(0.5 * (sigma + sigma.T)), centered.T).T
        for i, row in enumerate(report.rows):
            assert row.skewness == float(np.mean(w[:, i] ** 3))
            assert row.kurtosis == float(np.mean(w[:, i] ** 4))

    def test_overflowing_covariance_rejected(self, rng):
        # as in the LM test: the cross-product overflows, and with warnings
        # as errors the error itself is what raises
        with warnings.catch_warnings(), pytest.raises(
            DomainError, match="^A contains non-finite entries$"
        ):
            warnings.simplefilter("error")
            normality_suite(rng.standard_normal((80, 3)) * 1e160)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"names": ("a", "b")},
            {"names": ("a", "b", "c", "d")},
            {"names": 7},
            {"n_eff": "x"},
            {"n_eff": 5.5},
            {"n_eff": float("nan")},
        ],
        ids=["names-short", "names-long", "names-not-a-sequence", "n_eff-text", "n_eff-fraction", "n_eff-nan"],
    )
    def test_bad_arguments_named(self, rng, kwargs):
        (value,) = kwargs.values()
        with pytest.raises(DomainError, match=re.escape(repr(value))):
            normality_suite(rng.standard_normal((40, 3)), **kwargs)

    def test_whole_number_n_eff_accepted(self, rng):
        data = rng.standard_normal((40, 3))
        assert normality_suite(data, n_eff=20.0) == normality_suite(data, n_eff=np.int64(20))


class TestAdf:
    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateInputError):
            adf_test(np.full(60, 3.0), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, rng, bad):
        y = np.cumsum(rng.standard_normal(60))
        y[30] = bad
        with pytest.raises(DomainError, match="non-finite"):
            adf_test(y, 1)

    def test_bad_spec(self):
        with pytest.raises(DomainError):
            adf_test(np.arange(60.0), 1, spec="seasonal")

    @pytest.mark.parametrize("spec", ["constant", "constant+trend"])
    def test_exact_trend_is_singular(self, spec):
        # y_{t-1}, the constant dy lags and the constant are collinear
        with pytest.raises(SingularDesignError):
            adf_test(2.0 + 0.5 * np.arange(40.0), 2, spec)

    @pytest.mark.parametrize(
        "y, spec",
        [(np.arange(1.0, 41.0), "constant"), (np.arange(1.0, 41.0) ** 2, "constant+trend")],
    )
    def test_exact_fit_is_degenerate(self, y, spec):
        # the deterministic terms fit the differences exactly, so the
        # residuals are rounding and the statistic would be noise
        with pytest.raises(DegenerateInputError, match="exact fit"):
            adf_test(y, 0, spec)

    def test_critical_value_table_shape(self):
        for spec, (one, five, ten) in ADF_CRITICAL_VALUES.items():
            assert one < five < ten < 0

    def test_stationary_series_rejects(self):
        rng = np.random.default_rng(11)
        x = np.zeros(500)
        for s in range(1, 500):
            x[s] = 0.5 * x[s - 1] + rng.standard_normal()
        res = adf_test(x, 2)
        assert res.reject_5pct
        assert res.statistic < -5.0

    def test_random_walk_fails_to_reject(self):
        rng = np.random.default_rng(12)
        x = np.cumsum(rng.standard_normal(500))
        res = adf_test(x, 2)
        assert not res.reject_5pct

    def test_reject_flag_matches_critical_value(self):
        rng = np.random.default_rng(13)
        x = np.cumsum(rng.standard_normal(300))
        res = adf_test(x, 1)
        assert res.reject_5pct == (res.statistic < res.critical_values[5])

    def test_accepts_a_frame_column(self, panel69):
        column = panel69.column("employment")
        res = adf_test(column, 4)
        assert res.lags == 4 and res.spec == "constant"
        assert res == adf_test(np.array(column), 4)

    def test_trend_spec_runs(self):
        rng = np.random.default_rng(14)
        x = np.cumsum(rng.standard_normal(200)) + 0.05 * np.arange(200)
        res = adf_test(x, 1, spec="constant+trend")
        assert res.critical_values[5] == pytest.approx(-3.41049)

    def test_matches_two_sided_regression_oracle(self):
        # statistic recomputed with an independent pinv-based regression
        rng = np.random.default_rng(15)
        y = np.cumsum(rng.standard_normal(120))
        res = adf_test(y, 2)
        dy = np.diff(y)
        rows = len(dy) - 2
        x = np.column_stack([y[2:-1], dy[1:-1], dy[:-2], np.ones(rows)])
        coef = np.linalg.pinv(x) @ dy[2:]
        resid = dy[2:] - x @ coef
        s2 = resid @ resid / (rows - x.shape[1])
        cov = s2 * np.linalg.inv(x.T @ x)
        oracle = coef[0] / np.sqrt(cov[0, 0])
        assert res.statistic == pytest.approx(oracle, rel=1e-9)


class TestVecmStability:
    def test_single_unit_root_passes(self):
        fit = vk.VecmFit(
            rank=1,
            names=("a", "b"),
            lags=1,
            alpha=np.array([[-0.5], [0.5]]),
            beta=np.array([[1.0], [-1.0]]),
            gammas=(),
            const=np.zeros(2),
            residuals=np.zeros((12, 2)),
            sigma=np.eye(2),
            sample_start=vk.parse_quarter("2001Q1"),
            n_sample=13,
            tail=np.ones((1, 2)),
        )
        report = vecm_stability(fit)
        assert report.unit_count == 1 == report.expected_unit_count
        assert report.passed

    def test_six_variable_rank_two_has_four_unit_moduli(self, rng):
        fit = well_specified_vecm_fit(rng, k=6, r=2)
        report = vecm_stability(fit)
        assert report.unit_count == 4
        assert report.passed

    def test_explosive_fit_fails(self):
        # beta' alpha = -2.5 puts a root at |1 - 2.5| = 1.5 outside the circle
        fit = vk.VecmFit(
            rank=1,
            names=("a", "b"),
            lags=1,
            alpha=np.array([[-2.5], [0.0]]),
            beta=np.array([[1.0], [0.0]]),
            gammas=(),
            const=np.zeros(2),
            residuals=np.zeros((12, 2)),
            sigma=np.eye(2),
            sample_start=vk.parse_quarter("2001Q1"),
            n_sample=13,
            tail=np.ones((1, 2)),
        )
        report = vecm_stability(fit)
        assert not report.passed
        assert report.moduli[0] > 1.0

    def test_estimated_panel_fit_passes(self, panel69):
        report = vecm_stability(fit_vecm(panel69, 2, 2))
        assert report.expected_unit_count == 4
        assert report.passed
