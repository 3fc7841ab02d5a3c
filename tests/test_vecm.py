from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import vecmkit as vk
from vecmkit import (
    TRACE_CRIT_5PCT,
    JohansenResult,
    VecmFit,
    fit_vecm,
    forecast_vecm,
    johansen_trace,
    select_rank,
    trace_statistics,
    vecm_to_levels_var,
)
from vecmkit import vecm
from vecmkit.errors import (
    DegenerateInputError,
    InsufficientDataError,
    RankError,
    SingularDesignError,
)
from vecmkit.formatting import from_jsonable, to_jsonable
from vecmkit.numerics import OlsFit, ols
from vecmkit.quarterly import first_difference, lag_matrix
from vecmkit.var import forecast_var, stability_moduli
from vecmkit.diagnostics import lag_order_selection, lm_autocorrelation
from vecmkit.vecm import (
    _EIGENVALUE_CEIL,
    _concentrate,
    _concentration,
    _design,
    _first_independent_rows,
    _split,
)

from conftest import make_frame, simulate_vecm, well_specified_vecm_fit

TABLE_EIGENVALUES = np.array([0.743, 0.454, 0.283, 0.128, 0.121, 0.002])
TABLE_TRACE = np.array([171.843, 80.713, 40.169, 17.907, 8.761, 0.137])
TABLE_CRIT = np.array([94.150, 68.520, 47.210, 29.680, 15.410, 3.760])


def johansen_result_from(eigenvalues, t_eff):
    lam = np.asarray(eigenvalues, dtype=float)
    k = lam.size
    return JohansenResult(
        names=tuple(f"x{i}" for i in range(k)),
        eigenvalues=lam,
        trace_stats=trace_statistics(lam, t_eff),
        critical_values_5pct=np.array([TRACE_CRIT_5PCT[k - r] for r in range(k)]),
        t_eff=t_eff,
        lags=2,
    )


class TestTraceStatistics:
    def test_reproduces_published_column(self):
        stats = trace_statistics(TABLE_EIGENVALUES, 67)
        np.testing.assert_allclose(stats, TABLE_TRACE, atol=0.25)

    def test_zero_eigenvalues_give_zero_traces(self):
        np.testing.assert_array_equal(trace_statistics(np.zeros(4), 100), np.zeros(4))

    def test_internal_consistency(self, panel69):
        result = johansen_trace(panel69, 2)
        recomputed = trace_statistics(result.eigenvalues, result.t_eff)
        np.testing.assert_allclose(result.trace_stats, recomputed, atol=1e-8)

    def test_strictly_decreasing_on_data(self, panel69):
        result = johansen_trace(panel69, 2)
        assert np.all(np.diff(result.trace_stats) < 0)

    def test_eigenvalue_near_one(self):
        """lambda_1 = 1 - 9.6e-6 on a 10x2 random walk at k = 2: the rank
        test takes ln(1 - lambda_1) from the squared sines, with no
        cancellation, so both statistics stay within 5e-14 relative of a
        50-digit mpmath reference (the S-matrix eigenproblem on the same
        design), where log1p(-lambda_1) puts the first 2.2e-12 off."""
        reference = (92.45505175571844679976116, 0.0003982457790337177737647645)
        frame = random_walk(2567, 10, 2)
        vecm._searched = None
        _concentration.cache_clear()
        result = johansen_trace(frame, 2)
        assert 1 - result.eigenvalues[0] < 1e-5
        for got, want in zip(result.trace_stats, reference, strict=True):
            assert abs(got - want) <= 5e-14 * want


class TestCriticalValues:
    def test_pinned_published_entries(self):
        assert [TRACE_CRIT_5PCT[i] for i in range(1, 7)] == [
            3.76,
            15.41,
            29.68,
            47.21,
            68.52,
            94.15,
        ]

    def test_strictly_increasing_up_to_twelve(self):
        vals = [TRACE_CRIT_5PCT[i] for i in range(1, 13)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_lookup_guard(self, rng):
        frame = make_frame(np.cumsum(rng.standard_normal((69, 13)), axis=0))
        with pytest.raises(vk.DomainError, match="K - r = 13; table covers 1..12"):
            johansen_trace(frame, 2)

    def test_guard_runs_before_any_concentration(self, rng, monkeypatch):
        # a 13-column frame fails on the table before any data check, so
        # one that is also too short for its lags gets DomainError too
        calls = []
        real = vecm._concentrate
        monkeypatch.setattr(vecm, "_concentrate", lambda f, k: calls.append(k) or real(f, k))
        _concentration.cache_clear()
        for rows in (69, 10):
            frame = make_frame(np.cumsum(rng.standard_normal((rows, 13)), axis=0))
            with pytest.raises(vk.DomainError, match="K - r = 13; table covers 1..12"):
                johansen_trace(frame, 2)
        assert calls == []
        assert _concentration.cache_info().currsize == 0


class TestSelectRank:
    def test_published_selection(self):
        # run the rule on the published statistics themselves
        published = JohansenResult(
            names=tuple("abcdef"),
            eigenvalues=TABLE_EIGENVALUES,
            trace_stats=TABLE_TRACE,
            critical_values_5pct=TABLE_CRIT,
            t_eff=67,
            lags=2,
        )
        assert select_rank(published) == 2
        # and on statistics recomputed from the published eigenvalues
        assert select_rank(johansen_result_from(TABLE_EIGENVALUES, 67)) == 2

    def test_all_below_gives_zero(self):
        result = johansen_result_from([0.01, 0.005], 50)
        assert select_rank(result) == 0

    def test_all_above_gives_full_rank(self):
        result = johansen_result_from([0.9, 0.8], 500)
        assert select_rank(result) == 2


class TestJohansenTrace:
    def test_effective_sample_convention(self, panel69):
        assert johansen_trace(panel69, 2).t_eff == 67
        assert johansen_trace(panel69, 4).t_eff == 65

    def test_eigenvalues_in_unit_interval(self, rng):
        for _ in range(5):
            data = rng.standard_normal((60, 3)).cumsum(axis=0)
            result = johansen_trace(make_frame(data), 2)
            assert np.all(result.eigenvalues >= 0.0)
            assert np.all(result.eigenvalues < 1.0)
            assert np.all(np.diff(result.eigenvalues) <= 1e-12)

    def test_exact_relation_drives_top_eigenvalue_to_one(self, rng):
        # y adjusts to x with no noise in its own equation: the first
        # canonical correlation is 1 and the trace statistic blows up
        t = 500
        x = np.zeros((t, 2))
        for s in range(1, t):
            x[s, 0] = x[s - 1, 0] + rng.standard_normal()
            x[s, 1] = x[s - 1, 1] - 1.0 * (x[s - 1, 1] - x[s - 1, 0])
        result = johansen_trace(make_frame(x), 1)
        assert result.eigenvalues[0] > 0.999
        assert result.trace_stats[0] > 1000.0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            johansen_trace(make_frame(np.arange(20.0).reshape(10, 2) ** 1.1), 5)

    @given(order=st.permutations(range(6)), k=st.integers(1, 3))
    @settings(max_examples=30)
    def test_eigenvalues_invariant_to_column_order(self, panel69, order, k):
        permuted = vk.Frame(
            panel69.start,
            tuple(panel69.names[i] for i in order),
            panel69.values[:, list(order)],
        )
        np.testing.assert_allclose(
            johansen_trace(permuted, k).eigenvalues,
            johansen_trace(panel69, k).eigenvalues,
            rtol=0.0,
            atol=1e-10,
        )

    @given(
        scales=st.lists(st.floats(1e-3, 1e3), min_size=6, max_size=6),
        shifts=st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6),
        k=st.integers(1, 3),
    )
    @settings(max_examples=30)
    def test_eigenvalues_invariant_to_column_scale_and_shift(self, panel69, scales, shifts, k):
        # squared canonical correlations do not see a positive rescaling of
        # a column, and the unrestricted constant absorbs a shift of its level
        moved = vk.Frame(
            panel69.start, panel69.names, panel69.values * np.array(scales) + np.array(shifts)
        )
        np.testing.assert_allclose(
            johansen_trace(moved, k).eigenvalues,
            johansen_trace(panel69, k).eigenvalues,
            rtol=0.0,
            atol=1e-9,
        )


class TestRegressors:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equal_to_validated_frame_construction(self, panel69, k):
        t = len(panel69)
        d_frame = first_difference(panel69)
        z2_old = np.hstack([np.ones((t - k, 1)), lag_matrix(d_frame.values, k - 1)])
        z2, z0, z1 = _split(_design(panel69, k), panel69.n_columns)
        assert z0.tobytes() == d_frame.values[k - 1 :].tobytes()
        assert z1.tobytes() == panel69.values[k - 1 : t - 1].tobytes()
        assert z2.shape == z2_old.shape
        assert z2.tobytes() == z2_old.tobytes()


def fit_fields(fit):
    return [
        a.tobytes()
        for a in (fit.alpha, fit.beta, fit.const, fit.residuals, fit.sigma, *fit.gammas)
    ] + [fit.beta_pivot]


def residual_moments(frame, k):
    """S00, S01, S11 from explicit residuals of dX_t and X_{t-1} on z2,
    fitted by a separate least-squares solve."""
    z2, z0, z1 = _split(_design(frame, k), frame.n_columns)
    n_vars = z0.shape[1]
    targets = np.hstack([z0, z1])
    coef, *_ = np.linalg.lstsq(z2, targets, rcond=None)
    resid = targets - z2 @ coef
    r0, r1 = resid[:, :n_vars], resid[:, n_vars:]
    t_eff = z0.shape[0]
    return r0.T @ r0 / t_eff, r0.T @ r1 / t_eff, r1.T @ r1 / t_eff


def norm_rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestConcentrationMoments:
    @given(seed=st.integers(0, 2**32 - 1), n_vars=st.integers(1, 5), k=st.integers(1, 4))
    @settings(max_examples=40)
    def test_match_residual_products(self, seed, n_vars, k):
        rng = np.random.default_rng(seed)
        frame = make_frame(np.cumsum(rng.standard_normal((80, n_vars)), axis=0))
        z2, z0, z1 = _split(_design(frame, k), frame.n_columns)
        s = ols(np.hstack([z0, z1]), z2).sigma
        s00, s01, s11 = residual_moments(frame, k)
        assert norm_rel(s[:n_vars, :n_vars], s00) <= 1e-10
        assert norm_rel(s[:n_vars, n_vars:], s01) <= 1e-10
        assert norm_rel(s[n_vars:, n_vars:], s11) <= 1e-10

        # the eigenpairs solve S10 S00^-1 S01 v = lambda S11 v on the
        # residual-based moments, with v' S11 v = I
        concentration = _concentrate(frame, k)
        lam, vecs = concentration.eigenvalues, concentration.eigenvectors
        a = s01.T @ np.linalg.solve(s00, s01)
        want = scipy.linalg.eigh(0.5 * (a + a.T), s11, eigvals_only=True)[::-1]
        np.testing.assert_allclose(lam, want, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(vecs.T @ s11 @ vecs, np.eye(n_vars), rtol=0.0, atol=1e-9)
        assert norm_rel(a @ vecs, s11 @ vecs * lam) <= 1e-9


def principal_angle_eigenvalues(frame, k):
    """Squared cosines of the principal angles between the spans of the
    residuals of dX_t and of X_{t-1} on [1, dX lags], from explicit
    least-squares residuals built here from the levels: QR of each residual
    block, then the singular values of Q0'Q1."""
    x, t = frame.values, len(frame)
    dx = np.diff(x, axis=0)
    z2 = np.column_stack([np.ones(t - k), *[dx[k - 1 - i : t - 1 - i] for i in range(1, k)]])
    bases = []
    for z in (dx[k - 1 :], x[k - 1 : t - 1]):
        resid = z - z2 @ np.linalg.lstsq(z2, z, rcond=None)[0]
        bases.append(np.linalg.qr(resid)[0])
    cosines = np.linalg.svd(bases[0].T @ bases[1], compute_uv=False)
    return np.clip(cosines**2, 0.0, _EIGENVALUE_CEIL)


class TestPrincipalAngles:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.sampled_from([1, 2, 3, 4, 5, 12]),
        k=st.integers(1, 4),
        extra_rows=st.integers(0, 40),
        collinear=st.sampled_from([None, 0.05, 0.1]),
    )
    @example(seed=0, n_vars=12, k=4, extra_rows=3, collinear=None)
    @example(seed=1, n_vars=5, k=2, extra_rows=2, collinear=0.05)
    @example(seed=2, n_vars=3, k=1, extra_rows=0, collinear=None)
    @settings(max_examples=60)
    def test_eigenvalues_are_squared_cosines(self, seed, n_vars, k, extra_rows, collinear):
        """The eigenvalues read off R are the squared canonical
        correlations. T - k runs from the fewest rows the rank test
        accepts, where T - k is below the width of [z2 | z0 | z1] and R is
        trapezoidal (extra_rows < K), upward. ``collinear`` makes the last
        column the first plus a random walk with that step size; closer
        columns are not checked here because the least-squares reference
        itself then drifts past 1e-12 from a 50-digit evaluation."""
        rng = np.random.default_rng(seed)
        t = k + n_vars * k + 1 + extra_rows
        x = np.cumsum(rng.standard_normal((t, n_vars)), axis=0)
        if collinear is not None and n_vars > 1:
            x[:, -1] = x[:, 0] + collinear * np.cumsum(rng.standard_normal(t))
        frame = make_frame(x)
        lam = _concentrate(frame, k).eigenvalues
        want = principal_angle_eigenvalues(frame, k)
        np.testing.assert_allclose(lam, want, rtol=0.0, atol=1e-12)


class TestConcentrationErrors:
    """A singular residual moment matrix raises ``SingularDesignError``
    naming the pivot read off R; in every case here z2 has full rank."""

    @staticmethod
    def check(x, k, match):
        frame = make_frame(x)
        z2 = _split(_design(frame, k), frame.n_columns)[0]
        assert np.linalg.matrix_rank(z2) == z2.shape[1]
        _concentration.cache_clear()
        with pytest.raises(SingularDesignError, match=match):
            johansen_trace(frame, k)
        with pytest.raises(SingularDesignError, match=match):
            fit_vecm(frame, k, 1)

    def test_s00_exact_trend(self, rng):
        # k = 1, z2 is the constant and dX_1 is constant
        x = np.cumsum(rng.standard_normal((60, 3)), axis=0)
        x[:, 0] = 2.0 + 0.5 * np.arange(60)
        self.check(x, 1, r"S00 is singular \(pivot 0\)")

    def test_s00_lagged_copy(self, rng):
        # k = 2: x2 repeats x1 one quarter later, so dX2_t = dX1_{t-1} lies
        # in z2 = [1, dX_{t-1}]
        x = np.cumsum(rng.standard_normal((60, 3)), axis=0)
        x[1:, 1] = x[:-1, 0] + 3.0
        self.check(x, 2, r"S00 is singular \(pivot 1\)")

    def test_s11_relation_until_last_row(self, rng):
        # k = 1: x2 - x1 is constant on every row but the last, so the
        # residuals of X_{t-1} are singular and those of dX_t are not
        x = np.cumsum(rng.standard_normal((60, 3)), axis=0)
        x[:-1, 1] = x[:-1, 0] + 5.0
        self.check(x, 1, r"S11 is singular \(pivot 1\)")

    def test_s11_level_in_lagged_differences(self, rng):
        # k = 2: x1_{t-1} = 1 + dX2_{t-1} on every sample row, so X_{t-1}
        # has a column in z2 = [1, dX_{t-1}]; the first and last rows of x1
        # are free, which keeps dX_t's residuals nonsingular
        x = np.cumsum(rng.standard_normal((60, 3)), axis=0)
        x[1:-1, 0] = 1.0 + np.diff(x[:-1, 1])
        self.check(x, 2, r"S11 is singular \(pivot 0\)")


class TestCovarianceOnlyCallers:
    def test_no_coefficients_or_residuals(self, panel69, monkeypatch):
        """The lag search, the LM test and the trace test read residual
        covariances off R alone."""
        computed = []
        for name in ("coefficients", "residuals"):
            real = OlsFit.__dict__[name].func

            def spy(fit, name=name, real=real):
                computed.append(name)
                return real(fit)

            monkeypatch.setattr(OlsFit, name, property(spy))
        residuals = np.diff(panel69.values, axis=0)
        _concentration.cache_clear()
        lag_order_selection(panel69, 4)
        for lag in (1, 2):
            lm_autocorrelation(residuals, lag)
            lm_autocorrelation(residuals, lag, np.ones((len(residuals), 1)))
        johansen_trace(panel69, 2)
        assert computed == []
        fit_vecm(panel69, 2, 2)  # the spies do count when a fit reads them
        assert set(computed) == {"coefficients", "residuals"}


class TestConcentrationMemo:
    def test_warm_equals_cold(self, panel69):
        cold = {}
        for k in (1, 2, 3):
            _concentration.cache_clear()
            trace = johansen_trace(panel69, k)
            _concentration.cache_clear()
            cold[k] = trace, fit_fields(fit_vecm(panel69, k, 2))
        for k in (1, 2, 3):
            _concentration.cache_clear()
            trace = johansen_trace(panel69, k)
            warm = fit_fields(fit_vecm(panel69, k, 2))
            assert _concentration.cache_info().hits == 1
            assert trace.eigenvalues.tobytes() == cold[k][0].eigenvalues.tobytes()
            assert trace.trace_stats.tobytes() == cold[k][0].trace_stats.tobytes()
            assert trace.t_eff == cold[k][0].t_eff
            assert warm == cold[k][1]

    def test_equal_frame_is_a_hit(self, panel69):
        twin = vk.Frame(panel69.start, panel69.names, np.array(panel69.values))
        assert twin is not panel69
        _concentration.cache_clear()
        johansen_trace(panel69, 2)
        fit_vecm(twin, 2, 2)
        info = _concentration.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    @pytest.mark.parametrize("change", ["value", "start", "names", "lags"])
    def test_changed_key_is_a_miss(self, panel69, change):
        start, names, values, k = panel69.start, panel69.names, np.array(panel69.values), 2
        if change == "value":
            values[30, 0] = np.nextafter(values[30, 0], np.inf)
        elif change == "start":
            start = start.shift(1)
        elif change == "names":
            names = (names[1], names[0], *names[2:])
        else:
            k = 3
        other = vk.Frame(start, names, values)
        _concentration.cache_clear()
        johansen_trace(panel69, 2)
        warm = johansen_trace(other, k)
        info = _concentration.cache_info()
        assert (info.hits, info.misses) == (0, 2)
        _concentration.cache_clear()
        assert warm.eigenvalues.tobytes() == johansen_trace(other, k).eigenvalues.tobytes()

    def test_raising_call_caches_nothing(self):
        short = make_frame(np.arange(20.0).reshape(10, 2) ** 1.1)
        _concentration.cache_clear()
        for _ in range(2):
            with pytest.raises(InsufficientDataError):
                johansen_trace(short, 5)
        info = _concentration.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_fit_is_kept_per_rank(self, panel69):
        """A second fit of an equal frame at the same k and r returns the
        kept fit, bit for bit what a cold fit gives; another rank or k
        fits afresh."""
        cold = {}
        for r in (1, 2):
            _concentration.cache_clear()
            cold[r] = fit_fields(fit_vecm(panel69, 2, r))
        _concentration.cache_clear()
        first = fit_vecm(panel69, 2, 2)
        twin = vk.Frame(panel69.start, panel69.names, np.array(panel69.values))
        assert fit_vecm(twin, 2, 2) is first
        assert fit_fields(first) == cold[2]
        other = fit_vecm(panel69, 2, 1)
        assert other is not first and fit_fields(other) == cold[1]
        assert fit_vecm(panel69, 2, 1) is other
        assert fit_vecm(panel69, 3, 2) is not first

    def test_raising_fit_keeps_nothing(self, panel69, monkeypatch):
        def fail(beta, r):
            raise SingularDesignError("cointegrating vectors do not have full column rank")

        _concentration.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(vecm, "_first_independent_rows", fail)
            for _ in range(2):
                with pytest.raises(SingularDesignError):
                    fit_vecm(panel69, 2, 2)
            assert _concentration(panel69, 2).fits == {}
        fit = fit_vecm(panel69, 2, 2)
        kept = _concentration(panel69, 2).fits
        assert list(kept) == [2] and kept[2] is fit

    def test_cached_arrays_are_read_only(self, panel69):
        _concentration.cache_clear()
        trace = johansen_trace(panel69, 2)
        record = _concentration(panel69, 2)
        arrays = (record.eigenvalues, record.eigenvectors, record.xy, record.r, trace.eigenvalues)
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0.5


def fit_arrays(fit):
    return (fit.alpha, fit.beta, fit.const, fit.residuals, fit.sigma, *fit.gammas)


def random_walk(seed, t, n_vars):
    return make_frame(np.cumsum(np.random.default_rng(seed).standard_normal((t, n_vars)), axis=0))


class TestSharedFactor:
    """After a lag search of the same frame with max_lag >= k, the rank test
    and the fits read R off the search's kept factor instead of factoring
    [z2 | z0 | z1]; results agree with the cold path to rounding."""

    @staticmethod
    def rank_test_and_fits(frame, k):
        _concentration.cache_clear()
        trace = johansen_trace(frame, k)
        return trace, [fit_vecm(frame, k, r) for r in range(1, frame.n_columns)]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(1, 4),
        k=st.integers(1, 3),
        extra_lags=st.integers(0, 2),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_cold_path(self, seed, n_vars, k, extra_lags, data):
        """Rank picks are identical. On well-conditioned input, trace
        statistics agree within 1e-12 of the largest and every ``VecmFit``
        array within 1e-10 of its largest entry.

        The fewest rows drawn leave the widest lag search one residual
        degree of freedom per variable. Input is well-conditioned here when
        the largest eigenvalue lies in [1e-3, 1 - 1e-3] and no normalized
        beta entry exceeds 1e3. Outside that, rounding at the eigenvalues'
        level can exceed the relative bounds on either path:
        ``test_eigenvalue_corners`` and ``test_ill_conditioned_normalization``
        pin one example of each kind."""
        max_lag = k + extra_lags
        t_min = (n_vars + 1) * max_lag + n_vars + 2
        frame = random_walk(seed, data.draw(st.integers(t_min, 200), label="T"), n_vars)
        vecm._searched = None
        cold_trace, cold_fits = self.rank_test_and_fits(frame, k)
        lag_order_selection(frame, max_lag)
        with mock.patch.object(vecm, "_factor", wraps=vecm._factor) as factor:
            trace, fits = self.rank_test_and_fits(frame, k)
        factor.assert_not_called()
        assert select_rank(trace) == select_rank(cold_trace)
        assume(1e-3 <= cold_trace.eigenvalues[0] <= 1 - 1e-3)
        assume(all(np.abs(cold.beta).max() <= 1e3 for cold in cold_fits))
        gap = np.abs(trace.trace_stats - cold_trace.trace_stats)
        assert gap.max() <= 1e-12 * np.abs(cold_trace.trace_stats).max()
        for fit, cold in zip(fits, cold_fits):
            assert fit.beta_pivot == cold.beta_pivot
            for got, want in zip(fit_arrays(fit), fit_arrays(cold)):
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize(
        "seed, t, n_vars, k, corner",
        [(2567, 10, 2, 2, "one"), (50788647, 82, 1, 1, "zero")],
        ids=["near-one", "near-zero"],
    )
    def test_eigenvalue_corners(self, seed, t, n_vars, k, corner):
        """An eigenvalue within 1e-4 of 1 or of 0. The paths agree in the
        eigenvalues within 8 ulps of 1 and in the rank pick, but not in the
        trace statistics within 1e-12 of the largest: near 1, a statistic's
        condition number is T_eff / (1 - lambda), and a 50-digit reference
        puts the cold path itself 2.2e-12 of the largest statistic off in
        the first example; near 0, one ulp of 1 is a large part of lambda,
        and the second example's only statistic is 1.1e-3."""
        frame = random_walk(seed, t, n_vars)
        vecm._searched = None
        cold, _ = self.rank_test_and_fits(frame, k)
        lam = cold.eigenvalues[0] if corner == "zero" else 1 - cold.eigenvalues[0]
        assert lam < 1e-4
        lag_order_selection(frame, k)
        assert vecm._searched.frame is frame
        shared, _ = self.rank_test_and_fits(frame, k)
        assert np.abs(shared.eigenvalues - cold.eigenvalues).max() <= 8 * np.finfo(float).eps
        assert select_rank(shared) == select_rank(cold)

    def test_ill_conditioned_normalization(self):
        """Here beta's first row is nearly zero, so normalizing it to 1
        scales beta by 4.5e4 and alpha by its inverse: the two paths'
        alpha and beta differ by 1.5e-10 of their largest entries, each
        accurate given its own beta. Pi = alpha beta', the constant, the
        residuals and sigma do not depend on the normalization, and they
        agree to rounding."""
        frame = random_walk(17504, 88, 2)
        vecm._searched = None
        _, [cold] = self.rank_test_and_fits(frame, 1)
        assert np.abs(cold.beta).max() > 1e4
        lag_order_selection(frame, 1)
        assert vecm._searched.frame is frame
        _, [shared] = self.rank_test_and_fits(frame, 1)
        for name in ("pi", "const", "residuals", "sigma"):
            got, want = getattr(shared, name), getattr(cold, name)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    @pytest.fixture()
    def fresh_factors(self, monkeypatch):
        """Shapes of the designs the concentration factors itself, from an
        empty search slot and concentration memo."""
        calls = []
        real = vecm._factor

        def spy(xy, n_x):
            calls.append(xy.shape)
            return real(xy, n_x)

        monkeypatch.setattr(vecm, "_factor", spy)
        monkeypatch.setattr(vecm, "_searched", None)
        _concentration.cache_clear()
        return calls

    def test_not_taken_for_an_equal_copy(self, panel69, fresh_factors):
        """The slot is keyed by identity: an equal frame built apart, as a
        CLI run loads its own, is factored cold."""
        lag_order_selection(panel69, 4)
        twin = vk.Frame(panel69.start, panel69.names, np.array(panel69.values))
        johansen_trace(twin, 2)
        fit_vecm(panel69, 2, 2)  # the concentration's memo is keyed by content
        assert fresh_factors == [(67, 19)]

    def test_not_taken_for_another_frame(self, panel69, fresh_factors):
        lag_order_selection(panel69.head(60), 4)
        johansen_trace(panel69, 2)
        assert fresh_factors == [(67, 19)]

    def test_not_taken_below_k(self, panel69, fresh_factors):
        lag_order_selection(panel69, 1)
        johansen_trace(panel69, 2)
        assert fresh_factors == [(67, 19)]

    def test_not_taken_after_a_search_that_raised(self, fresh_factors):
        # two spare rows for K = 2 at max_lag 2: the widest residual
        # covariance is singular, after the design was factored
        frame = random_walk(3, 8, 2)
        with pytest.raises(DegenerateInputError):
            lag_order_selection(frame, 2)
        assert vecm._searched is None
        johansen_trace(frame, 1)
        assert fresh_factors == [(7, 5)]

    def test_kept_factor_is_read_only(self, panel69, fresh_factors):
        lag_order_selection(panel69, 4)
        kept = vecm._searched
        assert kept.frame is panel69 and kept.max_lag == 4 and kept.r.shape == (31, 31)
        with pytest.raises(ValueError):
            kept.r[0, 0] = 1.0


class TestFitVecm:
    def test_rank_bounds_rejected_with_guidance(self, panel69):
        with pytest.raises(RankError, match="differences"):
            fit_vecm(panel69, 2, 0)
        with pytest.raises(RankError, match="levels"):
            fit_vecm(panel69, 2, 6)

    def test_residual_count_on_69_rows(self, panel69):
        fit = fit_vecm(panel69, 4, 2)
        assert fit.residuals.shape == (65, 6)
        assert fit.lags == 4 and fit.rank == 2

    def test_beta_normalization(self, panel69):
        fit = fit_vecm(panel69, 2, 2)
        block = fit.beta[list(fit.beta_pivot), :]
        np.testing.assert_allclose(block, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("k,r", [(1, 1), (2, 2), (3, 3), (4, 5)])
    def test_beta_identity_block_is_exact(self, panel69, k, r):
        fit = fit_vecm(panel69, k, r)
        assert np.array_equal(fit.beta[list(fit.beta_pivot), :], np.eye(r))

    def test_alpha_near_zero_when_no_cointegration(self):
        # pure VAR in differences: Pi = 0. Under the no-cointegration null
        # the loading's t-ratio is not asymptotically normal, so the 3-se
        # bound holds for typical draws only; seed picked accordingly.
        rng = np.random.default_rng(6)
        t = 2000
        gamma = np.array([[0.3, 0.1], [0.0, 0.25]])
        dx = np.zeros((t + 1, 2))
        for s in range(1, t + 1):
            dx[s] = gamma @ dx[s - 1] + rng.standard_normal(2)
        levels = dx.cumsum(axis=0)
        frame = make_frame(levels, names=("a", "b"))
        fit = fit_vecm(frame, 2, 1)
        # standard errors of the error-correction loadings, recomputed from
        # the same regression layout with classical OLS formulas
        z1 = levels[1:t, :]
        dxs = np.diff(levels, axis=0)
        ect = z1 @ fit.beta[:, 0]
        design = np.column_stack([ect, dxs[:-1], np.ones(t - 1)])
        xtx_inv = np.linalg.inv(design.T @ design)
        for eq in range(2):
            resid = fit.residuals[:, eq]
            s2 = resid @ resid / (resid.size - design.shape[1])
            se = np.sqrt(s2 * xtx_inv[0, 0])
            assert abs(fit.alpha[eq, 0]) < 3.0 * se

    def test_beta_recovery_with_strong_error_correction(self, rng):
        alpha = np.array([[-0.5], [0.5]])
        beta = np.array([[1.0], [-1.0]])
        data = simulate_vecm(alpha, beta, (), np.zeros(2), np.eye(2), 1000, rng)
        fit = fit_vecm(make_frame(data, names=("a", "b")), 1, 1)
        assert fit.beta[0, 0] == pytest.approx(1.0)
        assert fit.beta[1, 0] == pytest.approx(-1.0, abs=0.05)

    def test_beta_spans_raw_eigenvector_space(self, panel69):
        # independent reduced-rank regression done with scipy only
        k = 2
        x = panel69.values
        t = len(panel69)
        dx = np.diff(x, axis=0)
        z0, z1 = dx[k - 1 :], x[k - 1 : t - 1]
        z2 = np.column_stack([np.ones(t - k), dx[: t - k]])
        q = z2 @ np.linalg.lstsq(z2, z0, rcond=None)[0]
        r0 = z0 - q
        r1 = z1 - z2 @ np.linalg.lstsq(z2, z1, rcond=None)[0]
        t_eff = t - k
        s00, s01, s11 = r0.T @ r0 / t_eff, r0.T @ r1 / t_eff, r1.T @ r1 / t_eff
        m = s01.T @ np.linalg.solve(s00, s01)
        vals, vecs = scipy.linalg.eigh(m, s11)
        raw = vecs[:, np.argsort(vals)[::-1]][:, :2]

        fit = fit_vecm(panel69, 2, 2)
        angles = scipy.linalg.subspace_angles(fit.beta, raw)
        assert np.max(angles) < 1e-7

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(2, 5),
        k=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_regression_matches_lstsq(self, seed, n_vars, k, data):
        """The regression read off the concentration's R equals a separate
        least-squares fit of z0 on [z1 beta, dX lags, 1], built here from the
        levels; at k = 1 that design is z1 beta and the constant alone."""
        r = data.draw(st.integers(1, n_vars - 1), label="r")
        rng = np.random.default_rng(seed)
        frame = make_frame(np.cumsum(rng.standard_normal((80, n_vars)), axis=0))
        fit = fit_vecm(frame, k, r)

        x, t = frame.values, len(frame)
        dx = np.diff(x, axis=0)
        z0 = dx[k - 1 :]
        lags = [dx[k - 1 - i : t - 1 - i] for i in range(1, k)]
        design = np.column_stack([x[k - 1 : t - 1] @ fit.beta, *lags, np.ones(t - k)])
        coef = np.linalg.lstsq(design, z0, rcond=None)[0]
        resid = z0 - design @ coef
        want = [coef[:r].T, coef[-1], resid, resid.T @ resid / (t - k)]
        want += [coef[r + n_vars * i : r + n_vars * (i + 1)].T for i in range(k - 1)]
        got = [fit.alpha, fit.const, fit.residuals, fit.sigma, *fit.gammas]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-10 * np.max(np.abs(w))

    @pytest.mark.parametrize("warm", [True, False])
    def test_one_least_squares_fit_per_panel(self, panel69, monkeypatch, warm):
        """A fit reads its regression off the concentration's factor, so a
        cold rank test and fit, or a cold fit alone, take one QR of a
        panel-length matrix."""
        calls = []
        real = np.linalg.qr

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        monkeypatch.setattr(vecm, "_searched", None)
        _concentration.cache_clear()
        if warm:
            johansen_trace(panel69, 2)
        fit_vecm(panel69, 2, 2)
        # the concentration's [1, dX_{t-1} | dX_t | X_{t-1}]
        assert [shape for shape in calls if shape[0] == 67] == [(67, 19)]

    def test_no_panel_length_qr_after_a_lag_search(self, panel69, monkeypatch):
        """After a lag search of the panel, the rank test and the fit factor
        no panel-length matrix: R comes off the search's kept factor."""
        monkeypatch.setattr(vecm, "_searched", None)
        _concentration.cache_clear()
        lag_order_selection(panel69, 4)
        calls = []
        real = np.linalg.qr

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        johansen_trace(panel69, 2)
        fit_vecm(panel69, 2, 2)
        assert calls and all(shape[0] < 60 for shape in calls)

    def test_serialization_roundtrip(self, panel69):
        fit = fit_vecm(panel69, 2, 2)
        again = from_jsonable(VecmFit, to_jsonable(fit))
        np.testing.assert_array_equal(again.beta, fit.beta)
        np.testing.assert_array_equal(
            forecast_vecm(again, 8).values, forecast_vecm(fit, 8).values
        )


def build_vecm_fit(alpha, beta, gammas, const, tail, names=None, sigma=None):
    k = beta.shape[0]
    lags = len(gammas) + 1
    return VecmFit(
        rank=beta.shape[1],
        names=tuple(names or (f"x{i + 1}" for i in range(k))),
        lags=lags,
        alpha=np.asarray(alpha, float),
        beta=np.asarray(beta, float),
        gammas=tuple(np.asarray(g, float) for g in gammas),
        const=np.asarray(const, float),
        residuals=np.zeros((12, k)),
        sigma=np.eye(k) if sigma is None else sigma,
        sample_start=vk.parse_quarter("2001Q1"),
        n_sample=12 + lags,
        tail=np.asarray(tail, float),
    )


def first_independent_rows_by_row(beta, r):
    """The row-by-row search: one rank check per candidate row."""
    selected = []
    for i in range(beta.shape[0]):
        if np.linalg.matrix_rank(beta[selected + [i], :]) == len(selected) + 1:
            selected.append(i)
            if len(selected) == r:
                return tuple(selected)
    raise SingularDesignError("cointegrating vectors do not have full column rank")


class TestFirstIndependentRows:
    @given(seed=st.integers(0, 2**32 - 1), n_vars=st.integers(2, 8), data=st.data())
    @settings(max_examples=200)
    def test_equals_row_by_row_search(self, seed, n_vars, data):
        """Integer rows, some replaced by exact integer combinations of
        earlier rows (zero rows included), so leading rows can be dependent
        and the rank of every subset is exact."""
        r = data.draw(st.integers(1, n_vars - 1), label="r")
        dependent = data.draw(
            st.lists(st.integers(0, n_vars - 1), unique=True, max_size=n_vars), label="dependent"
        )
        rng = np.random.default_rng(seed)
        beta = rng.integers(-4, 5, size=(n_vars, r)).astype(float)
        for i in sorted(dependent):
            beta[i] = rng.integers(-2, 3, size=i) @ beta[:i]
        try:
            want = first_independent_rows_by_row(beta, r)
        except SingularDesignError:
            with pytest.raises(SingularDesignError):
                _first_independent_rows(beta, r)
        else:
            assert _first_independent_rows(beta, r) == want


class TestLevelsConversion:
    def test_kept_on_the_fit(self, panel69):
        fit = fit_vecm(panel69, 2, 2)
        levels = vecm_to_levels_var(fit)
        assert vecm_to_levels_var(fit) is levels
        assert forecast_vecm(fit, 8) == forecast_var(levels, 8)

    def test_random_walk_case(self):
        fit = build_vecm_fit(
            alpha=np.zeros((2, 1)),
            beta=np.array([[1.0], [0.0]]),
            gammas=(),
            const=np.zeros(2),
            tail=np.ones((1, 2)),
        )
        var = vecm_to_levels_var(fit)
        np.testing.assert_array_equal(var.coef_matrices[0], np.eye(2))

    def test_differences_identity_case(self):
        # Pi = 0, Gamma_1 = 0.5 I, k = 2: A_1 = 1.5 I, A_2 = -0.5 I
        fit = build_vecm_fit(
            alpha=np.zeros((2, 1)),
            beta=np.array([[1.0], [0.0]]),
            gammas=(0.5 * np.eye(2),),
            const=np.zeros(2),
            tail=np.ones((2, 2)),
        )
        var = vecm_to_levels_var(fit)
        np.testing.assert_allclose(var.coef_matrices[0], 1.5 * np.eye(2))
        np.testing.assert_allclose(var.coef_matrices[1], -0.5 * np.eye(2))
        moduli = stability_moduli(var)
        assert np.sum(np.abs(moduli - 1.0) < 1e-9) == 2

    def test_three_lag_contract(self, rng):
        g1, g2 = 0.2 * rng.standard_normal((2, 2)), 0.1 * rng.standard_normal((2, 2))
        alpha = np.array([[-0.3], [0.2]])
        beta = np.array([[1.0], [-1.0]])
        fit = build_vecm_fit(alpha, beta, (g1, g2), np.zeros(2), np.ones((3, 2)))
        var = vecm_to_levels_var(fit)
        pi = alpha @ beta.T
        np.testing.assert_allclose(var.coef_matrices[0], pi + np.eye(2) + g1)
        np.testing.assert_allclose(var.coef_matrices[1], g2 - g1)
        np.testing.assert_allclose(var.coef_matrices[2], -g2)

    @given(seed=st.integers(0, 2**32 - 1), n_vars=st.integers(1, 5), k=st.integers(1, 4))
    @settings(max_examples=40)
    def test_lag_matrices_exact(self, seed, n_vars, k):
        """A_1 = Pi + I + Gamma_1 (Pi + I at k = 1), A_i = Gamma_i -
        Gamma_{i-1} and A_k = -Gamma_{k-1}, bit for bit."""
        rng = np.random.default_rng(seed)
        r = max(1, n_vars - 1)
        alpha, beta = rng.standard_normal((n_vars, r)), rng.standard_normal((n_vars, r))
        g = tuple(rng.standard_normal((n_vars, n_vars)) for _ in range(k - 1))
        fit = build_vecm_fit(alpha, beta, g, np.zeros(n_vars), np.ones((k, n_vars)))
        first = fit.pi + np.eye(n_vars)
        want = [first + g[0], *(g[i] - g[i - 1] for i in range(1, k - 1)), -g[-1]] if g else [first]
        got = vecm_to_levels_var(fit).coef_matrices
        assert len(got) == k
        for a, w in zip(got, want):
            np.testing.assert_array_equal(a, w)

    def test_path_equivalence_oracle(self, rng):
        # iterate the VECM equations directly, shocks included, and compare
        # against iterating the converted levels VAR on the same shocks
        fit = well_specified_vecm_fit(rng, k=3, r=1, n_gammas=2)
        var = vecm_to_levels_var(fit)
        k, lags = 3, fit.lags
        steps = 25
        shocks = rng.standard_normal((steps, k))
        hist = [row.copy() for row in fit.tail]
        pi = fit.pi
        for s in range(steps):
            dx = pi @ hist[-1] + fit.const + shocks[s]
            for i, g in enumerate(fit.gammas, start=1):
                dx += g @ (hist[-i] - hist[-i - 1])
            hist.append(hist[-1] + dx)
        vecm_path = np.array(hist[lags:])

        hist2 = [row.copy() for row in fit.tail]
        for s in range(steps):
            x = var.const + shocks[s]
            for i, a in enumerate(var.coef_matrices, start=1):
                x += a @ hist2[-i]
            hist2.append(x)
        var_path = np.array(hist2[lags:])
        np.testing.assert_allclose(vecm_path, var_path, atol=1e-10)

    def test_unit_root_count_on_well_specified_fits(self, rng):
        for k, r in ((2, 1), (3, 1), (4, 2), (6, 2)):
            fit = well_specified_vecm_fit(rng, k=k, r=r)
            moduli = stability_moduli(vecm_to_levels_var(fit))
            unit = np.sum(np.abs(moduli - 1.0) <= 1e-6)
            assert unit == k - r
            assert np.all(moduli[np.abs(moduli - 1.0) > 1e-6] < 1.0)


class TestForecastVecm:
    def test_random_walk_fit_is_flat(self):
        fit = build_vecm_fit(
            alpha=np.zeros((2, 1)),
            beta=np.array([[1.0], [0.0]]),
            gammas=(),
            const=np.zeros(2),
            tail=np.array([[3.0, -1.0]]),
        )
        fc = forecast_vecm(fit, 6)
        np.testing.assert_allclose(fc.values, np.tile([3.0, -1.0], (6, 1)))

    def test_pure_drift(self):
        mu = np.array([0.5, -0.25])
        fit = build_vecm_fit(
            alpha=np.zeros((2, 1)),
            beta=np.array([[1.0], [0.0]]),
            gammas=(),
            const=mu,
            tail=np.zeros((1, 2)),
        )
        fc = forecast_vecm(fit, 4)
        np.testing.assert_allclose(fc.values, np.outer(np.arange(1, 5), mu))

    def test_equals_forecast_of_conversion(self, rng):
        fit = well_specified_vecm_fit(rng, k=3, r=2)
        direct = forecast_vecm(fit, 12)
        composed = forecast_var(vecm_to_levels_var(fit), 12)
        np.testing.assert_allclose(direct.values, composed.values, atol=1e-10)

    def test_forecast_starts_after_sample(self, panel69):
        fit = fit_vecm(panel69, 4, 2)
        fc = forecast_vecm(fit, 20)
        assert fc.start == panel69.end.next()
        assert str(fc.start) == "2018Q2" and str(fc.end) == "2023Q1"
