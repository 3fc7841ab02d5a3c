import functools
import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import assume, given
from hypothesis import strategies as st

import vecmkit as vk
from vecmkit import (
    chi_square_sf,
    cholesky_lower,
    eigen_moduli,
    generalized_symmetric_eigen,
    ols,
)
from vecmkit.errors import (
    DegenerateInputError,
    DomainError,
    InsufficientDataError,
    NonNumericCellError,
    NotPositiveDefiniteError,
    SingularDesignError,
    VecmkitError,
)
from vecmkit.numerics import OlsFit

from conftest import cointegrated_panel, random_spd


def normal_equations_ols(y, x) -> np.ndarray:
    """(X'X)^-1 X'Y: the textbook form, as an oracle for the QR fit."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.linalg.solve(x.T @ x, x.T @ y)


class TestOls:
    def test_exact_fit(self):
        x = np.arange(1.0, 11.0).reshape(-1, 1)
        fit = ols(2.0 * x, x)
        assert fit.coefficients[0, 0] == pytest.approx(2.0)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)

    def test_intercept_only_gives_column_mean(self, rng):
        y = rng.standard_normal((30, 2))
        fit = ols(y, np.ones((30, 1)))
        np.testing.assert_allclose(fit.coefficients[0], y.mean(axis=0), rtol=1e-12)

    def test_against_normal_equations_oracle(self, rng):
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal((50, 2))
        fit = ols(y, x)
        np.testing.assert_allclose(fit.coefficients, normal_equations_ols(y, x), atol=1e-8)

    def test_residuals_orthogonal_to_regressors(self, rng):
        x = np.hstack([np.ones((80, 1)), rng.standard_normal((80, 4))])
        y = rng.standard_normal((80, 3))
        fit = ols(y, x)
        rel = np.linalg.norm(x.T @ fit.residuals) / np.linalg.norm(y)
        assert rel <= 1e-6

    def test_sigma_uses_ml_divisor(self, rng):
        x = rng.standard_normal((40, 2))
        y = rng.standard_normal((40, 2))
        fit = ols(y, x)
        np.testing.assert_allclose(fit.sigma, fit.residuals.T @ fit.residuals / 40, rtol=1e-12)

    def test_rank_deficiency(self, rng):
        col = rng.standard_normal((20, 1))
        x = np.hstack([col, 2.0 * col])
        with pytest.raises(SingularDesignError):
            ols(rng.standard_normal((20, 1)), x)

    def test_zero_column_is_rank_deficient(self, rng):
        x = np.hstack([np.ones((20, 1)), np.zeros((20, 1))])
        with pytest.raises(SingularDesignError, match=r"column pivot 1\)"):
            ols(rng.standard_normal((20, 1)), x)

    def test_pivot_weighed_against_its_own_column(self, rng):
        """A constant beside columns 1e15 times larger is not deficient:
        each pivot is compared with its own column's norm."""
        x = np.hstack([np.ones((40, 1)), 1e15 * rng.standard_normal((40, 2))])
        y = rng.standard_normal((40, 1))
        fit = ols(y, x)
        np.testing.assert_allclose(fit.coefficients, normal_equations_ols(y, x), rtol=1e-6)

    @pytest.mark.parametrize("scale", [1e15, 3e26, 1e30, 1e100], ids=str)
    def test_study_fits_at_scale(self, panel69, scale):
        """The study's estimators fit the test panel in much larger units,
        with the unscaled lag picks, rank and AIC stage-3 lag; from 3e26 on
        FPE is beyond float range, so the search picks it by its logarithm."""
        scaled = vk.Frame(panel69.start, panel69.names, panel69.values * scale)
        vk.adf_test(scaled.column("price"), 2)
        vk.fit_var(scaled, 2)
        vk.fit_vecm(scaled, 2, 2)
        scenario = vk.ShockScenario("exchange_rate", 1.15, panel69.end.next())
        picks = [
            (
                vk.lag_order_selection(frame, 4).selected,
                vk.select_rank(vk.johansen_trace(frame, 2)),
                vk.run_three_stage(frame, scenario).audit["stage3"]["lag_order"],
            )
            for frame in (panel69, scaled)
        ]
        assert picks[1] == picks[0]

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            ols(np.ones((3, 1)), np.ones((3, 3)))

    def test_log_likelihood_matches_formula(self, rng):
        x = rng.standard_normal((60, 2))
        y = rng.standard_normal((60, 2))
        fit = ols(y, x)
        t, k = 60, 2
        expected = -(t / 2) * (k * math.log(2 * math.pi) + k + np.linalg.slogdet(fit.sigma)[1])
        assert fit.log_likelihoods([2])[0] == pytest.approx(expected, rel=1e-12)

    def test_exact_fit_log_likelihood_errors_not_inf(self):
        x = np.arange(1.0, 11.0).reshape(-1, 1)
        fit = ols(2.0 * x, x)
        with pytest.raises(DegenerateInputError):
            fit.log_likelihoods([1])

    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 6),
        extra_rows=st.integers(1, 60),
    )
    def test_exact_fit_is_degenerate_for_any_design(self, seed, width, extra_rows):
        rng = np.random.default_rng(seed)
        t = width + extra_rows
        x = np.hstack([np.ones((t, 1)), rng.standard_normal((t, width - 1))])
        with pytest.raises(DegenerateInputError):
            ols(2.0 * x, x).log_likelihoods([width])

    def test_caller_writes_after_the_fit_change_nothing(self, rng):
        x = rng.standard_normal((50, 4))
        y = rng.standard_normal((50, 2))
        want = ols(np.array(y), np.array(x))
        fit = ols(y, x)
        x[:, 1] *= 3.0
        y[:] = 0.0
        for got, ref in (
            (fit.residuals, want.residuals),
            (fit.coefficients, want.coefficients),
            (fit.sigma, want.sigma),
        ):
            assert got.tobytes() == ref.tobytes()

    def test_fit_arrays_are_read_only(self, rng):
        fit = ols(rng.standard_normal((50, 2)), rng.standard_normal((50, 4)))
        for array in (fit.sigma, fit.coefficients, fit.residuals, fit.r):
            with pytest.raises(ValueError):
                array[:] = 4 * array

    def test_fit_built_on_writable_arrays_makes_them_read_only(self, rng):
        xy = rng.standard_normal((50, 6))
        r = np.linalg.qr(xy, mode="r")
        fit = OlsFit(xy, r, 4)
        for array in (xy, r, fit.augmented_r):
            with pytest.raises(ValueError):
                array[:] = 4 * array


def assert_rel(got, want, rel):
    """Normwise relative agreement, so entries near zero are judged on the
    scale of the whole array."""
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


class TestOlsFromR:
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 9),
        n_eq=st.integers(1, 6),
        extra_rows=st.integers(0, 60),
    )
    def test_sigma_is_residual_cross_product(self, seed, width, n_eq, extra_rows):
        # extra_rows < n_eq leaves fewer rows than columns of [X | Y], where
        # R is trapezoidal and its trailing block has T - m rows
        rng = np.random.default_rng(seed)
        t = width + 1 + extra_rows
        x = np.hstack([np.ones((t, 1)), rng.standard_normal((t, width - 1))])
        y = rng.standard_normal((t, n_eq))
        fit = ols(y, x)
        assert_rel(fit.sigma, fit.residuals.T @ fit.residuals / t, 1e-10)
        np.testing.assert_array_equal(fit.sigma, fit.sigma.T)

    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 9), n_eq=st.integers(1, 4))
    def test_r_is_the_triangular_factor_of_the_design(self, seed, width, n_eq):
        rng = np.random.default_rng(seed)
        x = np.hstack([np.ones((40, 1)), rng.standard_normal((40, width - 1))])
        fit = ols(rng.standard_normal((40, n_eq)), x)
        np.testing.assert_array_equal(fit.r, np.triu(fit.r))
        assert_rel(fit.r.T @ fit.r, x.T @ x, 1e-12)


class TestOlsLeading:
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 9),
        n_eq=st.integers(1, 4),
        extra_rows=st.integers(1, 60),
    )
    def test_matches_ols_on_each_slice(self, seed, width, n_eq, extra_rows):
        """The sigma and log likelihood of each leading width, read off the
        widest fit's R, match a separate fit on that slice."""
        rng = np.random.default_rng(seed)
        t = width + extra_rows + n_eq
        x = np.hstack([np.ones((t, 1)), rng.standard_normal((t, width - 1))])
        y = rng.standard_normal((t, n_eq))
        full = ols(y, x)
        widths = range(1, width + 1)
        lls = full.log_likelihoods(widths)
        for m, ll in zip(widths, lls):
            direct = ols(y, x[:, :m])
            np.testing.assert_allclose(full._sigma(m), direct.sigma, rtol=1e-10, atol=1e-10)
            assert ll == pytest.approx(direct.log_likelihoods([m])[0], rel=1e-10)

    def test_design_singular_beyond_m(self, rng):
        m = 3
        good = np.hstack([np.ones((40, 1)), rng.standard_normal((40, m - 1))])
        x = np.hstack([good, 2.0 * good[:, 1:2] - good[:, 2:3], rng.standard_normal((40, 1))])
        y = rng.standard_normal((40, 2))
        fits = ols(y, x[:, :m])
        for w in range(1, m + 1):
            np.testing.assert_allclose(fits._sigma(w), ols(y, x[:, :w]).sigma, atol=1e-10)
        for w in range(m + 1, x.shape[1] + 1):
            with pytest.raises(SingularDesignError):
                ols(y, x[:, :w])


def cholesky_loop_oracle(a) -> np.ndarray:
    """Column-by-column Cholesky, the library's own factor before LAPACK."""
    n = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(n):
        lower[j, j] = math.sqrt(a[j, j] - lower[j, :j] @ lower[j, :j])
        lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_lower(np.eye(3)), np.eye(3))

    def test_worked_example(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        lower = cholesky_lower(a)
        np.testing.assert_allclose(lower, [[2.0, 0.0], [1.0, math.sqrt(2.0)]], rtol=1e-12)
        np.testing.assert_allclose(lower @ lower.T, a, rtol=1e-12)

    def test_indefinite_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert err.value.pivot == 1

    def test_later_failing_pivot_reported(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_lower(np.diag([2.0, 1.0, -1.0]))
        assert err.value.pivot == 2

    def test_healthy_input_is_lapacks_factor(self, rng):
        single = random_spd(rng, 6)
        stack = np.stack([random_spd(rng, 12) for _ in range(7)])
        for a in (0.5 * (single + single.T), 0.5 * (stack + np.swapaxes(stack, -1, -2))):
            assert cholesky_lower(a).tobytes() == np.linalg.cholesky(a).tobytes()

    def test_pivot_within_tolerance_rejected(self):
        # LAPACK factors this matrix; the PIVOT_TOL test still rejects it
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_lower(np.diag([1.0, 1e-13]))
        assert err.value.pivot == 1

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    def test_matches_loop_on_random_spd(self, seed, n):
        a = random_spd(np.random.default_rng(seed), n)
        a = 0.5 * (a + a.T)
        expected = cholesky_loop_oracle(a)
        err = np.linalg.norm(cholesky_lower(a) - expected) / np.linalg.norm(expected)
        assert err <= 1e-12

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        shape=st.sampled_from([(), (3,), (2, 2)]),
    )
    def test_factors_the_symmetric_part(self, seed, n, shape):
        """An exactly symmetric input is its own symmetric part, so its
        factor is LAPACK's of 0.5 (A + A') bit for bit; a nearly symmetric
        input, perturbed above the diagonal only (LAPACK reads the lower
        triangle), is still symmetrized before it is factored."""
        rng = np.random.default_rng(seed)
        a = np.empty((*shape, n, n))
        for index in np.ndindex(shape):
            a[index] = random_spd(rng, n, scale=10.0 ** rng.uniform(-3, 3))
        a = 0.5 * (a + np.swapaxes(a, -1, -2))
        near = a + np.triu(a * rng.uniform(-1e-10, 1e-10, a.shape), 1)
        for m in (a, near):
            want = np.linalg.cholesky(0.5 * (m + np.swapaxes(m, -1, -2)))
            assert cholesky_lower(m).tobytes() == want.tobytes()

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            cholesky_lower(np.array([[1.0, 0.5], [0.0, 1.0]]))
        stack = np.stack([np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])])
        with pytest.raises(DomainError):
            cholesky_lower(stack)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        shape=st.sampled_from([(1,), (7,), (2, 3)]),
    )
    def test_stack_slices_equal_single_calls(self, seed, n, shape):
        rng = np.random.default_rng(seed)
        stack = np.empty((*shape, n, n))
        for index in np.ndindex(shape):
            stack[index] = random_spd(rng, n, scale=10.0 ** rng.uniform(-3, 3))
        stack = 0.5 * (stack + np.swapaxes(stack, -1, -2))
        lower = cholesky_lower(stack)
        assert lower.shape == stack.shape
        for index in np.ndindex(shape):
            assert lower[index].tobytes() == cholesky_lower(stack[index]).tobytes()

    @pytest.mark.parametrize(
        "bad",
        [np.diag([2.0, 1.0, -1.0]), np.diag([1.0, 1.0, 1e-13])],
        ids=["lapack-fails", "pivot-within-tolerance"],
    )
    @pytest.mark.parametrize("j", [0, 2, 4])
    def test_stack_names_failing_slice(self, bad, j):
        stack = np.stack([(i + 1.0) * np.eye(3) for i in range(5)])
        stack[j] = bad
        with pytest.raises(NotPositiveDefiniteError, match=rf"\(slice {j}\): pivot 2 ") as err:
            cholesky_lower(stack)
        assert err.value.pivot == 2

    def test_stack_names_first_failing_slice(self):
        """Slices are checked in row-major order, whichever way each fails:
        LAPACK fails on the negative pivot, and 1e-13 is within PIVOT_TOL."""
        eye, small, negative = np.eye(3), np.diag([1.0, 1e-13, 1.0]), np.diag([-1.0, 1.0, 1.0])
        for stack, match in (
            ([eye, small, negative], r"\(slice 1\): pivot 1 "),
            ([[eye, eye], [negative, small]], r"\(slice 1, 0\): pivot 0 "),
            ([[eye, small], [negative, eye]], r"\(slice 0, 1\): pivot 1 "),
        ):
            with pytest.raises(NotPositiveDefiniteError, match=match):
                cholesky_lower(np.array(stack))

    def test_reconstruction_on_random_spd(self, rng):
        for k in (2, 3, 5, 8):
            a = random_spd(rng, k)
            lower = cholesky_lower(a)
            assert np.all(np.diag(lower) > 0)
            err = np.linalg.norm(lower @ lower.T - a) / np.linalg.norm(a)
            assert err <= 1e-10


class TestGeneralizedEigen:
    def test_identity_b_reduces_to_standard(self):
        values, _ = generalized_symmetric_eigen(np.diag([2.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(values, [2.0, 1.0], rtol=1e-12)

    def test_a_equals_b(self, rng):
        a = random_spd(rng, 4)
        values, _ = generalized_symmetric_eigen(a, a)
        np.testing.assert_allclose(values, 1.0, rtol=1e-10)

    def test_residual_identity(self, rng):
        a = rng.standard_normal((5, 5))
        a = 0.5 * (a + a.T)
        b = random_spd(rng, 5)
        values, vectors = generalized_symmetric_eigen(a, b)
        assert vectors.shape == (5, 5)
        for lam, v in zip(values, vectors.T):
            assert np.linalg.norm(a @ v - lam * (b @ v)) <= 1e-8 * max(1.0, np.linalg.norm(v))

    def test_matches_scipy_oracle(self, rng):
        a = rng.standard_normal((4, 4))
        a = 0.5 * (a + a.T)
        b = random_spd(rng, 4)
        values, _ = generalized_symmetric_eigen(a, b)
        oracle = np.sort(scipy.linalg.eigh(a, b, eigvals_only=True))[::-1]
        np.testing.assert_allclose(values, oracle, atol=1e-10)

    def test_matches_b_inverse_a_oracle(self, rng):
        a = rng.standard_normal((3, 3))
        a = 0.5 * (a + a.T)
        b = random_spd(rng, 3)
        values, _ = generalized_symmetric_eigen(a, b)
        oracle = np.sort(np.real(np.linalg.eigvals(np.linalg.solve(b, a))))[::-1]
        np.testing.assert_allclose(values, oracle, atol=1e-9)

    def test_descending_order(self, rng):
        a = rng.standard_normal((6, 6))
        a = 0.5 * (a + a.T)
        values, _ = generalized_symmetric_eigen(a, random_spd(rng, 6))
        assert np.all(np.diff(values) <= 1e-12)

    def test_b_not_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            generalized_symmetric_eigen(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestChiSquareSf:
    def test_at_zero(self):
        for df in (1, 4, 36):
            assert chi_square_sf(0.0, df) == 1.0

    def test_published_p_values(self):
        assert chi_square_sf(33.8489, 36) == pytest.approx(0.5713, abs=5e-4)
        assert chi_square_sf(46.3709, 36) == pytest.approx(0.1154, abs=5e-4)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("a", 1), "chi-square needs a real statistic"),
            ((1.0, "a"), "chi-square needs a real statistic"),
            ((1.0, float("nan")), "degrees of freedom must be a positive integer"),
            ((1.0, math.inf), "degrees of freedom must be a positive integer"),
        ],
    )
    def test_non_real_arguments_raise_domain_error(self, args, message):
        with pytest.raises(DomainError, match=f"^{message}"):
            chi_square_sf(*args)

    @given(
        x=st.floats(0.0, 200.0),
        df=st.integers(min_value=1, max_value=60),
    )
    def test_complements_cdf(self, x, df):
        assert chi_square_sf(x, df) + scipy.stats.chi2.cdf(x, df) == pytest.approx(1.0, abs=1e-9)

    @given(df=st.integers(min_value=1, max_value=40))
    def test_monotone_decreasing(self, df):
        xs = np.linspace(0.0, 120.0, 60)
        values = [chi_square_sf(x, df) for x in xs]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_never_rises_on_a_dense_grid(self):
        """Near Q = 1 the tail is 1 - P: a downward sum of Q there rises
        and passes 1 at ulp level, which a coarse grid misses."""
        for df in range(1, 145):
            xs = np.linspace(0.0, 4.0 * df + 100.0, 4000).tolist()
            values = [chi_square_sf(x, df) for x in xs]
            assert values[0] == 1.0
            assert all(a >= b for a, b in zip(values, values[1:])), df

    @given(df=st.integers(1, 300), deviate=st.floats(-5.0, 5.0))
    def test_relative_error_against_scipy(self, df, deviate):
        """x = df e^(0.7 deviate): a lognormal spread about the mean, with
        the tail kept where it is at least 1e-290."""
        x = df * math.exp(0.7 * deviate)
        expected = float(scipy.stats.chi2.sf(x, df))
        assume(expected >= 1e-290)
        assert chi_square_sf(x, df) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_against_scipy_grid(self):
        for df in (1, 2, 5, 12, 36, 100):
            for x in (0.01, 0.5, 3.0, 17.2, 80.0, 250.0):
                assert chi_square_sf(x, df) == pytest.approx(
                    float(scipy.stats.chi2.sf(x, df)), abs=1e-12
                )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi_square_sf(-1.0, 3)
        with pytest.raises(DomainError):
            chi_square_sf(1.0, 0)


class TestEigenModuli:
    def test_diagonal(self):
        np.testing.assert_allclose(eigen_moduli(np.diag([0.5, -0.25])), [0.5, 0.25])

    def test_rotation_has_unit_moduli(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(eigen_moduli(rot), [1.0, 1.0], rtol=1e-12)

    def test_companion_roots(self):
        # roots of z^2 - 1.5 z + 0.5 are 1 and 0.5
        companion = np.array([[1.5, -0.5], [1.0, 0.0]])
        np.testing.assert_allclose(eigen_moduli(companion), [1.0, 0.5], rtol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            eigen_moduli(np.ones((2, 3)))


def _outside_inputs():
    """Each public entry point that takes an array from outside: the call,
    a valid input for it, the error a bad input raises and the name the
    message gives that input."""
    rng = np.random.default_rng(3)
    y, x = rng.standard_normal((20, 2)), np.column_stack([np.ones(20), np.arange(20.0)])
    spd = random_spd(rng, 3)
    u = rng.standard_normal((80, 2))
    design = np.column_stack([np.ones(80), rng.standard_normal(80)])
    start = vk.parse_quarter("2001Q1")
    return {
        "ols Y": (lambda a: ols(a, x), y, DomainError, "Y"),
        "ols X": (lambda a: ols(y, a), x, DomainError, "X"),
        "cholesky_lower": (cholesky_lower, spd, DomainError, "A"),
        "generalized_symmetric_eigen A": (
            lambda a: generalized_symmetric_eigen(a, spd), spd, DomainError, "A"
        ),
        "generalized_symmetric_eigen B": (
            lambda a: generalized_symmetric_eigen(spd, a), spd, DomainError, "B"
        ),
        "eigen_moduli": (eigen_moduli, spd, DomainError, "A"),
        "lm_autocorrelation residuals": (
            lambda a: vk.lm_autocorrelation(a, 1, design), u, DomainError, "residuals"
        ),
        "lm_autocorrelation design": (
            lambda a: vk.lm_autocorrelation(u, 1, a), design, DomainError, "design"
        ),
        "normality_suite": (vk.normality_suite, u, DomainError, "residuals"),
        "adf_test": (lambda a: vk.adf_test(a, 1), np.cumsum(u[:, 0]), DomainError, "series"),
        "trace_statistics": (
            lambda a: vk.trace_statistics(a, 10), np.array([0.5, 0.1]), DomainError, "eigenvalues"
        ),
        "Frame": (lambda a: vk.Frame(start, ("a", "b"), a), u, NonNumericCellError, "values"),
        "Series": (lambda a: vk.Series("s", start, a), u[:, 0], NonNumericCellError, "values"),
    }


class TestOutsideArrays:
    """Every array from outside goes through one converter, so a bad cell
    raises a typed error naming the input, never numpy's own."""

    # a complex cell comes as a complex array, or as a NumPy complex scalar
    # in an object array, either of which a cast to float would truncate to
    # its real part
    @pytest.mark.parametrize(
        "cell, dtype",
        [
            pytest.param("a", object, id="a"),
            pytest.param(np.nan, object, id="nan"),
            pytest.param(2 + 1j, complex, id="(2+1j)"),
            pytest.param(np.complex128(2 + 1j), object, id="complex128 in object array"),
        ],
    )
    @pytest.mark.parametrize("entry", sorted(_outside_inputs()))
    def test_bad_cell_raises_typed_error(self, entry, cell, dtype):
        call, good, error, name = _outside_inputs()[entry]
        call(good)  # the valid input passes
        bad = good.astype(dtype)
        bad.flat[1] = cell
        with pytest.raises(error, match=f"^{name} ") as err:
            call(bad)
        assert isinstance(err.value, VecmkitError)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ols([["a"]], [[1.0]]),
            lambda: cholesky_lower(object()),
            lambda: eigen_moduli([[1.0, 2.0], [3.0]]),
            lambda: vk.adf_test(vk.Series("p", vk.parse_quarter("2001Q1"), np.arange(20.0)), 2),
            lambda: vk.trace_statistics([np.nan, 0.1], 10),
            lambda: vk.normality_suite(np.ones((10, 2, 2))),
            lambda: vk.normality_suite(np.ones(20)),
        ],
        ids=[
            "string cell", "object", "ragged", "series object", "nan eigenvalue", "3-d residuals",
            "1-d residuals",
        ],
    )
    def test_non_array_input_raises_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


@functools.lru_cache(maxsize=1)
def _count_subjects():
    """A panel, its VAR(2) and rank-2 VECM fits, residuals and a walk: what
    the count entry points below are called on."""
    frame = cointegrated_panel()
    u = np.random.default_rng(3).standard_normal((80, 2))
    return frame, vk.fit_var(frame, 2), vk.fit_vecm(frame, 2, 2), u, np.cumsum(u[:, 0])


def _scenario(**counts):
    frame = _count_subjects()[0]
    return vk.ShockScenario("exchange_rate", 1.15, frame.end.next(), **counts)


# entry point -> (the call on a count, a valid count, the name its errors give)
_COUNT_INPUTS = {
    "fit_var": (lambda n: vk.fit_var(_count_subjects()[0], n), 2, "lag order"),
    "lag_order_selection": (lambda n: vk.lag_order_selection(_count_subjects()[0], n), 2, "max_lag"),
    "johansen_trace": (lambda n: vk.johansen_trace(_count_subjects()[0], n), 2, "lag order"),
    "fit_vecm k": (lambda n: vk.fit_vecm(_count_subjects()[0], n, 2), 2, "lag order"),
    "fit_vecm r": (lambda n: vk.fit_vecm(_count_subjects()[0], 2, n), 2, "rank"),
    "forecast_var": (lambda n: vk.forecast_var(_count_subjects()[1], n), 4, "horizon"),
    "forecast_vecm": (lambda n: vk.forecast_vecm(_count_subjects()[2], n), 4, "horizon"),
    "ma_coefficients": (lambda n: vk.ma_coefficients(_count_subjects()[1], n), 4, "horizon"),
    "orthogonalized_irfs": (
        lambda n: vk.orthogonalized_irfs(_count_subjects()[1], n, "output"), 4, "horizon"
    ),
    "lm_autocorrelation": (lambda n: vk.lm_autocorrelation(_count_subjects()[3], n), 1, "lag"),
    "adf_test": (lambda n: vk.adf_test(_count_subjects()[4], n), 1, "lags"),
    "normality_suite": (lambda n: vk.normality_suite(_count_subjects()[3], n_eff=n), 40, "n_eff"),
    "information_criteria lag": (lambda n: vk.information_criteria(-500.0, n, 4, 40), 2, "lag"),
    "information_criteria n_vars": (lambda n: vk.information_criteria(-500.0, 2, n, 40), 4, "n_vars"),
    "information_criteria t_eff": (lambda n: vk.information_criteria(-500.0, 2, 4, n), 40, "t_eff"),
    "trace_statistics": (lambda n: vk.trace_statistics(np.array([0.5, 0.1]), n), 10, "t_eff"),
    **{
        f"ShockScenario {name}": (lambda n, name=name: _scenario(**{name: n}), 1, name)
        for name in ("horizon", "vecm_lags", "rank", "stage2_lags", "stage3_lags", "exog_lags")
    },
}
# None asks for the default here, so it is a valid value
_NONE_ACCEPTED = {"normality_suite", "ShockScenario stage2_lags", "ShockScenario stage3_lags"}


class TestOutsideCounts:
    """Every count from outside goes through one check, so a fraction, a
    string, NaN or None raises ``DomainError`` naming the count, never
    Python's own ``TypeError``, and a whole float is taken as its int."""

    @pytest.mark.parametrize(
        "entry, bad",
        [
            (entry, bad)
            for entry in sorted(_COUNT_INPUTS)
            for bad in (2.5, "2", math.nan, None)
            if not (bad is None and entry in _NONE_ACCEPTED)
        ],
    )
    def test_non_integer_raises_domain_error(self, entry, bad):
        call, good, name = _COUNT_INPUTS[entry]
        call(good)
        call(float(good))
        call(np.int64(good))
        with pytest.raises(DomainError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            call(bad)

    def test_whole_float_is_kept_as_int(self):
        frame = _count_subjects()[0]
        assert vk.johansen_trace(frame, 2.0).lags == 2 and type(vk.fit_vecm(frame, 2.0, 2.0).lags) is int
        scenario = _scenario(horizon=8.0, stage3_lags=np.int64(2))
        assert (type(scenario.horizon), type(scenario.stage3_lags)) == (int, int)
