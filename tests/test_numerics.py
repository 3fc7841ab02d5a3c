import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

import vecmkit as vk
from vecmkit import (
    chi_square_sf,
    cholesky_lower,
    eigen_moduli,
    generalized_symmetric_eigen,
    log_det,
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
from vecmkit.formatting import from_jsonable
from vecmkit.numerics import OlsFit

from conftest import random_spd


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

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            ols(np.ones((3, 1)), np.ones((3, 3)))

    def test_log_likelihood_matches_formula(self, rng):
        x = rng.standard_normal((60, 2))
        y = rng.standard_normal((60, 2))
        fit = ols(y, x)
        t, k = 60, 2
        expected = -(t / 2) * (k * math.log(2 * math.pi) + k + log_det(fit.sigma))
        assert fit.log_likelihood == pytest.approx(expected, rel=1e-12)

    def test_exact_fit_log_likelihood_errors_not_inf(self):
        x = np.arange(1.0, 11.0).reshape(-1, 1)
        fit = ols(2.0 * x, x)
        with pytest.raises(DegenerateInputError):
            fit.log_likelihood

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
            ols(2.0 * x, x).log_likelihood

    def test_caller_writes_after_the_fit_change_nothing(self, rng):
        x = rng.standard_normal((50, 4))
        y = rng.standard_normal((50, 2))
        want = ols(np.array(y), np.array(x)[:, :2])
        fit = ols(y, x)
        x[:, 1] *= 3.0
        y[:] = 0.0
        nested = fit.leading(2)
        for got, ref in (
            (nested.residuals, want.residuals),
            (nested.coefficients, want.coefficients),
            (nested.sigma, want.sigma),
        ):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_fit_arrays_are_read_only(self, rng):
        fit = ols(rng.standard_normal((50, 2)), rng.standard_normal((50, 4)))
        for fit_ in (fit, fit.leading(2)):
            for array in (fit_.sigma, fit_.coefficients, fit_.residuals, fit_.r):
                with pytest.raises(ValueError):
                    array[:] = 4 * array

    def test_fit_built_on_writable_arrays_makes_them_read_only(self, rng):
        xy = rng.standard_normal((50, 6))
        r = np.linalg.qr(xy, mode="r")
        fit = OlsFit(xy, r, 4, 4)
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
        rng = np.random.default_rng(seed)
        t = width + extra_rows + n_eq
        x = np.hstack([np.ones((t, 1)), rng.standard_normal((t, width - 1))])
        y = rng.standard_normal((t, n_eq))
        full = ols(y, x)
        for m in range(1, width + 1):
            nested = full.leading(m)
            direct = ols(y, x[:, :m])
            for a, b in (
                (nested.coefficients, direct.coefficients),
                (nested.residuals, direct.residuals),
                (nested.sigma, direct.sigma),
            ):
                np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10)
            assert nested.log_likelihood == pytest.approx(direct.log_likelihood, rel=1e-10)

    def test_design_singular_beyond_m(self, rng):
        m = 3
        good = np.hstack([np.ones((40, 1)), rng.standard_normal((40, m - 1))])
        x = np.hstack([good, 2.0 * good[:, 1:2] - good[:, 2:3], rng.standard_normal((40, 1))])
        y = rng.standard_normal((40, 2))
        fits = ols(y, x[:, :m])
        for w in range(1, m + 1):
            np.testing.assert_allclose(
                fits.leading(w).coefficients, ols(y, x[:, :w]).coefficients, atol=1e-10
            )
        for w in range(m + 1, x.shape[1] + 1):
            with pytest.raises(SingularDesignError):
                ols(y, x[:, :w])

    def test_width_out_of_range(self, rng):
        fit = ols(rng.standard_normal((20, 1)), rng.standard_normal((20, 3)))
        for m in (0, 4):
            with pytest.raises(DomainError):
                fit.leading(m)


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
        lower, lds = cholesky_lower(stack), log_det(stack)
        assert lower.shape == stack.shape and lds.shape == shape
        for index in np.ndindex(shape):
            assert lower[index].tobytes() == cholesky_lower(stack[index]).tobytes()
            assert lds[index] == log_det(stack[index])

    @pytest.mark.parametrize(
        "bad",
        [np.diag([2.0, 1.0, -1.0]), np.diag([1.0, 1.0, 1e-13])],
        ids=["lapack-fails", "pivot-within-tolerance"],
    )
    @pytest.mark.parametrize("j", [0, 2, 4])
    def test_stack_names_failing_slice(self, bad, j):
        stack = np.stack([(i + 1.0) * np.eye(3) for i in range(5)])
        stack[j] = bad
        for call in (cholesky_lower, log_det):
            with pytest.raises(NotPositiveDefiniteError, match=rf"\(slice {j}\): pivot 2 ") as err:
                call(stack)
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


class TestLogDet:
    def test_identity(self):
        assert log_det(np.eye(4)) == pytest.approx(0.0)

    def test_diag_e(self):
        assert log_det(np.diag([math.e, math.e])) == pytest.approx(2.0)

    def test_eigenvalue_oracle(self, rng):
        a = random_spd(rng, 4)
        oracle = float(np.sum(np.log(np.linalg.eigvalsh(a))))
        assert log_det(a) == pytest.approx(oracle, abs=1e-8)


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
        "log_det": (log_det, spd, DomainError, "A"),
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
        "from_jsonable": (
            lambda a: from_jsonable(
                vk.StabilityReport,
                {"moduli": a.tolist(), "unit_count": 1, "expected_unit_count": 1, "passed": True},
            ),
            np.array([1.0, 0.5]),
            DomainError,
            "artifact array",
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
        ],
        ids=["string cell", "object", "ragged", "series object", "nan eigenvalue", "3-d residuals"],
    )
    def test_non_array_input_raises_domain_error(self, call):
        with pytest.raises(DomainError):
            call()
