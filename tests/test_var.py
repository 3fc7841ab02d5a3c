import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vecmkit as vk
from vecmkit import (
    VarFit,
    companion_matrix,
    fit_var,
    forecast_var,
    stability_moduli,
)
from vecmkit.errors import CoverageError, InsufficientDataError, MissingColumnError
from vecmkit.formatting import from_jsonable, to_jsonable
from vecmkit.numerics import ols

from vecmkit import var

from conftest import (
    make_frame,
    random_stable_var,
    random_stable_var1,
    simulate_var,
    well_specified_vecm_fit,
)


def z_frame(values, start="2001Q1"):
    """One exogenous column named z, from ``start`` (a label or quarter)."""
    return make_frame(values, start=str(start), names=("z",))


def scalar_fit(a, c=0.0, last=1.0, sigma=1.0, p=1, coefs=None):
    """Hand-built scalar VarFit for forecasting identities."""
    mats = tuple(np.array([[v]]) for v in (coefs if coefs is not None else [a]))
    p = len(mats)
    return VarFit(
        p=p,
        names=("x",),
        coef_matrices=mats,
        const=np.array([c]),
        residuals=np.zeros((10, 1)),
        sigma=np.array([[sigma]]),
        sample_start=vk.parse_quarter("2001Q1"),
        n_sample=10,
        tail=np.full((p, 1), last),
    )


class TestFitVar:
    def test_exact_recovery_noise_free(self):
        x = [1.0]
        for _ in range(30):
            x.append(0.5 * x[-1] + 1.0)  # keep the path moving so the design has rank
        frame = make_frame(x)
        fit = fit_var(frame, 1)
        assert fit.coef_matrices[0][0, 0] == pytest.approx(0.5, abs=1e-9)
        assert fit.const[0] == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-9)

    def test_white_noise_slopes_within_three_se(self, rng):
        t, k = 1000, 2
        data = rng.standard_normal((t, k))
        frame = make_frame(data, names=("a", "b"))
        fit = fit_var(frame, 1)
        # classical per-equation standard errors, computed independently
        design = np.hstack([np.ones((t - 1, 1)), data[:-1]])
        xtx_inv = np.linalg.inv(design.T @ design)
        for eq in range(k):
            resid = fit.residuals[:, eq]
            s2 = resid @ resid / (t - 1 - design.shape[1])
            se = np.sqrt(s2 * np.diag(xtx_inv))[1:]
            assert np.all(np.abs(fit.coef_matrices[0][eq]) < 3.0 * se)

    def test_consistency_on_simulated_var1(self, rng):
        a = np.array([[0.5, 0.2], [-0.1, 0.3]])
        data = simulate_var((a,), np.array([1.0, -0.5]), np.eye(2), 2000, rng)
        fit = fit_var(make_frame(data, names=("a", "b")), 1)
        np.testing.assert_allclose(fit.coef_matrices[0], a, atol=0.05)

    def test_identifiability_guard(self):
        with pytest.raises(InsufficientDataError):
            fit_var(make_frame(np.ones((8, 3)) + np.arange(8)[:, None]), 2)

    def test_residual_count(self, panel69):
        fit = fit_var(panel69, 4)
        assert fit.residuals.shape == (65, 6)

    def test_zero_exog_leaves_coefficients_unchanged(self, rng):
        data = simulate_var(
            (np.array([[0.4, 0.1], [0.0, 0.5]]),), np.zeros(2), np.eye(2), 120, rng
        )
        frame = make_frame(data, names=("a", "b"))
        plain = fit_var(frame, 1)
        with_zero = fit_var(frame, 1, exog=z_frame(np.zeros((120, 1))))
        np.testing.assert_allclose(
            with_zero.coef_matrices[0], plain.coef_matrices[0], atol=1e-10
        )
        np.testing.assert_allclose(with_zero.const, plain.const, atol=1e-10)

    def test_exog_coefficient_recovery(self, rng):
        t = 300
        z = rng.standard_normal((t, 1))
        x = np.zeros((t, 1))
        for s in range(1, t):
            x[s] = 0.5 * x[s - 1] + 2.0 * z[s]
        fit = fit_var(make_frame(x), 1, exog=z_frame(z))
        assert fit.exog_coef[0, 0] == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("start, rows", [("2000Q4", 61), ("2001Q1", 59)])
    def test_exog_frame_must_cover_the_sample_from_its_start(self, rng, start, rows):
        # one quarter early (the rows shift by one), or one row short
        frame = make_frame(rng.standard_normal((60, 2)))
        with pytest.raises(CoverageError, match="sample needs 2001Q1..2015Q4"):
            fit_var(frame, 1, exog=z_frame(rng.standard_normal((rows, 1)), start))

    def test_serialization_roundtrip(self, panel69):
        fit = fit_var(panel69, 2)
        again = from_jsonable(VarFit, to_jsonable(fit))
        np.testing.assert_array_equal(again.coef_matrices[0], fit.coef_matrices[0])
        np.testing.assert_array_equal(again.sigma, fit.sigma)
        assert again.sample_start == fit.sample_start
        np.testing.assert_array_equal(
            forecast_var(again, 5).values, forecast_var(fit, 5).values
        )


class TestReadOnly:
    def test_in_place_write_raises(self, panel69):
        fit = fit_var(panel69, 2)
        for array in (fit.const, fit.residuals, fit.sigma, fit.tail, fit.exog_coef, *fit.coef_matrices):
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_arrays_kept_not_copied(self):
        fit = scalar_fit(0.5)
        sigma = np.array([[2.0]])
        again = VarFit(**{**vars(fit), "sigma": sigma})
        assert again.sigma is sigma and not sigma.flags.writeable

    def test_exog_lags_message_names_p(self, rng):
        frame = make_frame(rng.standard_normal((40, 2)))
        with pytest.raises(vk.DomainError, match=r"exog_lags must be in 0\.\.2, got 3"):
            fit_var(frame, 2, exog=z_frame(rng.standard_normal((40, 1))), exog_lags=3)


class TestCompanion:
    def test_scalar_var1(self):
        assert companion_matrix(scalar_fit(0.5)).tolist() == [[0.5]]

    def test_scalar_var2(self):
        comp = companion_matrix(scalar_fit(None, coefs=[1.5, -0.5]))
        np.testing.assert_array_equal(comp, [[1.5, -0.5], [1.0, 0.0]])

    def test_stable_simulated_system_inside_unit_circle(self, rng):
        a = random_stable_var1(rng, 2)
        data = simulate_var((a,), np.zeros(2), 0.1 * np.eye(2), 400, rng)
        fit = fit_var(make_frame(data, names=("a", "b")), 1)
        assert np.all(stability_moduli(fit) < 1.0)

    def test_moduli_invariant_under_reordering(self, rng):
        a1 = random_stable_var1(rng, 3)
        a2 = 0.2 * rng.standard_normal((3, 3))
        perm = np.array([2, 0, 1])
        p_mat = np.eye(3)[perm]
        fit = scalar_fit(None, coefs=[0.5])  # template, replaced below
        base = VarFit(
            p=2,
            names=("a", "b", "c"),
            coef_matrices=(a1, a2),
            const=np.zeros(3),
            residuals=np.zeros((10, 3)),
            sigma=np.eye(3),
            sample_start=vk.parse_quarter("2001Q1"),
            n_sample=12,
            tail=np.zeros((2, 3)),
        )
        permuted = VarFit(
            p=2,
            names=("c", "a", "b"),
            coef_matrices=(p_mat @ a1 @ p_mat.T, p_mat @ a2 @ p_mat.T),
            const=np.zeros(3),
            residuals=np.zeros((10, 3)),
            sigma=np.eye(3),
            sample_start=vk.parse_quarter("2001Q1"),
            n_sample=12,
            tail=np.zeros((2, 3)),
        )
        np.testing.assert_allclose(
            stability_moduli(base), stability_moduli(permuted), atol=1e-9
        )


class TestStabilityModuli:
    def test_scalar_half(self):
        np.testing.assert_allclose(stability_moduli(scalar_fit(0.5)), [0.5])

    def test_random_walk_unit_root(self):
        np.testing.assert_allclose(stability_moduli(scalar_fit(1.0)), [1.0])

    def test_var2_characteristic_roots(self):
        fit = scalar_fit(None, coefs=[1.5, -0.5])
        np.testing.assert_allclose(stability_moduli(fit), [1.0, 0.5], rtol=1e-10)


class TestForecast:
    def test_geometric_decay(self):
        fc = forecast_var(scalar_fit(0.5, last=1.0), 3)
        np.testing.assert_allclose(fc.values[:, 0], [0.5, 0.25, 0.125], rtol=1e-12)

    def test_mean_reversion_in_one_step(self):
        fc = forecast_var(scalar_fit(0.0, c=3.5, last=99.0), 4)
        np.testing.assert_allclose(fc.values[:, 0], 3.5)

    def test_random_walk_is_flat(self):
        fc = forecast_var(scalar_fit(1.0, last=7.25), 5)
        np.testing.assert_allclose(fc.values[:, 0], 7.25)

    def test_starts_one_quarter_after_sample_end(self, panel69):
        fit = fit_var(panel69, 2)
        fc = forecast_var(fit, 4)
        assert fc.start == panel69.end.next()
        assert len(fc) == 4

    def test_converges_to_unconditional_mean(self, rng):
        a = np.array([[0.5, 0.1], [-0.2, 0.4]])
        c = np.array([1.0, 2.0])
        fit = VarFit(
            p=1,
            names=("a", "b"),
            coef_matrices=(a,),
            const=c,
            residuals=np.zeros((10, 2)),
            sigma=np.eye(2),
            sample_start=vk.parse_quarter("2001Q1"),
            n_sample=10,
            tail=np.array([[30.0, -12.0]]),
        )
        fc = forecast_var(fit, 200)
        mean = np.linalg.solve(np.eye(2) - a, c)
        np.testing.assert_allclose(fc.values[-1], mean, atol=1e-6)

    def test_noise_free_simulation_is_a_fixed_point(self, rng):
        # spiral path keeps the design matrix full rank without noise
        theta = 0.7
        a = 0.95 * np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        x = np.zeros((40, 2))
        x[0] = [1.0, 0.0]
        for s in range(1, 40):
            x[s] = a @ x[s - 1]
        fit = fit_var(make_frame(x, names=("a", "b")), 1)
        np.testing.assert_allclose(fit.coef_matrices[0], a, atol=1e-8)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-8)

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 5),
        p=st.integers(1, 4),
        exog=st.booleans(),
    )
    @settings(max_examples=60)
    def test_equals_companion_state_iteration(self, seed, k, p, exog):
        """The forecast is the top block of s <- C s + [c + B f_h; 0], from
        s = [y_T; y_{T-1}; ..], with f_h = [z_{T+h}, z_{T+h-1}] when the fit
        has one exogenous column at exog_lags=1."""
        rng = np.random.default_rng(seed)
        horizon, n = 12, 20
        const, tail = rng.standard_normal(k), rng.standard_normal((p, k))
        z = rng.standard_normal(horizon + 1)  # z_{T-1} .. z_{T+horizon-1}
        b = rng.standard_normal((k, 2))
        block = dict(exog_names=("z",), exog_lags=1, exog_coef=b, exog_values=np.full((n, 1), z[0]))
        fit = VarFit(
            p=p,
            names=tuple(f"x{i}" for i in range(k)),
            coef_matrices=random_stable_var(rng, k, p),
            const=const,
            residuals=np.zeros((n - p, k)),
            sigma=np.eye(k),
            sample_start=vk.parse_quarter("2001Q1"),
            n_sample=n,
            tail=tail,
            **(block if exog else {}),
        )
        path = z_frame(z[1:, None], fit.sample_start.shift(n)) if exog else None
        comp = companion_matrix(fit)
        state = tail[::-1].ravel()
        want = []
        for h in range(horizon):
            shift = const + b @ z[[h + 1, h]] if exog else const
            state = comp @ state + np.concatenate([shift, np.zeros(k * (p - 1))])
            want.append(state[:k])
        got = forecast_var(fit, horizon, exog_path=path).values
        assert np.max(np.abs(got - np.array(want))) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("layout", ["fortran", "select"])
    @pytest.mark.parametrize("horizon", [1, 3])
    def test_any_tail_layout(self, rng, layout, horizon):
        """A frame built from a Fortran-ordered array, or a column
        selection, leaves the fit a Fortran-ordered tail; at horizon 1 that
        tail alone lays out the recursion's input, and the forecast is
        still the companion state iteration."""
        x = rng.standard_normal((40, 6))
        frame = make_frame(np.asfortranarray(x[:, :5]))
        if layout == "select":
            frame = make_frame(x).select(("x2", "x1", "x4", "x3", "x6"))
        fit = fit_var(frame, 2)
        assert not fit.tail.flags.c_contiguous
        comp = companion_matrix(fit)
        state, want = fit.tail[::-1].ravel(), []
        for _ in range(horizon):
            state = comp @ state + np.concatenate([fit.const, np.zeros(5)])
            want.append(state[:5])
        got = forecast_var(fit, horizon).values
        assert np.max(np.abs(got - np.array(want))) <= 1e-12 * np.max(np.abs(want))

    def test_exog_coverage_required(self, rng):
        t = 60
        z = rng.standard_normal((t + 5, 1))  # rows past the sample are not a path
        x = rng.standard_normal((t, 1))
        fit = fit_var(make_frame(x), 1, exog=z_frame(z))
        first = fit.sample_start.shift(t)
        with pytest.raises(CoverageError, match="spans none, forecast needs 2016Q1..2017Q1"):
            forecast_var(fit, 5)
        with pytest.raises(CoverageError):
            forecast_var(fit, 5, exog_path=z_frame(np.ones((3, 1)), first))
        for wrong in (first.shift(-1), first.shift(1)):
            with pytest.raises(CoverageError):
                forecast_var(fit, 5, exog_path=z_frame(np.ones((6, 1)), wrong))
        fc = forecast_var(fit, 5, exog_path=z_frame(np.zeros((5, 1)), first))
        assert len(fc) == 5 and fc.start == first

    def test_exog_path_must_name_the_fits_columns(self, rng):
        x = rng.standard_normal((60, 1))
        fit = fit_var(make_frame(x), 1, exog=z_frame(rng.standard_normal((60, 1))))
        path = make_frame(np.zeros((5, 1)), start="2016Q1", names=("w",))
        with pytest.raises(MissingColumnError):
            forecast_var(fit, 5, exog_path=path)

    def test_path_given_without_exog_block(self, panel69):
        path = z_frame(np.zeros((4, 1)), panel69.end.next())
        with pytest.raises(CoverageError, match="no exogenous block"):
            forecast_var(fit_var(panel69, 2), 4, exog_path=path)


class TestExogLags:
    """exog_lags=1: X_t on [1, X_{t-1} .. X_{t-p}, z_t, z_{t-1}]."""

    def setup_method(self):
        rng = np.random.default_rng(515)
        self.t, self.horizon = 80, 5
        self.z = rng.standard_normal((self.t + self.horizon, 1))
        data = simulate_var(
            (np.array([[0.4, 0.1], [-0.2, 0.3]]),), np.zeros(2), np.eye(2), self.t, rng
        )
        data[1:] += np.hstack([0.8 * self.z[1 : self.t], -0.5 * self.z[: self.t - 1]])
        self.frame = make_frame(data, names=("a", "b"))
        self.fit = fit_var(self.frame, 2, exog=z_frame(self.z), exog_lags=1)
        self.path = z_frame(self.z[self.t :], self.frame.end.next())

    def test_fit_equals_hand_built_design(self):
        p, x, z = 2, self.frame.values, self.z
        rows = range(p, self.t)
        design = np.array(
            [[1.0, *x[t - 1], *x[t - 2], z[t, 0], z[t - 1, 0]] for t in rows]
        )
        want = ols(x[p:], design)
        coef = want.coefficients
        np.testing.assert_allclose(self.fit.const, coef[0], rtol=0, atol=1e-12)
        for i, a in enumerate(self.fit.coef_matrices):
            np.testing.assert_allclose(a, coef[1 + 2 * i : 3 + 2 * i].T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(self.fit.exog_coef, coef[5:].T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(self.fit.residuals, want.residuals, rtol=0, atol=1e-12)
        np.testing.assert_allclose(self.fit.sigma, want.sigma, rtol=0, atol=1e-12)
        assert self.fit.exog_lags == 1

    def test_forecast_recursion_starts_from_last_sample_row(self):
        fit, t = self.fit, self.t
        b0, b1 = fit.exog_coef[:, 0], fit.exog_coef[:, 1]
        history = list(self.frame.values[-2:])
        want = []
        for h in range(self.horizon):
            # step 0's lagged exogenous term is the last in-sample row z_{T-1}
            x = (
                fit.const
                + fit.coef_matrices[0] @ history[-1]
                + fit.coef_matrices[1] @ history[-2]
                + b0 * self.z[t + h, 0]
                + b1 * self.z[t + h - 1, 0]
            )
            want.append(x)
            history.append(x)
        got = forecast_var(fit, self.horizon, exog_path=self.path)
        assert got.start == self.frame.end.next()
        np.testing.assert_allclose(got.values, np.array(want), rtol=0, atol=1e-12)


class TestTwoExogLags:
    """exog_lags=2: X_t on [1, X_{t-1}, X_{t-2}, z_t, z_{t-1}, z_{t-2}]."""

    def setup_method(self):
        rng = np.random.default_rng(616)
        self.t, self.horizon = 90, 6
        self.z = rng.standard_normal((self.t + self.horizon, 1))
        data = simulate_var(
            (np.array([[0.3, 0.1], [0.0, 0.4]]),), np.zeros(2), np.eye(2), self.t, rng
        )
        data[2:] += np.hstack([0.7 * self.z[2 : self.t], 0.4 * self.z[: self.t - 2]])
        self.frame = make_frame(data, names=("a", "b"))
        self.fit = fit_var(self.frame, 2, exog=z_frame(self.z), exog_lags=2)
        self.path = z_frame(self.z[self.t :], self.frame.end.next())

    def test_fit_equals_hand_built_design(self):
        p, x, z = 2, self.frame.values, self.z
        design = np.array(
            [[1.0, *x[t - 1], *x[t - 2], z[t, 0], z[t - 1, 0], z[t - 2, 0]] for t in range(p, self.t)]
        )
        want = ols(x[p:], design)
        coef = want.coefficients
        np.testing.assert_allclose(self.fit.const, coef[0], rtol=0, atol=1e-12)
        for i, a in enumerate(self.fit.coef_matrices):
            np.testing.assert_allclose(a, coef[1 + 2 * i : 3 + 2 * i].T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(self.fit.exog_coef, coef[5:].T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(self.fit.residuals, want.residuals, rtol=0, atol=1e-12)
        assert self.fit.exog_coef.shape == (2, 3) and self.fit.exog_lags == 2

    def test_forecast_recursion_reads_two_past_exogenous_rows(self):
        fit, t, z = self.fit, self.t, self.z
        history = list(self.frame.values[-2:])
        want = []
        for h in range(self.horizon):
            # steps 0 and 1 reach back into the in-sample rows z_{T-1}, z_{T-2}
            x = fit.const + fit.coef_matrices[0] @ history[-1] + fit.coef_matrices[1] @ history[-2]
            for j in range(3):
                x = x + fit.exog_coef[:, j] * z[t + h - j, 0]
            want.append(x)
            history.append(x)
        got = forecast_var(fit, self.horizon, exog_path=self.path)
        np.testing.assert_allclose(got.values, np.array(want), rtol=0, atol=1e-12)
        # the path is read by name, and rows past the horizon are not read
        extra = np.hstack([np.arange(self.horizon + 3.0)[:, None], np.vstack([z[t:], np.ones((3, 1))])])
        wider = make_frame(extra, start=str(self.frame.end.next()), names=("w", "z"))
        np.testing.assert_array_equal(
            forecast_var(fit, self.horizon, exog_path=wider).values, got.values
        )


class TestAnyExogLags:
    """Every lag order p = 1..5 with exog_lags = 0..p and one or two
    exogenous columns, against a design built by explicit index loops and a
    per-step forecast loop. Tolerance, stated up front: 1e-10 relative to
    the largest entry of the oracle."""

    @staticmethod
    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 3),
        p=st.integers(1, 5),
        m=st.integers(1, 2),
        horizon=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fit_and_forecast_match_index_loops(self, seed, k, p, m, horizon, data):
        q = data.draw(st.integers(0, p), label="exog_lags")
        rng = np.random.default_rng(seed)
        t = 30 + 6 * p
        x, z = rng.standard_normal((t, k)), rng.standard_normal((t + horizon, m))
        names = tuple(f"z{c + 1}" for c in range(m))
        frame = make_frame(x)
        fit = fit_var(frame, p, exog=make_frame(z[:t], names=names), exog_lags=q)

        design = []
        for s in range(p, t):
            row = [1.0]
            for j in range(1, p + 1):
                row.extend(x[s - j])
            for j in range(q + 1):
                row.extend(z[s - j])
            design.append(row)
        coef = np.linalg.lstsq(np.array(design), x[p:], rcond=None)[0]
        assert self.close(fit.const, coef[0])
        for j, a in enumerate(fit.coef_matrices):
            assert self.close(a, coef[1 + j * k : 1 + (j + 1) * k].T)
        assert self.close(fit.exog_coef, coef[1 + p * k :].T)

        history, want = list(x), []
        for h in range(horizon):
            y = fit.const.copy()
            for j in range(1, p + 1):
                y += fit.coef_matrices[j - 1] @ history[t + h - j]
            for j in range(q + 1):
                y += fit.exog_coef[:, j * m : (j + 1) * m] @ z[t + h - j]
            history.append(y)
            want.append(y)
        path = make_frame(z[t:], start=str(frame.end.next()), names=names)
        assert self.close(forecast_var(fit, horizon, exog_path=path).values, np.array(want))


def lag_fit(coef_matrices, tail):
    """A VarFit with the given lag matrices and tail, a unit constant and an
    identity covariance."""
    p, k = tail.shape
    return VarFit(
        p=p,
        names=tuple(f"x{i + 1}" for i in range(k)),
        coef_matrices=tuple(coef_matrices),
        const=np.ones(k),
        residuals=np.zeros((10, k)),
        sigma=np.eye(k),
        sample_start=vk.parse_quarter("2001Q1"),
        n_sample=10 + p,
        tail=tail,
    )


class TestEvaluationOrders:
    """The recursion's two evaluation orders, the doubling scan and the step
    loop, agree within 1e-12 of the largest entry (a bound stated up
    front), and the size rule picks one by K p and the number of rows."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 5),
        p=st.integers(1, 4),
        horizon=st.integers(0, 64),
        block=st.booleans(),
        unit_root=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_scan_equals_step_loop(self, seed, k, p, horizon, block, unit_root):
        rng = np.random.default_rng(seed)
        if unit_root:
            # a VECM's levels VAR with K - r unit roots; it needs K >= 2
            levels = vk.vecm_to_levels_var(
                well_specified_vecm_fit(rng, max(k, 2), max(k, 2) - 1, n_gammas=p - 1)
            )
            k = levels.n_vars
            fit = lag_fit(levels.coef_matrices, rng.standard_normal((p, k)))
        else:
            fit = lag_fit(random_stable_var(rng, k, p, radius=0.95), rng.standard_normal((p, k)))
        n = horizon + 1
        if block:
            # the MA recursion: a unit impulse from p zero blocks
            start, drive = np.zeros((p, k, k)), np.zeros((n, k, k))
            drive[0] = np.eye(k)
        else:
            # a forecast with exogenous terms: a different drive every row
            start, drive = fit.tail, rng.standard_normal(k) + rng.standard_normal((n, k))
        got, want = var._scan(fit, start, drive), var._steps(fit, start, drive)
        assert got.shape == want.shape == drive.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        ("k", "p", "rows", "path"),
        [
            (16, 1, 10, "_scan"),
            (8, 2, 21, "_scan"),
            (6, 1, 20, "_scan"),
            (17, 1, 10, "_steps"),
            (6, 3, 40, "_steps"),
            (12, 4, 8, "_steps"),
            (16, 1, 9, "_steps"),
            (2, 1, 1, "_steps"),
        ],
    )
    @pytest.mark.parametrize("block", [False, True], ids=["vector", "block"])
    def test_size_rule(self, monkeypatch, k, p, rows, path, block):
        """K p <= 16 over at least 10 rows takes the scan, anything else
        the step loop, for vector rows and K x K blocks alike."""
        taken = []
        for name in ("_scan", "_steps"):
            real = getattr(var, name)

            def spy(*args, name=name, real=real):
                taken.append(name)
                return real(*args)

            monkeypatch.setattr(var, name, spy)
        fit = lag_fit(tuple(0.1 * np.eye(k) for _ in range(p)), np.ones((p, k)))
        if block:
            vk.ma_coefficients(fit, rows - 1)
        else:
            forecast_var(fit, rows)
        assert taken == [path]
