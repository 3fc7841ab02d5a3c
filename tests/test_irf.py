import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vecmkit as vk
from vecmkit import (
    VarFit,
    cholesky_lower,
    companion_matrix,
    ma_coefficients,
    orthogonalized_irf,
    orthogonalized_irfs,
    vecm_to_levels_var,
)
from vecmkit.errors import DomainError, NotPositiveDefiniteError

from conftest import (
    make_frame,
    random_spd,
    random_stable_var,
    random_stable_var1,
    simulate_var,
    well_specified_vecm_fit,
)


def var_fit(coef_matrices, sigma, names=None):
    mats = tuple(np.asarray(a, float) for a in coef_matrices)
    k = mats[0].shape[0]
    return VarFit(
        p=len(mats),
        names=tuple(names or (f"x{i + 1}" for i in range(k))),
        coef_matrices=mats,
        const=np.zeros(k),
        residuals=np.zeros((10, k)),
        sigma=np.asarray(sigma, float),
        sample_start=vk.parse_quarter("2001Q1"),
        n_sample=10 + len(mats),
        tail=np.zeros((len(mats), k)),
    )


def path_difference_oracle(fit, shock, horizon):
    """Difference of two noise-free paths, one hit by ``shock`` at t = 0."""
    k = fit.n_vars
    base = [np.zeros(k) for _ in range(fit.p)]
    bumped = [np.zeros(k) for _ in range(fit.p)]
    diffs = []
    for h in range(horizon + 1):
        nxt_base = fit.const.copy()
        nxt_bump = fit.const.copy()
        for i, a in enumerate(fit.coef_matrices, start=1):
            nxt_base += a @ base[-i]
            nxt_bump += a @ bumped[-i]
        if h == 0:
            nxt_bump += shock
        base.append(nxt_base)
        bumped.append(nxt_bump)
        diffs.append(nxt_bump - nxt_base)
    return np.array(diffs)


class TestMaCoefficients:
    def test_phi0_is_identity(self, rng):
        fit = var_fit([random_stable_var1(rng, 3)], np.eye(3))
        np.testing.assert_array_equal(ma_coefficients(fit, 0)[0], np.eye(3))

    def test_var1_powers(self, rng):
        a = random_stable_var1(rng, 2)
        fit = var_fit([a], np.eye(2))
        phis = ma_coefficients(fit, 5)
        for h in range(6):
            np.testing.assert_allclose(phis[h], np.linalg.matrix_power(a, h), atol=1e-12)

    def test_path_difference_oracle(self, rng):
        a1 = random_stable_var1(rng, 2)
        a2 = 0.15 * rng.standard_normal((2, 2))
        fit = var_fit([a1, a2], np.eye(2))
        phis = ma_coefficients(fit, 12)
        for col in range(2):
            shock = np.eye(2)[:, col]
            oracle = path_difference_oracle(fit, shock, 12)
            for h in range(13):
                np.testing.assert_allclose(phis[h][:, col], oracle[h], atol=1e-10)

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 5),
        p=st.integers(1, 4),
        horizon=st.integers(0, 16),
    )
    @settings(max_examples=60)
    def test_blocks_of_companion_powers(self, seed, k, p, horizon):
        """Phi_h is the top-left K x K block of C^h for the companion C."""
        fit = var_fit(random_stable_var(np.random.default_rng(seed), k, p), np.eye(k))
        comp = companion_matrix(fit)
        phis = ma_coefficients(fit, horizon)
        assert phis.shape == (horizon + 1, k, k)
        power = np.eye(k * p)
        for phi in phis:
            want = power[:k, :k]
            assert np.max(np.abs(phi - want)) <= 1e-12 * np.max(np.abs(want))
            power = comp @ power

    def test_negative_horizon(self, rng):
        with pytest.raises(DomainError):
            ma_coefficients(var_fit([np.eye(2) * 0.5], np.eye(2)), -1)


class TestOrthogonalizedIrf:
    def test_decoupled_system_has_zero_cross_response(self):
        fit = var_fit([np.diag([0.5, 0.3])], np.diag([1.0, 4.0]), names=("a", "b"))
        irf = orthogonalized_irf(fit, 10, impulse="a", response="b")
        np.testing.assert_allclose(irf.values, 0.0, atol=1e-14)

    def test_own_impact_is_first_cholesky_pivot(self, rng):
        sigma = random_spd(rng, 3)
        fit = var_fit([random_stable_var1(rng, 3)], sigma, names=("a", "b", "c"))
        irf = orthogonalized_irf(fit, 3, impulse="a", response="a")
        assert irf.values[0] == pytest.approx(np.sqrt(sigma[0, 0]), rel=1e-12)

    def test_matches_path_difference_oracle(self, rng):
        a = random_stable_var1(rng, 2)
        sigma = random_spd(rng, 2)
        fit = var_fit([a], sigma, names=("a", "b"))
        chol = np.linalg.cholesky(sigma)
        for imp_idx, imp in enumerate(("a", "b")):
            oracle = path_difference_oracle(fit, chol[:, imp_idx], 20)
            for resp_idx, resp in enumerate(("a", "b")):
                irf = orthogonalized_irf(fit, 20, impulse=imp, response=resp)
                np.testing.assert_allclose(irf.values, oracle[:, resp_idx], atol=1e-10)

    def test_stable_fit_decays(self, rng):
        fit = var_fit([random_stable_var1(rng, 2, max_radius=0.8)], random_spd(rng, 2))
        irf = orthogonalized_irf(fit, 200, impulse="x1", response="x2")
        assert abs(irf.values[200]) < 1e-6

    def test_reordering_changes_nothing_with_diagonal_sigma(self, rng):
        a = random_stable_var1(rng, 2)
        sigma = np.diag([2.0, 0.5])
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        fit = var_fit([a], sigma, names=("a", "b"))
        fit_swapped = var_fit([perm @ a @ perm], perm @ sigma @ perm, names=("b", "a"))
        for imp, resp in (("a", "b"), ("b", "a"), ("a", "a")):
            one = orthogonalized_irf(fit, 8, impulse=imp, response=resp)
            two = orthogonalized_irf(fit_swapped, 8, impulse=imp, response=resp)
            np.testing.assert_allclose(one.values, two.values, atol=1e-10)

    def test_reordering_matters_with_correlated_sigma(self, rng):
        a = random_stable_var1(rng, 2)
        sigma = np.array([[1.0, 0.6], [0.6, 1.0]])
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        fit = var_fit([a], sigma, names=("a", "b"))
        fit_swapped = var_fit([perm @ a @ perm], perm @ sigma @ perm, names=("b", "a"))
        one = orthogonalized_irf(fit, 6, impulse="a", response="b")
        two = orthogonalized_irf(fit_swapped, 6, impulse="a", response="b")
        assert not np.allclose(one.values, two.values, atol=1e-8)

    def test_homogeneity_under_data_scaling(self, rng):
        c = 3.7
        data = simulate_var(
            (np.array([[0.5, 0.2], [-0.1, 0.4]]),), np.zeros(2), np.eye(2), 300, rng
        )
        fit1 = vk.fit_var(make_frame(data, names=("a", "b")), 1)
        fit2 = vk.fit_var(make_frame(c * data, names=("a", "b")), 1)
        one = orthogonalized_irf(fit1, 10, impulse="a", response="b")
        two = orthogonalized_irf(fit2, 10, impulse="a", response="b")
        np.testing.assert_allclose(two.values, c * one.values, rtol=1e-8)

    def test_vecm_responses_bounded_not_decaying(self, rng):
        fit = well_specified_vecm_fit(rng, k=3, r=1)
        var = vecm_to_levels_var(fit)
        irf = orthogonalized_irf(var, 40, impulse="x1", response="x2")
        assert np.all(np.isfinite(irf.values))
        assert np.max(np.abs(irf.values)) < 1e3

    def test_unknown_variable(self, rng):
        fit = var_fit([np.eye(2) * 0.4], np.eye(2), names=("a", "b"))
        with pytest.raises(DomainError, match="impulse"):
            orthogonalized_irf(fit, 5, impulse="z", response="a")

    def test_singular_sigma_rejected(self):
        fit = var_fit([np.eye(2) * 0.4], np.full((2, 2), 1.0), names=("a", "b"))
        with pytest.raises(NotPositiveDefiniteError):
            orthogonalized_irf(fit, 5, impulse="a", response="b")

    @pytest.mark.parametrize(
        "entry, value, message",
        [((0, 1), 1e-6, "^A is not symmetric within tolerance$"), ((1, 1), np.nan, "^A contains non-finite entries$")],
        ids=["asymmetric", "nan"],
    )
    def test_hand_built_sigma_checked(self, entry, value, message):
        # a VarFit is a public record, so its sigma is checked like any input
        sigma = np.eye(2)
        sigma[entry] = value
        fit = var_fit([np.eye(2) * 0.4], sigma, names=("a", "b"))
        with pytest.raises(DomainError, match=message):
            orthogonalized_irfs(fit, 5, "a")

    def test_full_matrices_retained(self, rng):
        # the whole Phi_h P stack stays on the fit, not on the result
        sigma = random_spd(rng, 2)
        fit = var_fit([random_stable_var1(rng, 2)], sigma, names=("a", "b"))
        irf = orthogonalized_irf(fit, 7, impulse="b", response="a")
        stack = fit._irf_stacks[7]
        assert stack.shape == (8, 2, 2)
        np.testing.assert_allclose(stack[0], np.linalg.cholesky(sigma), atol=1e-12)
        np.testing.assert_array_equal(irf.values, stack[:, 0, 1])


def per_response_oracle(fit, horizon, impulse, response):
    """One response path built on its own, as before the shared stack."""
    chol = cholesky_lower(fit.sigma)
    i, j = fit.names.index(impulse), fit.names.index(response)
    return np.array([(phi @ chol)[j, i] for phi in ma_coefficients(fit, horizon)])


class TestOrthogonalizedIrfs:
    def test_slices_equal_separate_builds(self, rng):
        fit = var_fit(
            [random_stable_var1(rng, 3), 0.1 * rng.standard_normal((3, 3))],
            random_spd(rng, 3),
            names=("a", "b", "c"),
        )
        irfs = orthogonalized_irfs(fit, 9, "b")
        assert list(irfs) == ["a", "b", "c"]
        for name, irf in irfs.items():
            assert (irf.impulse, irf.response) == ("b", name)
            np.testing.assert_array_equal(irf.values, per_response_oracle(fit, 9, "b", name))
            np.testing.assert_array_equal(
                irf.values, orthogonalized_irf(fit, 9, "b", name).values
            )
        assert list(fit._irf_stacks) == [9]

    def test_selected_responses_in_given_order(self, rng):
        fit = var_fit([random_stable_var1(rng, 3)], random_spd(rng, 3), names=("a", "b", "c"))
        assert list(orthogonalized_irfs(fit, 4, "a", ("c", "a"))) == ["c", "a"]

    def test_unknown_response(self, rng):
        fit = var_fit([np.eye(2) * 0.4], np.eye(2), names=("a", "b"))
        with pytest.raises(DomainError, match="response"):
            orthogonalized_irfs(fit, 5, "a", ("b", "z"))


class TestStackPerFit:
    def fit3(self, rng):
        return var_fit(
            [random_stable_var1(rng, 3), 0.1 * rng.standard_normal((3, 3))],
            random_spd(rng, 3),
            names=("a", "b", "c"),
        )

    def test_response_loop_equals_one_call(self, rng):
        fit = self.fit3(rng)
        loop = {name: orthogonalized_irf(fit, 9, "c", name) for name in fit.names}
        fresh = var_fit(fit.coef_matrices, fit.sigma, names=fit.names)
        for name, irf in orthogonalized_irfs(fresh, 9, "c").items():
            assert loop[name].values.tobytes() == irf.values.tobytes()
        assert fit._irf_stacks[9].tobytes() == fresh._irf_stacks[9].tobytes()

    def test_ma_stack_built_once_per_fit_and_horizon(self, rng, monkeypatch):
        import vecmkit.irf

        calls = []
        original = vecmkit.irf.ma_coefficients

        def counting(fit, horizon):
            calls.append((id(fit), horizon))
            return original(fit, horizon)

        monkeypatch.setattr(vecmkit.irf, "ma_coefficients", counting)
        fit, other = self.fit3(rng), self.fit3(rng)
        for name in fit.names:
            orthogonalized_irf(fit, 9, "a", name)
            orthogonalized_irf(fit, 4, "b", name)
        orthogonalized_irfs(fit, 9, "b")
        orthogonalized_irf(other, 9, "a", "a")
        assert calls == [(id(fit), 9), (id(fit), 4), (id(other), 9)]

    def test_matrices_are_read_only(self, rng):
        fit = self.fit3(rng)
        orthogonalized_irf(fit, 5, "a", "b")
        with pytest.raises(ValueError):
            fit._irf_stacks[5][0, 0, 0] = 1.0

    def test_fit_cannot_change_under_its_stack(self, panel69):
        vfit = vk.fit_vecm(panel69, 2, 2)
        fit = vecm_to_levels_var(vfit)
        first = orthogonalized_irf(fit, 8, "exchange_rate", "output")
        with pytest.raises(ValueError):
            fit.sigma[:] = 4 * fit.sigma
        for array in (vfit.alpha, vfit.beta, vfit.const, vfit.residuals, vfit.tail, *vfit.gammas):
            with pytest.raises(ValueError):
                array[...] = 0.0
        again = orthogonalized_irf(fit, 8, "exchange_rate", "output")
        assert again.values.tobytes() == first.values.tobytes()

    def test_raising_call_keeps_nothing(self):
        fit = var_fit([np.eye(2) * 0.4], np.full((2, 2), 1.0), names=("a", "b"))
        for _ in range(2):
            with pytest.raises(NotPositiveDefiniteError):
                orthogonalized_irf(fit, 5, impulse="a", response="b")
        assert fit._irf_stacks == {}
