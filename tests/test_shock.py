import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vecmkit as vk
from vecmkit import (
    QuarterIndex,
    Series,
    ShockScenario,
    apply_multiplicative_shock,
    run_three_stage,
)
from vecmkit.errors import (
    DomainError,
    MissingColumnError,
    OutOfRangeError,
    PipelineStageError,
)

from vecmkit.quarterly import first_difference
from vecmkit import shock

from conftest import cointegrated_panel, make_frame, simulate_vecm, twin

FACTORS = (1.00, 1.05, 1.10, 1.15, 1.20)


@pytest.fixture()
def stage_runs(monkeypatch):
    """The frames whose shock-free stages ``_frame_stages`` computes, in
    call order."""
    calls = []
    real = shock._frame_stages

    def spy(frame, key):
        calls.append(frame)
        return real(frame, key)

    monkeypatch.setattr(shock, "_frame_stages", spy)
    return calls


def scenario(frame, **overrides):
    base = dict(
        target="exchange_rate",
        factor=1.15,
        start=frame.end.next(),
        horizon=20,
        vecm_lags=2,
        rank=2,
    )
    base.update(overrides)
    return ShockScenario(**base)


class TestApplyShock:
    def test_factor_115_from_second_quarter(self):
        path = Series("x", QuarterIndex(2018, 1), [1.0, 1.0, 1.0])
        out = apply_multiplicative_shock(path, 1.15, QuarterIndex(2018, 2))
        np.testing.assert_allclose(out.values, [1.0, 1.15, 1.15])

    def test_factor_one_is_identity(self):
        path = Series("x", QuarterIndex(2018, 1), [2.0, 3.0, 4.0])
        out = apply_multiplicative_shock(path, 1.0, QuarterIndex(2018, 1))
        np.testing.assert_array_equal(out.values, path.values)

    def test_doubling_from_first_index(self):
        path = Series("x", QuarterIndex(2018, 1), [0.5, 0.5])
        out = apply_multiplicative_shock(path, 2.0, QuarterIndex(2018, 1))
        np.testing.assert_allclose(out.values, [1.0, 1.0])

    def test_start_outside_range(self):
        path = Series("x", QuarterIndex(2018, 1), [1.0, 1.0])
        with pytest.raises(OutOfRangeError):
            apply_multiplicative_shock(path, 1.5, QuarterIndex(2019, 1))
        with pytest.raises(OutOfRangeError):
            apply_multiplicative_shock(path, 1.5, QuarterIndex(2017, 4))

    def test_nonpositive_factor(self):
        path = Series("x", QuarterIndex(2018, 1), [1.0])
        with pytest.raises(DomainError):
            apply_multiplicative_shock(path, 0.0, QuarterIndex(2018, 1))

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_factor_named(self, panel69, factor):
        path = Series("x", QuarterIndex(2018, 1), [1.0])
        with pytest.raises(DomainError, match=f"shock factor must be finite, got {factor}"):
            apply_multiplicative_shock(path, factor, QuarterIndex(2018, 1))
        with pytest.raises(DomainError, match=f"shock factor must be finite, got {factor}"):
            scenario(panel69, factor=factor)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_product_named(self):
        path = Series("x", QuarterIndex(2018, 1), [1.0, 2.0, -3.0])
        with pytest.raises(DomainError, match=r"shock factor 1e\+308 overflows the shocked path"):
            apply_multiplicative_shock(path, 1e308, QuarterIndex(2018, 2))

    @pytest.mark.parametrize("factor", ["a", None])
    def test_non_real_factor_named(self, panel69, factor):
        with pytest.raises(DomainError, match=f"shock factor must be a real number, got {factor!r}"):
            scenario(panel69, factor=factor)


class TestRunThreeStage:
    def test_forecast_window_matches_reference_span(self, panel69):
        # sample ends 2018Q1, horizon 20 -> 2018Q2..2023Q1
        result = run_three_stage(panel69, scenario(panel69))
        assert str(result.stage1_forecast.start) == "2018Q2"
        assert str(result.stage1_forecast.end) == "2023Q1"
        assert result.audit["stage1"]["forecast_window"] == ["2018Q2", "2023Q1"]

    def test_factor_one_equals_unshocked_pipeline(self, panel69):
        # a late shock start leaves every forecast value untouched, so the
        # two runs must agree bit for bit
        neutral = run_three_stage(panel69, scenario(panel69, factor=1.0))
        late = run_three_stage(
            panel69, scenario(panel69, factor=1.0, start=panel69.end.shift(20))
        )
        for name in panel69.names:
            np.testing.assert_allclose(
                neutral.irfs[name].values, late.irfs[name].values, atol=1e-10
            )
        np.testing.assert_array_equal(
            neutral.stage2_forecast.values, late.stage2_forecast.values
        )

    def test_stage3_irfs_slice_one_stack(self, panel69):
        result = run_three_stage(panel69, scenario(panel69))
        fit = result.stage3_fit
        chol = vk.cholesky_lower(fit.sigma)
        mats = [phi @ chol for phi in vk.ma_coefficients(fit, 20)]
        i = fit.names.index("exchange_rate")
        assert list(result.irfs) == list(panel69.names)
        for j, name in enumerate(fit.names):
            np.testing.assert_array_equal(
                result.irfs[name].values, np.array([m[j, i] for m in mats])
            )

    def test_shock_locality(self, panel69):
        start = panel69.end.shift(5)
        shocked = run_three_stage(panel69, scenario(panel69, start=start))
        baseline = run_three_stage(panel69, scenario(panel69, factor=1.0, start=start))
        cut = panel69.end.next().distance(start)
        np.testing.assert_array_equal(
            shocked.shocked_path.values[:cut], baseline.shocked_path.values[:cut]
        )
        np.testing.assert_allclose(
            shocked.shocked_path.values[cut:],
            1.15 * baseline.shocked_path.values[cut:],
            rtol=1e-12,
        )

    def test_determinism(self, panel69):
        one = run_three_stage(panel69, scenario(panel69))
        two = run_three_stage(panel69, scenario(panel69))
        np.testing.assert_array_equal(
            one.stage2_forecast.values, two.stage2_forecast.values
        )
        for name in panel69.names:
            np.testing.assert_array_equal(one.irfs[name].values, two.irfs[name].values)
        assert one.audit == two.audit

    def test_stage2_sample_accounting(self, panel69):
        result = run_three_stage(panel69, scenario(panel69, stage2_lags=2, stage3_lags=2))
        stage2 = result.audit["stage2"]
        assert stage2["n_rows"] == len(panel69) - 1
        assert stage2["rows_used"] == (len(panel69) - 1) - 2
        assert result.stage2_forecast.names == tuple(
            n for n in panel69.names if n != "exchange_rate"
        )

    def test_stage3_frame_shapes(self, panel69):
        result = run_three_stage(panel69, scenario(panel69, horizon=12))
        stage3 = result.audit["stage3"]
        assert stage3["n_rows"] == (len(panel69) - 1) + 12
        assert set(result.irfs) == set(panel69.names)
        assert result.audit["stage2"]["scale"] == "differences"
        assert result.audit["stage3"]["scale"] == "differences"

    def test_shocked_target_is_exogenous_then_endogenous(self, panel69):
        result = run_three_stage(panel69, scenario(panel69))
        assert result.audit["stage2"]["exogenous"] == ["exchange_rate"]
        assert "exchange_rate" in result.stage3_fit.names

    def test_monotone_response_in_constructed_system(self):
        # b loads positively on the target's differences, so a positive
        # shock must raise its conditional stage-2 forecasts
        rng = np.random.default_rng(99)
        t = 120
        a = np.zeros(t)
        for s in range(1, t):
            a[s] = a[s - 1] + rng.standard_normal() * 0.5
        b = np.zeros(t)
        c = np.zeros(t)
        for s in range(1, t):
            b[s] = (
                b[s - 1]
                - 0.4 * (b[s - 1] - a[s - 1])
                + 0.6 * (a[s] - a[s - 1])
                + 0.05 * rng.standard_normal()
            )
            c[s] = c[s - 1] - 0.3 * (c[s - 1] - a[s - 1]) + 0.1 * rng.standard_normal()
        frame = make_frame(np.column_stack([a, b, c]), names=("a", "b", "c"))
        kwargs = dict(target="a", start=frame.end.next(), horizon=8, vecm_lags=2, rank=1)
        up = run_three_stage(frame, ShockScenario(factor=1.25, **kwargs))
        flat = run_three_stage(frame, ShockScenario(factor=1.0, **kwargs))
        assert up.stage2_forecast.column("b").mean() > flat.stage2_forecast.column("b").mean()

    def test_unknown_target(self, panel69):
        with pytest.raises(MissingColumnError):
            run_three_stage(panel69, scenario(panel69, target="tariff"))

    def test_start_must_be_inside_forecast_window(self, panel69):
        with pytest.raises(OutOfRangeError):
            run_three_stage(panel69, scenario(panel69, start=panel69.end))
        with pytest.raises(OutOfRangeError):
            run_three_stage(panel69, scenario(panel69, start=panel69.end.shift(21)))

    def test_stage_errors_are_labeled(self, panel69):
        short = panel69.head(12)
        with pytest.raises(PipelineStageError) as err:
            run_three_stage(short, scenario(short, vecm_lags=4, horizon=1,
                                            start=short.end.next()))
        assert err.value.stage == 1

    @pytest.mark.filterwarnings("error")
    def test_huge_factor_named_in_stage3_failure(self, panel69):
        """A factor whose product stays finite but swamps the stage-3 design
        fails there, naming the factor and the scale of the target's rows."""
        with pytest.raises(PipelineStageError) as err:
            run_three_stage(panel69, scenario(panel69, factor=1e300))
        assert err.value.stage == 3
        assert str(err.value) == (
            "stage 3 failed: design matrix is rank deficient (column pivot 1) under shock "
            "factor 1e+300: the target's shocked differences reach 8.81e+300, its in-sample "
            "ones 0.558"
        )

    def test_lag_orders_recorded_in_audit(self, panel69):
        picked = run_three_stage(panel69, scenario(panel69))
        assert picked.audit["lag_order_source"].startswith("aic")
        fixed = run_three_stage(panel69, scenario(panel69, stage2_lags=3, stage3_lags=2))
        assert fixed.audit["lag_order_source"] == "scenario"
        assert fixed.audit["stage2"]["lag_order"] == 3
        assert fixed.audit["stage3"]["lag_order"] == 2


def assert_bit_equal(a, b):
    """Every PipelineResult field and the audit, bit for bit."""
    assert a.stage1_forecast == b.stage1_forecast
    assert a.stage2_forecast == b.stage2_forecast
    assert a.shocked_path.start == b.shocked_path.start
    assert a.shocked_path.values.tobytes() == b.shocked_path.values.tobytes()
    for got, want in zip(
        (*a.stage3_fit.coef_matrices, a.stage3_fit.const, a.stage3_fit.sigma),
        (*b.stage3_fit.coef_matrices, b.stage3_fit.const, b.stage3_fit.sigma),
        strict=True,
    ):
        assert got.tobytes() == want.tobytes()
    assert list(a.irfs) == list(b.irfs)
    for name in a.irfs:
        assert a.irfs[name].values.tobytes() == b.irfs[name].values.tobytes()
    assert a.audit == b.audit


class TestFrameStagesCache:
    @pytest.mark.parametrize("factors", [FACTORS, FACTORS[::-1]], ids=["ascending", "descending"])
    @pytest.mark.parametrize(
        "lags",
        [{}, {"stage2_lags": 2, "stage3_lags": 3}, {"stage2_lags": 3, "stage3_lags": 2, "exog_lags": 2}],
        ids=["aic", "explicit", "exog2"],
    )
    def test_warm_grid_equals_cold_runs(self, panel69, factors, lags, stage_runs):
        cold = {}
        for factor in factors:
            frame = twin(panel69)
            cold[factor] = run_three_stage(frame, scenario(frame, factor=factor, **lags))
        stage_runs.clear()
        for factor in factors:
            warm = run_three_stage(panel69, scenario(panel69, factor=factor, **lags))
            assert_bit_equal(warm, cold[factor])
        assert stage_runs == [panel69]

    def test_equal_frame_computes_afresh(self, panel69, stage_runs):
        other = twin(panel69)
        first = run_three_stage(panel69, scenario(panel69))
        second = run_three_stage(other, scenario(other))
        assert stage_runs == [panel69, other]
        assert_bit_equal(second, first)

    @pytest.mark.parametrize("change", ["value", "start", "names"])
    def test_changed_frame_is_a_miss(self, panel69, change, stage_runs):
        start, names, values = panel69.start, panel69.names, np.array(panel69.values)
        if change == "value":
            values[30, 0] = np.nextafter(values[30, 0], np.inf)
        elif change == "start":
            start = start.shift(1)
        else:
            names = (names[1], names[0], *names[2:])
        other = vk.Frame(start, names, values)
        run_three_stage(panel69, scenario(panel69))
        warm = run_three_stage(other, scenario(other))
        assert stage_runs == [panel69, other]
        fresh = twin(other)
        assert_bit_equal(warm, run_three_stage(fresh, scenario(fresh)))

    def test_dropped_after_two_other_frames(self, panel69, stage_runs):
        """Two frame objects are kept: a shock run of another panel uses it
        and its first difference, so the first panel's stages go."""
        first = run_three_stage(panel69, scenario(panel69))
        run_three_stage(panel69, scenario(panel69))
        other = cointegrated_panel(8)
        run_three_stage(other, scenario(other))
        again = run_three_stage(panel69, scenario(panel69))
        assert stage_runs == [panel69, other, panel69]
        assert_bit_equal(again, first)

    def test_stage1_failure_raises_every_time(self, panel69, stage_runs):
        short = panel69.head(12)
        bad = scenario(short, vecm_lags=4, horizon=1, start=short.end.next())
        for _ in range(2):
            with pytest.raises(PipelineStageError) as err:
                run_three_stage(short, bad)
            assert err.value.stage == 1
        assert stage_runs == [short, short]

    def test_explicit_lags_after_aic_run(self, panel69):
        picked = run_three_stage(panel69, scenario(panel69))
        fixed = run_three_stage(panel69, scenario(panel69, stage2_lags=3, stage3_lags=2))
        assert picked.audit["lag_order_source"].startswith("aic")
        assert fixed.audit["lag_order_source"] == "scenario"
        assert fixed.audit["stage2"]["lag_order"] == 3


class TestExogLags:
    @pytest.mark.parametrize("exog_lags", [0, 1, 2, 3])
    def test_stage2_forecast_by_hand(self, panel69, exog_lags):
        # the oracle fits stage 2 on the full spliced block of its own factor
        target = "exchange_rate"
        result = run_three_stage(
            panel69, scenario(panel69, exog_lags=exog_lags, stage2_lags=3, stage3_lags=2)
        )
        assert result.audit["stage2"]["exog_lags"] == exog_lags

        baseline = vk.forecast_vecm(vk.fit_vecm(panel69, 2, 2), 20)
        spliced = np.concatenate([panel69.column(target), baseline.column(target) * 1.15])
        d_frame = vk.first_difference(panel69)
        d_spliced = np.diff(spliced)[:, None]
        block = vk.Frame(d_frame.start, (target,), d_spliced)
        path = vk.Frame(panel69.end.next(), (target,), d_spliced[len(d_frame) :])
        fit2 = vk.fit_var(d_frame.drop(target), 3, exog=block, exog_lags=exog_lags)
        assert result.stage2_forecast == vk.forecast_var(fit2, 20, exog_path=path)

    def test_stage2_failure_raises_every_time(self, panel69, stage_runs):
        # AIC picks p=1 on this panel, so exog_lags=2 fails only in stage 2
        bad = scenario(panel69, exog_lags=2, stage3_lags=2)
        for _ in range(2):
            with pytest.raises(PipelineStageError) as err:
                run_three_stage(panel69, bad)
            assert err.value.stage == 2
        assert stage_runs == [panel69, panel69]


class TestScenarioChecks:
    def test_negative_exog_lags(self, panel69):
        with pytest.raises(DomainError, match="exog_lags must be >= 0, got -1"):
            scenario(panel69, exog_lags=-1)

    @pytest.mark.parametrize("name", ["stage2_lags", "stage3_lags"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_stage_lags_below_one_rejected_before_any_stage(self, panel69, name, value, stage_runs):
        with pytest.raises(DomainError, match=f"^{name} must be >= 1, got {value}$"):
            scenario(panel69, **{name: value})
        assert stage_runs == []

    def test_start_label_rejected_before_any_stage(self, panel69, stage_runs):
        with pytest.raises(DomainError, match="^start must be a QuarterIndex, got '2018Q2'$"):
            run_three_stage(panel69, vk.ShockScenario("exchange_rate", 1.1, "2018Q2"))
        assert stage_runs == []

    def test_exog_lags_above_stage2_lags(self, panel69):
        with pytest.raises(DomainError, match=r"exog_lags must be in 0\.\.1 \(stage2_lags\), got 3"):
            scenario(panel69, exog_lags=3, stage2_lags=1)

    def test_exog_lags_up_to_stage2_lags_accepted(self, panel69):
        assert scenario(panel69, exog_lags=2, stage2_lags=2).exog_lags == 2

    def test_aic_lags_named_in_stage2_error(self, panel69):
        # the AIC search picks p=1 here, which the message names
        with pytest.raises(PipelineStageError, match=r"exog_lags must be in 0\.\.1, got 2") as err:
            run_three_stage(panel69, scenario(panel69, exog_lags=2))
        assert err.value.stage == 2


def same_value(a, b) -> bool:
    """Equal bit for bit: arrays by shape and bytes, tuples item by item."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_value, a, b))
    return a == b


class TestStage3FitStep:
    """Stage 3 fits its spliced rows through ``fit_var``'s own fit step,
    without a Frame: the result is ``fit_var`` on the spliced Frame."""

    @settings(max_examples=30, deadline=None)
    @given(
        factor=st.floats(0.8, 1.2),
        exog_lags=st.integers(0, 2),
        stage3_lags=st.sampled_from([None, 3]),
        offset=st.integers(0, 3),
    )
    def test_equals_fit_var_on_the_spliced_frame(
        self, panel69, factor, exog_lags, stage3_lags, offset
    ):
        target = "exchange_rate"
        sc = scenario(
            panel69,
            factor=factor,
            start=panel69.end.shift(1 + offset),
            stage2_lags=2,
            stage3_lags=stage3_lags,
            exog_lags=exog_lags,
        )
        result = run_three_stage(panel69, sc)

        d_frame = vk.first_difference(panel69)
        d_path = np.diff(np.concatenate([panel69.column(target)[-1:], result.shocked_path.values]))
        rows = np.insert(result.stage2_forecast.values, panel69.names.index(target), d_path, axis=1)
        spliced = vk.Frame(d_frame.start, panel69.names, np.vstack([d_frame.values, rows]))
        want = vk.fit_var(spliced, result.audit["stage3"]["lag_order"])

        for f in dataclasses.fields(vk.VarFit):
            assert same_value(getattr(result.stage3_fit, f.name), getattr(want, f.name)), f.name
        want_irfs = vk.orthogonalized_irfs(want, sc.horizon, target)
        assert result.irfs.keys() == want_irfs.keys()
        for name, irf in result.irfs.items():
            assert same_value(irf.values, want_irfs[name].values), name


def close(got, want) -> bool:
    """Within 1e-9 of the largest entry of ``want``, a bound fixed up front
    (the worst error measured on 40 study panels was 1.7e-12)."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def aic_margin(report) -> float:
    """The gap between the smallest AIC and the next one."""
    first, second = sorted(r.aic for r in report.rows)[:2]
    return second - first


def study(frame):
    """The paper's study: rank test, lag search, and the three-stage shock
    at factor 1.1, with the AIC picking stage lags."""
    johansen = vk.johansen_trace(frame, 2)
    lags = vk.lag_order_selection(frame, 4)
    result = run_three_stage(frame, scenario(frame, factor=1.1))
    return johansen, lags, result


class TestAffineEquivariance:
    """With an unrestricted constant, X -> X diag(c) + a maps every output
    of the study exactly: forecasts to F diag(c) + a, differenced forecasts
    to F diag(c), sigma to diag(c) sigma diag(c) and IRF row i to c_i times
    itself, while trace statistics and lag picks stay. The shock multiplies
    the target's path, so a is 0 on the target."""

    @given(
        seed=st.integers(0, 2**16),
        logs=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
        shifts=st.lists(st.floats(-50.0, 50.0), min_size=6, max_size=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_study_maps_exactly(self, seed, logs, shifts):
        frame = cointegrated_panel(seed)
        target = frame.names.index("exchange_rate")
        c = np.exp(logs)
        a = np.array(shifts)
        a[target] = 0.0
        johansen, lags, result = study(frame)
        # an AIC near-tie may flip under rounding; the ties are not the property
        assume(aic_margin(lags) > 1e-6)
        assume(aic_margin(vk.lag_order_selection(first_difference(frame), 4)) > 1e-6)

        moved = vk.Frame(frame.start, frame.names, frame.values * c + a)
        johansen2, lags2, result2 = study(moved)
        assert close(johansen2.trace_stats, johansen.trace_stats)
        assert lags2.selected == lags.selected
        assert result2.audit == result.audit
        assert close(result2.stage1_forecast.values, result.stage1_forecast.values * c + a)
        others = np.delete(c, target)
        assert close(result2.stage2_forecast.values, result.stage2_forecast.values * others)
        assert close(result2.stage3_fit.sigma, result.stage3_fit.sigma * np.outer(c, c))
        for i, name in enumerate(frame.names):
            assert close(result2.irfs[name].values, result.irfs[name].values * c[i])


class TestCholeskyGroupInvariance:
    """The target's orthogonalized impulse is column j of the Cholesky
    factor of sigma, which depends on the set of variables ordered before
    the target, not on their order; the same holds for those after it. So
    permuting the variables within either group only permutes the outputs:
    stage-1 and stage-2 forecasts by column and the stage-3 IRFs to the
    target by response name. Explicit stage lags keep an AIC tie from
    flipping a pick."""

    @given(seed=st.integers(0, 2**16), position=st.integers(1, 4), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_group_permutations_permute_the_outputs(self, seed, position, data):
        frame = cointegrated_panel(seed)
        target = "exchange_rate"
        others = [n for n in frame.names if n != target]
        before, after = others[:position], others[position:]
        moved_before = data.draw(st.permutations(before), label="before")
        moved_after = data.draw(st.permutations(after), label="after")
        base = frame.select([*before, target, *after])
        moved = frame.select([*moved_before, target, *moved_after])
        lags = dict(factor=1.1, stage2_lags=2, stage3_lags=2)
        want = run_three_stage(base, scenario(base, **lags))
        got = run_three_stage(moved, scenario(moved, **lags))
        for name in frame.names:
            assert close(got.stage1_forecast.column(name), want.stage1_forecast.column(name))
            assert close(got.irfs[name].values, want.irfs[name].values), name
        for name in others:
            assert close(got.stage2_forecast.column(name), want.stage2_forecast.column(name))
