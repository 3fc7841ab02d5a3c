import numpy as np
import pytest

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

from vecmkit.shock import _frame_stages
from vecmkit import vecm
from vecmkit.vecm import _concentration

from conftest import make_frame, simulate_vecm

FACTORS = (1.00, 1.05, 1.10, 1.15, 1.20)


def clear_memos():
    """Cold start: forget the kept frame stages, the kept concentration and
    the kept lag-search factor."""
    _frame_stages.cache_clear()
    _concentration.cache_clear()
    vecm._searched = None


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
        clear_memos()
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
            "stage 3 failed: design matrix is rank deficient (column pivot 0) under shock "
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
    def test_warm_grid_equals_cold_runs(self, panel69, factors, lags):
        cold = {}
        for factor in factors:
            clear_memos()
            cold[factor] = run_three_stage(panel69, scenario(panel69, factor=factor, **lags))
        clear_memos()
        for factor in factors:
            warm = run_three_stage(panel69, scenario(panel69, factor=factor, **lags))
            assert_bit_equal(warm, cold[factor])
        info = _frame_stages.cache_info()
        assert (info.hits, info.misses) == (len(factors) - 1, 1)

    def test_equal_frame_is_a_hit(self, panel69):
        twin = vk.Frame(panel69.start, panel69.names, np.array(panel69.values))
        assert twin is not panel69
        clear_memos()
        first = run_three_stage(panel69, scenario(panel69))
        second = run_three_stage(twin, scenario(twin))
        assert _frame_stages.cache_info().hits == 1
        assert_bit_equal(second, first)

    @pytest.mark.parametrize("change", ["value", "start", "names"])
    def test_changed_frame_is_a_miss(self, panel69, change):
        start, names, values = panel69.start, panel69.names, np.array(panel69.values)
        if change == "value":
            values[30, 0] = np.nextafter(values[30, 0], np.inf)
        elif change == "start":
            start = start.shift(1)
        else:
            names = (names[1], names[0], *names[2:])
        other = vk.Frame(start, names, values)
        clear_memos()
        run_three_stage(panel69, scenario(panel69))
        warm = run_three_stage(other, scenario(other))
        info = _frame_stages.cache_info()
        assert (info.hits, info.misses) == (0, 2)
        clear_memos()
        assert_bit_equal(warm, run_three_stage(other, scenario(other)))

    def test_stage1_failure_raises_every_time(self, panel69):
        short = panel69.head(12)
        bad = scenario(short, vecm_lags=4, horizon=1, start=short.end.next())
        clear_memos()
        for _ in range(2):
            with pytest.raises(PipelineStageError) as err:
                run_three_stage(short, bad)
            assert err.value.stage == 1
        info = _frame_stages.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_explicit_lags_after_aic_run(self, panel69):
        clear_memos()
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

    def test_stage2_failure_raises_every_time(self, panel69):
        # AIC picks p=1 on this panel, so exog_lags=2 fails only in stage 2
        bad = scenario(panel69, exog_lags=2, stage3_lags=2)
        clear_memos()
        for _ in range(2):
            with pytest.raises(PipelineStageError) as err:
                run_three_stage(panel69, bad)
            assert err.value.stage == 2
        info = _frame_stages.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


class TestScenarioChecks:
    def test_negative_exog_lags(self, panel69):
        with pytest.raises(DomainError, match="exog_lags must be >= 0, got -1"):
            scenario(panel69, exog_lags=-1)

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
