import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vecmkit as vk
from vecmkit import (
    DEFAULT_SCHEMA,
    Frame,
    QuarterIndex,
    Series,
    first_difference,
    load_frame,
    location_quotient,
    parse_quarter,
    proxy_quarterly_output,
    summary_stats,
    write_frame,
)
from vecmkit.errors import (
    DomainError,
    EmptyInputError,
    InsufficientDataError,
    MissingColumnError,
    NonNumericCellError,
    QuarterGapError,
    QuarterParseError,
)
from vecmkit.quarterly import _lag_blocks

from conftest import make_frame


class TestQuarterIndex:
    def test_parse_examples(self):
        assert parse_quarter("2001Q1") == QuarterIndex(2001, 1)
        assert parse_quarter("2018Q1") == QuarterIndex(2018, 1)

    def test_span_of_reference_sample(self):
        # inclusive 2001Q1..2018Q1 holds 69 points
        a, b = parse_quarter("2001Q1"), parse_quarter("2018Q1")
        assert a.distance(b) == 68

    @pytest.mark.parametrize("bad", ["2001Q5", "2001Q0", "2001", "Q1", "2001q1", "20a1Q1", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(QuarterParseError):
            parse_quarter(bad)

    def test_year_rollover(self):
        assert QuarterIndex(2001, 4).next() == QuarterIndex(2002, 1)

    def test_ordering_is_lexicographic(self):
        assert QuarterIndex(2001, 4) < QuarterIndex(2002, 1)
        assert QuarterIndex(2003, 1) > QuarterIndex(2002, 4)

    @given(
        year=st.integers(min_value=1, max_value=9999),
        quarter=st.integers(min_value=1, max_value=4),
    )
    def test_roundtrip_through_formatting(self, year, quarter):
        q = QuarterIndex(year, quarter)
        assert parse_quarter(str(q)) == q

    @given(
        year=st.integers(min_value=100, max_value=5000),
        quarter=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=-200, max_value=200),
    )
    def test_shift_distance_inverse(self, year, quarter, n):
        q = QuarterIndex(year, quarter)
        assert q.distance(q.shift(n)) == n


CSV_3ROW = "quarter,value\n2001Q1,1.0\n2001Q2,2.0\n2001Q3,3.0\n"


def load_text(tmp_path, text, schema):
    """``load_frame`` on ``text`` written to panel.csv in ``tmp_path``."""
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8")
    return load_frame(path, schema=schema)


class TestLoadFrame:
    def test_three_row_toy(self, tmp_path):
        frame = load_text(tmp_path, CSV_3ROW, ("value",))
        assert len(frame) == 3
        assert frame.start == QuarterIndex(2001, 1)
        np.testing.assert_array_equal(frame.column("value"), [1.0, 2.0, 3.0])

    def test_gap_detection(self, tmp_path):
        text = "quarter,value\n2001Q1,1.0\n2001Q3,3.0\n"
        with pytest.raises(QuarterGapError, match="2001Q2"):
            load_text(tmp_path, text, ("value",))

    def test_missing_column_named(self, tmp_path):
        with pytest.raises(MissingColumnError, match="price"):
            load_text(tmp_path, CSV_3ROW, ("value", "price"))

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        text = "quarter,value\n2001Q1,1.0\n2001Q2,oops\n"
        with pytest.raises(NonNumericCellError, match=r"row 3.*value"):
            load_text(tmp_path, text, ("value",))

    def test_short_row_names_row_and_column(self, tmp_path):
        text = "quarter,a,b\n2001Q1,1,2\n2001Q2,3\n"
        with pytest.raises(NonNumericCellError, match="panel.csv: row 3, column 'b': missing cell"):
            load_text(tmp_path, text, ("a", "b"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyInputError):
            load_text(tmp_path, "", ("value",))
        with pytest.raises(EmptyInputError):
            load_text(tmp_path, "quarter,value\n", ("value",))

    def test_columns_reordered_to_schema(self, tmp_path):
        text = "quarter,b,a\n2001Q1,2.0,1.0\n"
        frame = load_text(tmp_path, text, ("a", "b"))
        assert frame.names == ("a", "b")
        np.testing.assert_array_equal(frame.values, [[1.0, 2.0]])

    def test_reference_shaped_dataset(self, panel69, tmp_path):
        path = tmp_path / "panel.csv"
        write_frame(panel69, path)
        frame = load_frame(path, schema=DEFAULT_SCHEMA)
        assert len(frame) == 69
        assert frame.names == DEFAULT_SCHEMA

    def test_write_load_roundtrip_is_exact(self, panel69, tmp_path):
        path = tmp_path / "roundtrip.csv"
        write_frame(panel69, path)
        again = load_frame(path, schema=panel69.names)
        assert again.start == panel69.start
        np.testing.assert_array_equal(again.values, panel69.values)

    def test_values_are_immutable(self, panel69):
        with pytest.raises(ValueError):
            panel69.values[0, 0] = 99.0


class TestFrameEquality:
    def test_equal_content_is_equal(self, panel69):
        twin = Frame(panel69.start, panel69.names, np.array(panel69.values))
        assert twin is not panel69
        assert twin == panel69 and not twin != panel69
        with pytest.raises(TypeError):
            hash(twin)

    @pytest.mark.parametrize("change", ["start", "names", "value"])
    def test_any_difference_is_unequal(self, panel69, change):
        start, names, values = panel69.start, panel69.names, np.array(panel69.values)
        if change == "start":
            start = start.next()
        elif change == "names":
            names = (*names[:-1], "other")
        else:
            values[-1, -1] += 1e-12
        other = Frame(start, names, values)
        assert other != panel69 and not other == panel69

    def test_non_frame_is_unequal(self, panel69):
        assert panel69.__eq__(panel69.values) is NotImplemented
        assert panel69.__eq__("panel") is NotImplemented
        assert (panel69 == "panel") is False
        assert panel69 != 3


class TestSeriesEquality:
    @pytest.fixture
    def series(self, panel69):
        return panel69.series("price")

    def test_equal_content_is_equal(self, series):
        twin = Series(series.name, series.start, np.array(series.values))
        assert twin is not series
        assert twin == series and not twin != series
        with pytest.raises(TypeError):
            hash(twin)

    @pytest.mark.parametrize("change", ["name", "start", "value"])
    def test_any_difference_is_unequal(self, series, change):
        name, start, values = series.name, series.start, np.array(series.values)
        if change == "name":
            name = "other"
        elif change == "start":
            start = start.next()
        else:
            values[-1] += 1e-12
        other = Series(name, start, values)
        assert other != series and not other == series

    def test_non_series_is_unequal(self, series, panel69):
        assert series.__eq__(series.values) is NotImplemented
        assert series.__eq__("price") is NotImplemented
        assert series.__eq__(panel69.select(["price"])) is NotImplemented
        assert series != panel69.select(["price"])
        assert (series == "price") is False


class TestFirstDifference:
    def test_arithmetic(self):
        out = first_difference(make_frame([1.0, 3.0, 6.0]))
        np.testing.assert_array_equal(out.values[:, 0], [2.0, 3.0])
        assert out.start == QuarterIndex(2001, 2)

    def test_constant_series(self):
        out = first_difference(make_frame([5.0, 5.0, 5.0]))
        np.testing.assert_array_equal(out.values[:, 0], [0.0, 0.0])

    def test_linear_trend_becomes_constant(self):
        a, b = 2.0, 0.7
        frame = make_frame(a + b * np.arange(10.0))
        out = first_difference(frame)
        np.testing.assert_allclose(out.values[:, 0], b)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            first_difference(make_frame([1.0]))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
    def test_reconstruction_from_cumsum(self, values):
        frame = make_frame(values)
        diffed = first_difference(frame)
        rebuilt = values[0] + np.cumsum(diffed.values[:, 0])
        np.testing.assert_allclose(rebuilt, np.asarray(values)[1:], rtol=0, atol=1e-6)


class TestLagBlocks:
    @given(
        rows=st.integers(1, 12),
        k=st.integers(1, 4),
        p=st.integers(0, 11),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_entry_is_value_p_plus_i_minus_j(self, rows, k, p, seed):
        t = p + rows
        values = np.random.default_rng(seed).standard_normal((t, k))
        blocks = _lag_blocks(values, p)
        assert len(blocks) == p
        for j, block in enumerate(blocks, start=1):
            assert block.shape == (t - p, k)
            for i in range(t - p):
                for v in range(k):
                    assert block[i, v] == values[p + i - j, v]


class TestSummaryStats:
    def test_basic(self):
        report = summary_stats(make_frame([1.0, 2.0, 3.0]))
        col = report.columns[0]
        assert col.mean == 2.0
        assert col.sd == pytest.approx(1.0)
        assert (col.minimum, col.maximum, col.count) == (1.0, 3.0, 3)

    def test_constant_column(self):
        assert summary_stats(make_frame([4.0, 4.0, 4.0])).columns[0].sd == 0.0

    def test_min_le_mean_le_max(self, panel69):
        for col in summary_stats(panel69).columns:
            assert col.minimum <= col.mean <= col.maximum
            assert col.count == len(panel69)

    @given(st.permutations(list(range(12))))
    def test_row_permutation_invariance(self, perm):
        base = np.arange(12.0) ** 1.5
        a = summary_stats(make_frame(base)).columns[0]
        b = summary_stats(make_frame(base[perm])).columns[0]
        assert (a.mean, a.minimum, a.maximum) == pytest.approx((b.mean, b.minimum, b.maximum))
        assert a.sd == pytest.approx(b.sd)


class TestOutputProxy:
    def test_uniform_share(self):
        us = Series("us", QuarterIndex(2001, 1), [1000.0] * 4)
        out = proxy_quarterly_output(us, {2001: 40.0}, {2001: 4000.0})
        np.testing.assert_allclose(out.values, 10.0)

    def test_full_share_is_identity(self):
        us = Series("us", QuarterIndex(2001, 1), [7.0, 8.0, 9.0, 10.0])
        out = proxy_quarterly_output(us, {2001: 5.0}, {2001: 5.0})
        np.testing.assert_allclose(out.values, us.values)

    def test_two_year_shares(self):
        us = Series("us", QuarterIndex(2001, 1), [100.0] * 8)
        out = proxy_quarterly_output(
            us, {2001: 1.0, 2002: 2.0}, {2001: 100.0, 2002: 100.0}
        )
        np.testing.assert_allclose(out.values, [1, 1, 1, 1, 2, 2, 2, 2])

    def test_missing_year(self):
        us = Series("us", QuarterIndex(2001, 1), [1.0] * 8)
        with pytest.raises(DomainError, match="2002"):
            proxy_quarterly_output(us, {2001: 1.0}, {2001: 100.0, 2002: 100.0})

    def test_nonpositive_annual(self):
        us = Series("us", QuarterIndex(2001, 1), [1.0])
        with pytest.raises(DomainError):
            proxy_quarterly_output(us, {2001: 0.0}, {2001: 100.0})

    @pytest.mark.parametrize("region, nation", [("a", 100.0), (1.0, None)], ids=["string", "None"])
    def test_non_numeric_annual(self, region, nation):
        us = Series("us", QuarterIndex(2001, 1), [1.0])
        with pytest.raises(DomainError, match=r"^annual values must be real numbers \(year 2001\)$"):
            proxy_quarterly_output(us, {2001: region}, {2001: nation})

    @given(scale=st.floats(0.1, 50.0))
    def test_linear_in_quarterly_input(self, scale):
        base = np.array([3.0, 5.0, 7.0, 11.0])
        us1 = Series("us", QuarterIndex(2001, 1), base)
        us2 = Series("us", QuarterIndex(2001, 1), scale * base)
        out1 = proxy_quarterly_output(us1, {2001: 2.0}, {2001: 9.0})
        out2 = proxy_quarterly_output(us2, {2001: 2.0}, {2001: 9.0})
        np.testing.assert_allclose(out2.values, scale * out1.values, rtol=1e-12)


class TestLocationQuotient:
    def test_basic(self):
        assert location_quotient(10, 100, 1, 100) == pytest.approx(10.0)

    def test_equal_shares_are_neutral(self):
        assert location_quotient(5, 50, 20, 200) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [(0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)])
    def test_nonpositive_inputs(self, bad):
        with pytest.raises(DomainError):
            location_quotient(*bad)

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_inputs(self, position, value):
        inputs = [10.0, 100.0, 1.0, 100.0]
        inputs[position] = value
        with pytest.raises(DomainError, match="finite"):
            location_quotient(*inputs)

    @pytest.mark.parametrize("value", ["a", None, 1 + 1j])
    def test_non_real_inputs(self, value):
        with pytest.raises(DomainError, match="^location quotient needs real inputs"):
            location_quotient(10.0, value, 1.0, 100.0)

    @given(scale=st.floats(1e-3, 1e3))
    def test_common_rescale_invariance(self, scale):
        base = location_quotient(10, 100, 3, 600)
        scaled = location_quotient(10 * scale, 100 * scale, 3 * scale, 600 * scale)
        assert scaled == pytest.approx(base, rel=1e-9)
