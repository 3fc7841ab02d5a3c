import csv
import json

import numpy as np
import pytest

import vecmkit as vk
from vecmkit import Frame, QuarterIndex, StatsReport, load_frame, summary_stats, write_frame
from vecmkit.formatting import to_jsonable

from conftest import assert_arrays_survive_json, make_frame


class TestToJsonable:
    def test_quarter_becomes_its_label(self):
        assert to_jsonable(QuarterIndex(2001, 3)) == "2001Q3"

    def test_tuple_of_arrays_becomes_nested_lists(self):
        value = (np.array([1.0, 2.5]), np.eye(2))
        assert to_jsonable(value) == [[1.0, 2.5], [[1.0, 0.0], [0.0, 1.0]]]

    def test_none_and_scalars_pass_through(self):
        assert to_jsonable(None) is None
        assert to_jsonable({"a": None, "b": 3, "c": "x"}) == {"a": None, "b": 3, "c": "x"}

    def test_nested_dataclass(self):
        report = summary_stats(make_frame([[1.0, 4.0], [2.0, 6.0], [3.0, 8.0]]))
        assert isinstance(report, StatsReport)
        encoded = to_jsonable(report)
        assert encoded["start"] == "2001Q1" and encoded["end"] == "2001Q3"
        assert encoded["columns"][1] == {
            "name": "x2", "mean": 6.0, "sd": 2.0, "minimum": 4.0, "maximum": 8.0, "count": 3,
        }
        assert json.loads(json.dumps(encoded)) == encoded

    def test_frame_is_start_names_values(self):
        frame = Frame(QuarterIndex(2010, 4), ("a", "b"), np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert to_jsonable(frame) == {
            "start": "2010Q4",
            "names": ["a", "b"],
            "values": [[1.0, 2.0], [3.0, 4.0]],
        }


def vecm_case(panel):
    return vk.fit_vecm(panel, 3, 2)


def stage3_case(panel):
    scenario = vk.ShockScenario("exchange_rate", 1.15, panel.end.next(), horizon=12, rank=2)
    return vk.run_three_stage(panel, scenario).stage3_fit


def varx_case(panel):
    d_frame = vk.first_difference(panel)
    target = "exchange_rate"
    return vk.fit_var(d_frame.drop(target), 2, exog=d_frame.select([target]), exog_lags=1)


class TestArtifactPrecision:
    """An artifact holds its record exactly."""

    @pytest.mark.parametrize("case", [vecm_case, stage3_case, varx_case], ids=["vecm", "stage3", "varx"])
    def test_array_fields_survive_json_bit_for_bit(self, panel69, case):
        assert_arrays_survive_json(case(panel69))


class TestWriteFrame:
    def test_creates_missing_parents_and_returns_path(self, panel69, tmp_path):
        path = tmp_path / "a" / "b" / "panel.csv"
        assert write_frame(panel69, path) == path
        assert load_frame(path, schema=panel69.names) == panel69

    def test_rows_lead_with_quarter_labels(self, tmp_path):
        frame = Frame(QuarterIndex(2001, 4), ("v",), np.array([[0.1], [2.0]]))
        with write_frame(frame, tmp_path / "v.csv").open(newline="") as fh:
            assert list(csv.reader(fh)) == [["quarter", "v"], ["2001Q4", "0.1"], ["2002Q1", "2.0"]]
