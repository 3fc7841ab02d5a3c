"""The package surface, the modules each CLI command loads in a fresh
process, and the process entry."""

import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vecmkit as vk
from vecmkit.cli import main

from conftest import cointegrated_panel

# the public names, as ``import vecmkit`` imported them eagerly
PUBLIC = [
    "ADF_CRITICAL_VALUES", "AdfResult", "ColumnStats", "ConfigError", "CoverageError",
    "DEFAULT_SCHEMA", "DegenerateInputError", "DomainError", "EmptyInputError", "Frame",
    "FrameError", "InsufficientDataError", "IrfResult", "JohansenResult", "LagSelectionReport",
    "LmResult", "MissingColumnError", "NonNumericCellError", "NormalityReport",
    "NotPositiveDefiniteError", "OlsFit", "OutOfRangeError", "PipelineResult",
    "PipelineStageError", "QuarterGapError", "QuarterIndex", "QuarterParseError", "RankError",
    "Series", "ShockScenario", "SingularDesignError", "StabilityReport", "StatsReport",
    "TRACE_CRIT_5PCT", "VarFit", "VecmFit", "VecmkitError", "adf_test",
    "apply_multiplicative_shock", "chi_square_sf", "cholesky_lower", "companion_matrix",
    "diagnostics", "eigen_moduli", "errors", "first_difference", "fit_var", "fit_vecm",
    "forecast_var", "forecast_vecm", "formatting", "generalized_symmetric_eigen",
    "information_criteria", "irf", "jarque_bera_components", "johansen_trace",
    "lag_order_selection", "lm_autocorrelation", "load_frame", "location_quotient",
    "ma_coefficients", "normality_suite", "numerics", "ols", "orthogonalized_irf",
    "orthogonalized_irfs", "parse_quarter", "proxy_quarterly_output", "quarterly",
    "run_three_stage", "select_rank", "shock", "stability_moduli", "summary_stats",
    "trace_statistics", "var", "vecm", "vecm_stability", "vecm_to_levels_var", "write_frame",
]
SUBMODULES = {"diagnostics", "errors", "formatting", "irf", "numerics", "quarterly", "shock", "var", "vecm"}


def fresh(*argv: str) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh interpreter that imports this checkout's vecmkit."""
    src = str(Path(vk.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "panel.csv"
    vk.write_frame(cointegrated_panel(), path)
    return path


class TestSurface:
    def test_all_is_the_public_list(self):
        assert vk.__all__ == PUBLIC

    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_is_its_submodules_object(self, name):
        value = getattr(vk, name)
        modules = {m: importlib.import_module(f"vecmkit.{m}") for m in SUBMODULES}
        if name in SUBMODULES:
            assert value is modules[name]
        else:
            assert any(name in vars(m) and vars(m)[name] is value for m in modules.values())

    def test_name_binds_on_first_use(self):
        assert vk.fit_vecm is vk.vecm.fit_vecm
        assert vars(vk)["fit_vecm"] is vk.vecm.fit_vecm

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from vecmkit import *", namespace)
        assert set(PUBLIC) <= set(namespace)
        assert set(PUBLIC) <= set(dir(vk))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="nope"):
            vk.nope


LOADED = """
import contextlib, io, json, sys
from vecmkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("vecmkit."))]))
"""


class TestImportSets:
    """A command loads only the modules it runs."""

    def test_import_vecmkit_loads_no_submodule(self):
        out = fresh(
            "-c",
            "import json, sys, vecmkit; "
            "print(json.dumps([sorted(m for m in sys.modules if m.startswith('vecmkit.')), 'numpy' in sys.modules]))"
        )
        loaded, numpy = json.loads(out.stdout)
        assert set(loaded) <= {"vecmkit.errors"} and not numpy

    @pytest.mark.parametrize(
        "command, absent",
        [
            ("describe", {"vecm", "var", "diagnostics", "irf", "shock"}),
            ("johansen", {"diagnostics", "irf", "shock"}),
        ],
    )
    def test_command_loads_only_what_it_runs(self, dataset, tmp_path, command, absent):
        out = fresh("-c", LOADED, "--dataset", str(dataset), "-o", str(tmp_path / "out"), command)
        code, loaded = json.loads(out.stdout)
        assert code == 0
        assert "vecmkit.cli" in loaded and not {f"vecmkit.{m}" for m in absent} & set(loaded)


class TestProcessEntry:
    """``python -m vecmkit.cli`` runs ``cli.entry``: ``main``, a frozen heap,
    and ``main``'s exit code."""

    def test_piped_stdout_and_artifacts_match_main(self, dataset, tmp_path, capsys):
        done = fresh("-m", "vecmkit.cli", "--dataset", str(dataset), "-o", str(tmp_path / "process"), "shock")
        assert (done.returncode, done.stderr) == (0, "")
        assert main(["--dataset", str(dataset), "-o", str(tmp_path / "main"), "shock"]) == 0
        assert done.stdout == capsys.readouterr().out
        names = sorted(p.name for p in (tmp_path / "main").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "process").iterdir())
        for name in set(names) - {"audit.json"}:  # the audit records each run's output directory
            assert (tmp_path / "process" / name).read_bytes() == (tmp_path / "main" / name).read_bytes(), name

    def test_main_never_freezes(self, dataset, tmp_path, capsys):
        assert main(["--dataset", str(dataset), "-o", str(tmp_path / "out"), "describe"]) == 0
        assert gc.get_freeze_count() == 0

    def test_library_error_exits_1_with_one_json_line(self, dataset, tmp_path):
        done = fresh("-m", "vecmkit.cli", "--dataset", str(dataset), "-o", str(tmp_path / "out"), "johansen", "--lags", "0")
        assert (done.returncode, done.stdout) == (1, "")
        assert json.loads(done.stderr) == {"error": {"type": "DomainError", "message": "lag order must be >= 1, got 0"}}

    def test_unknown_flag_exits_2(self, dataset, tmp_path):
        done = fresh("-m", "vecmkit.cli", "--dataset", str(dataset), "-o", str(tmp_path / "out"), "johansen", "--bogus")
        assert done.returncode == 2 and "unrecognized arguments: --bogus" in done.stderr
