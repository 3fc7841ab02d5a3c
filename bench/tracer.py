"""Span tracing of vecmkit's layers from outside the library.

Each listed function is replaced by a wrapper at every ``vecmkit.*`` module
binding that refers to it, so a call made inside the library (for example
``vecmkit.vecm`` calling its own imported ``ols``) is recorded too. Spans
stay in memory; self time is a span's duration minus the time covered by
the spans it directly caused.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, function) per layer; the module is the layer.
LAYERS = (
    ("numerics", "ols"),
    ("numerics", "cholesky_lower"),
    ("numerics", "generalized_symmetric_eigen"),
    ("numerics", "chi_square_sf"),
    ("vecm", "_concentrate"),
    ("vecm", "johansen_trace"),
    ("vecm", "fit_vecm"),
    ("vecm", "forecast_vecm"),
    ("var", "fit_var"),
    ("var", "forecast_var"),
    ("diagnostics", "lag_order_selection"),
    ("diagnostics", "lm_autocorrelation"),
    ("diagnostics", "normality_suite"),
    ("diagnostics", "vecm_stability"),
    ("irf", "ma_coefficients"),
    ("irf", "orthogonalized_irf"),
    ("shock", "run_three_stage"),
    ("quarterly", "load_frame"),
    ("formatting", "write_csv"),
    ("formatting", "write_json"),
)


def _qr_flops(args) -> float:
    """Householder QR cost of the design X (T x m): 2 T m^2 - (2/3) m^3."""
    t, m = np.shape(args[1])
    return 2.0 * t * m * m - 2.0 * m**3 / 3.0


class Tracer:
    """Records spans while installed; counts computed QR flops and bytes
    written alongside them.

    The bindings are found once, so ``install`` and ``uninstall`` are only
    a few dozen attribute writes and can bracket each traced unit.
    """

    def __init__(self):
        self.spans: list = []  # (unit, name, start, end, parent index)
        self.unit = -1
        self.qr_flops = 0.0
        self.bytes_written = 0
        self._stack: list[int] = []
        for module_name, _ in LAYERS:
            importlib.import_module(f"vecmkit.{module_name}")
        modules = [m for n, m in sys.modules.items() if n == "vecmkit" or n.startswith("vecmkit.")]
        self._bindings = []  # (module, attribute, original, wrapper)
        for module_name, func in LAYERS:
            original = getattr(sys.modules[f"vecmkit.{module_name}"], func)
            wrapper = self._wrap(f"{module_name}.{func}", original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._bindings.append((module, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (self.unit, name, start, end, parent)
            if name == "numerics.ols":
                self.qr_flops += _qr_flops(args)
            elif name.startswith("formatting.write_"):
                self.bytes_written += Path(result).stat().st_size
            return result

        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total_ms and self_ms over all recorded spans."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {f"{m}.{f}": {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for m, f in LAYERS}
        for idx, (_, name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child[idx]) * 1e3
        return out
