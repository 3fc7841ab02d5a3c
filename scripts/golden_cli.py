"""A golden record of the CLI, and a file-by-file diff of two records.

Recording runs a fixed list of ``python -m vecmkit.cli`` invocations (CASES)
against the vecmkit in ``--src``, each in a fresh process with ``--out`` as
its working directory. First it writes the inputs into ``--out``: the
conftest panel (``tests/conftest.py``'s ``cointegrated_panel``) as
``panel.csv``, the same panel times 1e30 as ``panel_1e30.csv`` and the
location-quotient rows of ``lq --csv`` as ``lq_rows.csv``. Every
invocation names its dataset and its output directory relative to
``--out``, so ``audit.json`` records the same paths wherever the tree or
the record lives. A case ``name`` leaves its artifacts in ``name/`` and
its stdout, stderr and exit code in ``name.stdout``, ``name.stderr`` and
``name.exit``.

The cases are the 10 dataset commands with their defaults and with a flag
variant each (two of ``irf`` and of ``shock``), ``lagselect`` and ``shock`` on the 1e30 panel, ``lq`` by
flags and by ``--csv``, and the error cases ``diagnose --lm-lags 0``,
``shock --stage3-lags 0`` and ``lq`` with a NaN input.

Comparing (``--against``) walks both records and prints each file that is
missing from one of them or differs in its bytes; it exits 1 if there is
any. A record of the parent and one of a change make a golden CLI diff:

    python3 scripts/golden_cli.py --src ../parent/src --out /tmp/golden-parent
    python3 scripts/golden_cli.py --src src --out /tmp/golden --against /tmp/golden-parent

``--against`` without ``--src`` compares two records made earlier. The
script is not a tier-1 test.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LQ_FLAGS = ("--industry-region", "10", "--employment-region", "100", "--industry-nation", "1",
            "--employment-nation", "100")
LQ_ROWS = (
    "year,industry_region,employment_region,industry_nation,employment_nation\n"
    "2001,10,100,1,100\n"
    "2002,20,100,1,100\n"
    "2003,5,250,2,80\n"
)

# case name -> CLI arguments after the dataset and output flags; None as the
# dataset runs the command with no --dataset
CASES: dict[str, tuple[str | None, tuple[str, ...]]] = {
    **{cmd: ("panel.csv", (cmd,)) for cmd in (
        "describe", "adf", "lagselect", "johansen", "fit-vec", "diagnose", "irf", "forecast",
        "backtest", "shock",
    )},
    "describe-variables": (
        "panel.csv", ("--variables", "num_firms,exchange_rate,wages,employment,price,output", "describe"),
    ),
    "adf-lags-spec": ("panel.csv", ("adf", "--lags", "2", "--spec", "constant+trend")),
    "lagselect-max-lag": ("panel.csv", ("lagselect", "--max-lag", "6")),
    "johansen-lags": ("panel.csv", ("johansen", "--lags", "3")),
    "fit-vec-lags-rank": ("panel.csv", ("fit-vec", "--lags", "3", "--rank", "1")),
    "diagnose-lm-n-eff": ("panel.csv", ("diagnose", "--lm-lags", "4", "--n-eff", "60")),
    "irf-impulse": ("panel.csv", ("irf", "--impulse", "output")),
    "irf-pair": ("panel.csv", ("irf", "--impulse", "price", "--response", "employment", "--horizon", "12")),
    "forecast-horizon-lags": ("panel.csv", ("forecast", "--horizon", "8", "--lags", "3")),
    "backtest-holdout": ("panel.csv", ("backtest", "--holdout", "4")),
    "shock-exog": (
        "panel.csv",
        ("shock", "--factor", "1.1", "--exog-lags", "1", "--stage2-lags", "2", "--stage3-lags", "2",
         "--horizon", "12"),
    ),
    "shock-horizon-2": ("panel.csv", ("shock", "--horizon", "2")),
    "lagselect-1e30": ("panel_1e30.csv", ("lagselect",)),
    "shock-1e30": ("panel_1e30.csv", ("shock",)),
    "lq-flags": (None, ("lq", *LQ_FLAGS)),
    "lq-csv": (None, ("lq", "--csv", "lq_rows.csv")),
    "error-diagnose-lm-lags-0": ("panel.csv", ("diagnose", "--lm-lags", "0")),
    "error-shock-stage3-lags-0": ("panel.csv", ("shock", "--stage3-lags", "0")),
    "error-lq-nan": (None, ("lq", "--industry-region", "nan", *LQ_FLAGS[2:])),
}


def write_inputs(src: Path, out: Path) -> None:
    """The two panels and the lq rows, written by the vecmkit in ``src``."""
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import vecmkit as vk
    from conftest import cointegrated_panel

    panel = cointegrated_panel()
    vk.write_frame(panel, out / "panel.csv")
    vk.write_frame(vk.Frame(panel.start, panel.names, panel.values * 1e30), out / "panel_1e30.csv")
    (out / "lq_rows.csv").write_text(LQ_ROWS, encoding="utf-8")


def record(src: Path, out: Path) -> None:
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    write_inputs(src, out)
    # a config file named by the environment would change every run
    env = {k: v for k, v in os.environ.items() if k != "VECMKIT_CONFIG"}
    env["PYTHONPATH"] = str(src)
    for name, (dataset, args) in CASES.items():
        data = ("--dataset", dataset) if dataset else ()
        argv = [sys.executable, "-m", "vecmkit.cli", *data, "--output", name, *args]
        run = subprocess.run(argv, cwd=out, env=env, capture_output=True)
        (out / f"{name}.stdout").write_bytes(run.stdout)
        (out / f"{name}.stderr").write_bytes(run.stderr)
        (out / f"{name}.exit").write_text(f"{run.returncode}\n")
        print(f"{name:28} exit {run.returncode}")
    print(f"{len(CASES)} invocations, {sum(1 for p in out.rglob('*') if p.is_file())} files in {out}")


def compare(ours: Path, theirs: Path) -> int:
    """The number of files missing from one record or differing in bytes."""
    files = {p.relative_to(d) for d in (ours, theirs) for p in d.rglob("*") if p.is_file()}
    differing = 0
    for rel in sorted(files):
        a, b = ours / rel, theirs / rel
        if not (a.is_file() and b.is_file()):
            print(f"only in {ours if a.is_file() else theirs}: {rel}")
        elif a.read_bytes() != b.read_bytes():
            print(f"differs: {rel}")
        else:
            continue
        differing += 1
    print(f"{differing} of {len(files)} files differ")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, help="the src directory whose vecmkit is recorded")
    parser.add_argument("--out", type=Path, required=True, help="the record's directory")
    parser.add_argument("--against", type=Path, help="a record to compare --out with")
    args = parser.parse_args(argv)
    if args.src is None and args.against is None:
        parser.error("give --src to record, --against to compare, or both")
    if args.src is not None:
        record(args.src.resolve(), args.out.resolve())
    return 1 if args.against is not None and compare(args.out, args.against) else 0


if __name__ == "__main__":
    sys.exit(main())
