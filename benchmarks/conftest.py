"""Shared fixtures for the reproduction benchmarks.

Every benchmark that regenerates one of the paper's tables or figures also
writes a plain-text record of the produced rows (and the paper's values where
applicable) to ``benchmarks/results/``, so that the numbers survive output
capturing (see README.md, "Paper artefacts and case studies").
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Make the in-tree sources importable even without an installed package.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benchmark tables are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record_snapshot(results_dir):
    """Callable ``record_snapshot(name, record)`` writing a benchmark JSON.

    The record is written twice: to ``benchmarks/results/BENCH_<name>.json``
    (the per-run output directory) and to ``BENCH_<name>.json`` at the repo
    root — the committed snapshot consumed by CHANGES.md.  Writing both from
    the same run keeps the root snapshot from going stale when benchmarks are
    re-run.
    """
    import json

    repo_root = Path(__file__).resolve().parents[1]

    def _record(name: str, record: dict, update_root: bool = True) -> Path:
        text = json.dumps(record, indent=2) + "\n"
        path = results_dir / f"BENCH_{name}.json"
        path.write_text(text, encoding="utf-8")
        if update_root:
            # Reduced (quick-mode) runs keep the committed reference numbers.
            (repo_root / f"BENCH_{name}.json").write_text(text, encoding="utf-8")
        return path

    return _record


@pytest.fixture(scope="session")
def record_table(results_dir):
    """Callable ``record_table(name, text)`` storing and echoing a result table."""

    def _record(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n[{name}]\n{text}")
        return path

    return _record


@pytest.fixture(scope="session")
def barbera_two_layer_column_costs():
    """Per-column assembly costs of the Barberá two-layer matrix generation.

    Measured once per benchmark session and shared by the Fig. 6.1 and
    Table 6.2 benchmarks (the paper uses the same workload for both).
    """
    from repro.experiments.scaling import measure_column_costs

    costs, total_seconds = measure_column_costs("barbera/two_layer")
    return np.asarray(costs), float(total_seconds)


@pytest.fixture(scope="session")
def balaidos_results_all():
    """Analysis results of the Balaidos grid for soil models A, B and C."""
    from repro.experiments.balaidos import run_balaidos_all_models

    return run_balaidos_all_models()
