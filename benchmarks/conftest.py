"""Shared infrastructure for the benchmark suite.

Every experiment bench times its core operation with pytest-benchmark
and archives the experiment's result table under
``benchmarks/results/`` — those files are the "rows/series the paper
reports"; each bench's docstring states the paper claim it checks.

Run the claims without timing them (the CI ``paper-claims`` job)::

    PYTHONPATH=src python -m pytest benchmarks \
        -o python_files='bench_*.py' --benchmark-disable -q
"""

import pathlib

import pytest

from repro.harness import ExperimentConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: One compact configuration shared by all experiment benches so the
#: whole suite stays fast while the statistics remain meaningful.
BENCH_CONFIG = ExperimentConfig(books=80, editors=8, seed=42)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def archive(results_dir: pathlib.Path, name: str, table) -> None:
    """Write a rendered table (or several) to results/<name>.txt."""
    if isinstance(table, (list, tuple)):
        text = "\n\n".join(t.render() for t in table)
    else:
        text = table.render()
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print("\n" + text)
