"""A byte-level pin on every quick experiment table.

Each experiment runs at quick scale and the test hashes its columns and
rows (floats at full ``repr`` precision), leaving out the wall-clock
columns of the runtime tables.  The pinned values live in
``quick_digests.json`` beside this file.  A change that moves any table
cell by one ulp fails here; a change meant to move a table re-pins its
digest in the same diff and says why.  Regenerate the file with::

    PYTHONPATH=src python -m tests.experiments.test_quick_digests
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.kernels import kernel_names, use_kernel

DIGESTS = Path(__file__).with_name("quick_digests.json")

#: Columns that hold wall-clock measurements, by table.
RUNTIME_COLUMNS = {
    "tab_r1": ("mean_runtime_ms",),
    "tab_r3": ("mean_runtime_ms",),
    "tab_r4": (
        "greedy_marginal",
        "lp_rounding",
        "fptas(0.1)",
        "pareto_exact",
        "branch_and_bound",
    ),
}


def table_digest(table) -> str:
    """sha256 over *table*'s columns and rows, runtime columns left out."""
    skip = RUNTIME_COLUMNS.get(table.name, ())
    keep = [i for i, name in enumerate(table.columns) if name not in skip]
    payload = [[table.columns[i] for i in keep]]
    payload.extend([row[i] for i in keep] for row in table.rows)
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def quick_digests() -> dict[str, str]:
    """The digest of every experiment's quick table, by name."""
    return {
        name: table_digest(ALL_EXPERIMENTS[name](quick=True))
        for name in sorted(ALL_EXPERIMENTS)
    }


def test_runtime_columns_exist():
    for name, columns in RUNTIME_COLUMNS.items():
        table = ALL_EXPERIMENTS[name](quick=True)
        assert set(columns) <= set(table.columns), name


@pytest.mark.parametrize("kernel", kernel_names())
def test_quick_tables_are_byte_identical(kernel):
    with use_kernel(kernel):
        assert quick_digests() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":  # pragma: no cover
    DIGESTS.write_text(json.dumps(quick_digests(), indent=2, sort_keys=True) + "\n")
