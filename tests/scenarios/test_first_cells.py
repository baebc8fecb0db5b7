"""Every registered family, smallest cell: repeatable and pinned.

Each family's first ``small`` cell runs twice in one process.  The two rows
must be equal — the module-level memo tables and caches outlive a cell, so a
second run that differed would mean state leaks between cells — and both must
equal the row recorded in ``first_cell_rows.json``, so a change to a grid, a
cell runner or the stack underneath shows up as a row diff in the family it
moved.  Wall-clock keys are left out of the comparison.

After an *intentional* protocol change, re-record the file in the same commit
(next to the fig4 ``GOLDEN``)::

    PYTHONPATH=src python tests/scenarios/test_first_cells.py
"""

import json
import pathlib

import pytest

from repro.scenarios import ScenarioSpec, expand, run_specs, system_for

ROWS_PATH = pathlib.Path(__file__).with_name("first_cell_rows.json")

#: Host timings: the only row keys that differ between two runs.
TIMING_KEYS = ("wall_clock_s", "merge_time_ms")


def _first_cell_row(family):
    (row,) = run_specs(expand(family, "small")[:1])
    return {key: value for key, value in row.items() if key not in TIMING_KEYS}


PINNED_ROWS = json.loads(ROWS_PATH.read_text())


@pytest.mark.parametrize("family", sorted(PINNED_ROWS))
def test_first_cell_is_repeatable_and_pinned(family):
    first = _first_cell_row(family)
    second = _first_cell_row(family)
    # Through JSON, as the result store would hold it (tuples become lists).
    assert json.loads(json.dumps(first)) == PINNED_ROWS[family]
    assert second == first


def test_benign_cell_keeps_its_event_schedule():
    # Rows round the clock to milliseconds; the kernel's event count is exact.
    system = system_for(ScenarioSpec(family="quickstart", n=10, seed=0))
    system.run_instances(2)
    assert system.simulator.events_processed == 14498


if __name__ == "__main__":
    rows = {family: _first_cell_row(family) for family in sorted(PINNED_ROWS)}
    ROWS_PATH.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
