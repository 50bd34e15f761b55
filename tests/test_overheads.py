"""``benchmarks/overheads.py``: the verdict rule and the shape of its table.

The script's numbers are a measurement, not a test; what is pinned here
is what must not drift silently — how a row is judged, that the table is
the three rows it says it is, and that there is no flag to judge it by
some other rule.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "overheads.py"


@pytest.fixture(scope="module")
def overheads():
    spec = importlib.util.spec_from_file_location("overheads", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# median 100, MAD 10: the band a budget is judged against is [90, 110].
DIFFERENCES = [80, 90, 95, 100, 105, 110, 120]


@pytest.mark.parametrize("budget, verdict", [
    (400, "ok"),
    (110, "ok"),            # the band's upper edge still fits
    (109, "unresolved"),
    (100, "unresolved"),
    (90, "unresolved"),     # the band's lower edge is not yet over
    (89, "regressed"),
    (0, "regressed"),
])
def test_judge_reads_the_band_not_the_median(overheads, budget, verdict):
    assert overheads.judge(DIFFERENCES, budget) == (100, 10, verdict)


def test_a_budget_inside_the_dispersion_is_never_decided(overheads):
    # Whatever the sign or size of the differences, a budget strictly
    # inside median ± MAD is neither a pass nor a failure.
    for differences in ([-300, -20, 10, 60, 500],
                        [1300, 1400, 1900, 2600, 2700],
                        [-5.5, -1.0, 0.0, 0.25, 3.0]):
        mid, mad, _ = overheads.judge(differences, 0)
        assert mad > 0
        for budget in (mid - 0.9 * mad, mid, mid + 0.9 * mad):
            assert overheads.judge(differences, budget)[2] == "unresolved"


def test_identical_rounds_are_decided_by_the_median_alone(overheads):
    assert overheads.judge([7, 7, 7], 7) == (7, 0, "ok")
    assert overheads.judge([7, 7, 7], 6) == (7, 0, "regressed")


def test_the_table_is_three_rows_with_positive_budgets(overheads):
    assert [(row.name, row.minus, row.per) for row in overheads.ROWS] == [
        ("engine", "direct", "packet"),
        ("telemetry", "engine", "packet"),
        ("distribution", "engine", "sample"),
    ]
    assert all(row.budget_ns > 0 for row in overheads.ROWS)
    legs = {name for row in overheads.ROWS for name in (row.name, row.minus)}
    assert legs == set(overheads.LEGS)


def test_there_is_no_flag_to_move_a_budget_with(overheads, monkeypatch,
                                                capsys):
    assert "argparse" not in SCRIPT.read_text()
    assert not hasattr(overheads, "argparse")
    monkeypatch.setattr("sys.argv", [str(SCRIPT), "--quick"])
    assert overheads.main() == 2
    assert "takes no arguments" in capsys.readouterr().err
