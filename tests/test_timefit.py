"""Time-model calibration against the reference benchmark table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declutter.config import DEFAULT_TIME_MODEL, SimConfig
from declutter.errors import SchemaError
from declutter.timefit import (
    REFERENCE_ROWS,
    fit_time_model,
    nnls,
    parse_reference_csv,
    simulated_counts,
)


@pytest.fixture(scope="module")
def counts():
    return simulated_counts(SimConfig())


def test_reference_table_shape():
    assert len(REFERENCE_ROWS) == 15
    tiers = {row[0] for row in REFERENCE_ROWS}
    assert tiers == {"t0_cups", "t0_bowls", "t0_utensils", "t1", "t2"}
    policies = {row[1] for row in REFERENCE_ROWS}
    assert policies == {"random", "pull", "stack"}


def test_reference_csv_round_trip():
    lines = ["tier,policy,time_s,opt,failures"]
    lines += [",".join(map(str, row)) for row in REFERENCE_ROWS]
    rows = parse_reference_csv("\n".join(lines) + "\n")
    assert len(rows) == 15
    assert rows[0] == ("t0_cups", "random", 78.2)


def test_parse_rejects_missing_columns():
    with pytest.raises(SchemaError):
        parse_reference_csv("tier,policy\nx,y\n")
    with pytest.raises(SchemaError):
        parse_reference_csv("tier,policy,time_s\n")


def test_counts_cover_all_rows(counts):
    assert set(counts) == {(t, p) for t, p, *_ in REFERENCE_ROWS}
    # Every failure-free action takes exactly one grasp and one trip.
    for (tier, policy), (grasps, pulls, stacks, trips) in counts.items():
        assert grasps == pytest.approx(trips)


def test_fit_residual_and_nonnegativity(counts):
    result = fit_time_model(counts)
    assert result.relative_rms_residual <= 0.20
    tm = result.time_model
    assert min(tm.grasp_s, tm.pull_s, tm.stack_s, tm.travel_s) >= 0.0


def test_fit_matches_shipped_defaults(counts):
    result = fit_time_model(counts)
    assert result.time_model.grasp_s == pytest.approx(DEFAULT_TIME_MODEL.grasp_s, abs=1e-3)
    assert result.time_model.pull_s == pytest.approx(DEFAULT_TIME_MODEL.pull_s, abs=1e-3)
    assert result.time_model.stack_s == pytest.approx(DEFAULT_TIME_MODEL.stack_s, abs=1e-3)
    assert result.time_model.travel_s == pytest.approx(DEFAULT_TIME_MODEL.travel_s, abs=1e-3)


def test_predicted_pull_fastest_per_tier(counts):
    result = fit_time_model(counts)
    pred = {(r["tier"], r["policy"]): r["predicted"] for r in result.rows}
    for tier in ("t0_cups", "t0_bowls", "t0_utensils", "t1", "t2"):
        assert pred[(tier, "pull")] <= pred[(tier, "stack")] + 1e-9
        assert pred[(tier, "pull")] <= pred[(tier, "random")] + 1e-9


def test_fit_rejects_unknown_rows(counts):
    with pytest.raises(SchemaError):
        fit_time_model(counts, [("t9", "random", 50.0)])


@st.composite
def nnls_problems(draw):
    """A small non-negative matrix, as columns, and a target vector; the
    last column is sometimes a copy or a multiple of another."""
    m = draw(st.integers(1, 6))
    column = st.lists(st.integers(0, 9).map(float), min_size=m, max_size=m)
    cols = draw(st.lists(column, min_size=1, max_size=3))
    scale = draw(st.sampled_from([None, 1.0, 2.0, 3.0, 0.5, 0.1]))
    if scale is not None:
        source = draw(st.sampled_from(cols))
        cols.append([scale * v for v in source])
    b = draw(st.lists(st.integers(-5, 20).map(float), min_size=m, max_size=m))
    return [list(row) for row in zip(*cols)], b


@settings(max_examples=300, deadline=None)
@given(nnls_problems())
def test_nnls_meets_kkt_conditions(problem):
    a, b = problem
    x = nnls(a, b)
    assert len(x) == len(a[0]) and min(x) >= 0.0
    residual = [sum(c * v for c, v in zip(row, x)) - y for row, y in zip(a, b)]
    scale = len(a) * 10.0 * (10.0 * sum(x) + max(map(abs, b)) + 1.0)
    for j, value in enumerate(x):
        gradient = sum(row[j] * r for row, r in zip(a, residual))
        if value > 0.0:
            assert abs(gradient) <= 1e-9 * scale
        else:
            assert gradient >= -1e-9 * scale


def test_nnls_ties_go_to_the_columns_after_the_first():
    # Both columns fit exactly; the tie goes to the one that is not column 0.
    assert nnls([[1.0, 2.0], [2.0, 4.0]], [2.0, 4.0]) == [0.0, 1.0]
