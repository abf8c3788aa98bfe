"""The violated-face stage of the polyhedral projection, and the face table.

A violating row first tries the face made of exactly its violated rows and
keeps it only when it is certified (mu >= 0, membership to FEAS_TOL); every
other row goes to the whole table.  The tests see which rows reach the table
by wrapping its entry point, `projection._table_faces`.  A table whose codes
name no face sends every violating row to the table: `table_only` is the
reference the stage is compared with.
"""

import tracemalloc

import numpy as np
import pytest

from netalloc import (
    LocalSet,
    NetworkState,
    StepSchedule,
    build_graph_pool,
    demand_response_instance,
    experiments,
    random_instance,
    run_path,
)
from netalloc import problem as problem_mod
from netalloc import projection
from netalloc.network import mean_laplacian
from netalloc.odeflow import flow
from netalloc.projection import FEAS_TOL, dykstra, face_table, project_polyhedron_batch


@pytest.fixture
def table_rows(monkeypatch):
    """Per call of the table, the flat rows it was handed."""
    calls = []
    real = projection._table_faces

    def counted(Sv, Yv, Rv, lv, rows, *rest):
        calls.append(rows.copy())
        return real(Sv, Yv, Rv, lv, rows, *rest)

    monkeypatch.setattr(projection, "_table_faces", counted)
    return calls


def project(Y, R, l):
    return project_polyhedron_batch(Y, R, l, face_table(R))


def table_only(table):
    maps, tid, codes = table
    return maps, tid, np.full_like(codes, -1.0)


def test_guessed_face_with_a_negative_multiplier_falls_to_the_table(table_rows):
    """y violates both rows, but the face of both needs mu_2 < 0: the table
    projects onto row 1 alone."""
    R = np.array([[1.0, 0.0], [1.0, 1.0]])
    l = np.zeros(2)
    y = np.array([1.0, -0.5])
    assert (R @ y - l > FEAS_TOL).all()
    assert np.linalg.solve(R @ R.T, R @ y - l).min() < 0.0
    x = project(y[None], R[None], l[None])[0]
    np.testing.assert_allclose(x, [0.0, -0.5], atol=1e-15)
    assert [rows.tolist() for rows in table_rows] == [[0]]


def test_violated_sets_without_a_face_fall_to_the_table(table_rows):
    # three violated rows in 2-D: more than min(p, m), so no face has their code
    square = np.vstack([np.eye(2), -np.eye(2)])
    R = np.vstack([square, [[1.0, 1.0]]])
    l = np.r_[np.ones(4), 1.5]
    y = np.array([3.0, 3.0])
    assert (R @ y - l > FEAS_TOL).sum() == 3
    np.testing.assert_allclose(project(y[None], R[None], l[None])[0], [0.75, 0.75], atol=1e-15)
    assert len(table_rows) == 1
    # a duplicated row: the violated pair is dependent, so it is no face
    R = np.vstack([square, [[1.0, 0.0]]])
    l = np.ones(5)
    y = np.array([2.0, 0.0])
    assert np.flatnonzero(R @ y - l > FEAS_TOL).tolist() == [0, 4]
    np.testing.assert_array_equal(project(y[None], R[None], l[None])[0], [1.0, 0.0])
    assert len(table_rows) == 2
    # dependent in one R but independent in the other of a stack: the pair is
    # a face of the table, the empty face for the first R, whose row goes on
    R2 = R.copy()
    R2[4] = [1.0, 0.5]
    Rs = np.stack([R, R2])
    Y = np.array([[2.0, 0.0], [2.0, 0.0]])
    X = project(Y, Rs, np.stack([l, l]))
    np.testing.assert_array_equal(X, [[1.0, 0.0], [1.0, 0.0]])
    assert table_rows[-1].tolist() == [0]


def record_inputs(monkeypatch, run):
    """The stacks `project_paths` hands the kernel while `run()` runs."""
    recorded = []
    real = problem_mod.project_polyhedron_batch

    def record(Y, *args):
        recorded.append(Y.copy())
        return real(Y, *args)

    monkeypatch.setattr(problem_mod, "project_polyhedron_batch", record)
    run()
    monkeypatch.setattr(problem_mod, "project_polyhedron_batch", real)
    return recorded


@pytest.fixture(scope="module")
def dr():
    problem, _ = demand_response_instance(0)
    model, _ = build_graph_pool(12)
    return problem, model


def test_stage_and_table_agree_on_dr_rows(dr, monkeypatch, table_rows):
    """On a seeded DR flow and a noisy DR path, the staged kernel equals the
    table alone to 4e-16 relative to max(1, |x|) (three ulps at |x| = 1.74 is
    the largest gap over eight noisy seeds), and the stage certifies most
    violating rows."""
    problem, model = dr
    rng = np.random.default_rng(3)
    n, m = problem.n, problem.m
    start = NetworkState(X=problem.project_all(rng.standard_normal((n, m))),
                         Lam=rng.standard_normal((n, m)), Z=rng.standard_normal((n, m)))
    runs = {
        "flow": lambda: flow(start, problem, mean_laplacian(model), h=1e-3, steps=1500),
        "noisy": lambda: run_path(problem, model, experiments.default_noise(),
                                  StepSchedule.power(1.0, 0.6), 800, seed=7),
    }
    ((_, R, l, table),) = problem._poly_groups
    for name, run in runs.items():
        inputs = record_inputs(monkeypatch, run)
        violating, to_table, worst = 0, 0, 0.0
        for Y in inputs:
            violating += int((np.einsum("npm,...nm->...np", R, Y) - l > FEAS_TOL).any(axis=-1).sum())
            table_rows.clear()
            staged = project_polyhedron_batch(Y, R, l, table)
            to_table += sum(rows.size for rows in table_rows)
            alone = project_polyhedron_batch(Y, R, l, table_only(table))
            worst = max(worst, float((np.abs(staged - alone) / np.maximum(1.0, np.abs(alone))).max()))
        certified = 1.0 - to_table / violating
        assert worst <= 4e-16, (name, worst)
        assert violating > 1000, name
        assert certified > {"flow": 0.95, "noisy": 0.6}[name], (name, certified)


def test_segments_mixing_stage_and_table_rows_equal_each_alone(dr, monkeypatch, table_rows):
    """Segments whose violating rows split between the stage and the table
    come out of a stack bit for bit as alone.  Stacks pair segments that send
    one row to the table with segments that send several."""
    problem, model = dr
    ((_, R, l, table),) = problem._poly_groups
    inputs = record_inputs(monkeypatch, lambda: run_path(
        problem, model, experiments.default_noise(), StepSchedule.power(1.0, 0.6), 400, seed=5))
    one, several = [], []
    for Y in inputs[1:]:
        table_rows.clear()
        project_polyhedron_batch(Y, R, l, table)
        violating = (np.einsum("npm,nm->np", R, Y[0]) - l > FEAS_TOL).any(axis=1).sum()
        if table_rows and 0 < table_rows[0].size < violating:
            (one if table_rows[0].size == 1 else several).append(Y[0])
    assert len(one) >= 6 and len(several) >= 6
    for stack in ([one[0], several[0]], [several[1], one[1], one[2]], [one[3], several[2], several[3], one[4]],
                  [several[4], several[5], one[5]]):
        stack = np.stack(stack)
        table_rows.clear()
        out = project_polyhedron_batch(stack, R, l, table)
        assert len(set((table_rows[0] // len(R)).tolist())) == len(stack)   # every segment reached the table
        for seg, Y in zip(out, stack):
            np.testing.assert_array_equal(seg, project_polyhedron_batch(Y, R, l, table))


def test_each_row_comes_out_as_alone(dr, monkeypatch, table_rows):
    """On recorded DR inputs whose path sends two or more rows to the table,
    each violating row projected alone (its own R, l and table index) equals
    its row of the batch bit for bit: the table multiplies row by row, where
    one GEMM over the rows could round a row differently with their number."""
    problem, model = dr
    ((_, R, l, (maps, tid, codes)),) = problem._poly_groups
    inputs = record_inputs(monkeypatch, lambda: run_path(
        problem, model, experiments.default_noise(), StepSchedule.power(1.0, 0.6), 400, seed=5))
    checked = 0
    for Y in inputs:
        table_rows.clear()
        X = project_polyhedron_batch(Y, R, l, (maps, tid, codes))
        if not (table_rows and table_rows[0].size >= 2):
            continue
        checked += 1
        for i in ((np.einsum("npm,...nm->...np", R, Y) - l)[0] > FEAS_TOL).any(axis=1).nonzero()[0]:
            alone = project_polyhedron_batch(Y[:, i:i + 1], R[i:i + 1], l[i:i + 1], (maps, tid[i:i + 1], codes))
            np.testing.assert_array_equal(alone[0, 0], X[0, i])
    assert checked >= 100


def test_a_wrong_guess_costs_only_a_fallback(dr, monkeypatch, table_rows):
    """With every code pointing at a neighbouring face (as a code collision
    would), rows fall to the table and the projections stay exact."""
    problem, model = dr
    ((_, R, l, (maps, tid, codes)),) = problem._poly_groups
    shifted = (np.roll(maps, 1, axis=-1), tid, codes)
    inputs = record_inputs(monkeypatch, lambda: run_path(
        problem, model, experiments.default_noise(), StepSchedule.power(1.0, 0.6), 200, seed=9))
    rows = 0
    for Y in inputs:
        table_rows.clear()
        X = project_polyhedron_batch(Y, R, l, shifted)
        rows += sum(r.size for r in table_rows)
        want = project_polyhedron_batch(Y, R, l, table_only((maps, tid, codes)))
        np.testing.assert_allclose(X, want, rtol=0.0, atol=1e-12)
    assert rows > 100


def test_codes_are_exact_on_a_tall_one_dimensional_table(table_rows):
    """100 rows in 1-D: codes up to 2^99, no 2^p array.  A row violating only
    row 80 is certified by the stage.  The code of rows {1, 80} rounds to that
    of row 80 alone, a collision, and that face is certified, so the row
    violating both needs no table either; the row below takes row 0's face."""
    p = 100
    R = np.ones((p, 1))
    R[0] = -1.0
    l = 2.0 + np.arange(p, dtype=float)
    l[0], l[80] = 5.0, 1.0
    s = LocalSet.polyhedron(R, l)
    maps, tid, codes = s.faces
    assert codes.size == p and (np.diff(codes) > 0).all()
    np.testing.assert_array_equal(np.log2(codes), np.arange(p))
    Y = np.array([[1.5], [3.5], [-7.0]])
    X = project_polyhedron_batch(Y, np.stack([R] * 3), np.stack([l] * 3), face_table(np.stack([R] * 3)))
    np.testing.assert_array_equal(X, [[1.0], [1.0], [-5.0]])
    assert table_rows == []
    for y, x in zip(Y, X):
        np.testing.assert_allclose(x, dykstra(y, R, l), atol=1e-9)


def test_face_table_is_built_in_place():
    """400 distinct R of 8 x 3: the build's peak stays within 1.5x the table."""
    ((_, R, _, _),) = random_instance(0, 400, 3, set_kind="polyhedron")._poly_groups
    tracemalloc.start()
    try:
        maps, tid, codes = face_table(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert maps.shape == (400, 8, 8 + 3 + 3, codes.size)
    assert peak <= 1.5 * maps.nbytes, (peak, maps.nbytes)
    assert maps.ctypes.data % 64 == 0
