"""Exactness of the polyhedral projection, checked against independent references.

Every returned point must satisfy the projection's KKT conditions, verified
from the point alone: the rows active within ACTIVE_TOL must express y - x
as a nonnegative combination (fitted with lstsq), and the point must lie in
the set.  Dykstra's alternating projections give a second, iterative
reference.
"""

from itertools import combinations

import numpy as np
import pytest

from netalloc import AgentSpec, LocalSet, ProblemSpec, membership_violation, project, random_instance
from netalloc.experiments import demand_response_instance
from netalloc.projection import MAX_FACES, dykstra, face_count, project_polyhedron

ACTIVE_TOL = 1e-9
KKT_TOL = 1e-12
DYKSTRA_AGREE = 1e-9


def kkt_residual(R, l, y, x):
    """(membership violation, most negative multiplier, stationarity residual).

    The multipliers come from an lstsq fit of y - x = R_A' mu over the rows A
    active within ACTIVE_TOL.  When more rows are active than the fit needs,
    the minimum-norm fit may be negative although a nonnegative one exists,
    so every subset of A is tried and the best certificate is kept.
    """
    member = max(0.0, float((R @ x - l).max()))
    act = np.flatnonzero(R @ x - l >= -ACTIVE_TOL)
    g = y - x
    if not act.size:
        return member, 0.0, float(np.linalg.norm(g))
    best = (np.inf, np.inf)
    for k in range(1, act.size + 1):
        for sub in combinations(act, k):
            RA = R[list(sub)]
            mu = np.linalg.lstsq(RA.T, g, rcond=None)[0]
            cand = (max(0.0, -float(mu.min())), float(np.linalg.norm(RA.T @ mu - g)))
            if max(cand) < max(best):
                best = cand
    return member, -best[0], best[1]


def assert_kkt(R, l, y, x):
    member, mu_min, stat = kkt_residual(R, l, y, x)
    assert member <= KKT_TOL, f"membership violation {member:.3e} at y={y!r}"
    assert mu_min >= -KKT_TOL, f"negative multiplier {mu_min:.3e} at y={y!r}"
    assert stat <= KKT_TOL, f"stationarity residual {stat:.3e} at y={y!r}"


def assert_exact(R, l, y, x):
    assert_kkt(R, l, y, x)
    assert np.abs(x - dykstra(y, R, l)).max() <= DYKSTRA_AGREE


def test_random_polyhedra_meet_kkt():
    rng = np.random.default_rng(2024)
    checked = 0
    for m in (1, 2, 3):
        built = 0
        while built < 12:
            p = 2 * m + 2
            R = rng.standard_normal((p, m))
            R /= np.linalg.norm(R, axis=1, keepdims=True)
            anchor = rng.uniform(-1, 1, m)
            try:
                s = LocalSet.polyhedron(R, R @ anchor + rng.uniform(0.4, 1.5, p))
            except ValueError:
                continue
            built += 1
            for _ in range(15):
                y = anchor + rng.normal(0.0, 2.0, m)
                x = project(s, y)
                assert_exact(s.R, s.l, y, x)
                np.testing.assert_array_equal(x, project_polyhedron(y, s.R, s.l))
                checked += 1
    assert checked == 3 * 12 * 15


def test_demand_response_stress_rows_meet_kkt():
    """2,000 rows around the DR agents' interior points, sigma = 0.8 x {1, 2, 4}."""
    problem, _ = demand_response_instance(0)
    rng = np.random.default_rng(11)
    centers = np.array([a.local_set.interior_point for a in problem.agents])
    violated = 0
    for call in range(200):
        sigma = 0.8 * (1, 2, 4)[call % 3]
        Y = centers + rng.normal(0.0, sigma, centers.shape)
        X = problem.project_all(Y)
        for i, a in enumerate(problem.agents):
            s = a.local_set
            violated += bool((s.R @ Y[i] - s.l > 0).any())
            assert_exact(s.R, s.l, Y[i], X[i])
    assert violated > 500  # the rows do exercise the projection


def test_degenerate_polyhedra_meet_kkt():
    rng = np.random.default_rng(5)
    square = np.vstack([np.eye(2), -np.eye(2)])
    cube = np.vstack([np.eye(3), -np.eye(3)])
    cases = [
        # a duplicated row
        (np.vstack([square, [[1.0, 0.0]]]), np.ones(5), np.zeros(2)),
        # fewer rows than dimensions: one halfspace in 3-D
        (np.array([[1.0, 2.0, -1.0]]), np.array([0.5]), np.zeros(3)),
        # a vertex where three rows meet in 2-D: x + y <= 2 passes through (1, 1)
        (np.vstack([square, [[1.0, 1.0]]]), np.r_[np.ones(4), 2.0], np.ones(2)),
        # a vertex where four rows meet in 3-D
        (np.vstack([cube, [[1.0, 1.0, 1.0]]]), np.r_[np.ones(6), 3.0], np.ones(3)),
    ]
    for R, l, focus in cases:
        s = LocalSet.polyhedron(R, l)
        for scale in (0.5, 2.0):
            for _ in range(40):
                y = focus + rng.normal(0.0, scale, focus.size)
                assert_exact(R, l, y, project(s, y))
        # straight out along the normal cone of the degenerate vertex
        for d in np.abs(rng.normal(size=(10, focus.size))):
            y = focus + d
            assert_exact(R, l, y, project(s, y))


def test_face_cap_rejects_large_polyhedra():
    m, p = 6, 14
    assert face_count(p, m) > MAX_FACES
    R = np.vstack([np.eye(m), -np.eye(m), np.ones((1, m)), -np.ones((1, m))])
    with pytest.raises(ValueError, match=str(face_count(p, m))):
        LocalSet.polyhedron(R, np.full(p, 2.0 * m))
    # random polyhedral instances have 2m + 2 rows: m = 4 fits, m = 5 is refused
    # with the face count, not with a failed retry
    with pytest.raises(ValueError, match=str(face_count(2 * 5 + 2, 5))):
        random_instance(0, 2, 5, set_kind="polyhedron")
    problem = random_instance(0, 2, 4, set_kind="polyhedron")
    X = problem.project_all(np.full((2, 4), 3.0))
    assert problem.membership_violations(X).max() <= 1e-12


def test_table_bytes_cap_rejects_many_distinct_polyhedra():
    with pytest.raises(ValueError, match="MAX_TABLE_BYTES"):
        random_instance(0, 400, 4, set_kind="polyhedron")
    # one shared R needs one table, however many agents use it
    problem, _ = demand_response_instance(0)
    s = problem.agents[0].local_set
    agents = [AgentSpec(a.objective, s, a.resource) for a in problem.agents for _ in range(40)]
    assert len(ProblemSpec(agents).project_all(np.full((len(agents), s.m), 9.0))) == 400


def test_near_ties_at_normal_cone_edges_meet_kkt():
    """y just off an edge of a vertex's normal cone: two faces nearly tie in dual value.

    A wrong face trails the right one in dual value by the square of its distance
    from P(y), so selection by value alone returned a point infeasible by ~1e-9.
    Only the KKT check applies: Dykstra crawls along such edges and stops
    ~1e-9 short of P(y) on some of them.
    """
    R = np.array([[1.0, 0.0], [1.0, 1.0]])
    for y2 in (1e-9, 1e-10):
        x = project_polyhedron(np.array([1.0, y2]), R, np.zeros(2))
        assert_exact(R, np.zeros(2), np.array([1.0, y2]), x)
    rng = np.random.default_rng(17)
    checked = 0
    for m in (2, 3):
        p = 2 * m + 2
        while checked < 400 * (m - 1):
            Rr = rng.standard_normal((p, m))
            Rr /= np.linalg.norm(Rr, axis=1, keepdims=True)
            try:
                s = LocalSet.polyhedron(Rr, Rr @ rng.uniform(-1, 1, m) + rng.uniform(0.4, 1.5, p))
            except ValueError:
                continue
            for F in combinations(range(p), m):
                RF = s.R[list(F)]
                if abs(np.linalg.det(RF)) < 1e-3:
                    continue
                v = np.linalg.solve(RF, s.l[list(F)])
                if (s.R @ v - s.l).max() > 0:
                    continue
                # the normal cone at vertex v is spanned by the rows in F; leave it
                # by a hair along the edge where one multiplier is zero
                for j in range(m):
                    w = rng.uniform(0.5, 2.0, m)
                    w[j] = rng.choice([1.0, -1.0]) * 10.0 ** -rng.integers(9, 13)
                    y = v + RF.T @ w
                    assert_kkt(s.R, s.l, y, project(s, y))
                    checked += 1
    assert checked >= 800


def test_far_points_onto_cones_are_certified():
    """With l = 0 the roundoff in R x - l grows with |R| |y|, not with |l|."""
    rng = np.random.default_rng(19)
    cones = [np.array([[0.6, 0.8]]), np.array([[0.6, 0.8], [-0.8, 0.6]]), np.array([[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0]])]
    for R in cones:
        l = np.zeros(len(R))
        for scale in (1e5, 1e6):
            for i in range(200):
                y = rng.normal(0.0, scale, R.shape[1])
                if i % 2:  # straight out along a row's normal, where x cancels to about 0
                    y = R[i % len(R)] * abs(y[0])
                x = project_polyhedron(y, R, l)
                member, mu_min, stat = kkt_residual(R, l, y, x)
                assert member <= KKT_TOL * scale
                assert mu_min >= -KKT_TOL * scale
                assert stat <= KKT_TOL * scale


def test_membership_violations_match_per_agent():
    m = 3
    agents = []
    for kind in ("unconstrained", "box", "polyhedron"):
        agents += random_instance(7, 4, m, set_kind=kind).agents
    problem = ProblemSpec(agents)
    rng = np.random.default_rng(3)
    for scale in (0.1, 1.0, 5.0):
        X = rng.normal(0.0, scale, (problem.n, m))
        ref = np.array([membership_violation(a.local_set, X[i]) for i, a in enumerate(agents)])
        got = problem.membership_violations(X)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-15


def test_large_scale_polyhedron_is_certified():
    """Roundoff grows with |l|, and so does the certificate's tolerance."""
    problem, _ = demand_response_instance(0)
    base = problem.agents[0].local_set
    rng = np.random.default_rng(13)
    for scale in (1e4, 1e5):
        s = LocalSet.polyhedron(base.R, base.l * scale)
        for _ in range(200):
            y = s.interior_point + rng.normal(0.0, 0.8 * scale, 3)
            member, mu_min, stat = kkt_residual(s.R, s.l, y, project(s, y))
            assert member <= KKT_TOL * scale
            assert mu_min >= -KKT_TOL * scale
            assert stat <= KKT_TOL * scale
