import numpy as np
import pytest

from netalloc import (
    AgentSpec,
    LocalSet,
    ObjectiveSpec,
    contains,
    grad,
    problem_from_json,
    problem_to_json,
    project,
    random_instance,
    stationarity_residual,
)


def finite_difference_grad(f, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def random_spd(rng, m, lo=0.5, hi=5.0):
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    return U @ np.diag(rng.uniform(lo, hi, m)) @ U.T


# ---------------------------------------------------------------------------
# gradients


def test_grad_scalar_quadratic():
    obj = ObjectiveSpec.quadratic(np.eye(1), np.zeros(1))
    assert grad(obj, np.array([3.0])) == pytest.approx(6.0)


def test_grad_at_origin_is_c():
    obj = ObjectiveSpec.quadratic(np.eye(2), np.array([1.0, 1.0]))
    np.testing.assert_allclose(grad(obj, np.zeros(2)), [1.0, 1.0])


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        Q = random_spd(rng, m)
        c = rng.uniform(-1, 1, m)
        obj = ObjectiveSpec.quadratic(Q, c)
        x = rng.standard_normal(m)
        fd = finite_difference_grad(obj.value, x)
        assert np.abs(grad(obj, x) - fd).max() < 1e-6


def test_grad_dimension_mismatch():
    obj = ObjectiveSpec.quadratic(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        grad(obj, np.zeros(3))


def test_quadratic_rejects_indefinite():
    with pytest.raises(ValueError):
        ObjectiveSpec.quadratic(np.diag([1.0, -0.5]), np.zeros(2))


def test_lipschitz_hint_checked():
    with pytest.raises(ValueError):
        ObjectiveSpec.quadratic(np.diag([2.0]), np.zeros(1), lipschitz_hint=1.0)
    obj = ObjectiveSpec.quadratic(np.diag([2.0]), np.zeros(1), lipschitz_hint=4.0)
    assert obj.lipschitz() == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# projections


def test_box_clamp():
    s = LocalSet.box([0.0], [2.0])
    assert project(s, np.array([3.0]))[0] == pytest.approx(2.0)


def test_projection_of_member_is_identity():
    rng = np.random.default_rng(1)
    box = LocalSet.box([-1.0, -1.0], [1.0, 1.0])
    poly = LocalSet.polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    for s in (box, poly, LocalSet.unconstrained(2)):
        for _ in range(20):
            y = rng.uniform(-0.9, 0.9, 2)
            np.testing.assert_allclose(project(s, y), y, atol=1e-12)


def grid_projection_oracle(R, l, y, step=1e-3, span=3.0):
    """Dense-grid nearest feasible point (independent oracle).

    A second pass re-grids around the coarse argmin at step/10 so the
    oracle's own discretization error stays well under the tolerance.
    """

    def search(lo, hi, s):
        g0 = np.arange(lo[0], hi[0] + s / 2, s)
        g1 = np.arange(lo[1], hi[1] + s / 2, s)
        best, best_d = None, np.inf
        for chunk in np.array_split(g0, max(1, g0.size // 200)):
            XX, YY = np.meshgrid(chunk, g1, indexing="ij")
            pts = np.stack([XX.ravel(), YY.ravel()], axis=1)
            feas = (pts @ R.T <= l + 1e-12).all(axis=1)
            if not feas.any():
                continue
            pts = pts[feas]
            d = ((pts - y) ** 2).sum(axis=1)
            j = int(np.argmin(d))
            if d[j] < best_d:
                best_d, best = d[j], pts[j]
        return best

    coarse = search(np.array([-span, -span]), np.array([span, span]), step)
    mid = search(coarse - 10 * step, coarse + 10 * step, step / 10)
    return search(mid - step, mid + step, step / 100)


def test_polyhedron_projection_matches_grid_oracle():
    rng = np.random.default_rng(7)
    cases = 0
    while cases < 3:
        # four random halfspaces around the origin, interior guaranteed
        R = rng.standard_normal((4, 2))
        R /= np.linalg.norm(R, axis=1, keepdims=True)
        l = R @ np.zeros(2) + rng.uniform(0.5, 1.5, 4)
        try:
            s = LocalSet.polyhedron(R, l)
        except ValueError:
            continue
        y = rng.uniform(-2.5, 2.5, 2)
        x = project(s, y)
        ref = grid_projection_oracle(R, l, y)
        assert np.linalg.norm(x - ref) < 2e-3
        cases += 1


def test_contains():
    box = LocalSet.box([0.0], [1.0])
    assert contains(box, np.array([0.5]), tol=0.0)
    assert contains(box, np.array([1.0 + 1e-12]), tol=1e-9)
    half = LocalSet.polyhedron(np.array([[1.0]]), np.array([0.0]))
    assert not contains(half, np.array([0.1]), tol=1e-9)
    with pytest.raises(ValueError):
        contains(box, np.array([0.5]), tol=-1.0)


def test_box_requires_ordered_bounds():
    with pytest.raises(ValueError):
        LocalSet.box([1.0], [0.0])


def test_polyhedron_requires_interior():
    # x <= 0 and -x <= -1 is empty
    with pytest.raises(ValueError):
        LocalSet.polyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))


NAN, INF = float("nan"), float("inf")
SQUARE = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


@pytest.mark.parametrize("build", [
    lambda: ObjectiveSpec.quadratic([[NAN]], [0.0]),
    lambda: ObjectiveSpec.quadratic([[INF]], [0.0]),
    lambda: ObjectiveSpec.quadratic([[1.0, 0.0], [0.0, -INF]], [0.0, 0.0]),
    lambda: ObjectiveSpec.quadratic([[1.0]], [NAN]),
    lambda: ObjectiveSpec.quadratic([[1.0]], [-INF]),
    lambda: AgentSpec(ObjectiveSpec.quadratic([[1.0]], [0.0]), LocalSet.unconstrained(1), [NAN]),
    lambda: AgentSpec(ObjectiveSpec.quadratic([[1.0]], [0.0]), LocalSet.unconstrained(1), [INF]),
    lambda: LocalSet.polyhedron(SQUARE, [1.0, 1.0, NAN, 1.0]),
    lambda: LocalSet.polyhedron(SQUARE, [1.0, INF, 1.0, 1.0]),
    lambda: LocalSet.polyhedron(np.where(SQUARE == 1.0, INF, SQUARE), np.ones(4)),
    lambda: LocalSet.box([NAN], [1.0]),
    lambda: LocalSet.box([0.0], [NAN]),
    lambda: LocalSet.box([INF], [INF]),
    lambda: LocalSet.box([-INF], [-INF]),
], ids=["Q-nan", "Q-inf", "Q-minus-inf", "c-nan", "c-inf", "d-nan", "d-inf", "l-nan", "l-inf",
        "R-inf", "box-lo-nan", "box-hi-nan", "box-lo-plus-inf", "box-hi-minus-inf"])
def test_non_finite_problem_data_is_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_half_open_boxes_are_accepted():
    box = LocalSet.box([-INF, 0.0], [1.0, INF])
    np.testing.assert_array_equal(project(box, np.array([-5.0, 5.0])), [-5.0, 5.0])
    np.testing.assert_array_equal(project(box, np.array([2.0, -1.0])), [1.0, 0.0])


# ---------------------------------------------------------------------------
# stationarity residuals


def make_agent(Q, c, local_set, d=None):
    m = local_set.m
    return AgentSpec(ObjectiveSpec.quadratic(Q, c), local_set, np.zeros(m) if d is None else d)


def test_stationarity_zero_at_interior_optimum():
    agent = make_agent(np.eye(2), np.array([0.5, -0.5]), LocalSet.unconstrained(2))
    x = np.array([0.3, 0.7])
    lam = grad(agent.objective, x)
    assert stationarity_residual(agent, x, lam) == pytest.approx(0.0, abs=1e-14)


def test_stationarity_boundary_normal_cone():
    # f(x) = x^2 on [0, 1]: at x = 0 with lam = -1 the pull is absorbed
    agent = make_agent(np.eye(1), np.zeros(1), LocalSet.box([0.0], [1.0]))
    assert stationarity_residual(agent, np.array([0.0]), np.array([-1.0])) == pytest.approx(0.0)


def test_stationarity_hand_computed():
    # f(x) = x^2 on [0, 1], x = 0.5, lam = -2:
    # step target 0.5 - (1 - (-2)) = -2.5 clamps to 0, residual 0.5
    agent = make_agent(np.eye(1), np.zeros(1), LocalSet.box([0.0], [1.0]))
    r = stationarity_residual(agent, np.array([0.5]), np.array([-2.0]))
    assert r == pytest.approx(0.5)
    assert r > 0


def test_stationarity_requires_membership():
    agent = make_agent(np.eye(1), np.zeros(1), LocalSet.box([0.0], [1.0]))
    with pytest.raises(ValueError):
        stationarity_residual(agent, np.array([2.0]), np.array([0.0]))


# ---------------------------------------------------------------------------
# random instances


def test_random_instance_shape():
    p = random_instance(1, 10, 3)
    assert p.n == 10 and p.m == 3 and len(p.agents) == 10


def test_random_instance_deterministic():
    a = random_instance(42, 5, 2, set_kind="polyhedron")
    b = random_instance(42, 5, 2, set_kind="polyhedron")
    for aa, bb in zip(a.agents, b.agents):
        np.testing.assert_array_equal(aa.objective.Q, bb.objective.Q)
        np.testing.assert_array_equal(aa.objective.c, bb.objective.c)
        np.testing.assert_array_equal(aa.resource, bb.resource)
        np.testing.assert_array_equal(aa.local_set.l, bb.local_set.l)


def test_random_instance_spd_across_seeds():
    for seed in range(100):
        p = random_instance(seed, 2, 2, set_kind="unconstrained")
        for a in p.agents:
            assert np.linalg.eigvalsh(a.objective.Q)[0] > 0


def test_random_instance_rejects_bad_sizes():
    with pytest.raises(ValueError):
        random_instance(0, 1, 1)
    with pytest.raises(ValueError):
        random_instance(0, 2, 0)


# ---------------------------------------------------------------------------
# projection properties (module-scale; the acceptance suite runs 10^3 cases)


def random_set(rng, m):
    kind = rng.choice(["unconstrained", "box", "polyhedron"])
    if kind == "unconstrained":
        return LocalSet.unconstrained(m)
    anchor = rng.uniform(-1, 1, m)
    if kind == "box":
        return LocalSet.box(anchor - rng.uniform(0.3, 1.5, m), anchor + rng.uniform(0.3, 1.5, m))
    k = 2 * m + 2
    R = rng.standard_normal((k, m))
    R /= np.linalg.norm(R, axis=1, keepdims=True)
    return LocalSet.polyhedron(R, R @ anchor + rng.uniform(0.4, 1.5, k))


def test_projection_nonexpansive_and_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        s = random_set(rng, m)
        y1 = rng.normal(0, 2.0, m)
        y2 = rng.normal(0, 2.0, m)
        p1, p2 = project(s, y1), project(s, y2)
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(y1 - y2) + 1e-9
        assert np.linalg.norm(project(s, p1) - p1) <= 1e-9


def test_projection_variational_inequality():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        s = random_set(rng, m)
        y = rng.normal(0, 2.0, m)
        p = project(s, y)
        for _ in range(10):
            w = project(s, rng.normal(0, 2.0, m))  # a member of the set
            assert float((y - p) @ (w - p)) <= 1e-8


# ---------------------------------------------------------------------------
# serialization


def test_problem_json_roundtrip():
    p = random_instance(5, 3, 2, set_kind="polyhedron")
    doc = problem_to_json(p)
    q = problem_from_json(doc)
    assert q.n == p.n and q.m == p.m
    for a, b in zip(p.agents, q.agents):
        np.testing.assert_allclose(a.objective.Q, b.objective.Q)
        np.testing.assert_allclose(a.local_set.R, b.local_set.R)
        np.testing.assert_allclose(a.resource, b.resource)
