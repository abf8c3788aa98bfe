"""Allocation problem instances: local objectives, feasible sets, resources.

All types are treated as immutable after construction; operations are pure
functions, safe to call concurrently.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import GenerationError, ProjectionError
from .projection import (
    check_table,
    face_table,
    project_polyhedron_batch,
    strict_interior_point,
)

INTERIOR_SLACK = 1e-6


# ---------------------------------------------------------------------------
# objectives


@dataclass
class ObjectiveSpec:
    """A differentiable strictly convex local objective.

    `quadratic` objectives are f(x) = x'Qx + c'x with Q symmetric positive
    definite, so the gradient 2Qx + c is globally Lipschitz with constant
    2*eigmax(Q).  `custom` objectives supply a gradient callable (and
    optionally a value callable) plus a Lipschitz hint.  The constant is
    computed once and kept: `quadratic` keeps the one its positive-definite
    check finds.
    """

    kind: str
    Q: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None
    grad_fn: Optional[Callable] = None
    value_fn: Optional[Callable] = None
    lipschitz_hint: Optional[float] = None
    _lipschitz: Optional[float] = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def quadratic(cls, Q, c, lipschitz_hint=None):
        Q = np.asarray(Q, dtype=float)
        c = np.asarray(c, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or c.shape != (Q.shape[0],):
            raise ValueError("quadratic objective needs square Q and matching c")
        if not (np.isfinite(Q).all() and np.isfinite(c).all()):
            raise ValueError("quadratic objective needs finite Q and c")
        if np.abs(Q - Q.T).max() > 1e-9:
            raise ValueError("Q must be symmetric")
        Q = 0.5 * (Q + Q.T)
        eigs = np.linalg.eigvalsh(Q)
        if eigs[0] <= 0:
            raise ValueError(f"Q must be positive definite (min eigenvalue {eigs[0]:.3e})")
        lip = 2.0 * float(eigs[-1])
        if lipschitz_hint is not None and lip > lipschitz_hint * (1 + 1e-12):
            raise ValueError(
                f"gradient Lipschitz constant {lip:.6g} exceeds hint {lipschitz_hint:.6g}"
            )
        obj = cls(kind="quadratic", Q=Q, c=c, lipschitz_hint=lipschitz_hint)
        obj._lipschitz = lip
        return obj

    @classmethod
    def custom(cls, grad_fn, value_fn=None, lipschitz_hint=None):
        return cls(
            kind="custom", grad_fn=grad_fn, value_fn=value_fn, lipschitz_hint=lipschitz_hint
        )

    @property
    def m(self):
        return None if self.kind == "custom" else self.Q.shape[0]

    def lipschitz(self):
        """Gradient Lipschitz constant: 2*eigmax(Q) for quadratics, the hint
        otherwise.  It is kept once known (`quadratic` stores it when built),
        so calls factor nothing; a custom objective without a hint raises
        ValueError here, not at construction."""
        if self._lipschitz is None:
            if self.kind == "quadratic":
                self._lipschitz = 2.0 * float(np.linalg.eigvalsh(self.Q)[-1])
            elif self.lipschitz_hint is None:
                raise ValueError("custom objective without a Lipschitz hint")
            else:
                self._lipschitz = float(self.lipschitz_hint)
        return self._lipschitz

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "quadratic":
            return float(x @ self.Q @ x + self.c @ x)
        if self.value_fn is None:
            return None
        return float(self.value_fn(x))


def grad(obj: ObjectiveSpec, x) -> np.ndarray:
    """Exact gradient of the objective at x; 2Qx + c for quadratics."""
    x = np.asarray(x, dtype=float)
    if obj.kind == "quadratic":
        if x.shape != (obj.Q.shape[0],):
            raise ValueError(f"dimension mismatch: expected {obj.Q.shape[0]}, got {x.shape}")
        return 2.0 * (obj.Q @ x) + obj.c
    return np.asarray(obj.grad_fn(x), dtype=float)


# ---------------------------------------------------------------------------
# feasible sets


@dataclass
class LocalSet:
    """A closed convex feasibility set with an exact Euclidean projection.

    Kinds: `unconstrained`, `box` (componentwise bounds), `polyhedron`
    ({x : R x <= l}, nonempty interior certified at construction, at most
    MAX_FACES candidate faces, see `check_table`).
    """

    kind: str
    m: int
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None
    R: Optional[np.ndarray] = None
    l: Optional[np.ndarray] = None
    interior_point: Optional[np.ndarray] = field(default=None, repr=False)
    interior_slack: Optional[float] = None

    @classmethod
    def unconstrained(cls, m):
        return cls(kind="unconstrained", m=int(m))

    @classmethod
    def box(cls, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be matching vectors")
        # -inf below or +inf above leaves a side open; a NaN fails both comparisons
        if not ((lo < np.inf).all() and (hi > -np.inf).all()):
            raise ValueError("box bounds must not be NaN, +inf below or -inf above")
        if (lo > hi).any():
            raise ValueError("box requires lo <= hi componentwise")
        return cls(kind="box", m=lo.size, lo=lo, hi=hi)

    @classmethod
    def polyhedron(cls, R, l):
        R = np.asarray(R, dtype=float)
        l = np.asarray(l, dtype=float)
        if R.ndim != 2 or l.shape != (R.shape[0],):
            raise ValueError("polyhedron needs R (p x m) and l (p,)")
        if not (np.isfinite(R).all() and np.isfinite(l).all()):
            raise ValueError("polyhedron needs finite R and l")
        if not np.abs(R).max(axis=1).all():
            raise ValueError("polyhedron rows must be nonzero")
        check_table(1, *R.shape)
        point, slack = strict_interior_point(R, l)
        if slack <= INTERIOR_SLACK:
            raise ValueError(
                f"polyhedron interior certification failed (best slack {slack:.3e})"
            )
        return cls(
            kind="polyhedron",
            m=R.shape[1],
            R=R,
            l=l,
            interior_point=point,
            interior_slack=float(slack),
        )

    @cached_property
    def faces(self):
        """The polyhedron's projection face table, built on first use."""
        return face_table(self.R[None])


def project(local_set: LocalSet, y) -> np.ndarray:
    """The unique closest point of the set to y."""
    y = np.asarray(y, dtype=float)
    if y.shape != (local_set.m,):
        raise ValueError(f"dimension mismatch: expected {local_set.m}, got {y.shape}")
    if local_set.kind == "unconstrained":
        return y.copy()
    if local_set.kind == "box":
        return np.clip(y, local_set.lo, local_set.hi)
    return project_polyhedron_batch(y[None], local_set.R[None], local_set.l[None], local_set.faces)[0]


def membership_violation(local_set: LocalSet, x) -> float:
    """Largest violation of the set's defining inequalities at x (0 inside)."""
    x = np.asarray(x, dtype=float)
    if local_set.kind == "unconstrained":
        return 0.0
    if local_set.kind == "box":
        return float(max(0.0, (local_set.lo - x).max(), (x - local_set.hi).max()))
    return float(max(0.0, (local_set.R @ x - local_set.l).max()))


def contains(local_set: LocalSet, x, tol=0.0) -> bool:
    """True iff all defining inequalities hold within tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return membership_violation(local_set, x) <= tol


# ---------------------------------------------------------------------------
# agents and the coupled problem


@dataclass
class AgentSpec:
    """One agent: objective, feasibility set and local resource vector."""

    objective: ObjectiveSpec
    local_set: LocalSet
    resource: np.ndarray

    def __post_init__(self):
        self.resource = np.asarray(self.resource, dtype=float)
        m = self.local_set.m
        if self.resource.shape != (m,):
            raise ValueError("resource dimension disagrees with the set")
        if not np.isfinite(self.resource).all():
            raise ValueError("resource must be finite")
        if self.objective.kind == "quadratic" and self.objective.m != m:
            raise ValueError("objective dimension disagrees with the set")


def stationarity_residual(agent: AgentSpec, x, lam) -> float:
    """|| x - P(x - (grad f(x) - lam)) ||; zero iff x is stationary for lam.

    Requires x to be in the agent's set within 1e-6.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if membership_violation(agent.local_set, x) > 1e-6:
        raise ValueError("x must belong to the agent's set (within 1e-6)")
    step = x - (grad(agent.objective, x) - lam)
    return float(np.linalg.norm(x - project(agent.local_set, step)))


def _rows(idx):
    """A basic slice for an increasing index array without gaps, else the array."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class ProblemSpec:
    """The coupled allocation problem over n agents in dimension m.

    Precomputes stacked arrays so the simulation loop can evaluate gradients
    and projections for all agents at once.
    """

    def __init__(self, agents):
        if len(agents) < 2:
            raise ValueError("need at least two agents")
        m = agents[0].local_set.m
        if any(a.local_set.m != m for a in agents):
            raise ValueError("all agents must share the allocation dimension")
        self.agents = list(agents)
        self.n = len(agents)
        self.m = m
        self.D = np.array([a.resource for a in agents])
        # D as a stack of one, (1, n, m): it meets a (P, n, m) stack of paths
        # without broadcasting a missing dimension
        self.D_stack = self.D[None]
        self._build_stacks()

    def _build_stacks(self):
        self._quad_idx = np.array(
            [i for i, a in enumerate(self.agents) if a.objective.kind == "quadratic"], dtype=int
        )
        self._custom_idx = [i for i, a in enumerate(self.agents) if a.objective.kind == "custom"]
        if self._quad_idx.size:
            self._Q2 = np.array([2.0 * self.agents[i].objective.Q for i in self._quad_idx])
            self._qc = np.array([self.agents[i].objective.c for i in self._quad_idx])
            self._qc_stack = self._qc[None]
            self._Q = np.array([self.agents[i].objective.Q for i in self._quad_idx])

        self._box_idx = np.array(
            [i for i, a in enumerate(self.agents) if a.local_set.kind == "box"], dtype=int
        )
        if self._box_idx.size:
            self._lo = np.array([self.agents[i].local_set.lo for i in self._box_idx])
            self._hi = np.array([self.agents[i].local_set.hi for i in self._box_idx])
        # polyhedra stack together when the row counts match; one face table per distinct R
        by_rows = {}
        for i, a in enumerate(self.agents):
            if a.local_set.kind == "polyhedron":
                by_rows.setdefault(a.local_set.R.shape[0], []).append(i)
        self._poly_groups = []
        for _, idxs in sorted(by_rows.items()):
            R = np.array([self.agents[i].local_set.R for i in idxs])
            l = np.array([self.agents[i].local_set.l for i in idxs])
            self._poly_groups.append((np.array(idxs), R, l, face_table(R)))
        # the same agent sets as basic slices where contiguous, so a (P, n, m)
        # stack is read through views and written without fancy indexing
        self._box_rows = _rows(self._box_idx)
        self._poly_rows = [_rows(group[0]) for group in self._poly_groups]
        # one polyhedral group holds every agent: the kernel's result is the projection
        self._one_group = len(self._poly_groups) == 1 and self._poly_groups[0][0].size == self.n

    # -- batched operations used by the engines --

    def grad_all(self, X):
        """Stacked gradients, one row per agent; X is (n, m) or a (P, n, m) stack of paths."""
        if not self._custom_idx:
            G = np.einsum("nij,...nj->...ni", self._Q2, X)
            G += self._qc_stack if G.ndim == 3 else self._qc
            return G
        G = np.empty(X.shape)
        if self._quad_idx.size:
            sub = X.take(self._quad_idx, axis=-2)
            G[..., self._quad_idx, :] = np.einsum("nij,...nj->...ni", self._Q2, sub) + self._qc
        for i in self._custom_idx:
            for x, g in zip(X.reshape(-1, self.n, self.m), G.reshape(-1, self.n, self.m)):
                g[i] = grad(self.agents[i].objective, x[i])
        return G

    def objective_value(self, X):
        """Sum of local objective values; None when some value is unavailable."""
        total = 0.0
        if self._quad_idx.size:
            sub = X[self._quad_idx]
            qx = np.einsum("nm,nm->n", sub, np.einsum("nij,nj->ni", self._Q, sub))
            total += float(qx.sum() + np.einsum("nm,nm->", self._qc, sub))
        for i in self._custom_idx:
            v = self.agents[i].objective.value(X[i])
            if v is None:
                return None
            total += v
        return total

    def project_all(self, Y):
        """Project every row of Y onto its agent's set."""
        return self.project_paths(Y[None])[0]

    def project_paths(self, Y):
        """`project_all` for a (P, n, m) stack of paths: each path's rows come out
        bit for bit as when projected alone, in a new array.  A
        ProjectionError lists its failing rows as p * n + i for agent i of
        path p."""
        if self._one_group:
            # the kernel's rows are already p * n + i
            ((_, R, l, table),) = self._poly_groups
            return project_polyhedron_batch(Y, R, l, table)
        X = Y.copy()
        if self._box_idx.size:
            X[:, self._box_rows] = np.clip(Y[:, self._box_rows], self._lo, self._hi)
        for (idxs, R, l, table), rows in zip(self._poly_groups, self._poly_rows):
            try:
                X[:, rows] = project_polyhedron_batch(Y[:, rows], R, l, table)
            except ProjectionError as exc:
                path, row = np.divmod(exc.rows, idxs.size)
                exc.rows = path * self.n + idxs[row]
                raise
        return X

    def membership_violations(self, X):
        """Per-agent `membership_violation` of the rows of X, batched."""
        V = np.zeros(self.n)
        if self._box_idx.size:
            B = X.take(self._box_idx, axis=0)
            V[self._box_idx] = np.maximum(self._lo - B, B - self._hi).max(axis=1)
        for idxs, R, l, _ in self._poly_groups:
            V[idxs] = (np.einsum("npm,nm->np", R, X.take(idxs, axis=0)) - l).max(axis=1)
        return np.maximum(V, 0.0)

    def max_lipschitz(self):
        return max(a.objective.lipschitz() for a in self.agents)

    def resource_total(self):
        return self.D.sum(axis=0)


# ---------------------------------------------------------------------------
# random instances


def random_instance(seed, n, m, set_kind="box"):
    """Random strictly convex quadratic instance, coupled-feasible by construction.

    Objectives use SPD matrices built by conjugating a positive diagonal
    (eigenvalues in [0.5, 5]) with a random orthogonal matrix; c and the
    resources d draw from [-1, 1].  Sets of the requested kind are placed
    around anchor allocations whose sum matches the total resource, so the
    coupled constraint is satisfiable with every anchor strictly interior.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    if set_kind not in ("unconstrained", "box", "polyhedron"):
        raise ValueError(f"unknown set kind {set_kind!r}")
    if set_kind == "polyhedron":
        check_table(n, 2 * m + 2, m)  # a cap error is not a bad draw: raise it before the retries
    rng = np.random.default_rng(seed)
    for _ in range(100):
        try:
            return _generate(rng, n, m, set_kind)
        except ValueError:
            continue
    raise GenerationError(f"failed to generate a certified instance after 100 attempts")


def _generate(rng, n, m, set_kind):
    agents = []
    D = rng.uniform(-1.0, 1.0, (n, m))
    anchors = rng.uniform(-1.0, 1.0, (n, m))
    anchors += (D.sum(axis=0) - anchors.sum(axis=0)) / n
    for i in range(n):
        eigs = rng.uniform(0.5, 5.0, m)
        U = np.linalg.qr(rng.standard_normal((m, m)))[0]
        Q = U @ np.diag(eigs) @ U.T
        c = rng.uniform(-1.0, 1.0, m)
        obj = ObjectiveSpec.quadratic(Q, c)
        if set_kind == "unconstrained":
            ls = LocalSet.unconstrained(m)
        elif set_kind == "box":
            ls = LocalSet.box(
                anchors[i] - rng.uniform(0.5, 1.5, m), anchors[i] + rng.uniform(0.5, 1.5, m)
            )
        else:
            rows = [np.eye(m)[j] for j in range(m)] + [-np.eye(m)[j] for j in range(m)]
            extra = rng.standard_normal((2, m))
            extra /= np.linalg.norm(extra, axis=1, keepdims=True)
            rows.extend(extra)
            R = np.array(rows)
            margins = rng.uniform(0.5, 1.5, R.shape[0])
            l = R @ anchors[i] + margins
            ls = LocalSet.polyhedron(R, l)
        agents.append(AgentSpec(obj, ls, D[i]))
    return ProblemSpec(agents)


# ---------------------------------------------------------------------------
# JSON serialization


def set_to_json(local_set: LocalSet) -> dict:
    if local_set.kind == "unconstrained":
        return {"kind": "unconstrained", "m": local_set.m}
    if local_set.kind == "box":
        return {"kind": "box", "lo": local_set.lo.tolist(), "hi": local_set.hi.tolist()}
    return {
        "kind": "polyhedron",
        "R": local_set.R.ravel().tolist(),
        "l": local_set.l.tolist(),
    }


def set_from_json(doc: dict, m: int) -> LocalSet:
    kind = doc["kind"]
    if kind == "unconstrained":
        return LocalSet.unconstrained(doc.get("m", m))
    if kind == "box":
        return LocalSet.box(doc["lo"], doc["hi"])
    if kind == "polyhedron":
        l = np.asarray(doc["l"], dtype=float)
        R = np.asarray(doc["R"], dtype=float).reshape(l.size, m)
        return LocalSet.polyhedron(R, l)
    raise ValueError(f"unknown set kind {kind!r}")


def problem_to_json(problem: ProblemSpec) -> dict:
    """Serialize (quadratic instances only; matrices row-major)."""
    agents = []
    for a in problem.agents:
        if a.objective.kind != "quadratic":
            raise ValueError("only quadratic objectives serialize to JSON")
        agents.append(
            {
                "Q": a.objective.Q.ravel().tolist(),
                "c": a.objective.c.tolist(),
                "set": set_to_json(a.local_set),
                "d": a.resource.tolist(),
            }
        )
    return {"n": problem.n, "m": problem.m, "agents": agents}


def problem_from_json(doc: dict) -> ProblemSpec:
    m = int(doc["m"])
    agents = []
    for rec in doc["agents"]:
        Q = np.asarray(rec["Q"], dtype=float).reshape(m, m)
        obj = ObjectiveSpec.quadratic(Q, np.asarray(rec["c"], dtype=float))
        agents.append(AgentSpec(obj, set_from_json(rec["set"], m), rec["d"]))
    if len(agents) != int(doc["n"]):
        raise ValueError("agent count disagrees with n")
    return ProblemSpec(agents)
