"""In-memory span recorder that wraps netalloc's public functions from outside.

The wrappers are installed by rebinding module attributes (and three
`ProblemSpec` methods, at class level so that problems still pickle for the
Monte Carlo workers) and removed by restoring the originals.  Nothing under
`src/` is edited.

A span is (name, start_ns, end_ns, self_ns, depth, parent), where self time
is the span's duration minus the time its traced children cover, and
`parent` indexes the span that caused it within the same process's list.
Counters (projection rows by number of violated constraints, bytes of noise
drawn, worst returned membership violation) are taken at the same
boundaries; the time spent computing them is excluded from every span.

Monte Carlo workers start with `fork` and inherit the wrappers.  Each worker
writes its spans to the spool directory when its outermost span (one sample
path) ends, and the benchmark process reads them back with `collect`.
"""

import os
import pickle
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

# a row "violates" a constraint by more than this slack, as the projection
# layer itself counts (netalloc.projection.FEAS_TOL)
FEAS_TOL = 1e-12
# projection calls whose arrays are kept before they are counted in one batch
PENDING_CAP = 4096


class ConstraintStack:
    """Every agent's set written as R x <= l, stacked per row count.

    Boxes become the rows [I; -I], polyhedra keep their own rows and
    unconstrained sets contribute none.  One vectorized R x - l per group then
    counts violated constraints and measures membership for any mix of set
    kinds.
    """

    def __init__(self, problem):
        groups = defaultdict(list)
        for i, agent in enumerate(problem.agents):
            s = agent.local_set
            if s.kind == "box":
                eye = np.eye(s.m)
                R, l = np.vstack([eye, -eye]), np.concatenate([s.hi, -s.lo])
            elif s.kind == "polyhedron":
                R, l = s.R, s.l
            elif s.kind == "unconstrained":
                continue
            else:
                raise ValueError(f"unknown set kind {s.kind!r}")
            groups[R.shape[0]].append((i, R, l))
        self.groups = [
            (np.array([g[0] for g in grp]), np.array([g[1] for g in grp]), np.array([g[2] for g in grp]))
            for grp in groups.values()
        ]


class Tracer:
    """Span and counter recorder for one process and its forked workers."""

    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.spans = []
        self.counts = Counter()
        self.maxes = {}
        self._stack = []      # per open span: [child_ns, own index]
        self._installed = []  # (owner, attribute, original)
        self._checkers = {}   # id(problem) -> (problem, ConstraintStack)
        self._pending = []    # (problem, Y, X) of projection calls not yet counted
        self._in_worker = False
        self._dumps = 0
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording --

    def _after_fork(self):
        self.spans, self.counts, self.maxes, self._stack = [], Counter(), {}, []
        self._pending = []
        self._dumps = 0
        self._in_worker = True

    def wrap(self, name, fn, hook=None):
        """Return fn recording a span named `name`; `hook(args, out)` counts after it."""
        def traced(*args, **kwargs):
            stack, spans = self._stack, self.spans
            parent = stack[-1][1] if stack else -1
            frame = [0, len(spans)]
            spans.append(None)  # placeholder, so children can name their parent
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                spans[frame[1]] = (name, t0, t1, dur - frame[0], len(stack), parent)
                if stack:
                    stack[-1][0] += dur
            if hook is not None:
                hook(args, out)
                spent = perf_counter_ns() - t1
                self.counts["trace.hook_ns"] += spent
                if stack:
                    stack[-1][0] += spent
            if self._in_worker and not stack:
                self.dump()
            return out

        traced.__wrapped__ = fn
        return traced

    def keep_max(self, name, value):
        if value > self.maxes.get(name, float("-inf")):
            self.maxes[name] = value

    def checker(self, problem):
        # the entry keeps the problem alive, so its id cannot be reused
        if id(problem) not in self._checkers:
            self._checkers[id(problem)] = (problem, ConstraintStack(problem))
        return self._checkers[id(problem)][1]

    # -- hooks that count at the layer boundary --

    def _count_projection(self, args, out):
        # keep the arrays and count in batches: per call this costs an append
        self._pending.append((args[0], args[1], out))
        if len(self._pending) >= PENDING_CAP:
            self._count_pending()

    def _count_pending(self):
        """Rows by number of violated constraints on entry, worst violation on exit."""
        by_problem = defaultdict(list)
        for problem, Y, X in self._pending:
            by_problem[id(problem)].append((problem, Y, X))
        self._pending = []
        for calls in by_problem.values():
            chk = self.checker(calls[0][0])
            Ys = np.stack([c[1] for c in calls])
            Xs = np.stack([c[2] for c in calls])
            nv = np.zeros(Ys.shape[:2], dtype=int)
            for idx, R, l in chk.groups:
                nv[:, idx] = (np.einsum("npm,knm->knp", R, Ys[:, idx]) - l > FEAS_TOL).sum(axis=2)
                worst = float((np.einsum("npm,knm->knp", R, Xs[:, idx]) - l).max(initial=0.0))
                self.keep_max("projection.max_violation", worst)
            for v, n in enumerate(np.bincount(np.minimum(nv, 3).ravel(), minlength=4)):
                self.counts["projection.rows_v%d" % v] += int(n)

    def _count_noise(self, args, out):
        nbytes = sum(a.nbytes for a in (out.nu, out.delta, out.zeta, out.eps) if a is not None)
        self.counts["engine.draw_step_noise.bytes"] += nbytes

    # -- installing wrappers --

    def install(self, targets):
        """Rebind each (owner, attribute, span name, hook) target to a traced wrapper."""
        for owner, attr, name, hook in targets:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def setup_targets(self):
        """The oracle and equilibrium calls the benchmark makes while setting up."""
        from netalloc import odeflow, oracle

        return [
            (oracle, "solve_dual", "oracle.solve_dual", None),
            (odeflow, "equilibrium_construct", "odeflow.equilibrium_construct", None),
        ]

    def step_targets(self):
        """Every layer boundary the timed calls cross."""
        from netalloc import engine, odeflow, problem, projection

        return [
            (engine, "monte_carlo", "engine.monte_carlo", None),
            (engine, "run_path", "engine.run_path", None),
            (engine, "sample_graph", "network.sample_graph", None),
            (engine, "validate_model", "network.validate_model", None),
            (engine, "mean_laplacian", "network.mean_laplacian", None),
            (engine, "draw_step_noise", "engine.draw_step_noise", self._count_noise),
            (engine, "apply_step", "engine.apply_step", None),
            (engine, "mean_trace", "trace.mean_trace", None),
            (odeflow, "flow", "odeflow.flow", None),
            (odeflow, "projected_euler_step", "odeflow.projected_euler_step", None),
            (odeflow, "lyapunov", "odeflow.lyapunov", None),
            (problem.ProblemSpec, "project_all", "problem.project_all", self._count_projection),
            (problem.ProblemSpec, "grad_all", "problem.grad_all", None),
            (problem.ProblemSpec, "objective_value", "problem.objective_value", None),
            (problem, "project_polyhedron_batch", "problem.project_polyhedron_batch", None),
            (projection, "project_polyhedron", "projection.project_polyhedron", None),
            (projection, "dykstra", "projection.dykstra", None),
        ]

    # -- moving records between processes --

    def dump(self):
        """Write this process's records to the spool and start afresh."""
        t0 = perf_counter_ns()
        self._count_pending()
        self.counts["trace.hook_ns"] += perf_counter_ns() - t0
        path = os.path.join(self.spool_dir, "%d-%d.pkl" % (os.getpid(), self._dumps))
        self._dumps += 1
        with open(path, "wb") as fh:
            pickle.dump({"spans": self.spans, "counts": dict(self.counts), "maxes": self.maxes}, fh)
        self.spans, self.counts, self.maxes = [], Counter(), {}

    def collect(self):
        """Every process's records: [(spans, counts, maxes)], this process first.

        Clears this process's buffers and removes the spool files it read.
        """
        self._count_pending()
        out = [(self.spans, dict(self.counts), dict(self.maxes))]
        self.spans, self.counts, self.maxes = [], Counter(), {}
        for fname in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, fname)
            with open(path, "rb") as fh:
                doc = pickle.load(fh)
            os.remove(path)
            out.append((doc["spans"], doc["counts"], doc["maxes"]))
        return out
