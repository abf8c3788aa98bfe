"""Per-iteration metric records, their CSV form, and the JSON document writer."""

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# the per-state metrics, in CSV column order
METRICS = ("dist", "obj", "consensus", "balance", "state_norm")


@dataclass
class Trace:
    """Metric curves sampled every `cadence` iterations.

    `dist` is absent (None) when no reference solution was supplied; `obj`
    is absent when some agent's objective value is unavailable.  The
    optional `lyapunov` column is populated by the reference flow.
    """

    k: np.ndarray
    alpha: np.ndarray
    consensus: np.ndarray
    balance: np.ndarray
    state_norm: np.ndarray
    dist: Optional[np.ndarray] = None
    obj: Optional[np.ndarray] = None
    lyapunov: Optional[np.ndarray] = field(default=None)

    def __len__(self):
        return self.k.size

    def columns(self):
        cols = {"k": self.k, "alpha": self.alpha, "dist": self.dist, "obj": self.obj,
                "consensus": self.consensus, "balance": self.balance,
                "state_norm": self.state_norm}
        if self.lyapunov is not None:
            cols["lyapunov"] = self.lyapunov
        return cols


def build_trace(rows) -> Trace:
    """The Trace of recorded rows, each a dict of k, alpha and the METRICS
    (plus `lyapunov` from the flow); a column holding a None is absent."""
    cols = {name: [row[name] for row in rows] for name in rows[0]}
    return Trace(**{
        name: None if any(v is None for v in vals)
        else np.array(vals, dtype=int if name == "k" else float)
        for name, vals in cols.items()
    })


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cells(col, rows):
    if col is None:
        return [""] * rows
    col = np.asarray(col)
    if np.issubdtype(col.dtype, np.integer):
        return [str(int(v)) for v in col]
    return [repr(float(v)) for v in col]


def write_columns(path, cols):
    """Write a dict of equal-length columns as CSV: integer columns as int,
    the others as shortest-repr floats, a None column as empty cells."""
    rows = max(len(col) for col in cols.values() if col is not None)
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for cells in zip(*(_cells(col, rows) for col in cols.values())):
            fh.write(",".join(cells) + "\n")


def write_csv(trace: Trace, path):
    write_columns(path, trace.columns())


def read_csv(path) -> Trace:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = {name: [] for name in names}
    for cells in rows:
        for name, cell in zip(names, cells):
            data[name].append(cell)
    out = {}
    for name, cells in data.items():
        if all(c == "" for c in cells):
            out[name] = None
        elif name == "k":
            out[name] = np.array([int(c) for c in cells])
        else:
            out[name] = np.array([float(c) for c in cells])
    return Trace(**out)


def mean_trace(traces) -> Trace:
    """Arithmetic mean of metric curves across paths (all on the same grid)."""
    if not traces:
        raise ValueError("no traces to average")
    first = traces[0]
    for t in traces[1:]:
        if not np.array_equal(t.k, first.k):
            raise ValueError("traces are on different iteration grids")

    def avg(name):
        cols = [getattr(t, name) for t in traces]
        if any(c is None for c in cols):
            return None
        return np.mean(np.stack(cols, axis=0), axis=0)

    return Trace(k=first.k.copy(), alpha=first.alpha.copy(),
                 **{name: avg(name) for name in METRICS + ("lyapunov",)})
