"""Per-step references for the block draws, written apart from them.

`netalloc.network.sample_graph` and `netalloc.engine.draw_step_noise` are
the block draws (`sample_graphs`, `draw_block_noise`) for one step.  The
functions here draw one step directly from the generators, as the library
once did, so the tests that compare a K-step block with K single steps
compare two independent implementations.
"""

import numpy as np

from netalloc.engine import GaussianNoise, SampledQuadraticNoise, StepNoise
from netalloc.network import GraphSample
from netalloc.streams import CHANNEL_LAMBDA, CHANNEL_Z, GRADIENT, RESOURCE


def sample_graph(model, rng) -> GraphSample:
    """One i.i.d. draw from the model, consuming `rng` deterministically.

    Edge order: a pool member's adjacency in row-major order; for gossip on
    the pair (i, j), i hears j and then j hears i; for broadcast from node
    v, v's neighbors in increasing order hear v.
    """
    n = model.n
    if model.pooled:
        return GraphSample.from_adjacency(model.graphs[int(rng.integers(0, len(model.graphs)))])
    if model.kind == "gossip":
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n - 1))
        if j >= i:
            j += 1
        return GraphSample(n=n, dst=np.array([i, j]), src=np.array([j, i]), w=np.ones(2))
    if model.kind == "broadcast":
        v = int(rng.integers(0, n))
        dst = np.flatnonzero(model.base[v])
        return GraphSample(n=n, dst=dst, src=np.full(dst.size, v), w=model.base[v, dst])
    raise ValueError(f"unknown model kind {model.kind!r}")


def draw_step_noise(noise, problem, X, stream, graph) -> StepNoise:
    """Draw one step's noise from the per-channel streams, the channel
    noises zeta and eps as (E, m), one row per edge of `graph` in its edge
    order (stream version 2)."""
    n, m = problem.n, problem.m
    links = (graph.dst.size, m)
    draws = StepNoise()
    g = noise.gradient
    if isinstance(g, GaussianNoise):
        draws.nu = g.sigma * stream.channel(GRADIENT).standard_normal((n, m))
    elif isinstance(g, SampledQuadraticNoise):
        gen = stream.channel(GRADIENT)
        psi = g.sigma_psi * gen.standard_normal((n, m, m))
        theta = g.sigma_theta * gen.standard_normal((n, m))
        draws.nu = 2.0 * np.einsum("nij,nj->ni", psi, X) + theta
    if noise.resource is not None:
        draws.delta = noise.resource.sigma * stream.channel(RESOURCE).standard_normal((n, m))
    if noise.channel_lambda is not None:
        draws.zeta = noise.channel_lambda.sigma * stream.channel(CHANNEL_LAMBDA).standard_normal(
            links)
    if noise.channel_z is not None:
        draws.eps = noise.channel_z.sigma * stream.channel(CHANNEL_Z).standard_normal(links)
    return draws
