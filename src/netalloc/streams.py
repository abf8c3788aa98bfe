"""Counter-based random streams with documented path splitting.

Each sample path owns one Philox key derived from its seed; every noise
channel gets its own counter block within that key, so enabling or disabling
one channel never disturbs the draws of another, and paths are independent
work units regardless of execution order.

STREAM_VERSION names how the channels are consumed, and manifests record
it.  Version 2 draws one realization of each channel noise per active
directed link of the step's graph, (E, m) per step, in the sample's edge
order.  Version 1 drew them all-pairs, as (n, n, m) arrays per step; the
library no longer draws that layout.  The graph, gradient and resource
channels are consumed as in version 1.

The engine draws each channel K steps at a time, one call per block of
steps (`network.sample_graphs`, `engine.draw_block_noise`).  Philox is
counter-based (Salmon et al., SC 2011) and numpy fills a block in the order
single draws would take, so a block of K steps yields the same values and
leaves the generator where K single steps would: per step one integer for
a pool member or a broadcasting node, two for a gossip pair; (n, m)
normals for a Gaussian gradient or resource channel; n m^2 normals for
psi, then n m for theta, for the sampled quadratic; (E_k, m) normals per
channel noise.  That is why block drawing is still version 2.  The
single-step `sample_graph` and `draw_step_noise` are the block draws with
K = 1; tests/test_batch.py pins each case against independent per-step
references.
"""

import numpy as np

STREAM_VERSION = 2

# channel ids (the Philox counter's third word)
GRAPH, GRADIENT, RESOURCE, CHANNEL_LAMBDA, CHANNEL_Z, INIT = range(6)


def subseed(*parts) -> int:
    """The documented splitting function: a 64-bit seed derived from integer parts."""
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1, np.uint64)[0])


def path_seed(master_seed: int, path: int) -> int:
    """Path `path`'s seed under master seed `master_seed`."""
    return subseed(master_seed, path)


class PathStream:
    """Per-path random streams, one independent generator per channel."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._key = np.random.SeedSequence(self.seed).generate_state(2, np.uint64)
        self._gens = {}

    def channel(self, channel_id: int) -> np.random.Generator:
        gen = self._gens.get(channel_id)
        if gen is None:
            bg = np.random.Philox(key=self._key, counter=[0, 0, channel_id, 0])
            gen = np.random.Generator(bg)
            self._gens[channel_id] = gen
        return gen
