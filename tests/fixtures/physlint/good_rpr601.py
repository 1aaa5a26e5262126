"""Known-good fixture for RPR601 (process-state)."""

import random
from collections import OrderedDict

import numpy as np

#: Populated literals are constant tables, not caches.
_LIMITS = {"basicmath": 358.15, "bitcount": 356.2}
_NAMES = ("basicmath", "bitcount")

#: A rebindable sentinel is not mutable container state.
_RUNTIME = None


class FactorCache:
    """Instance state travels with the object, not the module."""

    def __init__(self):
        self._lru = OrderedDict()
        self._hits = []


def draw_samples(seed, count):
    rng = np.random.default_rng(seed)
    child = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    stdlib = random.Random(seed)
    return rng, child, stdlib, count


def seeded_draws(seed, values):
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0)  # Generator method, not the module
    rng.shuffle(values)
    stdlib = random.Random(seed)
    pick = stdlib.choice(values)
    return noise, pick

