"""Known-bad fixture for RPR601 (process-state)."""

import random
from collections import Counter, OrderedDict, defaultdict, deque
from random import choice

import numpy as np
import numpy.random as npr

_CACHE = {}  # BAD: per-process copy, mutations never merge back
_RESULTS = []  # BAD
_INDEX = dict()  # BAD: zero-arg constructor, same empty cache
_SEEN = set()  # BAD
_LRU = OrderedDict()  # BAD: the cache classes flag with any arguments
_QUEUE = deque()  # BAD
_BUCKETS = defaultdict(list)  # BAD
_COUNTS: Counter = Counter()  # BAD: annotated assignment too


def draw_samples(count):
    rng = np.random.default_rng()  # BAD: unseeded stream
    explicit = np.random.default_rng(None)  # BAD: None is not a seed
    keyword = np.random.default_rng(seed=None)  # BAD
    legacy = np.random.RandomState()  # BAD
    stdlib = random.Random()  # BAD
    return rng, explicit, keyword, legacy, stdlib, count


def ambient_draws(values):
    np.random.seed(0)  # BAD: reseeds the process-global stream
    noise = np.random.normal(0.0, 1.0)  # BAD: np. alias resolves
    random.shuffle(values)  # BAD: stdlib ambient stream
    pick = choice(values)  # BAD: from-imported ambient draw
    jitter = npr.uniform(0.0, 1.0)  # BAD: aliased numpy.random
    return noise, pick, jitter
