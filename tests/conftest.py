import os
from itertools import combinations

import numpy as np
import pytest

from haefliger.diagram import LiftId, make_diagram


def base_seed() -> int:
    return int(os.environ.get("HAEFLIGER_SEED", "7"))


@pytest.fixture
def rng():
    return np.random.default_rng(base_seed())


def random_diagram(rng, m_max=6, max_abs=5, with_writhe=False, m_min=0):
    """Random sparse diagram with entries in [-max_abs, max_abs]."""
    m = int(rng.integers(m_min, m_max + 1))
    lifts = [LiftId(i, e) for i in range(1, m + 1) for e in (0, 1)]
    entries = []
    for a in range(len(lifts)):
        for b in range(a + 1, len(lifts)):
            if rng.random() < 0.4:
                value = int(rng.integers(-max_abs, max_abs + 1))
                entries.append((lifts[a], lifts[b], value))
    writhes = []
    if with_writhe:
        for lift in lifts:
            if rng.random() < 0.3:
                writhes.append((lift, int(rng.integers(-max_abs, max_abs + 1))))
    return make_diagram(k=1, m=m, lk=entries, writhe=writhes)


def random_subset(rng, m):
    return {int(i) for i in range(1, m + 1) if rng.random() < 0.5}


def wide_random_diagram(gen, m_max=7):
    """Random diagram from a ``random.Random``: values of either sign, about
    a third of them beyond 2**63, pairs on one crossing among the rest.
    Half the time its crossings are spread over 1..10**12 instead of 1..n."""
    n = gen.randint(0, m_max)
    m = n if gen.random() < 0.5 else 10**12
    crossings = sorted(gen.sample(range(1, m + 1), n))
    lifts = [LiftId(i, e) for i in crossings for e in (0, 1)]

    def value():
        size = gen.randrange(2**63, 2**70) if gen.random() < 0.3 else gen.randint(1, 5)
        return gen.choice((-1, 1)) * size

    entries = [(a, b, value()) for a, b in combinations(lifts, 2) if gen.random() < 0.5]
    writhes = [(lift, value()) for lift in lifts if gen.random() < 0.3]
    return make_diagram(k=1, m=m, lk=entries, writhe=writhes)
