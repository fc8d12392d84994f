import numpy as np
import pytest

from lanebev import view_transform
from lanebev.synth import jittered_rig


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture(autouse=True)
def fresh_pyramid_operator():
    """Clear apply_pyramid's operator cache, so no test passes or fails
    because of the operator an earlier test left there."""
    view_transform._pyramid_operator.cache_clear()


def random_rig_pair(seed: int, rot_deg: float = 3.0, trans_m: float = 0.3):
    """Two plausible forward-looking rigs with seeded pose jitter."""
    rng = np.random.default_rng(seed)
    return jittered_rig(rng, rot_deg, trans_m), jittered_rig(rng, rot_deg, trans_m)
