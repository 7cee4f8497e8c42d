import numpy as np
import pytest

from pregrasp import DecompParams, GripperConfig, SamplingParams, decompose, synth_shape


# Shape fixtures reused across modules.  Session scope: decomposition is the
# slow stage and the trees are treated as read-only.

@pytest.fixture(scope="session")
def sphere_cloud():
    return synth_shape("sphere", (0.05,), 5000, seed=1)


@pytest.fixture(scope="session")
def sphere_tree(sphere_cloud):
    return decompose(sphere_cloud, DecompParams())


@pytest.fixture(scope="session")
def small_sphere_cloud():
    """Sphere small enough for the default gripper to pinch through center."""
    return synth_shape("sphere", (0.04,), 3000, seed=2)


@pytest.fixture(scope="session")
def lshape_cloud():
    """Two orthogonal 0.1 x 0.04 x 0.04 legs sharing a 0.04 x 0.04 face."""
    return synth_shape("lshape", (0.1, 0.1, 0.04), 6000, seed=3)


@pytest.fixture(scope="session")
def lshape_tree(lshape_cloud):
    return decompose(lshape_cloud, DecompParams())


@pytest.fixture(scope="session")
def dumbbell_cloud():
    return synth_shape("dumbbell", (0.2, 0.08, 0.03, 0.015), 8000, seed=3)


@pytest.fixture(scope="session")
def dumbbell_tree(dumbbell_cloud):
    return decompose(dumbbell_cloud, DecompParams())


@pytest.fixture
def gripper():
    return GripperConfig()


@pytest.fixture
def sampling():
    return SamplingParams()


@pytest.fixture
def free_mask():
    return np.zeros(6, dtype=int)
