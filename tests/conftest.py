import numpy as np
import pytest

from q8sculpt.mesh_pipeline import Mesh, demo_seed, orbit_cloud
from q8sculpt.quat import Q8Element
from q8sculpt.symmetry import PointCloud4, seed_asymmetry_check, symmetry_group


@pytest.fixture(scope="session")
def cell_labels():
    """Labels of the cells whose pinned coordinate dominates each row of an
    (n, 4) array.  Ties break to the lowest coordinate index (w before x
    before y before z); radially projected cube corners sit exactly on such
    ties."""

    def labels(points):
        axes = np.argmax(np.abs(points), axis=1)  # argmax returns the first maximum
        signs = np.where(points[np.arange(len(points)), axes] > 0, 1, -1)
        return [Q8Element(int(s), int(a)) for s, a in zip(signs, axes)]

    return labels


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture(scope="session")
def random_seed_mesh():
    """A generic asymmetric 40-point seed strictly inside the cube."""
    gen = np.random.default_rng(424242)
    points = gen.uniform(-0.9, 0.9, size=(40, 3))
    assert seed_asymmetry_check(points)
    return Mesh(points, np.array([[0, 1, 2]]))


@pytest.fixture(scope="session")
def sculpture_cloud(random_seed_mesh):
    return PointCloud4(orbit_cloud(random_seed_mesh))


@pytest.fixture(scope="session")
def sculpture_report(sculpture_cloud):
    return symmetry_group(sculpture_cloud)


@pytest.fixture(scope="session")
def demo_mesh():
    return demo_seed()
