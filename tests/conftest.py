import sys
from pathlib import Path

# make the sibling oracles module importable regardless of pytest rootdir
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np
import pytest

from sdlab.mesh import build_coupled_mesh, stacked_domain, side_by_side_domain


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def unit_stack():
    """Coarsest stacked mesh: Stokes (0,1)^2 below Darcy (0,1)x(1,2)."""
    return build_coupled_mesh(stacked_domain(1), 0)


@pytest.fixture
def stack4():
    return build_coupled_mesh(stacked_domain(4), 0)


@pytest.fixture
def side4():
    return build_coupled_mesh(side_by_side_domain(4), 0)
