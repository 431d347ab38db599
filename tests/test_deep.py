"""Finer-mesh checks, deselected by default; run with `pytest -m deep`."""

import pytest

from sdlab.assembly import PhysParams, assemble_system
from sdlab.mesh import BcConfig, build_coupled_mesh, stacked_domain, tag_boundaries
from sdlab.precond import build_deflation
from sdlab.spectrum import generalized_eigs

pytestmark = pytest.mark.deep


def test_exact_spectrum_at_nref_3():
    # EN at nref 3 (14,755 dofs) through the saddle-point reduction, inside
    # the default dense budget; sygv would need 3.5 GB and is refused
    mesh = tag_boundaries(build_coupled_mesh(stacked_domain(4), 3), BcConfig.EN)
    system = assemble_system(mesh, PhysParams(mu=1e-4, K=1e-4, alpha_bjs=0.5))
    spec = generalized_eigs(system.A, system.N, len(system.essential))
    assert spec.kappa() == pytest.approx(2.306219e7, rel=1e-6)
    assert spec.kappa_eff(1) == pytest.approx(13.73354, rel=1e-6)


def test_deflated_spectrum_at_nref_3():
    # the deflated NE pencil at nref 3, its rank-m correction applied to
    # the reduction as a congruence, inside the default dense budget
    mesh = tag_boundaries(build_coupled_mesh(stacked_domain(4), 3), BcConfig.NE)
    system = assemble_system(mesh, PhysParams(mu=1e-4, K=1e-4, alpha_bjs=0.5))
    spec = generalized_eigs(system.A, system.N,
                            deflation=build_deflation(system))
    assert spec.kappa() == pytest.approx(15.80468, rel=1e-6)


def test_deflated_spectrum_off_the_single_dofs_at_nref_3():
    # the deflated EN pencil at nref 3: W lives on p_S, off the single
    # (porous) pressure dofs, so every unit eigenvalue of p_D is eliminated
    # next to a rank-m correction
    mesh = tag_boundaries(build_coupled_mesh(stacked_domain(4), 3), BcConfig.EN)
    system = assemble_system(mesh, PhysParams(mu=1e-4, K=1e-4, alpha_bjs=0.5))
    spec = generalized_eigs(system.A, system.N,
                            deflation=build_deflation(system))
    assert spec.kappa() == pytest.approx(25.76716, rel=1e-6)
    assert spec.kappa_eff(1) == pytest.approx(23.71615, rel=1e-6)
