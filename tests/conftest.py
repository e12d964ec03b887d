import pytest

from delaycontrol.core import ControlDomain, HistoryPath, Instance, LinearDriver, TimeGrid
from delaycontrol.coeffs import make_coefficients
from delaycontrol.hjb import HjbGrid, feedback_control, solve_hjb
from delaycontrol.smdde import NoiseSource, simulate_smdde
from delaycontrol.bsde import RegressionBasis, solve_bsde_lsmc
from delaycontrol.adjoint import solve_adjoints

# quadratic-terminal variant: the dynamic-programming benchmark
LQ_PARAMS = dict(a=0.1, bu=0.5, sigma0=0.2, q=0.15, r=1.0, phi_quad=-0.15)
# linear-terminal variant: the maximum-principle benchmark
LQ_MP_PARAMS = dict(a=0.1, bu=0.5, sigma0=0.2, q=0.15, r=1.0, phi_lin=0.3)
LQ_LAM = 0.5


def make_lq_instance(params=None, dt=0.01, delay_steps=10, x0=0.6, T=1.0):
    coeffs = make_coefficients("linear_quadratic", lam=LQ_LAM, **(params or LQ_PARAMS))
    grid = TimeGrid(s=0.0, T=T, dt=dt, delay_steps=delay_steps)
    return Instance(coeffs=coeffs, grid=grid,
                    history=HistoryPath.constant(x0, grid.m),
                    domain=ControlDomain(-1.0, 1.0, n_u=41),
                    driver=LinearDriver())


def solve_pipeline(inst, control, seed, n_paths):
    """Forward paths under ``control``, their backward solution and adjoints
    in the degree-2 basis: the solved run that the checkers read."""
    bundle = simulate_smdde(inst.coeffs, inst.history, control, inst.grid,
                            NoiseSource(seed), n_paths)
    basis = RegressionBasis(degree=2)
    solution = solve_bsde_lsmc(bundle, inst.coeffs, basis)
    return bundle, solution, solve_adjoints(bundle, solution, inst.coeffs, basis)


@pytest.fixture(scope="session")
def lq_small():
    """Moderate-resolution pipeline on the quadratic-terminal benchmark,
    shared across unit tests: value grid, feedback rule, forward paths,
    backward solution, adjoints."""
    inst = make_lq_instance()
    grid_cfg = HjbGrid(-3.0, 3.0, 121, -3.0, 3.0, 61, 120)
    vgrid = solve_hjb(inst.coeffs, inst.domain, grid_cfg, inst.grid,
                      variant="Gtilde", linear_driver=inst.driver)
    control = feedback_control(vgrid, inst.domain)
    bundle, solution, adjoints = solve_pipeline(inst, control, 42, 4000)
    return dict(inst=inst, vgrid=vgrid, control=control, bundle=bundle,
                basis=solution.basis, solution=solution, adjoints=adjoints)
