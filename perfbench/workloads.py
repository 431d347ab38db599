"""The three benchmark workloads, written against sdlab's public functions.

Each workload is one pass: it builds its meshes, assembles, preconditions,
solves and checks, recording per operation the time spent in each phase:

    setup     the calls that prepare a Krylov or eigensolve call (mesh,
              tags, assembly, preconditioner, deflation)
    solve     minres_solve calls
    spectrum  generalized_eigs calls
    check     error norms, residual and agreement checks, bound checks

Phase times are kept as raw perf_counter stamps and turned into seconds
after the pass, corrected for the host's speed (speed.py).

Calls go through the sdlab module objects (``sd_mesh.build_coupled_mesh``)
so that the traced run, which swaps those attributes for wrappers, sees
every call without a second copy of the workload code.  Positional
arguments are used where the tracer reads them (assemble_system,
minres_solve).
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from sdlab import assembly as sd_assembly
from sdlab import mesh as sd_mesh
from sdlab import minres as sd_minres
from sdlab import mms as sd_mms
from sdlab import precond as sd_precond
from sdlab import spectrum as sd_spectrum

# The seed whose jitter factors are exactly 1: it reproduces the nominal
# parameters, and only its outputs are compared with the reference values.
NOMINAL_SEED = 0

# Reference outputs of the nominal seed (EN, nref 4, mu = K = 1e-4):
# compute_errors norms, and the NN kappa spread over the nref-1 grid.
REF_ERRORS = (0.23292098286233653, 0.0010395326865716632,
              0.0005592191746303465, 0.02835066383294603)
REF_ERRORS_RTOL = 1e-6
REF_NN_SPREAD = 2.8334363483711185
REF_NN_SPREAD_RTOL = 1e-6

# The diagnostic solve of `spectral` is repeated: one takes ~0.3-0.5 s and,
# with two BLAS threads on its small dense products, single solves of the
# same system scatter from 0.33 to 0.82 s within one process.
DIAGNOSTIC_REPEATS = 8

RESIDUAL_TOL = 1e-8        # true ||b - A x|| / ||b|| after a 1e-12 reduction
AGREE_TOL = 1e-6           # plain vs deflated solution, relative 2-norm
MUK_TWIN_RTOL = 1e-8       # kappa at equal mu*K (the pencil's invariance)


@dataclass
class Jitter:
    """Log-uniform factors for mu and K, shared by every point of a pass."""
    mu: float = 1.0
    K: float = 1.0

    @classmethod
    def from_seed(cls, seed):
        if seed == NOMINAL_SEED:
            return cls()
        rng = np.random.default_rng(seed)
        fm, fk = 10.0 ** rng.uniform(-0.25, 0.25, size=2)
        return cls(mu=float(fm), K=float(fk))


@dataclass
class Op:
    """One checked operation of a pass.

    `intervals` holds the raw (phase, start, end) stamps; `Pass.settle`
    turns them into `phases` (corrected seconds, see speed.py) and
    `raw_phases` (seconds as measured, probe time left out).
    """
    name: str
    intervals: list = field(default_factory=list)
    phases: dict = field(default_factory=lambda: defaultdict(float))
    raw_phases: dict = field(default_factory=lambda: defaultdict(float))
    dofs: int = 0
    iterations: int = 0
    failures: list = field(default_factory=list)

    @contextmanager
    def phase(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.intervals.append((name, t0, time.perf_counter()))

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)

    def solved(self, log, system):
        """Record a MINRES run and apply the checks every solve gets."""
        self.iterations += log.iterations
        self.check(log.reason == "converged", f"reason {log.reason}")
        res = (np.linalg.norm(system.b - system.A @ log.x)
               / np.linalg.norm(system.b))
        self.check(res <= RESIDUAL_TOL, f"true residual {res:.2e}")


class Pass:
    """Operations of one pass; `tracer` (if any) learns the current op.

    `coarsen` drops that many refinement levels from every mesh (never
    below nref 0); the warm-up pass uses it to run the same code on small
    problems.
    """

    def __init__(self, jitter, nominal, tracer=None, coarsen=0):
        self.jitter = jitter
        self.nominal = nominal
        self.tracer = tracer
        self.coarsen = coarsen
        self.ops = []
        self.stamps = (0.0, 0.0)
        self.wall = 0.0         # corrected seconds
        self.raw_wall = 0.0     # seconds as measured, probe time left out
        self.speed = 1.0        # median host speed against the reference
        self.probes = 0
        self.timeline = None

    @contextmanager
    def op(self, name):
        op = Op(name)
        self.ops.append(op)
        if self.tracer is not None:
            self.tracer.op = len(self.ops) - 1
        try:
            yield op
        except Exception as exc:        # an operation that raises has failed
            op.failures.append(f"{type(exc).__name__}: {exc}")

    def settle(self, timeline):
        """Turn the raw stamps into corrected and raw seconds."""
        self.timeline = timeline
        self.speed = float(np.median(timeline.speed))
        self.probes = timeline.probes
        self.wall = timeline.seconds(*self.stamps)
        self.raw_wall = timeline.raw_seconds(*self.stamps)
        for op in self.ops:
            for name, t0, t1 in op.intervals:
                op.phases[name] += timeline.seconds(t0, t1)
                op.raw_phases[name] += timeline.raw_seconds(t0, t1)

    def total(self, phase):
        return sum(op.phases.get(phase, 0.0) for op in self.ops)

    def raw_total(self, phase):
        return sum(op.raw_phases.get(phase, 0.0) for op in self.ops)


def _mesh(run, config, nref):
    nref = max(0, nref - run.coarsen)
    m = sd_mesh.build_coupled_mesh(sd_mesh.stacked_domain(4), nref)
    sd_mesh.tag_boundaries(m, config)
    return m


def _mms_system(mesh, mu, K):
    exact = sd_mms.ExactSolution(mu=mu, K=K, alpha_bjs=0.5)
    return sd_assembly.assemble_system(mesh, exact.params(), exact.loads()), exact


# ------------------------------------------------------------ workloads


def solve_fine(run):
    """One EN manufactured-solution solve at nref 4 (58,179 dofs)."""
    mu, K = 1e-4 * run.jitter.mu, 1e-4 * run.jitter.K
    with run.op("solve-fine") as op:
        with op.phase("setup"):
            mesh = _mesh(run, sd_mesh.BcConfig.EN, 4)
            system, exact = _mms_system(mesh, mu, K)
            B = sd_precond.build_preconditioner(system)
        op.dofs = system.A.shape[0]
        with op.phase("solve"):
            log = sd_minres.minres_solve(system.A, system.b, B,
                                         reduction=1e-12, maxit=3000)
        with op.phase("check"):
            op.solved(log, system)
            errors = sd_mms.compute_errors(system, log.x, exact)
            op.check(all(np.isfinite(errors)), f"errors {errors}")
            if run.nominal:
                rel = max(abs(e - r) / r for e, r in zip(errors, REF_ERRORS))
                op.check(rel <= REF_ERRORS_RTOL,
                         f"error norms {errors} off the reference by {rel:.1e}")


def param_sweep(run):
    """NE and EN at nref 2, mu*K = 1e-6 .. 1e6: plain then deflated MINRES."""
    products = 10.0 ** np.arange(-6, 7)
    for config in (sd_mesh.BcConfig.NE, sd_mesh.BcConfig.EN):
        mesh = None
        for p in products:
            mu, K = p * run.jitter.mu, 1.0 * run.jitter.K
            with run.op(f"{config.value} mu*K={p:g}") as op:
                with op.phase("setup"):
                    if mesh is None:
                        mesh = _mesh(run, config, 2)
                    system, _ = _mms_system(mesh, mu, K)
                    B = sd_precond.build_preconditioner(system)
                    BW = sd_precond.DeflatedPreconditioner(
                        B, sd_precond.build_deflation(system))
                op.dofs = system.A.shape[0]
                with op.phase("solve"):
                    plain = sd_minres.minres_solve(system.A, system.b, B,
                                                   reduction=1e-12, maxit=3000)
                    defl = sd_minres.minres_solve(system.A, system.b, BW,
                                                  reduction=1e-12, maxit=3000)
                with op.phase("check"):
                    op.solved(plain, system)
                    op.solved(defl, system)
                    diff = (np.linalg.norm(plain.x - defl.x)
                            / np.linalg.norm(defl.x))
                    op.check(diff <= AGREE_TOL,
                             f"plain and deflated solutions differ by {diff:.1e}")


def _plateau_story(log):
    """Criterion 5: a plateau while F_k > 10, F_k < 1.5 only after it."""
    windows = sd_minres.detect_plateaus(log.residuals)
    if not windows:
        return False, "no plateau"
    lo, hi = windows[0]
    Fk = np.asarray(log.Fk)
    inside = Fk[lo:hi]
    inside = inside[~np.isnan(inside)]
    below = np.flatnonzero(Fk < 1.5)
    ok = (inside.size > 0 and inside.min() > 10.0 and below.size > 0
          and lo < hi <= below[0] < log.iterations)
    return ok, (f"plateau [{lo}, {hi}), F_k first < 1.5 at "
                f"{below[0] if below.size else 'never'}, "
                f"{log.iterations} iterations")


def spectral(run):
    """EN nref-2 diagnostic solves with F_k and bound, plus the NN 3x3 grid."""
    mu, K = 1e-4 * run.jitter.mu, 1e-4 * run.jitter.K
    with run.op("EN diagnostic") as op:
        with op.phase("setup"):
            mesh = _mesh(run, sd_mesh.BcConfig.EN, 2)
            system, _ = _mms_system(mesh, mu, K)
            B = sd_precond.build_preconditioner(system)
        op.dofs = system.A.shape[0]
        with op.phase("spectrum"):
            spec = sd_spectrum.generalized_eigs(
                system.A, system.N, len(system.essential))
        with op.phase("solve"):
            logs = [sd_minres.minres_solve(system.A, system.b, B,
                                           reduction=1e-12, maxit=3000,
                                           diagnostic=True,
                                           eigenvalues=spec.eigenvalues)
                    for _ in range(DIAGNOSTIC_REPEATS)]
        with op.phase("check"):
            hull = sd_spectrum.two_interval_hull(
                spec.eigenvalues, drop=1, n_unit=len(system.essential))
            rho = sd_spectrum.contraction_factor(hull)
            for log in logs:
                op.solved(log, system)
                ok, story = _plateau_story(log)
                op.check(ok, f"plateau story: {story}")
                worst = sd_minres.check_convergence_bound(log, rho)
                op.check(worst <= 1.0, f"bound ratio {worst:.2e}")

    grid = (1e-4, 1.0, 1e4)
    with run.op("NN grid") as op:
        kappa = np.zeros((3, 3))
        for i, mu in enumerate(grid):
            for j, K in enumerate(grid):
                with op.phase("setup"):
                    if i == j == 0:
                        mesh = _mesh(run, sd_mesh.BcConfig.NN, 1)
                    params = sd_assembly.PhysParams(
                        mu=mu * run.jitter.mu, K=K * run.jitter.K,
                        alpha_bjs=0.5)
                    system = sd_assembly.assemble_system(mesh, params)
                op.dofs = max(op.dofs, system.A.shape[0])
                with op.phase("spectrum"):
                    spec = sd_spectrum.generalized_eigs(
                        system.A, system.N, len(system.essential))
                kappa[i, j] = spec.kappa()
        with op.phase("check"):
            op.check(bool(np.all(np.isfinite(kappa) & (kappa >= 1.0))),
                     f"kappas {kappa.ravel()}")
            # the pencil depends on (mu, K) only through mu*K, so the grid
            # points (i, j) and (i + 1, j - 1) share a spectrum
            twins = np.abs(kappa[1:, :-1] - kappa[:-1, 1:]) / kappa[:-1, 1:]
            op.check(twins.max() <= MUK_TWIN_RTOL,
                     f"kappa at equal mu*K differs by {twins.max():.1e}")
            vals = kappa.ravel()
            spread = vals.max() / vals.min()
            if run.nominal:
                op.check(abs(spread - REF_NN_SPREAD)
                         <= REF_NN_SPREAD_RTOL * REF_NN_SPREAD,
                         f"NN kappa spread {spread!r} vs {REF_NN_SPREAD!r}")


WORKLOADS = {
    "solve-fine": solve_fine,
    "param-sweep": param_sweep,
    "spectral": spectral,
}


def run_pass(name, jitter, nominal, clock, tracer=None, coarsen=0):
    """One pass, its times corrected for the host's speed by `clock`, a
    running speed.SpeedClock."""
    run = Pass(jitter, nominal, tracer, coarsen)
    gc.collect()        # leave no garbage of the previous pass to this one
    since = clock.sample()
    t0 = time.perf_counter()
    WORKLOADS[name](run)
    run.stamps = (t0, time.perf_counter())
    clock.sample()
    run.settle(clock.timeline(since))
    return run
