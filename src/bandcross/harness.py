"""Experiment orchestration: scenarios, scaling fits, and gated study reports.

A study takes a RunConfig, runs the direct solver against the wavepacket
ansatz over a list of epsilon values, fits log-log scaling exponents, and
returns a StudyReport whose gates decide the process exit code.  Each study
builds its scenario (band path or pair, flow, envelope coefficients) once
per config, then runs one case per epsilon; every case records the Case
fields and its own readouts.  Both are cached, so the pre-crossing, post-
crossing and inner-window studies share a single propagation.

Every resolution is derived from the solver error targets: the direct
solve's grid and dt by plan_solver and its after-run step doubling, each
envelope march's step by step doubling in march_envelopes, and the step of
the scenario's band flow by step doubling in derived_flow, against the
smallest target of the config's epsilons.  Both step doublings accept by
one rule (_step_doubling).  Every default drive is linear, so its envelope
transport is exact in Fourier space and march_envelopes accepts its first
pair of marches, which agree to roundoff.
plan_solver is the one place where a measurement time becomes a whole
number of steps; the solver takes those counts, and each case reads its
snapshots by step count, never by a float time.

Threads: a study runs its epsilons on a case pool of worker_count threads,
capped by BCL_THREADS.  Each crossing case adds two solver threads of its
own: one runs the step-doubling solve and the other the first fine run
beside its coarse run, while the case's thread builds the semiclassical
prediction.  So a crossing case runs up to three threads, and a crossing
study up to three times the pool size.  Isolated cases run on their pool
thread alone, coarse run then fine run.  BLAS runs one thread
(OPENBLAS_NUM_THREADS=1, set when bandcross is imported before numpy):
every matrix it sees is at most 64 x 64, or a stack of such, so a BLAS
worker beside each of these threads would only spin and oversubscribe the
cores.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import __version__, direct
from .ansatz import (Grid, GridState, assemble_wp0, assemble_wp1,
                     path_dp_chi, predict_excited_mass)
from .bloch import band_path, coupling_coefficient, smooth_continuation
from .classical import SplineBand, extend_through_crossing, integrate_flow
from .direct import (PropagationResult, band_mass, centred_external,
                     l2_error, points_per_period, propagate)
from .envelope import (Envelope, coefficients_from_trajectory, evolve_a0,
                       evolve_a1, excited_buildup, excited_envelope,
                       gaussian_envelope)
from .errors import (ConvergenceFailure, DegenerateFit, IsolationFailure,
                     SolverBudgetExceeded)
from .io import write_csv, write_json
from .lz import simulate
from .potential import (EllipticParams, ExternalPotential, PeriodicPotential,
                        cosine_external, linear_ramp, make_cosine, make_m_gap,
                        potential_from_coeffs, zero_external)

XI = 0.45                 # breakdown-window exponents; see RunConfig
XI_PRIME = 0.40
HORIZON_PAD = 0.02
M_CUT = 15
N_INNER = 8
FINE_EPS_FLOOR = 1.0 / 256.0   # finer sweeps are opt-in (runtime)
MAX_HALVINGS = 3          # dt halvings the step-doubling check may add
# envelope marches (march_envelopes) and the band flow (derived_flow): the
# tolerance is ENVELOPE_SHARE of the solver target, as for the ppw rule in
# plan_solver
ENVELOPE_SHARE = 0.01
ENVELOPE_START_STEPS = 16
MAX_ENVELOPE_HALVINGS = 8
ROUNDOFF_FLOOR = 1e-12    # packet norm; an exact march estimates ~1e-14
ISOLATED_SIGNAL = 0.05    # scale of the O(eps) WP1 error signal
RATIO_RANGE = (0.8, 1.2)  # gate on the crossing and inner mass ratios

# Every direct solve is checked by step doubling (propagate_richardson), and
# its grid and dt come from plan_solver alone.
_SOLVER_DEFAULTS = {
    # Two a-priori error constants that nothing reads; configs that set them
    # (perfbench/test_perfbench.py does) stay valid.
    "quartic_constant": 5.0e4,
    "strang_constant": 150.0,
    "error_budget": 0.075,      # solver error target as a fraction of signal
    "signal_prefactor": None,   # override the per-study signal scale
}


def worker_count(n_jobs: int) -> int:
    """Case-pool size: BCL_THREADS caps it, defaults to the machine's cores.

    The pool trades CPU time and memory for wall time.  Medians of five
    alternating isolated_sweep benchmark units per side on a 2-vCPU VM, 2
    workers against BCL_THREADS=1: solve_s 0.253 against 0.287 s, cpu_s
    0.327 against 0.287 s, peak RSS 45.2 against 42.2 MB.
    """
    cap = os.environ.get("BCL_THREADS", "")
    limit = int(cap) if cap.strip() else (os.cpu_count() or 1)
    return max(1, min(limit, n_jobs))


# -- configuration ---------------------------------------------------------------


def _as_epsilon(value) -> float:
    v = float(value)
    if v > 1.0:
        v = 1.0 / v
    k = round(1.0 / v)
    if k < 2 or abs(v * k - 1.0) > 1e-9:
        raise ValueError(f"epsilon {value} is not a reciprocal integer")
    return 1.0 / k


@dataclass
class RunConfig:
    """Resolved description of one study; every field JSON-serializable.

    Values that every study shares are module constants, not fields.
    XI = 0.45 and XI_PRIME = 0.40 are the window exponents, within the
    paper's 3/8 < xi' < xi < 1/2, at which the studies read its claims.
    The initial action is 0: it is a global phase of psi and of every
    predicted packet.  Every band flow runs HORIZON_PAD = 0.02 past its
    last readout, a margin for the crossing's constant-drive estimate of
    t*.  The Bloch tables hold the plane waves |m| <= M_CUT = 15, enough
    for the one-gap default's harmonics and for bands 1..band+2 when
    band <= 2 M_CUT - 1.  N_INNER = 8 readouts span the inner window.
    """

    study: str = "crossing"
    potential: dict = field(default_factory=lambda: {
        "kind": "one_gap", "omega_prime": 0.3, "m_max": 15})
    external: dict = field(default_factory=lambda: {
        "kind": "linear", "alpha": 4.0, "q_ref": 6.0})
    band: int = 2                  # lower band of the crossing pair (1-based)
    p_star: float = 0.0
    q0: float = 3.2
    p0: float = -1.0
    sigma: float = 3.5
    epsilons: tuple = (1.0 / 64.0, 1.0 / 128.0, 1.0 / 256.0)
    t_final: float = 0.5           # isolated-study observation time
    domain_length: object = None   # int | {"64": int, ...} | None (auto)
    ppw: object = 32               # int pins it | None (derived per case)
    envelope_half_width: float = 40.0
    envelope_points: int = 1024
    pair_halfwidth: float = 1.7
    pair_samples: int = 1601
    band_window: tuple = (0.7, 2.1)   # isolated-band sampling window
    measurements: tuple = ("crossing", "inner")
    solver: dict = field(default_factory=dict)
    allow_fine: bool = False
    out_dir: str = "out"

    def __post_init__(self):
        self.epsilons = tuple(sorted((_as_epsilon(e) for e in self.epsilons),
                                     reverse=True))
        if not self.epsilons or len(set(self.epsilons)) != len(self.epsilons):
            raise ValueError("epsilons must be non-empty and distinct")
        for e in self.epsilons:
            if e < FINE_EPS_FLOOR - 1e-12 and not self.allow_fine:
                raise ValueError(
                    f"epsilon {e} below 1/256 requires allow_fine=true")
        if not 1 <= self.band <= 2 * M_CUT - 1:
            raise ValueError(f"band {self.band} is outside 1..{2 * M_CUT - 1}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.envelope_points % 2 != 0:
            raise ValueError("envelope_points must be even")
        allowed = ("breakdown", "crossing", "inner")
        meas = tuple(m for m in allowed if m in self.measurements)
        if not meas or len(meas) != len(self.measurements):
            raise ValueError(
                f"measurements must be a non-empty subset of {allowed}")
        self.measurements = meas
        merged = dict(_SOLVER_DEFAULTS)
        merged.update(self.solver)
        unknown = set(merged) - set(_SOLVER_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown solver keys {sorted(unknown)}")
        self.solver = merged

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        return cls(**data)

    def resolved(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out

    def fingerprint(self) -> str:
        keys = self.resolved()
        keys.pop("out_dir")
        keys.pop("study")
        return json.dumps(keys, sort_keys=True, default=str)


def default_config(study: str) -> RunConfig:
    """Frozen per-study defaults; the CLI overlays the user's JSON on these.

    Every default derives its points per period (ppw=None, see plan_solver).
    """
    if study == "isolated":
        return RunConfig(
            study="isolated",
            potential={"kind": "cosine", "amplitude": 4.0, "harmonics": 1},
            external={"kind": "linear", "alpha": 0.25, "q_ref": 0.0},
            band=1, q0=3.5, p0=1.3, sigma=1.0,
            epsilons=(1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0),
            # the corrector's neighbour-band component travels at that band's
            # group velocity, so the box must hold it for the whole run
            domain_length=10, ppw=None, envelope_half_width=24.0,
            envelope_points=768, solver={"error_budget": 0.25},
        )
    if study == "breakdown":
        # Gentle drive.  The pre-crossing error carries an O(eps * pdot)
        # oscillatory dressing of the neighbouring bands on top of the
        # eps^{1-xi} singular term, and the singular prefactor |kappa|/sg is
        # drive-independent, so a small alpha is what keeps the exponent fit
        # clean.  The packet starts close to the crossing momentum to keep
        # the run short.
        return RunConfig(
            study="breakdown",
            external={"kind": "linear", "alpha": 0.2, "q_ref": 6.0},
            q0=2.0, p0=-0.2,
            pair_halfwidth=0.45, pair_samples=801,
            domain_length={"64": 11, "128": 10, "256": 10}, ppw=None,
            measurements=("breakdown",),
        )
    if study in ("crossing", "inner"):
        # Fast drive.  A strong chirp keeps the transferred packet spatially
        # compact and well separated from the incident one, which the
        # post-crossing residual and window-mass readouts need; these two
        # studies share identical runs.
        return RunConfig(study=study,
                         domain_length={"64": 12, "128": 10, "256": 10},
                         ppw=None)
    raise ValueError(f"no default config for study {study!r}")


# -- scaling fits ----------------------------------------------------------------


def fit_scaling(pairs):
    """Least squares for log m = slope log eps + intercept -> (slope, b, r2)."""
    pts = [(float(e), float(v)) for e, v in pairs]
    if len(pts) < 3:
        raise DegenerateFit(f"need >= 3 points, got {len(pts)}")
    if any(e <= 0 or v <= 0 for e, v in pts):
        raise DegenerateFit("scaling fit needs positive epsilons and values")
    if len({e for e, _ in pts}) < 3:
        raise DegenerateFit("need >= 3 distinct epsilons")
    x = np.log([e for e, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return float(slope), float(intercept), float(r2)


@dataclass
class ScalingReport:
    """One fitted exponent with its gate."""

    label: str
    epsilons: tuple
    values: tuple
    slope: float
    intercept: float
    r_squared: float
    target: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.slope - self.target) <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "epsilons": list(self.epsilons),
            "values": list(self.values),
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "target": self.target,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def make_scaling_report(label, pairs, target, tolerance) -> ScalingReport:
    slope, intercept, r2 = fit_scaling(pairs)
    return ScalingReport(label=label,
                         epsilons=tuple(e for e, _ in pairs),
                         values=tuple(v for _, v in pairs),
                         slope=slope, intercept=intercept, r_squared=r2,
                         target=float(target), tolerance=float(tolerance))


@dataclass
class GateResult:
    name: str
    value: float
    requirement: str
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value,
                "requirement": self.requirement, "passed": bool(self.passed)}


@dataclass
class StudyReport:
    study: str
    version: str
    config: dict
    rows: list
    fits: list
    gates: list
    scenario: dict = None   # the crossing scenario's diagnostics

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates)

    def summary(self) -> dict:
        out = {
            "study": self.study,
            "version": self.version,
            "passed": self.passed,
            "gates": [g.to_dict() for g in self.gates],
            "fits": [f.to_dict() for f in self.fits],
            "config": self.config,
        }
        if self.scenario is not None:
            out["scenario"] = self.scenario
        return out

    def write(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        write_json(os.path.join(out_dir, f"{self.study}_summary.json"),
                   self.summary())
        if self.rows:
            header = sorted({k for row in self.rows for k in row})
            table = [[row.get(k, "") for k in header] for row in self.rows]
            write_csv(os.path.join(out_dir, f"{self.study}_rows.csv"),
                      header, table)


# -- potential / scenario assembly -----------------------------------------------


def build_potential(spec: dict) -> PeriodicPotential:
    kind = spec.get("kind", "")
    if kind == "free":
        return potential_from_coeffs({})
    if kind == "cosine":
        return make_cosine(float(spec["amplitude"]),
                           int(spec.get("harmonics", 1)))
    if kind == "one_gap":
        params = EllipticParams(gap_count=1,
                                omega_prime=float(spec["omega_prime"]))
        return make_m_gap(params, m_max=int(spec.get("m_max", 15)))
    if kind == "coeffs":
        pairs = {int(m): complex(*v) if isinstance(v, (list, tuple))
                 else complex(v) for m, v in spec["values"].items()}
        return potential_from_coeffs(pairs)
    raise ValueError(f"unknown potential kind {kind!r}")


def build_external(spec: dict) -> ExternalPotential:
    kind = spec.get("kind", "")
    if kind == "none":
        return zero_external()
    if kind == "linear":
        return linear_ramp(float(spec["alpha"]), float(spec.get("q_ref", 0.0)))
    if kind == "cosine":
        return cosine_external(float(spec["beta"]), float(spec["omega"]))
    raise ValueError(f"unknown external kind {kind!r}")


@dataclass
class CrossingScenario:
    """Shared per-config machinery for the through-crossing studies."""

    V: PeriodicPotential
    W: ExternalPotential
    pair: object
    ext: object
    coeffs_plus: object
    coeffs_minus: object
    kappa: complex
    signal_scale: float  # |kappa|/slope_gap, the pre-crossing signal's scale
    dqw_star: float
    diagnostics: dict   # pair isolation margin and slope cross-checks


@dataclass
class IsolatedScenario:
    """Shared per-config machinery for the isolated-band study."""

    V: PeriodicPotential
    W: ExternalPotential
    traj: object        # the band flow; traj.band.path is the band path
    coeffs: object      # envelope coefficients along traj


_SCENARIO_CACHE: dict = {}
_CASE_CACHE: dict = {}


def clear_caches():
    _SCENARIO_CACHE.clear()
    _CASE_CACHE.clear()
    direct._FIBER_CACHE.clear()
    direct._PPW_LADDER.clear()


def _signal(cfg: RunConfig, eps: float, scale: float, power: float) -> float:
    """The error signal scale * eps^power that sets a case's solver target.

    The solver's signal_prefactor, when set, takes the place of scale.
    """
    return float(cfg.solver["signal_prefactor"] or scale) * eps ** power


def _flow_tolerance(cfg: RunConfig, scale: float, power: float) -> float:
    """ENVELOPE_SHARE of min over cfg's eps of target(eps) * eps.

    target(eps) = error_budget * _signal(...) is plan_solver's error target,
    so a flow error dS in the action, a phase error dS/eps, stays within the
    envelope share of every case's target.
    """
    return ENVELOPE_SHARE * min(
        cfg.solver["error_budget"] * _signal(cfg, e, scale, power) * e
        for e in cfg.epsilons)


def derived_flow(band, W: ExternalPotential, q0: float, p0: float, t_span,
                 s0: float = 0.0, *, tol: float):
    """The band flow of integrate_flow at a step chosen by step doubling.

    The first run takes ENVELOPE_START_STEPS steps over t_span, and each
    further run halves the step.  The estimate of a run is the largest of
    |fine - coarse| / 15 over the times the two share, the leading RK4 error
    of the finer run, taken over q, p, S and the d2E and d3E series that
    coefficients_from_trajectory samples along it.  A run whose energy
    drifts past ENERGY_TOL (ConvergenceFailure) is too coarse to compare.
    The finer run is accepted by march_envelopes' rule (_step_doubling);
    every run goes through integrate_flow.
    """
    span = t_span[1] - t_span[0]

    def run(j):
        try:
            traj = integrate_flow(band, W, q0, p0, t_span,
                                  span / (ENVELOPE_START_STEPS << j), s0=s0)
        except ConvergenceFailure:
            return None
        c = coefficients_from_trajectory(traj, W)
        return traj, np.vstack([traj.q, traj.p, traj.S, c.d2E, c.d3E])

    def estimate(coarse, fine):
        if coarse is None or fine is None:
            return np.inf
        return float(np.max(np.abs(fine[1][:, ::2] - coarse[1]))) / 15.0

    (traj, _), _, _ = _step_doubling(run, estimate, tol, "flow")
    return traj


def build_crossing_scenario(cfg: RunConfig) -> CrossingScenario:
    key = ("crossing", cfg.fingerprint())
    if key in _SCENARIO_CACHE:
        return _SCENARIO_CACHE[key]
    V = build_potential(cfg.potential)
    W = build_external(cfg.external)
    pair = smooth_continuation(V, cfg.band, cfg.p_star,
                               halfwidth=cfg.pair_halfwidth,
                               n_samples=cfg.pair_samples, m_cut=M_CUT)
    kappa = coupling_coefficient(pair)
    # rough crossing time from the constant-drive estimate, refined by the
    # actual flow inside extend_through_crossing
    pdot = -float(W.dw(cfg.q0))
    if pdot <= 0:
        raise ValueError("external drive must push the packet towards p_star")
    t_star_rough = (cfg.p_star - cfg.p0) / pdot
    eps_max = max(cfg.epsilons)
    # pre-crossing measurements only need the trajectory to bracket t_star
    post = 2.0 * eps_max ** XI if ({"crossing", "inner"}
                                   & set(cfg.measurements)) else 0.0
    horizon = t_star_rough + post + HORIZON_PAD
    p_end = cfg.p0 + pdot * horizon
    if abs(p_end - cfg.p_star) > cfg.pair_halfwidth - 0.05:
        raise IsolationFailure(
            f"horizon t={horizon:.3f} drives p to {p_end:.3f}, outside the "
            f"sampled pair window (halfwidth {cfg.pair_halfwidth})")
    scale = max(abs(kappa) / pair.slope_gap, 1e-12)
    tol = _flow_tolerance(cfg, scale, 1.0 - XI_PRIME)
    ext = extend_through_crossing(pair, W, cfg.q0, cfg.p0, 0.0, horizon,
                                  partial(derived_flow, tol=tol))
    scenario = CrossingScenario(
        V=V, W=W, pair=pair, ext=ext,
        coeffs_plus=coefficients_from_trajectory(ext.plus, W),
        coeffs_minus=coefficients_from_trajectory(ext.minus, W),
        kappa=kappa, signal_scale=scale, dqw_star=float(W.dw(ext.q_star)),
        diagnostics={
            "pair_margin": pair.margin,
            "slope_fd_mismatch": pair.slope_fd_mismatch,
            "slope_check_plus": ext.plus.band.slope_check,
            "slope_check_minus": ext.minus.band.slope_check,
        },
    )
    _SCENARIO_CACHE[key] = scenario
    return scenario


def build_isolated_scenario(cfg: RunConfig) -> IsolatedScenario:
    # the fingerprint drops the study, so the key names the scenario kind
    key = ("isolated", cfg.fingerprint())
    if key in _SCENARIO_CACHE:
        return _SCENARIO_CACHE[key]
    V = build_potential(cfg.potential)
    W = build_external(cfg.external)
    path = band_path(V, cfg.band, cfg.band_window, n_samples=513, m_cut=M_CUT)
    traj = derived_flow(SplineBand(path), W, cfg.q0, cfg.p0,
                        (0.0, cfg.t_final + HORIZON_PAD),
                        tol=_flow_tolerance(cfg, ISOLATED_SIGNAL, 1.0))
    scenario = IsolatedScenario(V, W, traj,
                                coefficients_from_trajectory(traj, W))
    _SCENARIO_CACHE[key] = scenario
    return scenario


# -- solver planning -------------------------------------------------------------


@dataclass
class SolverPlan:
    grid: Grid
    dt: float
    target: float
    steps: dict         # label -> whole number of steps of dt to its time


def plan_solver(cfg: RunConfig, eps: float, signal: float, V, W,
                times: dict) -> SolverPlan:
    """The grid, step grid and error target of one direct solve.

    The run ends at the latest of the labelled times, t_run.  Unless
    cfg.ppw pins it, ppw is derived from V: the collocated energies of
    bands 1..band+2 must be converged to 0.01 target eps / t_run, so their
    phase error over the run stays within 1% of the solver's error target.
    The Bloch-decomposition step solves the fast potential exactly, so only
    W limits the step: min(0.45 eps / max|W - c|, eps/10), with W - c the
    gauge-centred W that propagate splits off (direct.centred_external), so
    the phase rule reads half the range of W, not a gauge-dependent max|W|.
    _snap rounds that step so t_run is a whole number of steps and gives
    each label its whole number of steps; the solver takes both as they
    are.  Accuracy is checked after the run by step doubling.  The envelope
    marches get the same 1% share (ENVELOPE_SHARE * target), and
    march_envelopes derives their step from it.

    The eps/10 cap stays although the step doubling checks every run,
    because at larger steps the doubling is not a safe judge.  On the
    isolated default at eps = 1/32, 38 coarse steps (dt/eps = 0.42) read
    an estimate of 1.20e-4 where the error against a run at dt/8 is 5.27e-4,
    above the 3.91e-4 target (at 1/128: 2.7e-5 against 1.7e-4, target
    9.8e-5); at dt/eps = 0.38 the error is 0.82 times the estimate.
    And some steps put mass in the collar that halving the step keeps, so
    the doubled pair reads no difference: the breakdown default at
    eps = 1/64 reads 1.16e-7 of collar mass at 123, 246 and 492 steps
    (dt/eps = 0.110 at 492) but about 2e-10 at 400, 450, 520 and 700.
    """
    s = cfg.solver
    target = s["error_budget"] * signal
    t_run = max(times.values())
    ppw = cfg.ppw
    if ppw is None:
        ppw = points_per_period(V, cfg.band + 2, 0.01 * target * eps / t_run)
    grid = Grid(length=_domain_length(cfg, eps), epsilon=eps, ppw=ppw)
    w_max = float(np.max(np.abs(centred_external(W, grid)[0])))
    dt, steps = _snap(times, min(0.45 * eps / max(w_max, 1e-12), eps / 10.0),
                      t_run)
    return SolverPlan(grid, dt, target, steps)


def _snap(times: dict, dt: float, t_run: float):
    """(dt_eff, label -> steps): dt rounded so t_run is n_total dt_eff.

    Each time becomes its nearest whole number of steps of dt_eff, within
    [0, n_total].
    """
    n_total = max(1, int(round(t_run / dt)))
    dt_eff = t_run / n_total
    return dt_eff, {label: min(n_total, max(0, int(round(t / dt_eff))))
                    for label, t in times.items()}


def propagate_richardson(psi0: GridState, V, W, dt: float, steps,
                         target: float, fine_run=None):
    """Step doubling: (4 psi_{dt/2} - psi_dt)/3 and its error estimate.

    The estimate is max over snapshots of ||psi_{dt/2} - psi_dt||/3, the
    leading error of the finer run.  The finer run takes (dt/2, [2n for n
    in steps]), so its snapshots fall at the coarse run's times exactly.
    While the estimate exceeds target, dt is halved again and the finer run
    becomes the coarse one, at most MAX_HALVINGS times.  Returns (result,
    estimate); result.dt is the coarse dt of the accepted pair, n_steps
    counts every step run, and collar_mass is the peak over both runs of the
    accepted pair.

    fine_run, if given, is a future of the first fine run,
    propagate(psi0, V, W, dt/2, [2n for n in steps]), which the caller
    started beside this call; its result, or its exception, is taken in
    place of running it here.  The halvings after a failed check run here,
    one after another.
    """
    coarse = propagate(psi0, V, W, dt, steps)
    n_steps = coarse.n_steps
    for _ in range(MAX_HALVINGS + 1):
        dt, steps = dt / 2.0, [2 * n for n in steps]
        if fine_run is None:
            fine = propagate(psi0, V, W, dt, steps)
        else:
            fine, fine_run = fine_run.result(), None
        n_steps += fine.n_steps
        est = max(l2_error(b, a).plain for a, b in
                  zip(coarse.snapshots, fine.snapshots)) / 3.0
        if est <= target:
            break
        coarse = fine
    else:
        raise SolverBudgetExceeded(
            f"step-doubling error estimate {est:.3e} exceeds the target "
            f"{target:.3e} after {MAX_HALVINGS} halvings of dt")
    snaps = [GridState(a.grid, (4.0 * b.values - a.values) / 3.0, t=a.t)
             for a, b in zip(coarse.snapshots, fine.snapshots)]
    result = PropagationResult(snapshots=snaps,
                               norm_drift_rate=fine.norm_drift_rate,
                               n_steps=n_steps, dt=coarse.dt,
                               collar_mass=max(coarse.collar_mass,
                                               fine.collar_mass))
    return result, est


# -- envelope transport ----------------------------------------------------------


@dataclass
class EnvelopeMarch:
    """The accepted march of march_envelopes."""

    states: dict          # stop -> the marched envelopes at that stop
    dt: float             # largest step of the accepted march
    error: float          # its step-doubling estimate, in packet norm
    boundary_mass: float  # peak edge-mass fraction over every march run


def _march(coeffs, init: tuple, t0: float, stops, steps):
    """One march of init, (a0,) or (a0, a1), from t0 through the stops.

    The gap before stops[i] takes steps[i] steps: evolve_a0 marches a0
    alone, evolve_a1 marches a0 and a1 together, and either keeps only the
    current states.  Returns ([states at each stop], peak boundary mass).
    """
    march = evolve_a0 if len(init) == 1 else evolve_a1
    states, t_now, peak, out = init, t0, 0.0, []
    for t_next, n in zip(stops, steps):
        if n:
            *states, mass = march(coeffs, *states, (t_now, t_next),
                                  (t_next - t_now) / n)
            peak = max(peak, mass)
            t_now = t_next
        out.append(tuple(states))
    return out, peak


def _step_doubling(run, estimate, tol: float, what: str):
    """Step doubling over run(0), run(1), ...: the accepted (fine, est, j).

    run(j) takes 2^j times the steps of run(0), and estimate(coarse, fine)
    is the leading error of the finer of two successive runs.  The finer run
    is accepted once its estimate is <= tol and has fallen at least 2x since
    the previous halving, so two coarse runs that agree by chance cannot
    pass, or is below ROUNDOFF_FLOOR, where no fall can show.  An infinite
    estimate (a pair that could not be compared) shows no fall either.
    Raises SolverBudgetExceeded after MAX_ENVELOPE_HALVINGS halvings.
    """
    coarse, prev = run(0), 0.0   # no fall can show before the second estimate
    for j in range(1, MAX_ENVELOPE_HALVINGS + 1):
        fine = run(j)
        est = estimate(coarse, fine)
        if est <= tol and (est <= 0.5 * prev or est <= ROUNDOFF_FLOOR):
            return fine, est, j
        coarse, prev = fine, (est if np.isfinite(est) else 0.0)
    raise SolverBudgetExceeded(
        f"{what} step-doubling estimate {est:.3e} exceeds the tolerance "
        f"{tol:.3e} after {MAX_ENVELOPE_HALVINGS} halvings of the step")


def march_envelopes(coeffs, init: tuple, stops, weights: tuple,
                    tol: float) -> EnvelopeMarch:
    """March init through the sorted stops at a step chosen by step doubling.

    The envelope coefficients vary on the O(1) time scale, so the step owes
    nothing to eps.  The first march takes ENVELOPE_START_STEPS steps over
    the span, each gap its share; every further march halves each gap's
    step.  The estimate of a march is max over stops of
    sum_i weights[i] ||fine_i - coarse_i|| / 3, the leading error of the
    finer march in packet norm, and _step_doubling accepts the finer march.
    The accepted states are the fine march itself, not an extrapolation, so
    a0 stays exactly unitary.  On a linear drive evolve_a0 and evolve_a1
    are exact whatever the step, so the first pair agrees to roundoff and
    is accepted below ROUNDOFF_FLOOR; the step then only sets how often the
    boundary mass is read.  Raises SolverBudgetExceeded after
    MAX_ENVELOPE_HALVINGS.
    """
    t0, dy = float(init[0].t), init[0].dy
    gaps = np.diff([t0, *stops])
    if np.any(gaps < -1e-12):
        raise ValueError("envelope stops must be increasing")
    span = stops[-1] - t0
    base = [int(np.ceil(ENVELOPE_START_STEPS * g / span - 1e-9))
            if g > 1e-12 else 0 for g in gaps]
    peak = 0.0

    def run(j):
        nonlocal peak
        states, mass = _march(coeffs, init, t0, stops, [n << j for n in base])
        peak = max(peak, mass)
        return states

    def estimate(coarse, fine):
        return max(sum(w * np.linalg.norm(a.values - b.values)
                       for w, a, b in zip(weights, sa, sb))
                   for sa, sb in zip(coarse, fine)) * np.sqrt(dy) / 3.0

    fine, est, j = _step_doubling(run, estimate, tol, "envelope")
    dt = max((g / (n << j) for g, n in zip(gaps, base) if n), default=0.0)
    return EnvelopeMarch(dict(zip(stops, fine)), float(dt), float(est), peak)


# -- the case skeleton (shared by every study) -----------------------------------


@dataclass
class Case:
    """The fields every case records: its solve, flow and envelope marches."""

    epsilon: float
    dt: float
    n_steps: int
    grid_length: int
    ppw: int                       # points per period of the solver grid
    norm_drift: float
    solver_error: float            # step-doubling estimate of the solve
    solver_target: float
    collar_mass: float             # peak collar mass fraction of the solve
    energy_drift: float            # max over the case's trajectories
    envelope_dt: float             # finest accepted step of the marches
    # their largest step-doubling estimate: roundoff, at most
    # ROUNDOFF_FLOOR, on a linear drive, whose transport is exact
    envelope_error: float
    envelope_boundary_mass: float  # peak edge-mass fraction of the marches


def _case_fields(eps: float, plan: SolverPlan, result: PropagationResult,
                 solver_error: float, energy_drift: float, marches) -> dict:
    """The Case fields of one solve and its envelope marches (the worst)."""
    return dict(epsilon=eps, dt=result.dt, n_steps=result.n_steps,
                grid_length=plan.grid.length, ppw=plan.grid.ppw,
                norm_drift=result.norm_drift_rate, solver_error=solver_error,
                solver_target=plan.target, collar_mass=result.collar_mass,
                energy_drift=energy_drift,
                envelope_dt=min(m.dt for m in marches),
                envelope_error=max(m.error for m in marches),
                envelope_boundary_mass=max(m.boundary_mass for m in marches))


def _initial_envelopes(cfg: RunConfig) -> tuple:
    """(a0, a1) of the first-order ansatz at t = 0: a Gaussian and zero."""
    a0 = gaussian_envelope(cfg.sigma, cfg.envelope_half_width,
                           cfg.envelope_points)
    return a0, Envelope(a0.y, np.zeros_like(a0.values))


# -- the crossing-scenario case (shared by breakdown / crossing / inner) ---------


@dataclass
class CrossingCase(Case):
    times: dict                    # label -> snapped time
    errors: dict                   # label -> (raw, phase_optimized)
    residual_norm: float = None
    overlap: float = None
    excited_mass_measured: float = None
    excited_mass_predicted: float = None
    band_mass_measured: float = None
    inner_rows: list = None        # (s, t, measured, predicted)


def _domain_length(cfg: RunConfig, eps: float) -> int:
    spec = cfg.domain_length
    key = str(int(round(1.0 / eps)))
    if isinstance(spec, dict):
        if key not in spec:
            raise ValueError(f"domain_length has no entry for 1/eps={key}")
        return int(spec[key])
    if spec is not None:
        return int(spec)
    return 10 if eps <= 1.0 / 128.0 else 12


def _crossing_times(cfg: RunConfig, scenario: CrossingScenario, eps: float):
    """Unsnapped measurement schedule for one epsilon."""
    t_star = scenario.ext.t_star
    times = {}
    if "breakdown" in cfg.measurements:
        times["breakdown_xi"] = t_star - eps ** XI
        times["breakdown_xi_prime"] = t_star - eps ** XI_PRIME
    if "crossing" in cfg.measurements:
        times["crossing"] = t_star + 2.0 * eps ** XI
    if "inner" in cfg.measurements:
        s_max = 0.98 * eps ** (XI_PRIME - 0.5)
        for j, s in enumerate(np.linspace(-s_max, s_max, N_INNER)):
            times[f"inner_{j}"] = t_star + np.sqrt(eps) * s
    for label, t in times.items():
        if t <= 0.0:
            raise ValueError(
                f"measurement {label} lands at t={t:.4f} <= 0; epsilon "
                f"{eps} is too coarse for the crossing at t*={t_star:.4f}")
    return times


def branch_packet(traj, grid: Grid, t: float, a0: Envelope,
                  a1: Envelope | None = None) -> GridState:
    """The packet riding traj on its band at time t.

    WP1 when a1 is given, else WP0, placed at the trajectory's (q, p, S) at
    t.  chi and, for WP1, d_p chi at p come from the spline of the band path
    the flow was integrated on (traj.band.path.chi_spline), so both share
    one gauge.  The post-crossing state is the WP1 on the continued branch
    plus sqrt(eps) times the WP0 on the other branch.
    """
    path = traj.band.path
    q, p, S = traj.state_at(t)
    chi = path.chi_at(p)
    if a1 is None:
        state = assemble_wp0(grid, q, p, S, a0, chi)
    else:
        state = assemble_wp1(grid, q, p, S, a0, a1, chi, path_dp_chi(path, p))
    state.t = t
    return state


def run_crossing_case(cfg: RunConfig, eps: float) -> CrossingCase:
    """The direct solve of one epsilon against the semiclassical prediction.

    The two computations share nothing until the comparisons, so the direct
    solve runs on two helper threads while this thread builds the
    prediction: the plus-branch envelopes, the excited envelope at t* with
    its minus-branch march, and the predicted packets.  One helper runs
    propagate_richardson; the other runs its first fine run (dt/2) beside
    the coarse run, since neither reads the other.  The solver spends its
    time in numpy's FFT and matmul, which release the interpreter lock.
    """
    key = ("crossing", cfg.fingerprint(), eps)
    if key in _CASE_CACHE:
        return _CASE_CACHE[key]
    scenario = build_crossing_scenario(cfg)
    t_star, q_star = scenario.ext.t_star, scenario.ext.q_star
    slope_gap = scenario.pair.slope_gap
    signal = _signal(cfg, eps, scenario.signal_scale, 1.0 - XI_PRIME)
    plan = plan_solver(cfg, eps, signal, scenario.V, scenario.W,
                       _crossing_times(cfg, scenario, eps))
    grid = plan.grid
    times = {label: n * plan.dt for label, n in plan.steps.items()}
    steps = sorted(set(plan.steps.values()))

    a0_init, a1_init = _initial_envelopes(cfg)
    plus, minus = scenario.ext.plus, scenario.ext.minus
    psi0 = branch_packet(plus, grid, 0.0, a0_init, a1_init)

    # the with block joins the helper threads on every exit, and an error on
    # any thread reaches the caller unchanged
    with ThreadPoolExecutor(max_workers=2) as pool:
        fine_run = pool.submit(propagate, psi0, scenario.V, scenario.W,
                               plan.dt / 2.0, [2 * n for n in steps])
        solve = pool.submit(propagate_richardson, psi0, scenario.V,
                            scenario.W, plan.dt, steps, plan.target, fine_run)

        # plus-branch envelopes only where the comparisons need them
        error_labels = [k for k in ("breakdown_xi", "breakdown_xi_prime",
                                    "crossing") if k in times]
        stops = {times[k] for k in error_labels}
        want_star = {"crossing", "inner"} & set(cfg.measurements)
        if want_star:
            stops.add(t_star)
        tol = ENVELOPE_SHARE * plan.target
        marches = [march_envelopes(scenario.coeffs_plus, (a0_init, a1_init),
                                   sorted(stops), (1.0, np.sqrt(eps)), tol)]
        env = marches[0].states
        wp1 = {label: branch_packet(plus, grid, times[label],
                                    *env[times[label]])
               for label in error_labels}

        if want_star:
            a_star = env[t_star][0]
            mass_pred = float(predict_excited_mass(
                scenario.dqw_star, scenario.kappa, slope_gap,
                a_star.norm(), eps))

        if "crossing" in cfg.measurements:
            # the predicted excited packet on the minus branch at t_obs
            t_obs = times["crossing"]
            a_minus0 = excited_envelope(a_star, scenario.dqw_star,
                                        slope_gap, scenario.kappa)
            marches.append(march_envelopes(scenario.coeffs_minus,
                                           (a_minus0,), [t_obs],
                                           (np.sqrt(eps),), tol))
            (a_minus,) = marches[-1].states[t_obs]
            pred = branch_packet(minus, grid, t_obs, a_minus)

        if "inner" in cfg.measurements:
            # window-mass buildup across t_star by the chirped-ramp model
            s_grid = np.array([(times[f"inner_{j}"] - t_star)
                               / np.sqrt(eps) for j in range(N_INNER)])
            buildup = excited_buildup(a_star, scenario.dqw_star, slope_gap,
                                      scenario.kappa, s_grid)
            pred_masses = eps * np.array([e.norm() for e in buildup]) ** 2

        result, solver_error = solve.result()
    by_step = dict(zip(steps, result.snapshots))
    psi = {label: by_step[n] for label, n in plan.steps.items()}

    errors = {}
    for label in error_labels:
        rep = l2_error(psi[label], wp1[label])
        errors[label] = (rep.plain, rep.phase_optimized)

    case = CrossingCase(
        **_case_fields(eps, plan, result, solver_error,
                       max(plus.energy_drift, minus.energy_drift), marches),
        times=times, errors=errors)
    if want_star:
        case.excited_mass_predicted = mass_pred

    if "crossing" in cfg.measurements:
        # post-crossing residual against the predicted excited packet
        psi_obs = psi["crossing"]
        resid = psi_obs.values - wp1["crossing"].values
        resid_norm = errors["crossing"][0]
        pred_vals = np.sqrt(eps) * pred.values
        pred_norm = float(np.sqrt(np.sum(np.abs(pred_vals) ** 2) * grid.dx))
        inner_prod = abs(np.sum(np.conj(resid) * pred_vals) * grid.dx)
        case.residual_norm = resid_norm
        case.overlap = float(inner_prod / max(resid_norm * pred_norm, 1e-300))
        case.excited_mass_measured = resid_norm ** 2

        # independent check: minus-band mass by fiber projection at the packet
        q_minus = minus.state_at(t_obs)[0]
        q_plus = plus.state_at(t_obs)[0]
        window = (q_minus - 3.0, 0.5 * (q_minus + q_plus))
        table = band_mass(psi_obs, scenario.V, n_bands=cfg.band + 2,
                          window=window)
        case.band_mass_measured = float(table.band(cfg.band))

    if "inner" in cfg.measurements:
        case.inner_rows = []
        for j in range(N_INNER):
            t = times[f"inner_{j}"]
            n_band = cfg.band if t > t_star else cfg.band + 1
            wtab = band_mass(psi[f"inner_{j}"], scenario.V,
                             n_bands=cfg.band + 2,
                             window=(q_star - 3.0, q_star + 3.0))
            case.inner_rows.append((float(s_grid[j]), t, wtab.band(n_band),
                                    float(pred_masses[j])))

    _CASE_CACHE[key] = case
    return case


def _cases_for(cfg: RunConfig, build, run_case) -> list:
    build(cfg)   # cached once, before the workers look it up
    eps_list = list(cfg.epsilons)
    with ThreadPoolExecutor(max_workers=worker_count(len(eps_list))) as pool:
        return list(pool.map(lambda e: run_case(cfg, e), eps_list))


# -- studies ---------------------------------------------------------------------


def _diagnostics(case: Case) -> dict:
    """The row columns every isolated, crossing and breakdown row carries."""
    return {f.name: getattr(case, f.name) for f in fields(Case)}


def _require_measurement(cfg: RunConfig, name: str):
    if name not in cfg.measurements:
        raise ValueError(
            f"config must include {name!r} in measurements for this study")


def _ratio_gate(name: str, ratio: float) -> GateResult:
    """Pass a mass ratio that lies within RATIO_RANGE."""
    lo, hi = RATIO_RANGE
    return GateResult(name=name, value=ratio,
                      requirement=f"within [{lo}, {hi}]",
                      passed=lo <= ratio <= hi)


def _fit_gate(label, pairs, target, tolerance, fits, gates):
    """Fit one exponent; a degenerate sweep becomes a failed gate, not a crash."""
    try:
        fit = make_scaling_report(label, pairs, target, tolerance)
    except DegenerateFit as exc:
        gates.append(GateResult(
            name=f"slope[{label}]", value=float("nan"),
            requirement=f"{target} +/- {tolerance} ({exc})", passed=False))
        return None
    fits.append(fit)
    gates.append(GateResult(
        name=f"slope[{label}]", value=fit.slope,
        requirement=f"{fit.target} +/- {fit.tolerance}", passed=fit.passed))
    return fit


def run_breakdown_study(cfg: RunConfig) -> StudyReport:
    _require_measurement(cfg, "breakdown")
    cases = _cases_for(cfg, build_crossing_scenario, run_crossing_case)
    rows, fits, gates = [], [], []
    for label, xi in (("breakdown_xi", XI), ("breakdown_xi_prime", XI_PRIME)):
        pairs = [(c.epsilon, c.errors[label][0]) for c in cases]
        _fit_gate(f"error_at_t_star_minus_eps^{xi}", pairs,
                  target=1.0 - xi, tolerance=0.15, fits=fits, gates=gates)
    for c in cases:
        row = _diagnostics(c)
        for label in ("breakdown_xi", "breakdown_xi_prime"):
            row[f"{label}_time"] = c.times[label]
            row[f"{label}_error"] = c.errors[label][0]
            row[f"{label}_error_phase_opt"] = c.errors[label][1]
        rows.append(row)
    return StudyReport(study="breakdown", version=__version__,
                       config=cfg.resolved(), rows=rows, fits=fits,
                       gates=gates,
                       scenario=build_crossing_scenario(cfg).diagnostics)


def _lz_transfer(scenario: CrossingScenario, eps: float,
                 t_end: float) -> float:
    """Mass moved to the minus level by the two-level model over (0, t_end).

    The levels are the pair's E_+ and E_- at the plus branch's momentum
    p(t), and the coupling is kappa times the drive dp/dt = -dW/dq(q(t)).
    """
    q_of_t, p_of_t, _ = scenario.ext.plus.splines
    band_plus, band_minus = scenario.ext.plus.band, scenario.ext.minus.band

    def gap(t):
        p = p_of_t(t)
        return band_plus.energy(p) - band_minus.energy(p)

    U = simulate(gap, lambda t: scenario.kappa * -scenario.W.dw(q_of_t(t)),
                 eps, (0.0, t_end))
    return float(abs(U[1, 0]) ** 2)


def run_crossing_study(cfg: RunConfig) -> StudyReport:
    """Post-crossing residual fit and the excited-mass gates.

    At the smallest epsilon the direct solve's residual must overlap the
    predicted minus packet, and its excited and minus-band masses must match
    the excited-mass law.  The Landau-Zener gate checks the paper's
    two-level claim: the transfer of the two-level model along the plus
    trajectory (``_lz_transfer``) over the measured minus-band mass.
    """
    _require_measurement(cfg, "crossing")
    cases = _cases_for(cfg, build_crossing_scenario, run_crossing_case)
    scenario = build_crossing_scenario(cfg)
    lz = {c.epsilon: _lz_transfer(scenario, c.epsilon, c.times["crossing"])
          for c in cases}
    rows, fits, gates = [], [], []
    pairs = [(c.epsilon, c.residual_norm) for c in cases]
    _fit_gate("post_crossing_residual", pairs, target=0.5, tolerance=0.15,
              fits=fits, gates=gates)
    smallest = cases[-1]
    gates.append(GateResult(
        name="overlap_with_predicted_minus_packet",
        value=smallest.overlap, requirement=">= 0.9",
        passed=smallest.overlap >= 0.9))
    ratio = (smallest.excited_mass_measured
             / max(smallest.excited_mass_predicted, 1e-300))
    gates.append(_ratio_gate("excited_mass_ratio", ratio))
    band_ratio = (smallest.band_mass_measured
                  / max(smallest.excited_mass_predicted, 1e-300))
    gates.append(_ratio_gate("band_mass_ratio", band_ratio))
    lz_ratio = (lz[smallest.epsilon]
                / max(smallest.band_mass_measured, 1e-300))
    gates.append(_ratio_gate("lz_to_band_mass_ratio", lz_ratio))
    for c in cases:
        rows.append({
            **_diagnostics(c),
            "observation_time": c.times["crossing"],
            "residual_norm": c.residual_norm,
            "overlap": c.overlap,
            "excited_mass_measured": c.excited_mass_measured,
            "excited_mass_predicted": c.excited_mass_predicted,
            "band_mass_measured": c.band_mass_measured,
            "lz_transfer": lz[c.epsilon],
        })
    return StudyReport(study="crossing", version=__version__,
                       config=cfg.resolved(), rows=rows, fits=fits,
                       gates=gates, scenario=scenario.diagnostics)


def run_inner_window(cfg: RunConfig) -> StudyReport:
    _require_measurement(cfg, "inner")
    cases = _cases_for(cfg, build_crossing_scenario, run_crossing_case)
    rows, gates = [], []
    for c in cases:
        plateau = c.excited_mass_predicted
        max_dev = 0.0
        for s, t, measured, predicted in c.inner_rows:
            dev = abs(measured - predicted) / max(plateau, 1e-300)
            max_dev = max(max_dev, dev)
            rows.append({"epsilon": c.epsilon, "s": s, "t": t,
                         "measured_mass": measured,
                         "predicted_mass": predicted,
                         "plateau": plateau})
        rows.append({"epsilon": c.epsilon, "s": "", "t": "",
                     "measured_mass": "", "predicted_mass": "",
                     "plateau": plateau, "max_relative_deviation": max_dev})
    smallest = cases[-1]
    plateau = smallest.excited_mass_predicted
    s0, _, m0, p0 = smallest.inner_rows[0]
    gates.append(GateResult(
        name="early_window_mass", value=m0 / plateau,
        requirement="measured << plateau at the earliest s",
        passed=m0 <= 0.25 * plateau and p0 <= 0.25 * plateau))
    s1, _, m1, p1 = smallest.inner_rows[-1]
    late_ratio = m1 / max(p1, 1e-300)
    gates.append(_ratio_gate("late_window_plateau_ratio", late_ratio))
    return StudyReport(study="inner", version=__version__,
                       config=cfg.resolved(), rows=rows, fits=[],
                       gates=gates,
                       scenario=build_crossing_scenario(cfg).diagnostics)


# -- isolated-band study ---------------------------------------------------------


@dataclass
class IsolatedCase(Case):
    error_wp1: float
    error_wp0: float
    error_wp1_phase_opt: float
    error_wp0_phase_opt: float
    slope_check: float             # spline vs Hellmann-Feynman band slope


def run_isolated_case(cfg: RunConfig, eps: float) -> IsolatedCase:
    key = ("isolated", cfg.fingerprint(), eps)
    if key in _CASE_CACHE:
        return _CASE_CACHE[key]
    scenario = build_isolated_scenario(cfg)
    traj = scenario.traj
    a0_init, a1_init = _initial_envelopes(cfg)

    signal = _signal(cfg, eps, ISOLATED_SIGNAL, 1.0)
    plan = plan_solver(cfg, eps, signal, scenario.V, scenario.W,
                       {"final": cfg.t_final})
    grid = plan.grid

    psi0 = branch_packet(traj, grid, 0.0, a0_init, a1_init)
    result, solver_error = propagate_richardson(
        psi0, scenario.V, scenario.W, plan.dt, [plan.steps["final"]],
        plan.target)
    psi = result.snapshots[-1]
    t_obs = psi.t
    march = march_envelopes(scenario.coeffs, (a0_init, a1_init), [t_obs],
                            (1.0, np.sqrt(eps)), ENVELOPE_SHARE * plan.target)
    a0_t, a1_t = march.states[t_obs]
    rep1 = l2_error(psi, branch_packet(traj, grid, t_obs, a0_t, a1_t))
    rep0 = l2_error(psi, branch_packet(traj, grid, t_obs, a0_t))
    case = IsolatedCase(
        **_case_fields(eps, plan, result, solver_error, traj.energy_drift,
                       [march]),
        error_wp1=rep1.plain, error_wp0=rep0.plain,
        error_wp1_phase_opt=rep1.phase_optimized,
        error_wp0_phase_opt=rep0.phase_optimized,
        slope_check=traj.band.slope_check)
    _CASE_CACHE[key] = case
    return case


def run_isolated_band(cfg: RunConfig) -> StudyReport:
    cases = _cases_for(cfg, build_isolated_scenario, run_isolated_case)
    fits, gates = [], []
    _fit_gate("wp1_error", [(c.epsilon, c.error_wp1) for c in cases],
              target=1.0, tolerance=0.3, fits=fits, gates=gates)
    _fit_gate("wp0_error", [(c.epsilon, c.error_wp0) for c in cases],
              target=0.5, tolerance=0.3, fits=fits, gates=gates)
    rows = [{**_diagnostics(c),
             "error_wp1": c.error_wp1, "error_wp0": c.error_wp0,
             "error_wp1_phase_opt": c.error_wp1_phase_opt,
             "error_wp0_phase_opt": c.error_wp0_phase_opt,
             "slope_check": c.slope_check}
            for c in cases]
    return StudyReport(study="isolated", version=__version__,
                       config=cfg.resolved(), rows=rows, fits=fits,
                       gates=gates)
