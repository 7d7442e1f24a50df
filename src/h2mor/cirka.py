"""Confined IRKA: surrogate H2 optimization over an updated model function.

The model function is a mid-sized Hermite interpolant of the full model.  The
outer loop alternates (i) updating the model function so it interpolates the
full model at the latest optimal data with (ii) running IRKA on the surrogate
only.  At convergence the optimality conditions transfer to the full model
because every optimal triplet is interpolated by the surrogate (the update
condition).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from itertools import groupby
from time import perf_counter

import numpy as np

from .errors import (
    DefectiveSpectrum,
    ModelOrderExceeded,
    ModelReductionError,
    OrderTooLarge,
    RankCollapse,
    SingularEr,
    UnstablePencil,
    UnstableRom,
)
from .interpolation import (
    InterpolationBlock,
    InterpolationData,
    InterpolationReport,
    hermite_reduce,
    primitive_basis,
    project_real,
    same_triplet,
    verify_tangential_interpolation,
)
from .irka import (IrkaOptions, IrkaResult, _integer, _iterate, _mirrored_data,
                   _positive_finite, _settled, irka)
from .linalg import (
    CostCounters,
    ModalSolver,
    ShiftedSolver,
    conjugate_pairs,
    relative,
    stable_part,
)
from .metrics import h2_error
from .model import StateSpaceModel, eval_transfer, make_model, pole_residue

log = logging.getLogger(__name__)

INIT_STRATEGIES = ("I1", "I2")
UPDATE_STRATEGIES = ("U1", "U2", "U3")


@dataclass
class CirkaOptions:
    """Outer-loop controls (reference defaults: I.2 + U.2); the order cap is n // 2."""

    inner: IrkaOptions = field(default_factory=IrkaOptions)
    init_strategy: str = "I2"
    update_strategy: str = "U2"
    initial_nM: int | None = None        # default 2r
    outer_tol: float = 1e-3
    outer_max_iter: int = 15
    compute_error_estimate: bool = True
    verify_optimality: bool = True

    def __post_init__(self):
        if not isinstance(self.inner, IrkaOptions):
            raise ValueError(f"inner must be IrkaOptions, got {self.inner!r}")
        if self.init_strategy not in INIT_STRATEGIES:
            raise ValueError(f"init_strategy must be one of {INIT_STRATEGIES}")
        if self.update_strategy not in UPDATE_STRATEGIES:
            raise ValueError(f"update_strategy must be one of {UPDATE_STRATEGIES}")
        if not _positive_finite(self.outer_tol):
            raise ValueError(f"outer_tol must be positive and finite, got {self.outer_tol}")
        if not (_integer(self.outer_max_iter) and self.outer_max_iter >= 1):
            raise ValueError("outer_max_iter must be an integer >= 1, "
                             f"got {self.outer_max_iter!r}")
        if not (self.initial_nM is None or _integer(self.initial_nM)):
            raise ValueError(f"initial_nM must be None or an integer, got {self.initial_nM!r}")

    def initial_order(self, r: int) -> int:
        """The initial model-function order: 2r by default; I.2 allows only 2r, I.1 any above r."""
        if self.init_strategy == "I2" and self.initial_nM not in (None, 2 * r):
            raise ValueError(f"I.2 fixes the model-function order to 2r = {2 * r}")
        n_model = 2 * r if self.initial_nM is None else self.initial_nM
        if n_model <= r:
            raise ValueError(f"model-function order {n_model} must exceed r = {r}")
        return n_model


@dataclass(eq=False)
class ModelFunction:
    """Surrogate model with its interpolation history and primitive columns.

    ``history`` holds every triplet the model function interpolates (chains
    included); ``columns`` holds, per block of ``history``, the input- and
    output-side primitive Krylov columns.  The surrogate is the projection of
    the full model onto their real orthonormal folds.
    """

    surrogate: StateSpaceModel
    history: InterpolationData
    columns: tuple        # (V, W) per block, each n x block length

    @property
    def order(self) -> int:
        return self.surrogate.n

    @property
    def Vprim(self) -> np.ndarray:
        return np.hstack([V for V, _ in self.columns])

    @property
    def Wprim(self) -> np.ndarray:
        return np.hstack([W for _, W in self.columns])


def _find_match(blocks, block: InterpolationBlock):
    """Index of the first of ``blocks`` whose triplet ``block`` repeats, or None."""
    return next((i for i, b in enumerate(blocks) if same_triplet(b, block)), None)


def _extend(entries: list, idx: int, extra: int) -> None:
    """Grow the chain of ``entries[idx]`` by ``extra``; the builder solves it anew."""
    b = entries[idx][0]
    entries[idx] = (replace(b, length=b.length + extra), None)


def _build(model: StateSpaceModel, entries: list, solver: ShiftedSolver) -> ModelFunction:
    """Make the model function of ``(block, columns or None)`` entries.

    The order cap n // 2 is checked before any solve.  Blocks without columns
    get theirs from :func:`primitive_basis` at their final chain length, one
    call per run of consecutive such blocks so that a conjugate partner costs
    no solve; then all columns are projected.
    """
    # above half the model order, CIRKA costs more wall time than direct IRKA
    cap = model.n // 2
    total = sum(b.length for b, _ in entries)
    if total > cap:
        raise ModelOrderExceeded(f"model-function order {total} exceeds the cap {cap}")
    columns = []
    for new, run in groupby(entries, key=lambda entry: entry[1] is None):
        if not new:
            columns.extend(cols for _, cols in run)
            continue
        sub = InterpolationData(tuple(b for b, _ in run))
        V, W = primitive_basis(model, sub, solver)
        columns.extend((V[:, i:i + b.length], W[:, i:i + b.length])
                       for i, b in zip(sub.column_offsets, sub.blocks))
    mf = ModelFunction(surrogate=None, history=InterpolationData(tuple(b for b, _ in entries)),
                       columns=tuple(columns))
    mf.surrogate = make_model(*project_real(model, mf.Vprim, mf.Wprim, mf.history), model.D)
    return mf


def _surrogate_solver(surrogate: StateSpaceModel):
    """The inner runs' solver: the surrogate's eigendecomposition.

    A surrogate pencil without one (singular E, defective or too large)
    is factorized at each shift instead, and those LUs count as surrogate
    LUs.
    """
    try:
        return ModalSolver(surrogate)
    except (SingularEr, DefectiveSpectrum, OrderTooLarge) as exc:
        log.debug("surrogate has no eigendecomposition (%s); factorizing it per shift", exc)
        return ShiftedSolver(surrogate)


# -- initialization and update strategies ------------------------------------


def init_model_function(model: StateSpaceModel, data0: InterpolationData,
                        opts: CirkaOptions | None = None,
                        solver: ShiftedSolver | None = None) -> ModelFunction:
    """Build the initial model function around the starting data.

    I.1 keeps ``data0`` and adds a Jordan chain of length ``n_M - r`` at 0
    with all-ones tangents (a chain of ``data0`` at that triplet grows
    instead).  I.2 doubles every chain of ``data0`` (Hermite doubling), which
    fixes ``n_M = 2 r``.  See :meth:`CirkaOptions.initial_order` for n_M; an
    order above n // 2 raises :class:`ModelOrderExceeded`.
    """
    opts = opts or CirkaOptions()
    if solver is None:
        solver = ShiftedSolver(model)
    data0.validate(model.m, model.p)
    r = data0.r
    n_model = opts.initial_order(r)
    if opts.init_strategy == "I2":
        entries = [(replace(b, length=2 * b.length), None) for b in data0.blocks]
    else:
        entries = [(b, None) for b in data0.blocks]
        ones = InterpolationBlock(0.0, np.ones(model.m), np.ones(model.p), n_model - r)
        idx = _find_match(data0.blocks, ones)
        if idx is None:
            entries.append((ones, None))
        else:
            _extend(entries, idx, ones.length)
    return _build(model, entries, solver)


def update_model_function(model: StateSpaceModel, mf: ModelFunction,
                          opt_data: InterpolationData, opts: CirkaOptions | None = None,
                          solver: ShiftedSolver | None = None):
    """Grow or rebuild the model function around new optimal data.

    U.1 appends all triplets (repeats extend chains to higher derivatives);
    U.2 appends only triplets that are new within ``NEW_TRIPLET_TOL``; both
    match against the history before the update.  U.3 rebuilds from scratch
    around ``opt_data`` at constant order.  Returns ``(model_function,
    columns_added)``.  In every case the resulting history interpolates all
    of ``opt_data``, which is the update condition that transfers optimality
    to the full model.  An order above n // 2 raises
    :class:`ModelOrderExceeded`.
    """
    opts = opts or CirkaOptions()
    if solver is None:
        solver = ShiftedSolver(model)

    if opts.update_strategy == "U3":
        keep = mf.history.r if opts.init_strategy == "I1" else None
        new_mf = init_model_function(model, opt_data, replace(opts, initial_nM=keep), solver)
        return new_mf, new_mf.history.r

    entries = list(zip(mf.history.blocks, mf.columns))
    added = 0
    for b in opt_data.blocks:
        idx = _find_match(mf.history.blocks, b)
        if idx is None:
            entries.append((b, None))
        elif opts.update_strategy == "U2":
            continue
        else:
            _extend(entries, idx, b.length)
        added += b.length
    return _build(model, entries, solver), added


# -- verification and estimation ----------------------------------------------


def verify_h2_optimality(full_model: StateSpaceModel, rom: StateSpaceModel,
                         solver: ShiftedSolver | None = None) -> InterpolationReport:
    """Check the first-order H2 optimality conditions of ``rom``.

    The conditions are bitangential Hermite interpolation of the full model
    at the mirrored rom poles -conj(lambda_i), with the residue directions as
    tangents.  So this is :func:`verify_tangential_interpolation` at the data
    :func:`~h2mor.irka._mirrored_data` builds from the stable poles, one
    full-order LU per real pole and per conjugate pair, held one at a time.
    A ``solver`` that already holds the factorizations at all these nodes
    (a converged rom checked after its stored data) is used instead, and
    ``full_lu`` is 0; a solver that lacks any of them is left as it is, so
    a shared solver never holds the LUs of both node sets at once.  Unstable
    poles are left out and set ``skipped_unstable``; a rom with no stable
    poles at all raises :class:`UnstableRom`.
    """
    prf = pole_residue(rom)
    lam = prf.poles
    groups = conjugate_pairs(lam, range(len(lam)))
    stable = [g for g in groups if lam[g[0]].real < 0.0]
    if not stable:
        raise UnstableRom("reduced model has no stable poles to check")
    data = _mirrored_data(prf, stable)[0]
    if solver is not None and not all(map(solver.holds, data.shifts)):
        solver = None
    report = verify_tangential_interpolation(full_model, rom, data, solver)
    return replace(report, skipped_unstable=len(stable) < len(groups))


def estimate_error(mf: ModelFunction, rom: StateSpaceModel):
    """Surrogate-based estimate of the relative H2 reduction error.

    Returns ``(estimate, used_stable_part)`` with
    estimate = ||G_s - G_rom||_H2 / ||G_s||_H2, where G_s is
    :func:`~h2mor.linalg.stable_part` of the surrogate: the surrogate itself
    when stable, else its modal truncation to the stable modes.  G_s is
    stable, so an unstable error system means an unstable ``rom`` and raises
    :class:`UnstableRom`.
    """
    surrogate = stable_part(mf.surrogate)
    try:
        return h2_error(surrogate, rom)[1], surrogate is not mf.surrogate
    except UnstablePencil as exc:
        raise UnstableRom("error estimate needs a stable reduced model") from exc


def unless_refused(check: str, func, *args):
    """``func(*args)``, or None and one warning naming the error it raised.

    For the checks run on a finished reduced model: a check that raises a
    :class:`ModelReductionError` (no stable pole, no usable
    eigendecomposition, a node on the spectrum) leaves the reduction as it is.
    """
    try:
        return func(*args)
    except ModelReductionError as exc:
        log.warning("%s skipped: %s: %s", check, type(exc).__name__, exc)
        return None


@dataclass(frozen=True)
class EquivalenceReport:
    """Transfer-function deviation between a surrogate-derived rom and direct projection."""

    max_deviation: float
    points: tuple
    full_lu: int

    def passed(self, tol: float) -> bool:
        return self.max_deviation < tol


def verify_realization_equivalence(full_model: StateSpaceModel,
                                   opt_data: InterpolationData,
                                   mf_rom: StateSpaceModel,
                                   solver: ShiftedSolver | None = None) -> EquivalenceReport:
    """Compare the CIRKA rom against direct full-model projection at the same data.

    Realizations are compared by transfer function (20 logarithmically spaced
    points on the imaginary axis plus 5 random complex points drawn with
    seed 0), not by matrices.  ``full_lu`` counts the factorizations the
    direct projection adds to ``solver`` (made when None), the check's own
    cost; a solver made with ``keep_factorizations`` keeps them.
    """
    if solver is None:
        solver = ShiftedSolver(full_model)
    lu0 = solver.lu_count
    direct, _ = hermite_reduce(full_model, opt_data, solver)
    mags = np.abs(opt_data.shifts)
    mags = mags[mags > 0]
    lo = mags.min() / 10 if mags.size else 1e-2
    hi = mags.max() * 10 if mags.size else 1e2
    points = [1j * w for w in np.logspace(np.log10(lo), np.log10(hi), 20)]
    rng = np.random.default_rng(0)
    scale = math.sqrt(lo * hi)
    for _ in range(5):
        points.append(complex(rng.uniform(0.1, 2.0) * scale,
                              rng.uniform(-2.0, 2.0) * scale))
    worst = 0.0
    for s in points:
        Gd = eval_transfer(direct, s)
        Gm = eval_transfer(mf_rom, s)
        worst = max(worst, relative(np.linalg.norm(Gd - Gm), np.linalg.norm(Gd)))
    return EquivalenceReport(max_deviation=float(worst), points=tuple(points),
                             full_lu=solver.lu_count - lu0)


# -- the outer loop -----------------------------------------------------------


@dataclass
class CirkaResult:
    rom: StateSpaceModel
    model_function: ModelFunction | None
    optimal_data: InterpolationData
    outer_iterations: int
    counters: CostCounters
    error_estimate: float | None
    estimate_used_stable_part: bool | None
    optimality_report: InterpolationReport | None
    converged: bool
    fallback_direct: bool = False
    new_columns_per_step: list = field(default_factory=list)
    inner_results: list = field(default_factory=list)

    @property
    def inner_iterations(self) -> list:
        return [ir.iterations for ir in self.inner_results]


def cirka(model: StateSpaceModel, init: InterpolationData,
          opts: CirkaOptions | None = None) -> CirkaResult:
    """Confined IRKA outer loop.

    Alternates model-function updates on the full model with IRKA runs on the
    surrogate, warm-starting each inner run with the previous optimal data,
    until the optimal data pass IRKA's stop test at ``outer_tol`` or
    ``outer_max_iter`` is hit; ``converged`` also needs a converged last
    inner run.  If an update would exceed the order cap n // 2, the run
    falls back to direct IRKA on the full model, flags it, reports that
    run's ``converged`` and adds its time to the counters.  Inner steps that
    perturbed a shift off the spectrum are summarized in one warning per
    run, and inner runs that stopped on a cycle in one INFO line.  A
    built-in check of the returned reduced model that is refused (see
    :func:`unless_refused`) leaves ``error_estimate`` or
    ``optimality_report`` None.
    """
    opts = opts or CirkaOptions()
    # U.1 extends chains at old shifts, so its builds reuse earlier LUs
    solver = ShiftedSolver(model, keep_factorizations=opts.update_strategy == "U1")
    init.validate(model.m, model.p)
    r = init.r

    counters = CostCounters()
    data = init
    mf = None
    inner_results: list[IrkaResult] = []
    new_cols: list[int] = []
    converged = False
    fallback = False
    k = 0
    for k in range(1, opts.outer_max_iter + 1):
        t0 = perf_counter()
        try:
            if mf is None:
                mf = init_model_function(model, data, opts, solver)
                new_cols.append(mf.history.r)
            else:
                mf, added = update_model_function(model, mf, data, opts, solver)
                new_cols.append(added)
        except ModelOrderExceeded as exc:
            log.warning("model function order cap hit (%s); falling back to direct IRKA", exc)
            fallback = True
            break
        finally:
            counters.add_time("reduction", perf_counter() - t0)

        if mf.order < r:
            raise RankCollapse(f"model function has order {mf.order} after rank trimming, "
                               f"below r = {r}")
        t0 = perf_counter()
        inner = _iterate(mf.surrogate, data, opts.inner, _surrogate_solver(mf.surrogate))
        counters.add_time("optimization", perf_counter() - t0)
        counters.surrogate_lu += inner.counters.full_lu
        counters.surrogate_lu_norecycle += inner.counters.full_lu_norecycle
        counters.irka_steps_total += inner.iterations
        inner_results.append(inner)

        converged = _settled(data, inner.optimal_data, opts.outer_tol)
        data = inner.optimal_data
        log.debug("cirka outer step %d: settled %s (n_M = %d)", k, converged, mf.order)
        if converged:
            break

    retries = sum(ir.shift_retries for ir in inner_results)
    if retries:
        log.warning("%d of %d inner IRKA steps perturbed a shift that hit the spectrum",
                    retries, counters.irka_steps_total)
    cycled = sum(ir.stop_reason == "cycle" for ir in inner_results)
    if cycled:
        log.info("%d of %d inner IRKA runs stopped on a cycle", cycled, len(inner_results))
    if fallback:
        direct = irka(model, data, opts.inner, solver)
        counters.add_time("optimization", direct.counters.total_time)
        rom = direct.rom
        data = direct.optimal_data
        converged = direct.converged
        counters.irka_steps_total += direct.iterations
        inner_results.append(direct)
    else:
        last = inner_results[-1]
        rom = last.rom
        if rom.n < r:
            raise RankCollapse(f"reduced model has order {rom.n} after rank trimming, "
                               f"below r = {r}")
        if converged and not last.converged:
            converged = False
            log.warning("CIRKA's data settled, but its last inner IRKA run did not "
                        "converge (stop reason: %s)", last.stop_reason)

    counters.full_lu = solver.lu_count
    counters.full_lu_norecycle = solver.lu_count_norecycle

    estimate = used_stable = report = None
    if opts.compute_error_estimate and mf is not None and not fallback:
        estimate, used_stable = unless_refused("error estimate", estimate_error,
                                               mf, rom) or (None, None)
    if opts.verify_optimality:
        report = unless_refused("optimality check", verify_h2_optimality, model, rom)

    return CirkaResult(rom=rom, model_function=mf, optimal_data=data,
                       outer_iterations=k, counters=counters, error_estimate=estimate,
                       estimate_used_stable_part=used_stable,
                       optimality_report=report, converged=converged,
                       fallback_direct=fallback, new_columns_per_step=new_cols,
                       inner_results=inner_results)
