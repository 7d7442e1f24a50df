"""Fixed-point iteration placing shifts at mirrored reduced poles (IRKA).

Each step interpolates the model at the current data, eigendecomposes the
reduced pencil, and maps poles/residues back to new interpolation data:
shifts -conj(lambda_i), right tangents from y_i^H B_r, left tangents C_r x_i.
At a fixed point the first-order H2 optimality conditions hold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from .errors import CardinalityMismatch, DimensionMismatch, NotConjugateClosed, RankCollapse
from .interpolation import (
    InterpolationBlock,
    InterpolationData,
    angle_distance,
    hermite_arrays,
)
from .linalg import CostCounters, ShiftedSolver, conjugate_pairs, relative
from .model import StateSpaceModel, make_model, pole_residue, pole_residue_arrays

log = logging.getLogger(__name__)

#: The cycle check of :func:`_cycle_period`: the periods it looks for, and
#: its tolerance relative to the distance the last step moved.
CYCLE_PERIODS = range(2, 9)
CYCLE_TOL = 1e-6


@dataclass
class IrkaOptions:
    """Stop-test tolerance and step cap; defaults follow the reference experiments."""

    tol: float = 1e-3
    max_iter: int = 50

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer))
                or self.max_iter < 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass
class IrkaResult:
    """One IRKA run.

    ``stop_reason`` says why it ended: ``"settled"`` (converged),
    ``"unstable"`` (settled on a step that reflected a pole), ``"cycle"``
    (its iterates repeat) or ``"max_iter"``.  ``shift_history`` holds the
    data of every step taken, so after a cycle ``optimal_data`` is one of
    its last entries, not necessarily the very last.
    """

    rom: StateSpaceModel
    optimal_data: InterpolationData
    iterations: int
    stop_reason: str
    shift_history: list
    counters: CostCounters
    reflected_iterations: list = field(default_factory=list)
    shift_retries: int = 0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "settled"


def shift_convergence(prev: InterpolationData, new: InterpolationData) -> float:
    """Distance between two interpolation data sets of equal cardinality.

    Columns are matched by sorting the shifts on (Re, Im).  The distance is
    the larger of the relative 2-norm of the shift difference (absolute
    when the previous set is all zero) and the largest tangent angle
    distance 1 - |cos(angle)| of matched columns, both sides: the criterion
    ``s0+tanDir``, since the H2 optimality conditions fix tangents too.  On
    SISO data the tangent part is 0 up to rounding, which leaves ``s0``.
    """
    return float(max(_distances(prev, new)))


def _settled(prev: InterpolationData, new: InterpolationData, tol: float) -> bool:
    """``shift_convergence(prev, new) <= tol``, reading tangents only once shifts pass."""
    return all(d <= tol for d in _distances(prev, new))


def _cycle_period(history: list):
    """The period of the cycle the last iterate of ``history`` closes, or None.

    With s the distance the last step moved, the run has entered a cycle of
    period p when the iterate p steps back passes the stop test against the
    last one at ``CYCLE_TOL * s``; the smallest such p in ``CYCLE_PERIODS``
    is returned.
    """
    new = history[-1]
    past = history[-1 - CYCLE_PERIODS[-1]:-1][::-1]     # past[p - 1] is p steps back
    # A screen on shifts alone, in one array operation.  A tangent distance
    # is at most 1, so s <= max(shift distance of the last step, 1); the
    # factor 2 covers the rounding of this other way of taking the norms.
    sp = np.array([d.sorted_columns[0] for d in past])
    num, den = (np.linalg.norm(a, axis=1) for a in (new.sorted_columns[0] - sp, sp))
    dist = num / np.where(den > 0, den, 1.0)
    if not np.any(dist[1:] <= 2 * CYCLE_TOL * max(dist[0], 1.0)):
        return None
    tol = CYCLE_TOL * shift_convergence(past[0], new)
    return next((p for p in CYCLE_PERIODS
                 if p <= len(past) and _settled(past[p - 1], new, tol)), None)


def _distances(prev: InterpolationData, new: InterpolationData):
    """Yield the shift distance, then the tangent distance."""
    if prev.r != new.r:
        raise CardinalityMismatch(f"data sets have {prev.r} and {new.r} columns")
    sp, rp, lp = prev.sorted_columns
    sn, rn, ln = new.sorted_columns
    yield relative(np.linalg.norm(sn - sp), np.linalg.norm(sp))
    yield max(np.max(angle_distance(rp, rn)), np.max(angle_distance(lp, ln)))


def update_interpolation_data(rom: StateSpaceModel):
    """Interpolation data from a reduced model's pole/residue form.

    Returns ``(data, reflected)``: shifts are the mirrored poles
    -conj(lambda_i) with tangents from the residue directions; any shift
    landing in the closed left half-plane has its real part reflected to
    |Re|, with ``reflected=True`` flagging the event.  There is one
    column per pole and repeated poles are not merged, so a rom whose bases
    lost rank gives fewer columns than the data it came from (:func:`irka`
    re-inflates them).  The output is exactly conjugate-closed.
    """
    return _mirrored_data(pole_residue(rom))


def _mirrored_data(prf, groups=None):
    """Interpolation data at the mirrored poles -conj(lambda) with residue tangents.

    ``groups`` are conjugate groups of ``prf.poles`` in the format of
    :func:`~h2mor.linalg.conjugate_pairs`; by default all of them, ordered
    by (Re, |Im|).  A shift landing in the closed left half-plane has its
    real part reflected to |Re| (``reflected`` reports it).  Each group
    gives a real block, or a block from its Im > 0 member directly followed
    by that block's conjugate: the layout :class:`InterpolationData` reads
    its pairing from.  Returns ``(data, reflected)``.
    """
    lam = prf.poles
    if groups is None:
        groups = conjugate_pairs(lam, np.lexsort((np.abs(lam.imag), lam.real)))
    blocks = []
    reflected = False
    for group in groups:
        k = group[0] if lam[group[0]].imag > 0 else group[-1]
        s = -lam[k].conjugate()
        if s.real <= 0.0:
            reflected = True
            s = complex(abs(s.real), s.imag)
        if len(group) == 1:
            blocks.append(InterpolationBlock(complex(s.real), prf.input_residues[k].real,
                                             prf.output_residues[k].real))
        else:
            b = InterpolationBlock(s, prf.input_residues[k], prf.output_residues[k])
            blocks.extend([b, b.conjugate()])
    return InterpolationData(blocks), reflected


def _pad_to_order(data: InterpolationData, r: int) -> InterpolationData:
    """Re-inflate shrunken data to r columns by extending chains.

    A rank-trimmed iterate yields fewer mirrored poles than requested; longer
    chains at the surviving nodes add higher-moment directions, restoring the
    order without inventing new shifts.  Each round visits the conjugate
    groups in order and grows a real chain by one column, or each member of
    a pair by one column, while the deficit allows.  A deficit no group can
    fill (odd, with only pairs left) raises :class:`RankCollapse`.
    """
    lengths = [b.length for b in data.blocks]
    groups = data.conjugate_pairing()
    deficit = r - data.r
    while deficit > 0:
        before = deficit
        for group in groups:
            if len(group) <= deficit:
                for i in group:
                    lengths[i] += 1
                deficit -= len(group)
        if deficit == before:
            raise RankCollapse(f"cannot grow {data.r} columns to r = {r} by "
                               "extending conjugate pairs")
    return InterpolationData([replace(b, length=q) for b, q in zip(data.blocks, lengths)])


def irka(model: StateSpaceModel, init: InterpolationData,
         opts: IrkaOptions | None = None,
         solver=None, *, inner_run: bool = False) -> IrkaResult:
    """Iterate interpolation data to a (local) H2-optimal reduced model.

    Runs until :func:`shift_convergence` falls below ``opts.tol`` or
    ``max_iter`` is reached.  A step that does not settle is checked for a
    cycle (:func:`_cycle_period`): a run whose iterates repeat with period
    p stops there and returns the step among its last p that ``max_iter``
    would have ended on: the capped run's result, up to the recurrence
    tolerance, without the remaining steps.  Hitting
    the cap, settling on a step that reflected an unstable pole (the
    returned model keeps it) or a cycle is reported through
    ``converged=False`` and ``stop_reason``, not raised; a direct run logs
    one warning for the last two.
    ``solver`` is a :class:`ShiftedSolver` (made when None) or a
    :class:`~h2mor.linalg.ModalSolver` of ``model``; the run's ``full_lu``
    counts its factorizations.  Each step keeps the reduced matrices as
    dense arrays, and only the returned reduced model is built.
    ``optimal_data`` holds the mirrored poles and residue tangents of the
    returned reduced model, re-inflated to ``init.r`` columns when its step
    lost rank.  A returned reduced model of order below ``init.r`` raises
    :class:`RankCollapse`.  Steps that had to perturb a shift off the
    spectrum are counted in ``shift_retries`` and summarized in one
    warning.  ``inner_run`` marks one of CIRKA's inner runs: its next outer
    step starts from the re-inflated data, so a low order does not raise,
    and CIRKA reports its runs' retries, cycles and convergence itself.
    """
    opts = opts or IrkaOptions()
    if solver is None:
        solver = ShiftedSolver(model)
    init.validate(model.m, model.p)
    if init.r > model.n:
        raise DimensionMismatch(f"reduced order {init.r} exceeds model order {model.n}")

    lu0, lu0n = solver.lu_count, solver.lu_count_norecycle
    t0 = perf_counter()
    data = init
    history = [data]
    step_arrays = [None]        # the reduced matrices of each step
    reflected_iters: list[int] = []
    retries = 0
    reason = "max_iter"
    for k in range(1, opts.max_iter + 1):
        if k > 1:
            solver.drop_factorizations()    # shifts changed; keep memory bounded
        arrays, used = hermite_arrays(model, data, solver)
        retries += used is not data
        new_data, reflected = _mirrored_data(pole_residue_arrays(*arrays))
        if reflected:
            reflected_iters.append(k)
        settled = new_data.r == init.r and _settled(data, new_data, opts.tol)
        if new_data.r < init.r:
            log.debug("iteration %d: order fell to %d after rank trim; re-inflating",
                      k, new_data.r)
            new_data = _pad_to_order(new_data, init.r)
        data = new_data
        history.append(data)
        step_arrays.append(arrays)
        log.debug("irka iteration %d: settled %s", k, settled)
        if settled:
            reason = "unstable" if reflected else "settled"
            break
        period = _cycle_period(history) if k < opts.max_iter else None
        if period:
            reason = "cycle"
            break
    returned = k
    if reason == "cycle":
        # the step max_iter would end on: the one of the last p congruent to it
        returned = k - (k - opts.max_iter) % period
        data = history[returned]
        if not inner_run:
            log.warning("IRKA entered a cycle of period %d at step %d; returning step %d, "
                        "where max_iter = %d would end: not converged",
                        period, k, returned, opts.max_iter)
    if reason == "unstable" and not inner_run:
        log.warning("IRKA settled at step %d on a reflected pole: the reduced model "
                    "is unstable, not converged", k)
    if retries and not inner_run:
        log.warning("%d of %d IRKA steps perturbed a shift that hit the spectrum",
                    retries, k)
    rom = make_model(*step_arrays[returned], model.D)
    if not inner_run and rom.n < init.r:
        raise RankCollapse(f"reduced model has order {rom.n} after rank trimming, "
                           f"below r = {init.r}")
    counters = CostCounters(
        full_lu=solver.lu_count - lu0,
        full_lu_norecycle=solver.lu_count_norecycle - lu0n,
        irka_steps_total=k,
    )
    counters.add_time("optimization", perf_counter() - t0)
    return IrkaResult(rom=rom, optimal_data=data, iterations=k, stop_reason=reason,
                      shift_history=history, counters=counters,
                      reflected_iterations=reflected_iters, shift_retries=retries)


def initial_data_from_spectrum(model: StateSpaceModel, r: int) -> InterpolationData:
    """Mirrored smallest-magnitude poles of the model with residue tangents.

    Dense eigendecomposition path; greedy selection keeps the set closed
    under conjugation (pairs are taken or skipped whole).
    """
    prf = pole_residue(model)
    lam = prf.poles
    groups, count = [], 0
    for group in conjugate_pairs(lam, np.argsort(np.abs(lam))):
        if count + len(group) <= r:
            groups.append(group)
            count += len(group)
    if count != r:
        raise NotConjugateClosed(f"could not pick {r} conjugate-closed shifts from the spectrum")
    return _mirrored_data(prf, groups)[0]
