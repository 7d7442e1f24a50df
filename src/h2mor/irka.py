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

STOP_CRITERIA = ("shifts_only", "shifts_and_tangents")


@dataclass
class IrkaOptions:
    """Convergence controls; defaults follow the reference experiment settings."""

    tol: float = 1e-3
    max_iter: int = 50
    stop_criterion: str = "shifts_only"

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.stop_criterion not in STOP_CRITERIA:
            raise ValueError(f"stop_criterion must be one of {STOP_CRITERIA}")


@dataclass
class IrkaResult:
    rom: StateSpaceModel
    optimal_data: InterpolationData
    iterations: int
    converged: bool
    shift_history: list
    counters: CostCounters
    reflected_iterations: list = field(default_factory=list)
    shift_retries: int = 0


def _sorted_column_order(data: InterpolationData) -> np.ndarray:
    s = data.shifts
    return np.lexsort((s.imag, s.real))


def shift_convergence(prev: InterpolationData, new: InterpolationData,
                      criterion: str = "shifts_only") -> float:
    """Distance between two interpolation data sets of equal cardinality.

    Shifts are matched by sorting on (Re, Im); the distance is the relative
    2-norm of the shift difference (absolute when the previous set is all
    zero).  With ``shifts_and_tangents`` the max over matched tangent angle
    distances 1 - |cos(angle)| (both sides) is folded in.
    """
    if criterion not in STOP_CRITERIA:
        raise ValueError(f"criterion must be one of {STOP_CRITERIA}")
    if prev.r != new.r:
        raise CardinalityMismatch(f"data sets have {prev.r} and {new.r} columns")
    ip, iq = _sorted_column_order(prev), _sorted_column_order(new)
    sp, sq = prev.shifts[ip], new.shifts[iq]
    dist = relative(np.linalg.norm(sq - sp), np.linalg.norm(sp))
    if criterion == "shifts_and_tangents":
        rp, rq = prev.right_tangents[ip], new.right_tangents[iq]
        lp, lq = prev.left_tangents[ip], new.left_tangents[iq]
        for k in range(prev.r):
            dist = max(dist, angle_distance(rp[k], rq[k]), angle_distance(lp[k], lq[k]))
    return float(dist)


def update_interpolation_data(rom: StateSpaceModel):
    """Interpolation data from a reduced model's pole/residue form.

    Returns ``(data, reflected)``: shifts are the mirrored poles
    -conj(lambda_i) with tangents from the residue directions; any shift
    landing in the closed left half-plane has its real part reflected to
    positive, with ``reflected=True`` flagging the event.  There is one
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
    real part reflected to positive (``reflected`` reports it).  A complex
    pair is built from its Im > 0 member and its conjugate, so closure is
    exact, and the data carries the grouping it was built with.  Returns
    ``(data, reflected)``.
    """
    lam = prf.poles
    if groups is None:
        groups = conjugate_pairs(lam, np.lexsort((np.abs(lam.imag), lam.real)))
    blocks, pairing = [], []
    reflected = False
    for group in groups:
        k = group[0] if lam[group[0]].imag > 0 else group[-1]
        s = -lam[k].conjugate()
        if s.real < 0.0:
            reflected = True
            s = complex(abs(s.real), s.imag)
        pairing.append(tuple(range(len(blocks), len(blocks) + len(group))))
        if len(group) == 1:
            blocks.append(InterpolationBlock(complex(s.real), prf.input_residues[k].real,
                                             prf.output_residues[k].real))
        else:
            b = InterpolationBlock(s, prf.input_residues[k], prf.output_residues[k])
            blocks.extend([b, b.conjugate()])
    return InterpolationData._with_pairing(blocks, pairing), reflected


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
    return InterpolationData._with_pairing(
        [replace(b, length=q) for b, q in zip(data.blocks, lengths)], groups)


def irka(model: StateSpaceModel, init: InterpolationData,
         opts: IrkaOptions | None = None,
         solver=None, *, inner_run: bool = False) -> IrkaResult:
    """Iterate interpolation data to a (local) H2-optimal reduced model.

    Runs until the stop criterion falls below ``opts.tol`` or ``max_iter`` is
    reached; hitting the iteration cap is reported through
    ``converged=False``, not raised.  ``solver`` is a :class:`ShiftedSolver`
    (made when None) or a :class:`~h2mor.linalg.ModalSolver` of ``model``;
    the run's ``full_lu`` counts its factorizations.  Each step keeps the
    reduced matrices as dense arrays, and only the returned reduced model
    is built.  ``optimal_data`` holds the mirrored
    poles and residue tangents of the returned reduced model, re-inflated
    to ``init.r`` columns when the last step lost rank.  A final reduced
    model of order below ``init.r`` raises :class:`RankCollapse`.  Steps
    that had to perturb a shift off the spectrum are counted in
    ``shift_retries`` and summarized in one warning.  ``inner_run`` marks
    one of CIRKA's inner runs: its next outer step starts from the
    re-inflated data, so a low order does not raise, and CIRKA sums the
    retries of all its inner runs into one warning of its own.
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
    reflected_iters: list[int] = []
    retries = 0
    converged = False
    arrays = None
    k = 0
    for k in range(1, opts.max_iter + 1):
        if k > 1:
            solver.drop_factorizations()    # shifts changed; keep memory bounded
        arrays, used = hermite_arrays(model, data, solver)
        retries += used is not data
        new_data, reflected = _mirrored_data(pole_residue_arrays(*arrays))
        if reflected:
            reflected_iters.append(k)
        if new_data.r < init.r:
            log.debug("iteration %d: order fell to %d after rank trim; re-inflating",
                      k, new_data.r)
            new_data = _pad_to_order(new_data, init.r)
            dist = np.inf
        else:
            dist = shift_convergence(data, new_data, opts.stop_criterion)
        data = new_data
        history.append(data)
        log.debug("irka iteration %d: distance %.3e", k, dist)
        if dist <= opts.tol:
            converged = True
            break

    if retries and not inner_run:
        log.warning("%d of %d IRKA steps perturbed a shift that hit the spectrum",
                    retries, k)
    rom = make_model(*arrays, model.D)
    if not inner_run and rom.n < init.r:
        raise RankCollapse(f"reduced model has order {rom.n} after rank trimming, "
                           f"below r = {init.r}")
    counters = CostCounters(
        full_lu=solver.lu_count - lu0,
        full_lu_norecycle=solver.lu_count_norecycle - lu0n,
        irka_steps_total=k,
    )
    counters.add_time("optimization", perf_counter() - t0)
    return IrkaResult(rom=rom, optimal_data=data, iterations=k, converged=converged,
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
