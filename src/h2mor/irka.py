"""Fixed-point iteration placing shifts at mirrored reduced poles (IRKA).

Each step interpolates the model at the current data, eigendecomposes the
reduced pencil, and maps poles/residues back to new interpolation data:
shifts -conj(lambda_i), right tangents from y_i^H B_r, left tangents C_r x_i.
At a fixed point the first-order H2 optimality conditions hold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .errors import CardinalityMismatch, DimensionMismatch, NotConjugateClosed
from .interpolation import (
    InterpolationBlock,
    InterpolationData,
    angle_distance,
    hermite_reduce,
    same_triplet,
)
from .linalg import CostCounters, ShiftedSolver, conjugate_pairs, relative
from .model import StateSpaceModel, pole_residue

log = logging.getLogger(__name__)

STOP_CRITERIA = ("shifts_only", "shifts_and_tangents")


@dataclass
class IrkaOptions:
    """Convergence controls; defaults follow the reference experiment settings."""

    tol: float = 1e-3
    max_iter: int = 50
    stop_criterion: str = "shifts_only"

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
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


def _merge_repeats(blocks, tol: float = 1e-8):
    """Fold coincident (shift, tangents) triplets into Jordan chains.

    Mirrored poles of a nearly defective reduced model repeat; duplicate
    primitive columns would collapse the basis rank, while a chain keeps the
    order and interpolates higher derivatives at the repeated node.  Merging
    is conjugation-symmetric, so closure is preserved.
    """
    merged: list[InterpolationBlock] = []
    for b in blocks:
        for i, mb in enumerate(merged):
            if same_triplet(mb, b, tol, tol):
                merged[i] = InterpolationBlock(mb.sigma, mb.right, mb.left,
                                               mb.length + b.length)
                break
        else:
            merged.append(b)
    return tuple(merged)


def update_interpolation_data(rom: StateSpaceModel):
    """Interpolation data from a reduced model's pole/residue form.

    Returns ``(data, reflected)``: shifts are the mirrored poles
    -conj(lambda_i) with tangents from the residue directions; any shift
    landing in the closed left half-plane has its real part reflected to
    positive, with ``reflected=True`` flagging the event.  Repeated triplets
    (numerically multiple poles) become Jordan chains so the order is kept.
    The output is exactly conjugate-closed.
    """
    prf = pole_residue(rom)
    lam = prf.poles
    groups = conjugate_pairs(lam, np.lexsort((np.abs(lam.imag), lam.real)))
    blocks, reflected = _mirrored_blocks(prf, groups)
    return InterpolationData(_merge_repeats(blocks)), reflected


def _mirrored_blocks(prf, groups):
    """Blocks at the mirrored poles -conj(lambda) with residue tangents.

    A shift landing in the closed left half-plane has its real part
    reflected to positive (``reflected`` reports it).  A complex pair is
    built from its Im > 0 member and its conjugate, so closure is exact.
    Returns ``(blocks, reflected)``.
    """
    lam = prf.poles
    blocks = []
    reflected = False
    for group in groups:
        k = group[0] if lam[group[0]].imag > 0 else group[-1]
        s = -lam[k].conjugate()
        if s.real < 0.0:
            reflected = True
            s = complex(abs(s.real), s.imag)
        if len(group) == 1:
            blocks.append(InterpolationBlock(complex(s.real), prf.input_residues[k].real,
                                             prf.output_residues[k].real))
        else:
            b = InterpolationBlock(s, prf.input_residues[k], prf.output_residues[k])
            blocks.extend([b, b.conjugate()])
    return blocks, reflected


def _pad_to_order(data: InterpolationData, r: int) -> InterpolationData:
    """Re-inflate shrunken data to r columns by extending chains.

    A rank-trimmed iterate yields fewer mirrored poles than requested; longer
    chains at the surviving nodes add higher-moment directions, restoring the
    order without inventing new shifts.  Conjugate pairs are extended
    symmetrically to keep closure.
    """
    deficit = r - data.r
    if deficit <= 0:
        return data
    blocks = list(data.blocks)
    pairing = data.conjugate_pairing()
    while deficit > 0:
        bumped = False
        for kind, *idx in pairing:
            if deficit == 0:
                break
            if kind == "real":
                (i,) = idx
                b = blocks[i]
                blocks[i] = InterpolationBlock(b.sigma, b.right, b.left, b.length + 1)
                deficit -= 1
                bumped = True
            elif deficit >= 2:
                i, j = idx
                for t in (i, j):
                    b = blocks[t]
                    blocks[t] = InterpolationBlock(b.sigma, b.right, b.left, b.length + 1)
                deficit -= 2
                bumped = True
        if not bumped:
            # odd deficit with only complex pairs left: add a fresh real node
            sigma = 1.0 + float(np.max(np.abs(data.shifts.real)))
            blocks.append(InterpolationBlock(sigma, np.ones(data.m), np.ones(data.p)))
            deficit -= 1
    return InterpolationData(tuple(blocks))


def irka(model: StateSpaceModel, init: InterpolationData,
         opts: IrkaOptions | None = None,
         solver: ShiftedSolver | None = None) -> IrkaResult:
    """Iterate interpolation data to a (local) H2-optimal reduced model.

    Runs until the stop criterion falls below ``opts.tol`` or ``max_iter`` is
    reached; hitting the iteration cap is reported through
    ``converged=False``, not raised.  ``optimal_data`` holds the mirrored
    poles and residue tangents of the returned reduced model.
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
    converged = False
    rom = None
    k = 0
    for k in range(1, opts.max_iter + 1):
        if k > 1:
            solver.drop_factorizations()    # shifts changed; keep memory bounded
        rom, _ = hermite_reduce(model, data, solver)
        new_data, reflected = update_interpolation_data(rom)
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

    counters = CostCounters(
        full_lu=solver.lu_count - lu0,
        full_lu_norecycle=solver.lu_count_norecycle - lu0n,
        irka_steps_total=k,
    )
    counters.add_time("optimization", perf_counter() - t0)
    return IrkaResult(rom=rom, optimal_data=data, iterations=k, converged=converged,
                      shift_history=history, counters=counters,
                      reflected_iterations=reflected_iters)


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
    blocks, _ = _mirrored_blocks(prf, groups)
    return InterpolationData(tuple(blocks))
