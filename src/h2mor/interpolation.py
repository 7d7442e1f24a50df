"""Tangential interpolation data, primitive Krylov bases, and Hermite reduction.

Interpolation data is a conjugate-closed set of (shift, right tangent, left
tangent) triplets, organized in blocks.  A block of length q > 1 is a Jordan
chain: its columns match derivatives of G up to order q-1 at the shift.  The
block matrices are

    S = blkdiag of Jordan blocks (shift on the diagonal, ones above),
    R = [r_1, 0, ..., r_2, 0, ...]   (tangent on each chain's first column),
    L = likewise for the left tangents,

and the primitive bases solve the sparse-dense Sylvester equations
A V - E V S - B R = 0 and A^T W - E^T W S - C^T L = 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg as spla

from .errors import NotConjugateClosed, ParseError, SingularShift
from .linalg import ShiftedSolver, _cache_key, orthonormalize_real, relative
from .model import StateSpaceModel, make_model, projected_arrays
from .model import _transfer_and_derivative

log = logging.getLogger(__name__)

#: Relative shift distance and tangent angle distance below which a triplet
#: counts as one the model function already interpolates.
NEW_TRIPLET_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class InterpolationBlock:
    """One interpolation node: shift, tangent pair, and chain length.

    The tangents are read-only copies, so a block never changes after
    construction.
    """

    sigma: complex
    right: np.ndarray
    left: np.ndarray
    length: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sigma", complex(self.sigma))
        object.__setattr__(self, "right", _frozen_vector(self.right))
        object.__setattr__(self, "left", _frozen_vector(self.left))
        if self.length < 1:
            raise ValueError("chain length must be >= 1")

    def conjugate(self) -> "InterpolationBlock":
        return InterpolationBlock(self.sigma.conjugate(), self.right.conj(),
                                  self.left.conj(), self.length)

    def is_conjugate_of(self, other: "InterpolationBlock") -> bool:
        """Whether ``other`` is this block's conjugate, bit for bit."""
        return (self.length == other.length and self.sigma == other.sigma.conjugate()
                and np.array_equal(self.right, other.right.conj())
                and np.array_equal(self.left, other.left.conj()))

    def is_self_conjugate(self) -> bool:
        """Whether the shift and both tangents are exactly real."""
        return not (self.sigma.imag or self.right.imag.any() or self.left.imag.any())


def _frozen_vector(values) -> np.ndarray:
    """A read-only complex 1-D copy of ``values``."""
    return _read_only(np.asarray(values, dtype=complex).reshape(-1).copy())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def angle_distance(a: np.ndarray, b: np.ndarray):
    """1 - |cos(angle)| between tangent directions (rows of matrices).

    0 where both vanish and 1 where only one does.
    """
    na, nb = np.linalg.norm(a, axis=-1), np.linalg.norm(b, axis=-1)
    den = na * nb
    cos = np.abs(np.sum(np.conj(a) * b, axis=-1)) / np.where(den > 0.0, den, 1.0)
    return np.where(den > 0.0, 1.0 - cos, np.maximum(na, nb) > 0.0)


def same_triplet(existing: InterpolationBlock, new: InterpolationBlock) -> bool:
    """Whether ``new`` repeats the triplet ``existing``.

    The shifts must agree within ``NEW_TRIPLET_TOL`` relative to the existing
    shift (absolutely when it is zero), both tangents in angle distance too.
    """
    d = relative(abs(new.sigma - existing.sigma), abs(existing.sigma))
    return (d <= NEW_TRIPLET_TOL
            and angle_distance(existing.right, new.right) <= NEW_TRIPLET_TOL
            and angle_distance(existing.left, new.left) <= NEW_TRIPLET_TOL)


@dataclass(frozen=True, eq=False)
class InterpolationData:
    """Conjugate-closed interpolation triplets with Jordan-chain structure.

    The blocks follow one layout: a block whose shift and tangents are
    exactly real stands alone, and any other block is followed directly by
    its exact conjugate (:meth:`InterpolationBlock.conjugate`).  Pairing
    is read off this layout, so it is exact and does not depend on scale.
    """

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("interpolation data needs at least one block")
        m, p = self.blocks[0].right.size, self.blocks[0].left.size
        for b in self.blocks:
            if b.right.size != m or b.left.size != p:
                raise ValueError("all blocks must share tangent dimensions")

    # -- constructors ------------------------------------------------------

    @classmethod
    def simple(cls, shifts, right_tangents, left_tangents) -> "InterpolationData":
        """Length-1 blocks from per-triplet shifts and tangent rows."""
        shifts = np.asarray(shifts, dtype=complex).reshape(-1)
        R = np.atleast_2d(np.asarray(right_tangents, dtype=complex))
        L = np.atleast_2d(np.asarray(left_tangents, dtype=complex))
        if R.shape[0] != len(shifts) or L.shape[0] != len(shifts):
            raise ValueError("one tangent row per shift required")
        return cls(tuple(InterpolationBlock(s, r, l) for s, r, l in zip(shifts, R, L)))

    @classmethod
    def zero_init(cls, r: int, m: int, p: int) -> "InterpolationData":
        """All shifts at 0 with all-ones tangents: one Jordan chain of length r."""
        return cls((InterpolationBlock(0.0, np.ones(m), np.ones(p), length=r),))

    # -- structure ---------------------------------------------------------
    # The blocks never change, so everything derived from them is computed
    # once; arrays are returned read-only.

    @cached_property
    def r(self) -> int:
        return sum(b.length for b in self.blocks)

    @property
    def m(self) -> int:
        return self.blocks[0].right.size

    @property
    def p(self) -> int:
        return self.blocks[0].left.size

    @cached_property
    def column_offsets(self) -> tuple:
        offs, pos = [], 0
        for b in self.blocks:
            offs.append(pos)
            pos += b.length
        return tuple(offs)

    @cached_property
    def shifts(self) -> np.ndarray:
        """Per-column shifts (repeated within a chain)."""
        return _read_only(np.concatenate([np.full(b.length, b.sigma) for b in self.blocks]))

    @cached_property
    def right_tangents(self) -> np.ndarray:
        """Per-column right tangents, (r, m); zero rows on chain tails."""
        return self._tangent_rows([b.right for b in self.blocks])

    @cached_property
    def left_tangents(self) -> np.ndarray:
        return self._tangent_rows([b.left for b in self.blocks])

    @cached_property
    def sorted_columns(self) -> tuple:
        """Shifts, right and left tangent rows, with columns sorted on the shift's (Re, Im)."""
        order = np.lexsort((self.shifts.imag, self.shifts.real))
        return tuple(_read_only(a[order]) for a in
                     (self.shifts, self.right_tangents, self.left_tangents))

    def _tangent_rows(self, tangents) -> np.ndarray:
        rows = np.zeros((self.r, tangents[0].size), dtype=complex)
        for off, t in zip(self.column_offsets, tangents):
            rows[off] = t
        return _read_only(rows)

    def S_matrix(self) -> np.ndarray:
        """Block-diagonal of Jordan blocks (sigma on diagonal, 1 above within a chain)."""
        S = np.zeros((self.r, self.r), dtype=complex)
        for off, b in zip(self.column_offsets, self.blocks):
            for k in range(b.length):
                S[off + k, off + k] = b.sigma
                if k + 1 < b.length:
                    S[off + k, off + k + 1] = 1.0
        return S

    def R_matrix(self) -> np.ndarray:
        return self.right_tangents.T.copy()

    def L_matrix(self) -> np.ndarray:
        return self.left_tangents.T.copy()

    # -- conjugate structure -------------------------------------------------

    def conjugate_pairing(self) -> tuple:
        """Group blocks under conjugation, in block order.

        An exactly real block gives ``(i,)``, any other block and the
        block after it ``(i, i + 1)``: the format of
        :func:`~h2mor.linalg.conjugate_pairs`.  Raises
        :class:`NotConjugateClosed`, naming the block, when a block that is
        not real is not followed by its exact conjugate (the class's
        layout).  The blocks never change, so the grouping is computed once.
        """
        return self._pairing

    @cached_property
    def _pairing(self) -> tuple:
        blocks, pairing, i = self.blocks, [], 0
        while i < len(blocks):
            b = blocks[i]
            if b.is_self_conjugate():
                pairing.append((i,))
            elif i + 1 < len(blocks) and b.is_conjugate_of(blocks[i + 1]):
                pairing.append((i, i + 1))
            else:
                raise NotConjugateClosed(f"blocks[{i}] (sigma = {b.sigma}) is not real and "
                                         "not followed by its exact conjugate")
            i += len(pairing[-1])
        return tuple(pairing)

    def validate(self, m: int, p: int) -> None:
        """Check tangent dimensions against a model's m and p, and the conjugate layout."""
        if self.m != m:
            raise ValueError(f"right tangents have size {self.m}, model has m = {m}")
        if self.p != p:
            raise ValueError(f"left tangents have size {self.p}, model has p = {p}")
        for b in self.blocks:
            if not (np.all(np.isfinite(b.right)) and np.all(np.isfinite(b.left))
                    and np.isfinite(b.sigma)):
                raise ValueError("interpolation data contains non-finite values")
        self.conjugate_pairing()

    def to_jsonable(self) -> dict:
        """Plain-JSON form (complex numbers as [re, im] pairs)."""
        def c(z):
            return [z.real, z.imag]

        return {"blocks": [
            {"sigma": c(b.sigma), "right": [c(z) for z in b.right],
             "left": [c(z) for z in b.left], "length": b.length}
            for b in self.blocks]}

    @classmethod
    def from_jsonable(cls, payload: dict) -> "InterpolationData":
        """Inverse of :meth:`to_jsonable`; a malformed payload raises :class:`ParseError`."""
        def c(pair):
            return complex(pair[0], pair[1])

        try:
            return cls(tuple(
                InterpolationBlock(c(d["sigma"]), [c(z) for z in d["right"]],
                                   [c(z) for z in d["left"]], int(d["length"]))
                for d in payload["blocks"]))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed interpolation data: {exc!r}") from exc

    def perturbed(self, sigma: complex) -> "InterpolationData":
        """Move every block whose shift is ``sigma`` or its conjugate to (1 + 1e-8)*s + 1e-8.

        ``sigma`` is a block's shift or its conjugate, as :class:`SingularShift`
        reports it, so the match is exact.  The map is real and affine, so
        conjugate shifts stay conjugate, bit for bit.
        """
        hit = (complex(sigma), complex(sigma).conjugate())
        return InterpolationData(tuple(
            replace(b, sigma=(1.0 + 1e-8) * b.sigma + 1e-8) if b.sigma in hit else b
            for b in self.blocks))


def primitive_basis(model: StateSpaceModel, data: InterpolationData,
                    solver: ShiftedSolver) -> tuple:
    """Raw tangential Krylov columns of both sides, ``(V, W)``.

    Input side: (A - sigma_i E)^{-1} B r_i; output side the transposed dual
    with C^T l_i.  A chain of length q continues with v_{k+1} =
    (A - sigma E)^{-1} E v_k (transposed analogue on the output side), which
    realizes the Sylvester equation with the Jordan block in S.  A block
    that directly follows its exact conjugate takes the conjugated columns
    and costs no solve, only a counted request per side.  ``solver``, a
    :class:`ShiftedSolver` or :class:`~h2mor.linalg.ModalSolver` of ``model``,
    releases a shift's LU after the last block at it or its conjugate.
    """
    last = {_cache_key(b.sigma): i for i, b in enumerate(data.blocks)}
    V, W, prev = [], [], None
    for i, b in enumerate(data.blocks):
        if prev is not None and b.is_conjugate_of(prev):
            for cols, transposed in ((V, False), (W, True)):
                solver.count_request(b.sigma, transposed)
                cols.extend([c.conj() for c in cols[-b.length:]])
        else:
            V.extend(solver.chain(b.sigma, model.B @ b.right, b.length))
            W.extend(solver.chain(b.sigma, model.C.T @ b.left, b.length, transposed=True))
        if last[_cache_key(b.sigma)] == i:
            solver.release(b.sigma)
        prev = b
    return np.column_stack(V), np.column_stack(W)


def sylvester_residual(model: StateSpaceModel, basis: np.ndarray,
                       data: InterpolationData, side: str) -> float:
    """Relative residual of the defining Sylvester equation for one side."""
    S = data.S_matrix()
    if side == "input":
        ref = model.B @ data.R_matrix()
        res = model.A @ basis - model.E @ basis @ S - ref
    elif side == "output":
        ref = model.C.T @ data.L_matrix()
        res = model.A.T @ basis - model.E.T @ basis @ S - ref
    else:
        raise ValueError("side must be 'input' or 'output'")
    return relative(np.linalg.norm(res), np.linalg.norm(ref))


def hermite_reduce(model: StateSpaceModel, data: InterpolationData,
                   solver: ShiftedSolver | None = None):
    """Bitangential Hermite interpolant of ``model`` at ``data``.

    Builds both primitive bases, folds them to real orthonormal form, and
    projects.  Returns ``(rom, data)``, where ``data`` is the data actually
    interpolated: a singular shift is perturbed once ((1+1e-8)*sigma + 1e-8)
    before giving up.  Rank-deficient bases are trimmed jointly so V and W
    keep equal column counts.
    """
    if solver is None:
        solver = ShiftedSolver(model)
    data.validate(model.m, model.p)
    arrays, data = hermite_arrays(model, data, solver)
    return make_model(*arrays, model.D), data


def hermite_arrays(model: StateSpaceModel, data: InterpolationData, solver):
    """:func:`hermite_reduce` of already validated data, the reduced matrices as dense arrays.

    Returns ``((Er, Ar, Br, Cr), data)``; ``solver`` is a
    :class:`ShiftedSolver` or a :class:`~h2mor.linalg.ModalSolver` of ``model``.
    """
    for attempt in (0, 1):
        try:
            Vp, Wp = primitive_basis(model, data, solver)
            break
        except SingularShift as exc:
            if attempt:
                raise
            log.debug("shift %s hit the spectrum; retrying with perturbed data", exc.sigma)
            data = data.perturbed(exc.sigma)
    return project_real(model, Vp, Wp, data), data


def project_real(model: StateSpaceModel, Vp: np.ndarray, Wp: np.ndarray,
                 data: InterpolationData):
    """Fold both primitive bases to real orthonormal form and project.

    The bases are trimmed to their joint rank so V and W keep equal column
    counts.  Returns the projected matrices ``(Er, Ar, Br, Cr)`` as dense
    arrays.
    """
    V = orthonormalize_real(Vp, data)
    W = orthonormalize_real(Wp, data)
    k = min(V.shape[1], W.shape[1])
    if k < max(V.shape[1], W.shape[1]):
        log.debug("trimming projection bases to joint rank %d", k)
        V, W = V[:, :k], W[:, :k]
    return projected_arrays(model, V, W)


@dataclass(frozen=True)
class TripletResidual:
    sigma: complex
    rho_right: float
    rho_left: float
    rho_hermite: float

    @property
    def worst(self) -> float:
        return max(self.rho_right, self.rho_left, self.rho_hermite)


@dataclass(frozen=True)
class InterpolationReport:
    """Per-triplet relative interpolation residuals of a reduced model.

    ``full_lu`` is the number of full-order factorizations the check took;
    it is the check's own cost and never enters a run's :class:`CostCounters`.
    ``skipped_unstable`` marks an optimality check that left out unstable
    reduced poles; such a report never passes.
    """

    entries: tuple
    full_lu: int
    skipped_unstable: bool = False

    @property
    def max_residual(self) -> float:
        return max(e.worst for e in self.entries)

    def passed(self, tol: float) -> bool:
        return not self.skipped_unstable and self.max_residual < tol


def triplet_residuals(full: StateSpaceModel, rom: StateSpaceModel, s: complex,
                      right: np.ndarray, left: np.ndarray, solver: ShiftedSolver):
    """Relative residuals of the three bitangential Hermite conditions at s.

    Returns ``(rho_right, rho_left, rho_hermite)`` for G(s) r, l^T G(s) and
    l^T G'(s) r between the full and the reduced model.  The full model is
    solved through ``solver``, so one factorization at s serves G and G' and
    a conjugate node reuses it; the reduced model is evaluated from one
    dense LU of its matrices.
    """
    G, dG = _transfer_and_derivative(full, lambda rhs: solver.solve(s, rhs))
    Gr, dGr = _transfer_and_derivative(rom, _dense_shifted_solve(rom, s))
    return (relative(np.linalg.norm((G - Gr) @ right), np.linalg.norm(G @ right)),
            relative(np.linalg.norm(left @ (G - Gr)), np.linalg.norm(left @ G)),
            relative(abs(left @ (dG - dGr) @ right), abs(left @ dG @ right)))


def _dense_shifted_solve(model: StateSpaceModel, s: complex):
    """``rhs -> (A - sE)^{-1} rhs`` for a reduced-order model, from one dense LU."""
    E, A = model.dense()[:2]
    lu, piv = spla.lu_factor(A - s * E)
    if not np.all(np.diag(lu)):
        raise SingularShift(f"A - sigma E singular at sigma = {s}", sigma=s)
    return lambda rhs: spla.lu_solve((lu, piv), rhs)


def verify_tangential_interpolation(full: StateSpaceModel, rom: StateSpaceModel,
                                    data: InterpolationData,
                                    solver: ShiftedSolver | None = None) -> InterpolationReport:
    """Evaluate the three tangential conditions at every block's node.

    For chains only the order-0/1 conditions at the chain shift are checked
    here; higher moments have their own finite-difference tests.  The second
    node of a conjugate pair takes the first one's residuals, at no solve
    and no LU.  ``full_lu`` counts the LUs the check adds to ``solver`` (made
    when None), which releases each node's LU after its residuals unless it
    keeps them (a solver shared by several checks of ``full``).
    """
    if solver is None:
        solver = ShiftedSolver(full)
    lu0 = solver.lu_count
    entries = [None] * len(data.blocks)
    for group in data.conjugate_pairing():
        b = data.blocks[group[0]]
        rho = triplet_residuals(full, rom, b.sigma, b.right, b.left, solver)
        for i in group:
            entries[i] = TripletResidual(data.blocks[i].sigma, *rho)
            solver.count_request(data.blocks[i].sigma)
        solver.release(b.sigma)
    return InterpolationReport(tuple(entries), full_lu=solver.lu_count - lu0)
