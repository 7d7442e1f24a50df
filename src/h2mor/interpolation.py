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
from .linalg import ShiftedSolver, orthonormalize_real, relative
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

    def is_self_conjugate(self) -> bool:
        if abs(self.sigma.imag) > 1e-12 * (1.0 + abs(self.sigma)):
            return False
        for t in (self.right, self.left):
            nt = np.linalg.norm(t)
            if nt > 0 and np.linalg.norm(t.imag) > 1e-12 * nt:
                return False
        return True

    def is_conjugate_of(self, other: "InterpolationBlock") -> bool:
        if self.length != other.length:
            return False
        if abs(self.sigma - other.sigma.conjugate()) > 1e-9 * (1.0 + abs(self.sigma)):
            return False
        for a, b in ((self.right, other.right), (self.left, other.left)):
            if np.linalg.norm(a - b.conj()) > 1e-9 * max(np.linalg.norm(a), 1e-300):
                return False
        return True


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
    """Conjugate-closed interpolation triplets with Jordan-chain structure."""

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

    @classmethod
    def _with_pairing(cls, blocks, pairing) -> "InterpolationData":
        """Data whose maker already knows its conjugate grouping.

        ``pairing`` must be the grouping :meth:`conjugate_pairing` computes;
        it is stored instead of rebuilt from norm tests.
        """
        data = cls(blocks)
        data.__dict__["_pairing"] = tuple(pairing)
        return data

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

        A self-conjugate block gives ``(i,)``, a complex block and its
        conjugate partner ``(i, j)``: the format of
        :func:`~h2mor.linalg.conjugate_pairs`.  Raises
        :class:`NotConjugateClosed` when a complex block has no partner.
        The blocks never change, so the grouping is computed once.
        """
        return self._pairing

    @cached_property
    def _pairing(self) -> tuple:
        unused = set(range(len(self.blocks)))
        pairing = []
        for i, b in enumerate(self.blocks):
            if i not in unused:
                continue
            unused.discard(i)
            if b.is_self_conjugate():
                pairing.append((i,))
                continue
            partner = next((j for j in sorted(unused) if b.is_conjugate_of(self.blocks[j])), None)
            if partner is None:
                raise NotConjugateClosed(f"block at sigma = {b.sigma} has no conjugate partner")
            unused.discard(partner)
            pairing.append((i, partner))
        return tuple(pairing)

    def validate(self, m: int, p: int) -> None:
        """Check tangent dimensions against a model's m and p, and conjugate closure."""
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
        """Perturb every block at the given shift by (1 + 1e-8)*sigma + 1e-8.

        Conjugate partners are perturbed symmetrically so closure is kept.
        """
        def bump(s):
            return (1.0 + 1e-8) * s + 1e-8

        new = []
        for b in self.blocks:
            if abs(b.sigma - sigma) <= 1e-14 * (1.0 + abs(sigma)):
                new.append(replace(b, sigma=bump(b.sigma)))
            elif abs(b.sigma - np.conj(sigma)) <= 1e-14 * (1.0 + abs(sigma)):
                new.append(replace(b, sigma=np.conj(bump(np.conj(b.sigma)))))
            else:
                new.append(b)
        return InterpolationData(tuple(new))


def primitive_basis(model: StateSpaceModel, data: InterpolationData, side: str,
                    solver: ShiftedSolver) -> np.ndarray:
    """Raw tangential Krylov columns for one side.

    Input side: (A - sigma_i E)^{-1} B r_i; output side the transposed dual
    with C^T l_i.  A chain of length q continues with v_{k+1} =
    (A - sigma E)^{-1} E v_k (transposed analogue on the output side), which
    realizes the Sylvester equation with the Jordan block in S.  ``solver``
    is a :class:`ShiftedSolver` or a :class:`~h2mor.linalg.ModalSolver` of
    ``model``.
    """
    if side not in ("input", "output"):
        raise ValueError("side must be 'input' or 'output'")
    transposed = side == "output"
    cols = []
    for b in data.blocks:
        rhs = model.C.T @ b.left if transposed else model.B @ b.right
        cols.extend(solver.chain(b.sigma, rhs, b.length, transposed))
    return np.column_stack(cols)


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
            Vp = primitive_basis(model, data, "input", solver)
            Wp = primitive_basis(model, data, "output", solver)
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
    here; higher moments have their own finite-difference tests.  A
    conjugate pair of nodes shares one full-order LU, and ``full_lu`` counts
    the LUs the check adds to ``solver``.  Without a solver the check makes
    its own and holds one LU at a time; a given solver (shared by several
    checks of ``full``) keeps its factorizations for the caller to drop.
    """
    own = solver is None
    if own:
        solver = ShiftedSolver(full)
    lu0 = solver.lu_count
    entries = [None] * len(data.blocks)
    for group in data.conjugate_pairing():
        for i in group:
            b = data.blocks[i]
            rho = triplet_residuals(full, rom, b.sigma, b.right, b.left, solver)
            entries[i] = TripletResidual(b.sigma, *rho)
        if own:
            solver.drop_factorizations()
    return InterpolationReport(tuple(entries), full_lu=solver.lu_count - lu0)
