"""Shifted sparse factorizations with cost accounting, plus dense kernels.

The dense kernels (generalized eigensolver, generalized Lyapunov, stable-part
extraction) are only meant for reduced/surrogate orders, guarded by
``DENSE_THRESHOLD``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from .errors import (
    DefectiveSpectrum,
    OrderTooLarge,
    RankCollapse,
    SingularEr,
    SingularShift,
    StructurallySingularE,
    UnstablePencil,
)
from .model import DENSE_THRESHOLD, StateSpaceModel, make_model, pole_residue

log = logging.getLogger(__name__)

#: Pivoted-QR diagonal entries below this fraction of the leading one count
#: as dependent columns.
QR_DROP_TOL = 1e-12


@dataclass
class CostCounters:
    """Factorization and iteration counters for one reduction run.

    ``full_lu`` counts factorizations at the full order n, ``surrogate_lu`` at
    the model-function order.  The ``*_norecycle`` variants count what the run
    would have cost without sharing factorizations between conjugate shifts
    and between direct/transposed solves.
    """

    full_lu: int = 0
    full_lu_norecycle: int = 0
    surrogate_lu: int = 0
    surrogate_lu_norecycle: int = 0
    irka_steps_total: int = 0
    wall_times: dict = field(default_factory=dict)

    def add_time(self, phase: str, seconds: float) -> None:
        self.wall_times[phase] = self.wall_times.get(phase, 0.0) + seconds

    @property
    def total_time(self) -> float:
        return sum(self.wall_times.values())


class ShiftedSolver:
    """Factorization session for (A - sigma E) x = b over one model.

    Factorizations are cached by exact shift value.  A conjugate pair of
    shifts shares one LU (solutions for the pair are exact conjugates of each
    other), and direct and transposed solves at the same shift share it too.
    ``lu_count`` increments exactly once per factorization actually computed;
    ``lu_count_norecycle`` counts distinct (shift, mode) requests, i.e. the
    worst-case number of factorizations without any recycling.

    Every pencil A - sigma E lives on the joint sparsity pattern of A and E,
    so one sparse matrix on that pattern serves all shifts: each shift
    rewrites its values in one array operation.  One fill-reducing column
    ordering serves all shifts too.  The first factorization chooses it
    (minimum degree on the pattern of M^T + M, which suits the structurally
    symmetric pencils of discretized models), and the columns of A and E are
    then put in that order, once, so every later shift factorizes the
    permuted pencil without reordering.  ``solve`` maps the permutation
    back.  The ordering outlives :meth:`drop_factorizations`.
    """

    def __init__(self, model: StateSpaceModel):
        self.model = model
        self.lu_count = 0
        self.lu_count_norecycle = 0
        self._cache = {}
        self._requested = set()
        self._pencil = None       # (M, a, e): M holds a - sigma e, see _pencil_matrix
        self._columns = None      # column order chosen by the first factorization

    def solve(self, sigma: complex, rhs: np.ndarray, transposed: bool = False) -> np.ndarray:
        """Return (A - sigma E)^{-1} rhs, or the transposed solve."""
        sigma = complex(sigma)
        flip = sigma.imag < 0.0
        key = sigma.conjugate() if flip else sigma
        entry = self._cache.get(key)
        if entry is None:
            entry = self._factorize(key)
            self._cache[key] = entry
            self.lu_count += 1
        if (sigma, transposed) not in self._requested:
            self._requested.add((sigma, transposed))
            self.lu_count_norecycle += 1

        rhs = np.asarray(rhs, dtype=complex)
        single = rhs.ndim == 1
        R = rhs.reshape(-1, 1) if single else rhs
        if flip:
            R = R.conj()
        lu, columns = entry
        if columns is None:
            X = lu.solve(R, trans="T" if transposed else "N")
        elif transposed:
            X = lu.solve(R[columns], trans="T")      # (M P)^T x = P^T b
        else:
            X = np.empty_like(R)
            X[columns] = lu.solve(R)                 # M P y = b, x = P y
        if flip:
            X = X.conj()
        return X[:, 0] if single else X

    def _factorize(self, sigma):
        """LU of A - sigma E, and the column order it was taken in (None: the model's own)."""
        if self._columns is None:
            self._pencil = _pencil_matrix(*_joint_pattern(self.model.A, self.model.E))
            lu = self._splu(sigma, "MMD_AT_PLUS_A")
            self._columns = np.argsort(lu.perm_c)
            M, a, e = self._pencil
            self._pencil = _pencil_matrix(*_permute_columns(M.indptr, M.indices, a, e,
                                                            self._columns))
            return lu, None
        return self._splu(sigma, "NATURAL"), self._columns

    def _splu(self, sigma, ordering):
        M, a, e = self._pencil
        np.subtract(a, sigma * e, out=M.data)
        try:
            return splu(M, permc_spec=ordering)
        except RuntimeError as exc:
            raise SingularShift(f"A - sigma E singular at sigma = {sigma}", sigma=sigma) from exc

    def drop_factorizations(self) -> None:
        """Release cached factorizations; all counters keep their values."""
        self._cache.clear()


def _joint_pattern(A, E):
    """A and E stored on the union of their CSC patterns: ``(indptr, indices, a, e)``.

    A - sigma E is then ``a - sigma * e`` on that pattern at every shift.  An
    entry of only one of the two holds an explicit zero in the other and stays
    in the pattern even where the pencil's value is zero (sigma = 0).
    """
    n = A.shape[0]
    keys = np.concatenate([np.repeat(np.arange(n) * n, np.diff(M.indptr)) + M.indices
                           for M in (A, E)])
    order = np.argsort(keys, kind="stable")     # merges the two sorted runs
    ordered = keys[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    slot = np.empty_like(order)
    slot[order] = np.cumsum(first) - 1
    joint = ordered[first]
    a = np.bincount(slot[:A.nnz], weights=A.data, minlength=joint.size)
    e = np.bincount(slot[A.nnz:], weights=E.data, minlength=joint.size)
    return np.searchsorted(joint, np.arange(n + 1) * n), joint % n, a, e


def _pencil_matrix(indptr, indices, a, e):
    """``(M, a, e)`` with M a complex CSC matrix on the pattern, values unset.

    A shift writes ``a - sigma * e`` into ``M.data``.  SuperLU keeps no
    reference to the matrix it factorizes, so the LUs of earlier shifts stay
    valid.
    """
    M = sps.csc_matrix((np.empty(a.size, dtype=complex), indices, indptr),
                       shape=(indptr.size - 1,) * 2)
    return M, a, e


def _permute_columns(indptr, indices, a, e, columns):
    """The joint pattern with column j taken from column ``columns[j]``."""
    counts = np.diff(indptr)[columns]
    new_indptr = np.concatenate(([0], np.cumsum(counts)))
    take = np.arange(new_indptr[-1]) + np.repeat(indptr[columns] - new_indptr[:-1], counts)
    return new_indptr, indices[take], a[take], e[take]


def relative(num: float, den: float) -> float:
    """``num / den``, or ``num`` itself when the reference ``den`` is zero."""
    return num / den if den > 0 else num


def conjugate_pairs(lam: np.ndarray, order) -> list:
    """Group a real pencil's eigenvalues into conjugate-closed sets.

    Visits ``lam`` in ``order``: a real value (|Im| <= 1e-10 (1 + |lambda|))
    becomes ``(i,)``; a complex one ``(i, j)`` with ``j`` its nearest
    unvisited conjugate, which must lie within 1e-8 (1 + |lambda|).  Groups
    come out in visiting order; raises :class:`DefectiveSpectrum` when a
    complex value has no partner.
    """
    groups = []
    used = np.zeros(len(lam), dtype=bool)
    for i in order:
        if used[i]:
            continue
        used[i] = True
        li = lam[i]
        if abs(li.imag) <= 1e-10 * (1.0 + abs(li)):
            groups.append((i,))
            continue
        cand = [j for j in range(len(lam)) if not used[j]]
        j = min(cand, key=lambda j: abs(lam[j] - li.conjugate()), default=None)
        if j is None or abs(lam[j] - li.conjugate()) > 1e-8 * (1.0 + abs(li)):
            raise DefectiveSpectrum(f"no conjugate partner for eigenvalue {li}")
        used[j] = True
        groups.append((i, j))
    return groups


def generalized_eig(Ar: np.ndarray, Er: np.ndarray):
    """Dense generalized eigendecomposition with normalized left eigenvectors.

    Returns ``(lam, X, Y)`` with ``Ar X = Er X diag(lam)``,
    ``Y^H Ar = diag(lam) Y^H Er`` and ``Y^H Er X = I``.
    """
    Ar = np.atleast_2d(np.asarray(Ar))
    Er = np.atleast_2d(np.asarray(Er))
    r = Ar.shape[0]
    if Ar.shape != Er.shape or Ar.shape[1] != r:
        raise SingularEr(f"need square matrices of equal size, got {Ar.shape}, {Er.shape}")
    if r > DENSE_THRESHOLD:
        raise OrderTooLarge(f"dense eigensolver limited to order {DENSE_THRESHOLD}, got {r}")
    sv = np.linalg.svd(Er, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < 1e-14 * sv[0]:
        raise SingularEr("Er is numerically singular")

    lam, Y, X = spla.eig(Ar, Er, left=True, right=True)
    if not np.all(np.isfinite(lam)):
        raise SingularEr("pencil has infinite eigenvalues")
    if np.linalg.cond(X) > 1e12:
        raise DefectiveSpectrum("right eigenvector matrix has condition number > 1e12")
    d = np.einsum("ij,ij->j", Y.conj(), Er @ X)
    if np.any(np.abs(d) < 1e-14 * np.abs(lam).max(initial=1.0)):
        raise DefectiveSpectrum("left/right eigenvectors nearly E-orthogonal (defective pencil)")
    Y = Y / d.conj()
    return lam, X, Y


def orthonormalize_real(Vprim: np.ndarray, data) -> np.ndarray:
    """Fold a conjugate-closed complex basis into a real orthonormal one.

    Conjugate column pairs are replaced by (real part, imaginary part), then a
    column-pivoted QR orthonormalizes.  Columns below ``QR_DROP_TOL`` times
    the leading diagonal of R are dropped (logged); the result spans the same
    real subspace as the primitive basis.
    """
    M = realify_columns(Vprim, data)
    Q, R, _ = spla.qr(M, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        raise RankCollapse("basis has numerical rank zero")
    rank = int(np.sum(diag > QR_DROP_TOL * diag[0]))
    if rank < M.shape[1]:
        log.debug("orthonormalization dropped %d dependent column(s) (rank %d of %d)",
                  M.shape[1] - rank, rank, M.shape[1])
    return Q[:, :rank]


def realify_columns(Vprim: np.ndarray, data) -> np.ndarray:
    """Replace conjugate column pairs by real/imaginary parts (span preserved).

    For a conjugate pair ``(i, j)`` of chains, chain i's columns give the real
    parts and chain j's slots take the imaginary parts.
    """
    Vprim = np.asarray(Vprim)
    offsets = data.column_offsets
    out = np.empty(Vprim.shape, dtype=float)
    for group in data.conjugate_pairing():
        cols = [slice(offsets[i], offsets[i] + data.blocks[i].length) for i in group]
        out[:, cols[0]] = Vprim[:, cols[0]].real
        if len(group) == 2:
            out[:, cols[1]] = Vprim[:, cols[0]].imag
    return out


def pencil_eigenvalues(model: StateSpaceModel) -> np.ndarray:
    """Generalized eigenvalues of (A, E) for a dense-convertible model."""
    if model.n > DENSE_THRESHOLD:
        raise OrderTooLarge(f"dense eigenvalues limited to order {DENSE_THRESHOLD}, got {model.n}")
    lam = spla.eigvals(model.A.toarray(), model.E.toarray())
    if not np.all(np.isfinite(lam)):
        raise StructurallySingularE("E is numerically singular (infinite eigenvalues)")
    return lam


def is_stable(model: StateSpaceModel) -> bool:
    return bool(np.max(pencil_eigenvalues(model).real) < 0.0)


def solve_generalized_lyapunov(A, E, B) -> np.ndarray:
    """Solve A P E^T + E P A^T + B B^T = 0 for symmetric P >= 0.

    The pencil (A, E) must be stable.  E is factored once to transform to a
    standard continuous Lyapunov equation, solved by the Schur (Bartels-
    Stewart) method.  Dense path only.
    """
    n = np.shape(A)[0]
    if n > DENSE_THRESHOLD:
        raise OrderTooLarge(f"dense Lyapunov limited to order {DENSE_THRESHOLD}, got {n}")
    Ad = A.toarray() if sps.issparse(A) else np.atleast_2d(np.asarray(A, dtype=float))
    Ed = E.toarray() if sps.issparse(E) else np.atleast_2d(np.asarray(E, dtype=float))
    Bd = np.asarray(B, dtype=float)
    if Bd.ndim == 1:
        Bd = Bd.reshape(-1, 1)

    lam = spla.eigvals(Ad, Ed)
    if not np.all(np.isfinite(lam)):
        raise StructurallySingularE("E is numerically singular")
    if np.max(lam.real) >= 0.0:
        raise UnstablePencil(f"pencil not stable: max Re(lambda) = {np.max(lam.real):.3e}")

    F = spla.solve(Ed, Ad)
    Q = spla.solve(Ed, Bd)
    P = spla.solve_continuous_lyapunov(F, -Q @ Q.T)
    return (P + P.T) / 2.0


def stable_part(model: StateSpaceModel) -> StateSpaceModel:
    """Discard modes with Re(lambda) >= 0; returns a real model of the stable modes.

    The input must be dense-convertible with simple eigenvalues.  A fully
    stable model is returned unchanged.
    """
    pr = pole_residue(model)
    lam, b_rows, c_rows = pr.poles, pr.input_residues, pr.output_residues
    stable = lam.real < 0.0
    if np.all(stable):
        return model

    blocks_a, rows_b, cols_c = [], [], []
    for group in conjugate_pairs(lam, np.lexsort((lam.imag, lam.real))):
        i = group[0]
        if not stable[i]:
            continue
        li = lam[i]
        if len(group) == 1:
            blocks_a.append(np.array([[li.real]]))
            rows_b.append(b_rows[i].real.reshape(1, -1))
            cols_c.append(c_rows[i].real.reshape(-1, 1))
            continue
        a, b = li.real, li.imag
        blocks_a.append(np.array([[a, -b], [b, a]]))
        bt = b_rows[i]
        c = c_rows[i]
        rows_b.append(np.vstack([bt.real, bt.imag]))
        cols_c.append(np.column_stack([2.0 * c.real, -2.0 * c.imag]))

    if not blocks_a:
        raise UnstablePencil("model has no stable modes")
    Ak = spla.block_diag(*blocks_a)
    Bk = np.vstack(rows_b)
    Ck = np.hstack(cols_c)
    return make_model(None, sps.csc_matrix(Ak), Bk, Ck, model.D)
