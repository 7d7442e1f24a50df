"""Sparse descriptor state-space models and their transfer-function kernels.

A model is the realization

    E x'(t) = A x(t) + B u(t),      y(t) = C x(t) + D u(t),

with real matrices, E and A sparse n-by-n (E nonsingular), B dense n-by-m,
C dense p-by-n, D dense p-by-m.  The transfer function is
G(s) = C (sE - A)^{-1} B + D.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from .errors import (
    DimensionMismatch,
    OrderTooLarge,
    RankDeficientProjection,
    SingularShift,
    StructurallySingularE,
)

#: Largest order for which dense kernels (eig, Lyapunov, pole/residue) are used.
DENSE_THRESHOLD = 2000


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Immutable descriptor realization (E, A, B, C, D).

    Construct through :func:`make_model`, which validates dimensions and
    normalizes storage (E, A sparse CSC; B, C, D dense read-only arrays).
    """

    E: sps.csc_matrix
    A: sps.csc_matrix
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @cached_property
    def ET(self) -> sps.csc_matrix:
        """E transposed, in CSC storage (built on first use)."""
        return self.E.T.tocsc()

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def dense(self):
        """(E, A, B, C, D) with E, A dense: the one place a model is densified."""
        if self.n > DENSE_THRESHOLD:
            raise OrderTooLarge(f"dense kernels limited to order {DENSE_THRESHOLD}, got {self.n}")
        return self.E.toarray(), self.A.toarray(), self.B, self.C, self.D

    def __repr__(self):
        return f"StateSpaceModel(n={self.n}, m={self.m}, p={self.p})"


def _to_sparse(M, name, square_of=None):
    if sps.issparse(M):
        S = M.tocsc()
        if np.iscomplexobj(S.data):
            raise DimensionMismatch(f"{name} must be real")
        S = S.astype(float)
    else:
        S = sps.csc_matrix(_to_dense(np.atleast_2d(M), name))
    if S.shape[0] != S.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {S.shape}")
    if square_of is not None and S.shape[0] != square_of:
        raise DimensionMismatch(f"{name} is {S.shape}, expected {square_of}x{square_of}")
    S.sort_indices()
    return S


def _to_dense(M, name, rows=None, as_row=False):
    arr = np.asarray(M)
    if np.iscomplexobj(arr):
        raise DimensionMismatch(f"{name} must be real")
    arr = arr.astype(float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if as_row else arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a matrix, got ndim={arr.ndim}")
    if rows is not None and arr.shape[0] != rows:
        raise DimensionMismatch(f"{name} has {arr.shape[0]} rows, expected {rows}")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def make_model(E, A, B, C, D=None) -> StateSpaceModel:
    """Validate and assemble a :class:`StateSpaceModel`.

    ``E=None`` means identity; ``D=None`` means zero feedthrough.  1-D ``B``
    (``C``) is interpreted as a single column (row).  E is rejected if it has
    a structurally zero row or column; full numerical singularity is only
    detected at the first factorization that touches it.
    """
    A = _to_sparse(A, "A")
    n = A.shape[0]
    E = sps.identity(n, format="csc") if E is None else _to_sparse(E, "E", square_of=n)
    B = _to_dense(B, "B", rows=n)
    C = _to_dense(C, "C", as_row=True)
    if C.shape[1] != n:
        raise DimensionMismatch(f"C has {C.shape[1]} columns, expected {n}")
    m, p = B.shape[1], C.shape[0]
    if D is None:
        D = np.zeros((p, m))
    D = _to_dense(np.atleast_2d(D), "D")
    if D.shape != (p, m):
        raise DimensionMismatch(f"D is {D.shape}, expected {(p, m)}")

    col_nnz = np.diff(E.indptr)
    row_nnz = np.bincount(E.indices, minlength=n)
    if np.any(col_nnz == 0) or np.any(row_nnz == 0):
        raise StructurallySingularE("E has a structurally zero row or column")
    return StateSpaceModel(E=E, A=A, B=B, C=C, D=D)


def _shifted_lu(model, s):
    M = (s * model.E - model.A).tocsc()
    try:
        return splu(M)
    except RuntimeError as exc:
        raise SingularShift(f"sE - A is singular at s = {s}", sigma=s) from exc


def eval_transfer(model: StateSpaceModel, s: complex) -> np.ndarray:
    """Evaluate G(s) = C (sE - A)^{-1} B + D at one complex point.

    Uses one sparse factorization of (sE - A) and one solve per input
    column; never forms a dense inverse.
    """
    lu = _shifted_lu(model, complex(s))
    X = lu.solve(model.B.astype(complex))
    return model.C @ X + model.D


def eval_transfer_derivative(model: StateSpaceModel, s: complex) -> np.ndarray:
    """Evaluate G'(s) = -C (sE - A)^{-1} E (sE - A)^{-1} B."""
    lu = _shifted_lu(model, complex(s))
    return _transfer_and_derivative(model, lambda rhs: -lu.solve(rhs))[1]


def _transfer_and_derivative(model: StateSpaceModel, solve):
    """G(s) and G'(s) from ``solve(rhs) = (A - sE)^{-1} rhs``, one factorization for both.

    With X = (sE - A)^{-1} B: G(s) = C X + D and G'(s) = -C (sE - A)^{-1} E X.
    """
    X = -solve(model.B)
    return model.C @ X + model.D, model.C @ solve(model.E @ X)


def project(model: StateSpaceModel, V: np.ndarray, W: np.ndarray) -> StateSpaceModel:
    """Petrov-Galerkin projection: (W^T E V, W^T A V, W^T B, C V, D).

    The feedthrough is carried over unchanged (D_r = D).  Raises
    :class:`RankDeficientProjection` when W^T E V is numerically singular.
    """
    return make_model(*projected_arrays(model, V, W), model.D)


def projected_arrays(model: StateSpaceModel, V: np.ndarray, W: np.ndarray):
    """The matrices of :func:`project` as dense arrays ``(Er, Ar, Br, Cr)``, same checks."""
    V = np.asarray(V, dtype=float)
    W = np.asarray(W, dtype=float)
    if V.shape != W.shape or V.shape[0] != model.n:
        raise DimensionMismatch(
            f"projection bases must both be {model.n}xr, got {V.shape} and {W.shape}"
        )
    from .linalg import _singular_values

    Er = W.T @ (model.E @ V)
    sv = _singular_values(Er, RankDeficientProjection)
    if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
        raise RankDeficientProjection(
            f"W^T E V numerically singular (smin/smax = {sv[-1]:.2e}/{sv[0]:.2e})"
        )
    return Er, W.T @ (model.A @ V), W.T @ model.B, model.C @ V


@dataclass(frozen=True, eq=False)
class PoleResidueForm:
    """Partial-fraction data of a small model: G(s) - D = sum_i c_i b_i^T / (s - lambda_i).

    Row i of ``input_residues`` is the row vector b_i^T = y_i^H B; row i of
    ``output_residues`` is c_i^T with c_i = C x_i, where (x_i, y_i) are right/left
    eigenvectors of (A, E) normalized so that Y^H E X = I.
    """

    poles: np.ndarray
    input_residues: np.ndarray
    output_residues: np.ndarray

    @property
    def order(self) -> int:
        return len(self.poles)

    def transfer_at(self, s: complex) -> np.ndarray:
        """Reconstruct G(s) - D from the partial fractions."""
        p = self.output_residues.shape[1]
        m = self.input_residues.shape[1]
        G = np.zeros((p, m), dtype=complex)
        for lam, b, c in zip(self.poles, self.input_residues, self.output_residues):
            G += np.outer(c, b) / (s - lam)
        return G


def pole_residue(model: StateSpaceModel) -> PoleResidueForm:
    """Generalized eigendecomposition of (A, E) in pole/residue form.

    Only for dense-convertible models (order <= DENSE_THRESHOLD) with simple
    eigenvalues; higher multiplicities are out of scope.
    """
    return pole_residue_arrays(*model.dense()[:4])


def pole_residue_arrays(E: np.ndarray, A: np.ndarray, B: np.ndarray,
                        C: np.ndarray) -> PoleResidueForm:
    """:func:`pole_residue` of the model with dense matrices (E, A, B, C)."""
    from .linalg import generalized_eig

    lam, X, Y = generalized_eig(A, E)
    b_rows = Y.conj().T @ B              # row i = y_i^H B
    c_rows = (C @ X).T                   # row i = (C x_i)^T
    return PoleResidueForm(poles=lam, input_residues=b_rows, output_residues=c_rows)
