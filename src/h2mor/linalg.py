"""Shifted sparse factorizations with cost accounting, plus dense kernels.

The dense kernels (generalized eigensolver, generalized Lyapunov, stable-part
extraction) are only meant for reduced/surrogate orders, guarded by
``DENSE_THRESHOLD``.
"""

from __future__ import annotations

import logging
import os
import threading
import traceback
import warnings
import weakref
from concurrent.futures import wait
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sps
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs
from scipy.sparse.linalg import splu

from .errors import (
    DefectiveSpectrum,
    DimensionMismatch,
    NonFiniteMatrix,
    OrderTooLarge,
    RankCollapse,
    SingularEr,
    SingularShift,
    StructurallySingularE,
    UnstablePencil,
)
from .model import DENSE_THRESHOLD, StateSpaceModel, project

log = logging.getLogger(__name__)

#: Pivoted-QR diagonal entries below this fraction of the leading one count
#: as dependent columns.
QR_DROP_TOL = 1e-12

#: Optimal LAPACK workspace sizes by (routine, argument shape).
_LWORK = {}

#: Largest condition number of the right eigenvector matrix X that
#: :func:`generalized_eig` accepts.  Residues, modal solves and the IRKA
#: update read the pencil through X and Y and lose accuracy with cond(X): a
#: rotated Jordan block of order 2 (cond(X) = 5e7) makes them 4-16 % wrong.
#: The benchmark's surrogates, IRKA steps and reduced models stay below 350,
#: and the full models that ``init="eigs"`` reads stay below 5e3
#: (convection-diffusion up to n = 1936).
EIG_COND_LIMIT = 1e4

#: Column ordering of a model's first factorization; every later one, in any
#: solver of the model, factorizes the pencil permuted into it with ``NATURAL``.
SHIFTED_ORDERING = "MMD_AT_PLUS_A"

#: Per model (dropped with it): the column order of its first factorization and
#: the joint pattern of A and E permuted into it, ``(columns, (indptr, indices, a, e))``.
_ORDERINGS = weakref.WeakKeyDictionary()

#: SuperLU settings for every factorization of a model above
#: ``DENSE_THRESHOLD``: one-column panels and no relaxed supernodes.  On the
#: MMD-ordered pencils of 2-D grid models (n = 3600 to 10^4) they cut an LU's
#: time by about a third and leave pivots, fill and solve times as they are.
#: Smaller models keep SuperLU's defaults: the roundoff these settings move
#: turns one small CIRKA run (perfbench dense-batch, model 504) from converged
#: into a direct-IRKA fallback.
LARGE_SPLU_OPTIONS = {"panel_size": 1, "relax": 1}

#: Usable CPUs: the most shifts :func:`for_each_shift` factorizes at once.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

#: The threads of :func:`for_each_shift`, started on its first pooled batch.
_POOL = None
_POOL_LOCK = threading.Lock()


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
    :meth:`release` frees a shift's LU once its caller is done with it, unless the
    owner made the solver with ``keep_factorizations`` to return to old shifts later.
    ``lu_count`` increments exactly once per factorization actually computed;
    ``lu_count_norecycle`` counts distinct (shift, mode) requests, i.e. the
    worst-case number of factorizations without any recycling.

    Every pencil A - sigma E lives on the joint sparsity pattern of A and E,
    so one sparse matrix on that pattern serves all shifts: each shift
    rewrites its values in one array operation.  One fill-reducing column
    ordering serves all shifts and all solvers of a model.  The model's first
    factorization chooses it (minimum degree on the pattern of M^T + M,
    which suits the structurally symmetric pencils of discretized models),
    and the columns of A and E are then put in that order, once per model,
    so every later factorization takes the permuted pencil without
    reordering.  ``solve`` maps the permutation back, into C order on every
    path.  Models above ``DENSE_THRESHOLD`` use :data:`LARGE_SPLU_OPTIONS`.

    A solver serves one thread at a time.  :func:`for_each_shift` spreads a
    batch of shifts over fresh solvers of the model, one per shift and
    thread, so every LU is made and freed by one thread.
    """

    def __init__(self, model: StateSpaceModel, keep_factorizations: bool = False):
        self.model = model
        self.keep_factorizations = keep_factorizations
        self.lu_count = 0
        self.lu_count_norecycle = 0
        self._cache = {}
        self._dropped = {}        # released once the next factorization exists
        self._requested = set()
        self._pencil = None       # (M, a, e): M holds a - sigma e, see _pencil_matrix
        self._columns = None      # column order chosen by the model's first factorization

    def holds(self, sigma: complex) -> bool:
        """Whether a factorization that serves ``sigma`` is cached."""
        return _cache_key(sigma) in self._cache

    def solve(self, sigma: complex, rhs: np.ndarray, transposed: bool = False) -> np.ndarray:
        """Return (A - sigma E)^{-1} rhs, or the transposed solve."""
        sigma = complex(sigma)
        flip = sigma.imag < 0.0
        key = _cache_key(sigma)
        entry = self._cache.get(key)
        if entry is None:
            entry = self._factorize(key)
            self._cache[key] = entry
            self._dropped = {}
            self.lu_count += 1
        self.count_request(sigma, transposed)

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
        return X[:, 0] if single else np.ascontiguousarray(X)

    def count_request(self, sigma: complex, transposed: bool = False) -> None:
        """Count a (shift, mode) request in ``lu_count_norecycle``, as :meth:`solve` does."""
        request = (complex(sigma), transposed)
        self.lu_count_norecycle += request not in self._requested
        self._requested.add(request)

    def _factorize(self, sigma):
        """LU of A - sigma E, and the column order it was taken in (None: the model's own)."""
        if self._pencil is None and self.model in _ORDERINGS:
            self._columns, pattern = _ORDERINGS[self.model]
            self._pencil = _pencil_matrix(*pattern)
        if self._columns is None:
            self._pencil = _pencil_matrix(*_joint_pattern(self.model.A, self.model.E))
            lu = self._splu(sigma, SHIFTED_ORDERING)
            columns = np.argsort(lu.perm_c)
            M, a, e = self._pencil
            _ORDERINGS[self.model] = columns, _permute_columns(M.indptr, M.indices, a, e, columns)
            self._pencil = None       # the next factorization takes the permuted pencil
            return lu, None
        return self._splu(sigma, "NATURAL"), self._columns

    def _splu(self, sigma, ordering):
        M, a, e = self._pencil
        np.subtract(a, sigma * e, out=M.data)
        options = LARGE_SPLU_OPTIONS if self.model.n > DENSE_THRESHOLD else {}
        try:
            return splu(M, permc_spec=ordering, **options)
        except RuntimeError as exc:
            raise SingularShift(f"A - sigma E singular at sigma = {sigma}", sigma=sigma) from exc

    def chain(self, sigma: complex, rhs: np.ndarray, length: int,
              transposed: bool = False) -> list:
        """The columns of a Jordan chain of ``length`` at ``sigma``.

        v_1 = (A - sigma E)^{-1} rhs and v_{k+1} = (A - sigma E)^{-1} E v_k;
        the transposed chain solves with the transposed pencil and E^T.
        """
        E = self.model.ET if transposed else self.model.E
        cols = [self.solve(sigma, rhs, transposed)]
        for _ in range(length - 1):
            cols.append(self.solve(sigma, E @ cols[-1], transposed))
        return cols

    def release(self, sigma: complex) -> None:
        """Release the LU serving ``sigma`` as :meth:`drop_factorizations` does, unless kept."""
        if not self.keep_factorizations and self.holds(sigma):
            self._dropped[_cache_key(sigma)] = self._cache.pop(_cache_key(sigma))

    def drop_factorizations(self) -> None:
        """Release cached factorizations; all counters keep their values.

        They are freed once the next factorization has been made.  Freed at
        once, their memory lies at the top of the heap, the allocator gives
        it back to the operating system, and the next factorization faults
        it in again: on n = 3600 IRKA runs that tripled the page faults.
        """
        self._dropped, self._cache = {**self._dropped, **self._cache}, {}


class ModalSolver:
    """Shifted solves of a small model through one generalized eigendecomposition.

    With A X = E X diag(lambda), Y^H A = diag(lambda) Y^H E and Y^H E X = I,
    (A - sigma E)^{-1} = X (Lambda - sigma)^{-1} Y^H and the transposed
    inverse is conj(Y) (Lambda - sigma)^{-1} X^T.  A chain step
    (A - sigma E)^{-1} E is one more division by (Lambda - sigma), because
    Y^H E X = I.  Nothing is factorized, so ``lu_count`` and
    ``lu_count_norecycle`` stay 0; otherwise the interface is
    :class:`ShiftedSolver`'s.  A shift is singular only when some
    lambda_k - sigma is exactly zero, as a pivot is for SuperLU.

    Construction raises :class:`OrderTooLarge` above ``DENSE_THRESHOLD`` and
    otherwise only what :func:`generalized_eig` raises for a pencil without
    a usable decomposition (:class:`SingularEr`, :class:`DefectiveSpectrum`).
    """

    lu_count = 0
    lu_count_norecycle = 0

    def __init__(self, model: StateSpaceModel):
        E, A = model.dense()[:2]
        lam, X, Y = generalized_eig(A, E)
        self._lam = lam
        # (into modal coordinates, back to states) for direct and transposed solves
        self._maps = {False: (Y.conj().T, X), True: (X.T, Y.conj())}

    def solve(self, sigma: complex, rhs: np.ndarray, transposed: bool = False) -> np.ndarray:
        """Return (A - sigma E)^{-1} rhs, or the transposed solve."""
        return self.chain(sigma, rhs, 1, transposed)[0]

    def chain(self, sigma: complex, rhs: np.ndarray, length: int,
              transposed: bool = False) -> list:
        """The columns :meth:`ShiftedSolver.chain` gives, one division per step."""
        d = self._lam - complex(sigma)
        if not d.all():
            raise SingularShift(f"A - sigma E singular at sigma = {sigma}", sigma=sigma)
        into, back = self._maps[transposed]
        z = into @ rhs
        if z.ndim == 2:
            d = d[:, None]
        cols = []
        for _ in range(length):
            z = z / d
            cols.append(back @ z)
        return cols

    def count_request(self, sigma: complex, transposed: bool = False) -> None:
        """Nothing is factorized, so nothing is counted."""

    def release(self, sigma: complex) -> None:
        """Nothing to release: the eigendecomposition serves every shift."""

    def drop_factorizations(self) -> None:
        """Nothing to release: the eigendecomposition serves every shift."""


def for_each_shift(solver, sigmas, work) -> list:
    """``work(sigma, s)`` once per distinct shift of ``sigmas``; the results in batch order.

    A shift and its conjugate are one shift, passed as the first of them in
    ``sigmas``; ``s`` serves it, and ``work`` solves at no other shift.  The
    shifted systems do not depend on each other, so a batch of a
    :class:`ShiftedSolver` above ``DENSE_THRESHOLD`` that does not keep its
    factorizations runs on up to ``_WORKERS`` threads (the usable CPUs).
    Each call there gets a fresh solver of the model, which factorizes,
    solves and is dropped inside the call: SuperLU leaks an LU that is freed
    on a thread other than the one that made it.  Such a solver takes the
    model's column ordering, so it does the arithmetic the caller's solver
    would do; the caller's solver adds in its ``lu_count`` and requests.
    Every other batch runs on ``solver`` itself, one shift after the other,
    releasing each shift's LU after its call: a batch of one shift, of a
    small model, of a solver that keeps its factorizations or already holds
    one of the shifts, of any other class (:class:`ModalSolver`, a
    subclass), and the first shift of a model whose ordering is not chosen
    yet.

    An exception leaves for the first shift in batch order whose call
    raised, after every call has ended, and ``solver`` counts what the
    calls up to that one counted: what running the batch in order counts.
    """
    firsts = {}
    for sigma in map(complex, sigmas):
        firsts.setdefault(_cache_key(sigma), sigma)
    shifts = list(firsts.values())
    inline = len(shifts)
    if (_WORKERS > 1 and inline > 1 and type(solver) is ShiftedSolver
            and solver.model.n > DENSE_THRESHOLD and not solver.keep_factorizations
            and not any(map(solver.holds, shifts))):
        inline = int(solver.model not in _ORDERINGS)
    results = []
    for sigma in shifts[:inline]:
        results.append(work(sigma, solver))
        solver.release(sigma)
    if inline < len(shifts):
        results += _pooled(solver, shifts[inline:], work)
    return results


def _pooled(solver, shifts, work) -> list:
    """:func:`for_each_shift`'s calls at ``shifts`` on the pool, one fresh solver each."""
    global _POOL
    model = solver.model
    model.ET                    # built once, here, not by every call that needs it
    solver._dropped = {}        # freed on the thread that made them

    def task(sigma):
        s = ShiftedSolver(model)
        try:
            out = work(sigma, s)
        except Exception as exc:    # raised on the calling thread by for_each_shift
            _clear_frames(exc)      # a frame of work must not keep s alive
            out = exc
        counts = s.lu_count, s._requested
        del s                       # its LU is freed here, on the thread that made it
        return out, counts

    with _POOL_LOCK:
        if _POOL is None:
            # loaded here: a process that never pools shifts does not import it
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="h2mor-shift")
        pool = _POOL
    futures = [pool.submit(task, sigma) for sigma in shifts]
    results = []
    try:
        for future in futures:
            out, (lu_count, requested) = future.result()
            solver.lu_count += lu_count
            for request in requested:
                solver.count_request(*request)
            if isinstance(out, Exception):
                raise out
            results.append(out)
    finally:
        for future in futures:
            future.cancel()
        wait(futures)
    return results


def _clear_frames(exc: BaseException) -> None:
    """Drop the locals of the frames in the tracebacks of ``exc`` and of its causes."""
    chain = [exc]
    for e in chain:
        traceback.clear_frames(e.__traceback__)
        chain += [c for c in (e.__cause__, e.__context__) if c is not None and c not in chain]


def _forget_pool() -> None:
    """A forked process has none of its parent's threads; it starts a pool of its own."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _cache_key(sigma: complex) -> complex:
    """The shift whose factorization serves ``sigma``: it or its conjugate, Im >= 0."""
    return sigma.conjugate() if sigma.imag < 0.0 else sigma


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
    """Group a real pencil's eigenvalues into conjugate pairs and real values.

    ?ggev's layout (:func:`_pair_starts`) says which entries pair up, so
    ``lam`` must come in the order of :func:`generalized_eig` and
    :func:`~h2mor.model.pole_residue`.  Visits ``lam`` in ``order``: a real
    value becomes ``(i,)``, a pair ``(i, j)`` with ``j`` the neighbour of
    ``i``; groups come out in visiting order.  Raises
    :class:`DefectiveSpectrum` unless each pair holds Im > 0 and then Im < 0
    and every other entry Im == 0.
    """
    imag = lam.imag.tolist()
    partner = list(range(len(imag) + 1))
    for i in _pair_starts(imag):
        partner[i], partner[i + 1] = i + 1, i
    imag.append(0.0)            # a pair starting at the last entry fails the check
    groups = []
    for i in np.asarray(order).tolist():
        j = partner[i]
        if j is None:           # grouped with an earlier visit
            continue
        lo, hi = (i, j) if i < j else (j, i)
        if partner[j] != i or not (imag[lo] > 0.0 > imag[hi] if lo < hi else imag[i] == 0.0):
            raise DefectiveSpectrum(f"eigenvalue {lam[i]} is not in ?ggev's pair layout")
        partner[i] = partner[j] = None
        groups.append((i,) if i == j else (i, j))
    return groups


def generalized_eig(Ar: np.ndarray, Er: np.ndarray):
    """Dense generalized eigendecomposition with normalized left eigenvectors.

    Returns ``(lam, X, Y)`` with ``Ar X = Er X diag(lam)``,
    ``Y^H Ar = diag(lam) Y^H Er`` and ``Y^H Er X = I``.  A pencil with
    infinite or NaN entries raises :class:`NonFiniteMatrix`; one whose X is
    worse conditioned than :data:`EIG_COND_LIMIT` raises
    :class:`DefectiveSpectrum`.  This is the one place, and cond(X) the one
    test, that decides whether a small pencil's eigenvectors can be used;
    scaling A or E moves neither.  With unit columns, |y_j^H Er x_j| >=
    sigma_min(X) sigma_min(Er), which both tests keep above 1e-18 |Er|_2.
    """
    Ar = np.atleast_2d(np.asarray(Ar))
    Er = np.atleast_2d(np.asarray(Er))
    r = Ar.shape[0]
    if Ar.shape != Er.shape or Ar.shape[1] != r:
        raise DimensionMismatch(f"need square matrices of equal size, got {Ar.shape}, {Er.shape}")
    if r > DENSE_THRESHOLD:
        raise OrderTooLarge(f"dense eigensolver limited to order {DENSE_THRESHOLD}, got {r}")
    if not (np.isfinite(Ar).all() and np.isfinite(Er).all()):
        raise NonFiniteMatrix("pencil (A, E) has infinite or NaN entries")
    sv = _singular_values(Er, SingularEr)
    if sv[0] == 0.0 or sv[-1] < 1e-14 * sv[0]:
        raise SingularEr("Er is numerically singular")

    lam, Y, X = _ggev(Ar, Er)
    if not np.isfinite(lam).all():
        raise SingularEr("pencil has infinite eigenvalues")
    sx = _singular_values(X, DefectiveSpectrum)
    if sx[0] > EIG_COND_LIMIT * sx[-1]:
        raise DefectiveSpectrum(f"right eigenvector matrix has condition number "
                                f"> {EIG_COND_LIMIT:g}")
    d = np.einsum("ij,ij->j", Y.conj(), Er @ X)
    Y = Y / d.conj()
    return lam, X, Y


def _optimal_lwork(routine, shape, *args, **kwargs):
    """The workspace size the query ``routine(*args, lwork=-1, **kwargs)`` returns.

    LAPACK's optimal workspace depends only on the routine and the shape of
    its arguments, so each (routine, shape) is queried once.
    """
    key = (routine, shape)
    lwork = _LWORK.get(key)
    if lwork is None:
        lwork = _LWORK[key] = routine(*args, lwork=-1, **kwargs)[-2][0].real.astype(np.int_)
    return lwork


def _ggev(A: np.ndarray, E: np.ndarray):
    """``spla.eig(A, E, left=True, right=True)`` of a finite pencil, called directly.

    Returns ``(lam, Y, X)``.  The calls are those of scipy's ``_geneig``:
    ?ggev chosen by ``get_lapack_funcs`` from the arrays, with its optimal
    workspace; real eigenvector pairs turned into complex vectors; each
    column divided by its BLAS 2-norm.  So the results are scipy's to the bit.
    An eigenvalue with beta = 0 raises :class:`SingularEr`, a failed QZ
    iteration :class:`DefectiveSpectrum`.
    """
    ggev, = get_lapack_funcs(("ggev",), (A, E))
    lwork = _optimal_lwork(ggev, A.shape, A, E)
    if ggev.typecode in "cz":
        alpha, beta, vl, vr, _, info = ggev(A, E, 1, 1, lwork, 0, 0)
    else:
        alphar, alphai, beta, vl, vr, _, info = ggev(A, E, 1, 1, lwork, 0, 0)
        alpha = alphar + 1j * alphai
    if info != 0:
        raise DefectiveSpectrum(f"QZ iteration failed (?ggev info = {info})")
    if not beta.all():
        raise SingularEr("pencil has infinite eigenvalues")
    lam = alpha / beta
    if ggev.typecode not in "cz" and lam.imag.any():
        vl, vr = _complex_eigvecs(lam, vl), _complex_eigvecs(lam, vr)
    nrm2 = get_blas_funcs("nrm2", dtype=vr.dtype, ilp64="preferred")
    for v in (vr, vl):
        v /= [nrm2(col) for col in v.T]
    return lam, vl, vr


def _singular_values(M: np.ndarray, error) -> np.ndarray:
    """``spla.svdvals(M)`` from ?gesdd, called as scipy's ``svd`` does; ``error`` if it fails."""
    gesdd, gesdd_lwork = get_lapack_funcs(("gesdd", "gesdd_lwork"), (M,))
    key = (gesdd, M.shape)
    if key not in _LWORK:
        _LWORK[key] = int(np.real(gesdd_lwork(*M.shape, compute_uv=0)[0]))
    _, sv, _, info = gesdd(M, compute_uv=0, lwork=_LWORK[key])
    if info != 0:
        raise error(f"singular values did not converge (?gesdd info = {info})")
    return sv


def _pair_starts(imag: list) -> list:
    """Where ?ggev's conjugate pairs start, given the eigenvalues' imaginary parts.

    ?ggev stores a pair in adjacent entries, the Im > 0 member first.  As in
    scipy's ``_make_complex_eigvecs``, an entry followed by one with Im < 0
    starts a pair too (scipy's workaround for a LAPACK bug, its ticket #709).
    """
    return [i for i, (a, b) in enumerate(zip(imag, imag[1:] + [0.0])) if a > 0.0 or b < 0.0]


def _complex_eigvecs(lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Complex eigenvectors from real ?ggev output: a pair's columns hold (Re, Im)."""
    out = np.array(v, dtype=complex)
    first = np.array(_pair_starts(lam.imag.tolist()), dtype=int)
    out.imag[:, first] = v[:, first + 1]
    out[:, first + 1] = out[:, first].conj()
    return out


def orthonormalize_real(Vprim: np.ndarray, data) -> np.ndarray:
    """Fold a conjugate-closed complex basis into a real orthonormal one.

    Conjugate column pairs are replaced by (real part, imaginary part), then a
    column-pivoted QR orthonormalizes.  Columns below ``QR_DROP_TOL`` times
    the leading diagonal of R are dropped (logged); the result spans the same
    real subspace as the primitive basis.  A basis with infinite or NaN
    entries raises :class:`NonFiniteMatrix`.
    """
    M = realify_columns(Vprim, data)
    if not np.isfinite(M).all():
        raise NonFiniteMatrix("basis has infinite or NaN entries")
    if M.size == 0:
        raise RankCollapse("basis has numerical rank zero")
    Q, diag = _pivoted_qr(M)
    diag = np.abs(diag)
    if diag[0] == 0.0:
        raise RankCollapse("basis has numerical rank zero")
    rank = int(np.sum(diag > QR_DROP_TOL * diag[0]))
    if rank < M.shape[1]:
        log.debug("orthonormalization dropped %d dependent column(s) (rank %d of %d)",
                  M.shape[1] - rank, rank, M.shape[1])
    return Q[:, :rank]


def _pivoted_qr(M: np.ndarray):
    """Q and diag(R) of ``spla.qr(M, mode="economic", pivoting=True)``, called directly.

    The calls are scipy's: ?geqp3, then ?orgqr on its output, each chosen by
    ``get_lapack_funcs`` and given its optimal workspace, so both are
    scipy's to the bit.  ``M`` must be finite and nonempty.
    """
    geqp3, = get_lapack_funcs(("geqp3",), (M,))
    qr, _, tau, _, _ = geqp3(M, _optimal_lwork(geqp3, M.shape, M))
    diag = qr.diagonal().copy()           # ?orgqr overwrites qr
    orgqr, = get_lapack_funcs(("orgqr",), (qr,))
    qr = qr[:, :diag.size]
    Q, _, _ = orgqr(qr, tau, _optimal_lwork(orgqr, qr.shape, qr, tau, overwrite_a=1),
                    overwrite_a=1)
    return Q, diag


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
    E, A = model.dense()[:2]
    lam = spla.eigvals(A, E)
    if not np.all(np.isfinite(lam)):
        raise StructurallySingularE("E is numerically singular (infinite eigenvalues)")
    return lam


def solve_generalized_lyapunov(A, E, B) -> np.ndarray:
    """Solve A P E^T + E P A^T + B B^T = 0 for symmetric P >= 0.

    The pencil (A, E) must be stable and E nonsingular.  E is factored once to
    transform to a standard Lyapunov equation in F = E^{-1} A, solved by the
    Schur (Bartels-Stewart) method.  Dense path only.
    """
    n = np.shape(A)[0]
    if n > DENSE_THRESHOLD:
        raise OrderTooLarge(f"dense Lyapunov limited to order {DENSE_THRESHOLD}, got {n}")
    Ad = A.toarray() if sps.issparse(A) else np.atleast_2d(np.asarray(A, dtype=float))
    Ed = E.toarray() if sps.issparse(E) else np.atleast_2d(np.asarray(E, dtype=float))
    Bd = np.asarray(B, dtype=float)
    if Bd.ndim == 1:
        Bd = Bd.reshape(-1, 1)

    try:
        F = spla.solve(Ed, Ad)
        Q = spla.solve(Ed, Bd)
    except np.linalg.LinAlgError as exc:
        raise StructurallySingularE("E is numerically singular") from exc
    # spla.solve_continuous_lyapunov(F, -Q @ Q.T) call by call; the stability test
    # reads Re(lambda) off the diagonal of LAPACK's standardized real Schur form
    T, Z = spla.schur(F, output="real")
    if T.diagonal().max() >= 0.0:
        raise UnstablePencil(f"pencil not stable: max Re(lambda) = {T.diagonal().max():.3e}")
    trsyl, = get_lapack_funcs(("trsyl",), (T,))
    y, scale, info = trsyl(T, T, Z.T.dot((-Q @ Q.T).dot(Z)), tranb="T")
    if info < 0:
        raise ValueError(f"?trsyl: illegal value in argument {-info}")
    if info == 1:
        warnings.warn("F has an eigenvalue pair summing to nearly zero; ?trsyl perturbed "
                      "the solution", RuntimeWarning, stacklevel=2)
    P = Z.dot(y * scale).dot(Z.T)
    return (P + P.T) / 2.0


def stable_part(model: StateSpaceModel) -> StateSpaceModel:
    """The model itself when stable, else its modal truncation to Re(lambda) < 0.

    Stability is read off the pencil's eigenvalues alone, so a stable model
    is returned unchanged even when its eigenvectors are unusable.  An
    unstable one is projected onto its stable right and left eigenvectors
    (:func:`generalized_eig`), folded to real columns: one per real mode,
    real and imaginary parts per conjugate pair.  The projection spans each
    stable eigenspace whole, so it reads no pairing of left and right
    eigenvectors and truncates a repeated eigenvalue exactly.
    """
    if np.all(pencil_eigenvalues(model).real < 0.0):
        return model
    E, A = model.dense()[:2]
    lam, X, Y = generalized_eig(A, E)
    keep = [g for g in conjugate_pairs(lam, range(len(lam))) if lam[g[0]].real < 0.0]
    if not keep:
        raise UnstablePencil("model has no stable modes")
    first, paired = [g[0] for g in keep], [g[0] for g in keep if len(g) == 2]
    V, W = (np.hstack([M[:, first].real, M[:, paired].imag]) for M in (X, Y))
    # balanced: the Gramian loses digits when a mode's B row far outweighs its C column
    b, c = np.linalg.norm(W.T @ model.B, axis=1), np.linalg.norm(model.C @ V, axis=0)
    scale = np.sqrt(np.divide(c, b, out=np.ones_like(b), where=(b > 0) & (c > 0)))
    return project(model, V / scale, W * scale)
