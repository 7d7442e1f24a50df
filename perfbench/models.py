"""Seeded model generators for the benchmark.

The generators live here, not in the test helpers, so that a change to the
tests cannot silently change benchmark inputs.  Every generator returns the
model together with the parameters it was built from, which the benchmark
records in its result file.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sps

from h2mor import InterpolationBlock, InterpolationData, make_model


def _grid(N):
    h = 1.0 / (N + 1)
    x = h * np.arange(1, N + 1)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return h, X, Y


def heat2d(N, seed, diffusivity=0.01, contrast=0.2):
    """Heat equation on the unit square, N x N interior grid, Dirichlet walls.

    Finite volumes with a seeded face conductivity 1 + contrast * U(0, 1), so
    A is symmetric negative definite (real spectrum) and E = I.  One input
    heats the lower-left corner; one output averages the upper-right corner.
    """
    rng = np.random.default_rng(seed)
    h, X, Y = _grid(N)
    kx = 1.0 + contrast * rng.random((N, N + 1))    # faces normal to x
    ky = 1.0 + contrast * rng.random((N + 1, N))    # faces normal to y
    idx = np.arange(N * N).reshape(N, N)
    left, right = idx[:, :-1].ravel(), idx[:, 1:].ravel()
    low, high = idx[:-1, :].ravel(), idx[1:, :].ravel()
    kxi, kyi = kx[:, 1:-1].ravel(), ky[1:-1, :].ravel()
    diag = (kx[:, :-1] + kx[:, 1:] + ky[:-1, :] + ky[1:, :]).ravel()
    rows = np.concatenate([left, right, low, high, idx.ravel()])
    cols = np.concatenate([right, left, high, low, idx.ravel()])
    vals = np.concatenate([kxi, kxi, kyi, kyi, -diag]) * (diffusivity / h**2)
    A = sps.csc_matrix((vals, (rows, cols)), shape=(N * N, N * N))
    B = ((X < 0.3) & (Y < 0.3)).astype(float).ravel()
    C = ((X > 0.6) & (Y > 0.6)).astype(float).ravel()
    C /= C.sum()
    params = {"generator": "heat2d", "N": N, "n": N * N, "seed": seed,
              "diffusivity": diffusivity, "contrast": contrast}
    return make_model(None, A, B, C), params


def cd2d(N, seed, swirl=10.0, drift=5.0, jitter=0.2):
    """Convection-diffusion on the unit square with a recirculating flow.

    Central differences of -u_t + lap(u) - v . grad(u) = 0 with
    v = swirl * (-(y - 1/2), x - 1/2) + drift * (1, 0), each component
    scaled cell by cell by a seeded factor 1 + jitter * U(-1, 1).  The
    rotating field makes the spectrum complex.  Like heat2d's conductivities,
    the many independent factors vary the operator with the seed while its
    leading poles, and so the iteration counts, barely move.  Two inputs
    (left wall, lower and upper half), two outputs (averages over the right
    wall's halves); E = I.
    """
    rng = np.random.default_rng(seed)
    h, X, Y = _grid(N)
    one = np.ones(N)
    lap1 = sps.diags([one[1:], -2.0 * one, one[1:]], [-1, 0, 1]) / h**2
    dif1 = sps.diags([-one[1:], one[1:]], [-1, 1]) / (2.0 * h)
    I = sps.identity(N)
    vx = ((-swirl * (Y - 0.5) + drift) * (1.0 + jitter * rng.uniform(-1.0, 1.0, (N, N)))).ravel()
    vy = (swirl * (X - 0.5) * (1.0 + jitter * rng.uniform(-1.0, 1.0, (N, N)))).ravel()
    # index = i * N + j with i along x, j along y
    A = (sps.kron(lap1, I) + sps.kron(I, lap1)
         - sps.diags(vx) @ sps.kron(dif1, I) - sps.diags(vy) @ sps.kron(I, dif1))
    lower, upper = (Y < 0.5).ravel(), (Y >= 0.5).ravel()
    west, east = (X < 0.25).ravel(), (X > 0.75).ravel()
    B = np.column_stack([west & lower, west & upper]).astype(float)
    C = np.vstack([east & lower, east & upper]).astype(float)
    C /= C.sum(axis=1, keepdims=True)
    params = {"generator": "cd2d", "N": N, "n": N * N, "seed": seed,
              "swirl": swirl, "drift": drift, "jitter": jitter}
    return make_model(None, A.tocsc(), B, C), params


def spring_chain(n_masses, seed, alpha=1e-3, beta=1e-3):
    """Lightly damped mass-spring chain in first-order descriptor form (n = 2 n_masses).

    Seeded spring constants U(0.5, 2) and masses U(0.5, 1.5); Rayleigh
    damping alpha M + beta K.  Input: force on the last mass; output: its
    position.
    """
    rng = np.random.default_rng(seed)
    k = rng.uniform(0.5, 2.0, n_masses + 1)
    K = sps.diags([-k[1:-1], k[:-1] + k[1:], -k[1:-1]], [-1, 0, 1])
    M = sps.diags(rng.uniform(0.5, 1.5, n_masses))
    I = sps.identity(n_masses)
    E = sps.block_diag([I, M])
    A = sps.bmat([[None, I], [-K, -(alpha * M + beta * K)]])
    n = 2 * n_masses
    B = np.zeros(n)
    B[-1] = 1.0
    C = np.zeros(n)
    C[n_masses - 1] = 1.0
    params = {"generator": "spring_chain", "n_masses": n_masses, "n": n, "seed": seed,
              "alpha": alpha, "beta": beta}
    return make_model(E.tocsc(), A.tocsc(), B, C), params


def random_stable(n, m, p, seed, complex_frac=0.3, max_ratio=0.5):
    """Random stable sparse descriptor model with a mild pole distribution.

    Shuffled block diagonal of damped 2 x 2 rotation blocks and log-spaced
    real decays; A = E At with a diagonally dominant tridiagonal mass matrix
    E, so the pencil spectrum is exactly the block eigenvalues.  Same
    construction and random stream as the acceptance suite's models.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    total = 0
    while total < n:
        if n - total >= 2 and rng.random() < complex_frac:
            a = -rng.uniform(0.5, 3.0)
            b = abs(a) * rng.uniform(0.1, max_ratio)
            blocks.append(np.array([[a, -b], [b, a]]))
            total += 2
        else:
            blocks.append(np.array([[-np.exp(rng.uniform(np.log(0.3), np.log(n / 2.0)))]]))
            total += 1
    rng.shuffle(blocks)
    At = spla.block_diag(*blocks)
    d = rng.uniform(0.8, 1.2, n)
    off = 0.1 * rng.standard_normal(n - 1)
    E = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
    A = E @ At
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    A = np.where(np.abs(A) > 1e-14, A, 0.0)
    params = {"generator": "random_stable", "n": n, "m": m, "p": p, "seed": seed,
              "complex_frac": complex_frac, "max_ratio": max_ratio}
    return make_model(sps.csc_matrix(E), sps.csc_matrix(A), B, C), params


def random_init(r, m, p, seed, lo, hi, imag_ratio=1.0):
    """Seeded conjugate-closed initial data of order r.

    Shift magnitudes are log-uniform in [lo, hi]; complex pairs get an
    imaginary part up to ``imag_ratio`` times their real part; an odd r adds
    one real shift.  Tangents are standard normal.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    if r % 2:
        blocks.append(InterpolationBlock(np.exp(rng.uniform(np.log(lo), np.log(hi))),
                                         rng.standard_normal(m), rng.standard_normal(p)))
    while len(blocks) < r:
        re = np.exp(rng.uniform(np.log(lo), np.log(hi)))
        sigma = complex(re, re * imag_ratio * rng.uniform(0.1, 1.0))
        b = InterpolationBlock(sigma, rng.standard_normal(m) + 1j * rng.standard_normal(m),
                               rng.standard_normal(p) + 1j * rng.standard_normal(p))
        blocks.extend([b, b.conjugate()])
    return InterpolationData(tuple(blocks))
