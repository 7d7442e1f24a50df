"""Shared model generators and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sps

from h2mor import InterpolationBlock, InterpolationData, eval_transfer, make_model


def random_stable_model(n, m, p, seed, mass=True, complex_frac=0.3, max_ratio=0.5):
    """Random stable sparse descriptor model with a mild pole distribution.

    The state matrix is a shuffled block diagonal of well-damped 2x2 rotation
    blocks and log-spaced real decays; A = E @ At with a diagonally dominant
    tridiagonal mass matrix keeps the pencil spectrum exactly the block
    eigenvalues, so stability holds by construction.
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
    if mass:
        d = rng.uniform(0.8, 1.2, n)
        off = 0.1 * rng.standard_normal(n - 1)
        E = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
    else:
        E = np.eye(n)
    A = E @ At
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    A = np.where(np.abs(A) > 1e-14, A, 0.0)
    return make_model(sps.csc_matrix(E), sps.csc_matrix(A), B, C)


def grid_model(N, convection):
    """Five-point diffusion on an N x N grid (symmetric), plus central-difference
    convection when asked (same pattern, unsymmetric values); E = I."""
    h = 1.0 / (N + 1)
    one = np.ones(N)
    lap = sps.diags([one[1:], -2.0 * one, one[1:]], [-1, 0, 1]) / h**2
    dif = sps.diags([-one[1:], one[1:]], [-1, 1]) / (2.0 * h)
    I = sps.identity(N)
    A = 0.01 * (sps.kron(lap, I) + sps.kron(I, lap))
    if convection:
        A = A - 5.0 * sps.kron(dif, I) - 2.0 * sps.kron(I, dif)
    B = np.random.default_rng(N).standard_normal((N * N, 2))
    return make_model(None, A.tocsc(), B, B.T)


def random_conjugate_data(r, m, p, seed, scale=1.0):
    """Conjugate-closed simple triplets: r/2 complex pairs (plus a real one if odd)."""
    rng = np.random.default_rng(seed)
    blocks = []
    count = 0
    if r % 2 == 1:
        blocks.append(InterpolationBlock(rng.uniform(0.2, 2.0) * scale,
                                         rng.standard_normal(m), rng.standard_normal(p)))
        count += 1
    while count < r:
        sigma = complex(rng.uniform(0.2, 2.0), rng.uniform(0.2, 3.0)) * scale
        right = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        left = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        b = InterpolationBlock(sigma, right, left)
        blocks.extend([b, b.conjugate()])
        count += 2
    return InterpolationData(tuple(blocks))


def dense_transfer(model, s):
    """Brute-force oracle: C (sE - A)^{-1} B + D through a dense inverse."""
    E, A, B, C, D = model.dense()
    return C @ np.linalg.inv(s * E - A) @ B + D


def fd_first_derivative(model, s, h=None):
    """Central finite difference of G at s."""
    if h is None:
        h = 1e-6 * max(abs(s), 1.0)
    return (eval_transfer(model, s + h) - eval_transfer(model, s - h)) / (2.0 * h)


def transfer_derivatives_circle(model, s0, kmax, radius, nodes=64):
    """Derivatives G^(k)(s0), k = 0..kmax, by trapezoidal numerical
    differentiation on a circle of the given radius (must enclose no poles).

    Plain central differences lose too many digits beyond the second
    derivative; sampling the transfer function on a circle keeps the
    moment oracle independent of the Krylov construction while meeting the
    1e-5 comparison tolerance.
    """
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    samples = [eval_transfer(model, s0 + radius * np.exp(1j * t)) for t in theta]
    out = []
    for k in range(kmax + 1):
        coef = sum(samples[j] * np.exp(-1j * k * theta[j]) for j in range(nodes)) / nodes
        out.append(math.factorial(k) * coef / radius ** k)
    return out


def irka_suite_cases():
    """The 20 (m, p, seed) cases used by the IRKA/CIRKA acceptance suites."""
    shapes = [(1, 1)] * 7 + [(2, 2)] * 7 + [(2, 1)] * 3 + [(1, 2)] * 3
    return [(m, p, 500 + i) for i, (m, p) in enumerate(shapes)]


def spring_chain_model(n_masses, seed=0, alpha=1e-3, beta=1e-3):
    """Weakly damped mass-spring chain in first-order descriptor form.

    Oscillatory dynamics with many lightly damped resonances; hard to
    approximate at low order, similar in character to MEMS benchmark models.
    """
    rng = np.random.default_rng(seed)
    k = rng.uniform(0.5, 2.0, n_masses + 1)
    K = np.diag(k[:-1] + k[1:]) - np.diag(k[1:-1], 1) - np.diag(k[1:-1], -1)
    M = np.diag(rng.uniform(0.5, 1.5, n_masses))
    D = alpha * M + beta * K
    n = 2 * n_masses
    E = np.block([[np.eye(n_masses), np.zeros((n_masses, n_masses))],
                  [np.zeros((n_masses, n_masses)), M]])
    A = np.block([[np.zeros((n_masses, n_masses)), np.eye(n_masses)],
                  [-K, -D]])
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = np.zeros((1, n))
    C[0, n_masses - 1] = 1.0
    return make_model(sps.csc_matrix(E), sps.csc_matrix(A), B, C)
