"""Matrix-calculus primitives for symmetric-matrix differentiation.

Everything here works on dense float64 arrays.  The structural matrices
(Kronecker, commutation, symmetrization, duplication) have up to p^4
entries and no solver builds them: they are reference operators for the
tests.
Positions are 0-based: entry (i, j) of a p x p matrix sits at position
j * p + i of vec(A).

:func:`check_spd`, the one input check, and :func:`spd_inverse` also take
(R, p, p) stacks.  numpy's stacked factorizations call the same LAPACK
routine per slice as the 2-D call, so a slice of a stacked result has the
bits of the 2-D result.  The public check fails as a whole: if one slice
fails it, the call raises the error that slice raises alone.  The solvers'
private :func:`_per_slice` gives each slice its own error instead.
"""

from __future__ import annotations

import numpy as np

from .errors import DefinitenessError, DimensionError, PreconditionError

__all__ = [
    "vec",
    "mat",
    "kron",
    "commutation_matrix",
    "symmetrization_matrix",
    "duplication_matrix",
    "check_spd",
    "spd_inverse",
]


def check_spd(A) -> np.ndarray:
    """Return ``A`` as a float array if it is square, finite, symmetric and
    positive definite, else raise.

    Symmetry holds entrywise within 1e-12 times the max-abs entry of each
    matrix, whatever its scale.  Positive definiteness is established by
    a Cholesky factorization, which fails exactly when the matrix is not
    numerically SPD.  A stack passes only if every slice does.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    bad = np.argwhere(~np.isfinite(A))
    if bad.size:
        i, j = bad[0][-2:] + 1
        raise PreconditionError(f"matrix has a non-finite value at row {i}, column {j}")
    if not np.all(np.abs(A - A.mT) <= 1e-12 * np.max(np.abs(A), axis=(-2, -1), keepdims=True)):
        raise DimensionError("matrix is not symmetric")
    try:
        np.linalg.cholesky(0.5 * (A + A.mT))
    except np.linalg.LinAlgError:
        raise DefinitenessError("matrix is not positive definite") from None
    return A


def spd_inverse(A) -> np.ndarray:
    """Inverse of an SPD matrix (or stack) via Cholesky, symmetrized on output."""
    A = np.asarray(A, dtype=float)
    try:
        L = np.linalg.cholesky(0.5 * (A + A.mT))
    except np.linalg.LinAlgError:
        raise DefinitenessError("matrix is not positive definite") from None
    inv = np.linalg.inv(L)
    out = inv.mT @ inv
    return 0.5 * (out + out.mT)


def _per_slice(fn, A, *rest):
    """``fn(A, *rest)`` on (R, ...) stacks, and {slice: the error it raises
    alone}.  Only if the stacked call raises (a LinAlgError or a
    DefinitenessError) is each slice called alone, as a stack of one, with
    I in place of its A where that raises."""
    try:
        return fn(A, *rest), {}
    except (np.linalg.LinAlgError, DefinitenessError):  # raised for the whole stack, so split it
        out, errors = [], {}
    for i in range(len(A)):
        one = [x[i:i + 1] for x in rest]
        try:
            out.append(fn(A[i:i + 1], *one))
        except (np.linalg.LinAlgError, DefinitenessError) as exc:
            out.append(fn(np.eye(A.shape[-1])[None], *one))
            errors[i] = exc
    return np.concatenate(out), errors


def _cholesky_logdet(S) -> np.ndarray:
    """Per slice of a stack: log det by its Cholesky factor, nan without one."""
    L, errors = _per_slice(np.linalg.cholesky, S)
    logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
    if errors:
        logdet[list(errors)] = np.nan
    return logdet


def _has_cholesky(S) -> np.ndarray:
    """Per slice of a stack: does it have a finite Cholesky factor?"""
    return np.isfinite(_cholesky_logdet(S))


def vec(A) -> np.ndarray:
    """Stack the columns of ``A`` into one vector (column-major)."""
    A = np.asarray(A, dtype=float)
    return A.reshape(-1, order="F").copy()


def mat(v, p: int) -> np.ndarray:
    """Inverse of :func:`vec` for p x p matrices."""
    v = np.asarray(v, dtype=float)
    if v.shape != (p * p,):
        raise DimensionError(f"expected a vector of length {p * p}, got shape {v.shape}")
    return v.reshape(p, p, order="F").copy()


def kron(A, B) -> np.ndarray:
    """Kronecker product with entry a_ij * b_kl in block (i, j)."""
    return np.kron(np.asarray(A, dtype=float), np.asarray(B, dtype=float))


def commutation_matrix(p: int) -> np.ndarray:
    """The p^2 x p^2 permutation with K_p vec(A) = vec(A^T)."""
    if p < 1:
        raise DimensionError("dimension must be >= 1")
    K = np.zeros((p * p, p * p))
    for i in range(p):
        for j in range(p):
            K[j * p + i, i * p + j] = 1.0
    return K


def symmetrization_matrix(p: int) -> np.ndarray:
    """The idempotent M_p = (I + K_p)/2 mapping vec(A) to vec(A + A^T)/2."""
    return 0.5 * (np.eye(p * p) + commutation_matrix(p))


def duplication_matrix(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Duplication matrix D_p and its Moore-Penrose inverse D_p^+.

    D_p maps the m = p(p+1)/2 lower-triangle entries v(A) of a symmetric
    A to vec(A); D_p^+ = (D_p^T D_p)^{-1} D_p^T reduces vec(A) back to
    v(A).  D_p^T D_p is diagonal (1 for diagonal positions, 2 for
    off-diagonal), so the pseudo-inverse is formed directly.
    """
    if p < 1:
        raise DimensionError("dimension must be >= 1")
    m = p * (p + 1) // 2
    D = np.zeros((p * p, m))
    col = 0
    for j in range(p):
        for i in range(j, p):
            D[j * p + i, col] = 1.0
            D[i * p + j, col] = 1.0
            col += 1
    counts = D.sum(axis=0)
    D_plus = (D / counts).T
    return D, D_plus
