"""Matrix-calculus primitives for symmetric-matrix differentiation.

Everything here works on dense float64 arrays.  The structural matrices
(Kronecker, commutation, symmetrization, duplication, selection) have up
to p^4 entries and no solver builds them: they are reference operators
for the tests and for ``GraphIndex``'s on-demand dense operators.

The checks and :func:`spd_inverse` also take (R, p, p) stacks.  numpy's
stacked factorizations call the same LAPACK routine per slice as the 2-D
call, so a slice of a stacked result has the bits of the 2-D result.  A
stack fails as a whole: if one slice fails a check or a factorization,
the call raises the error that slice raises alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError, DimensionError, PreconditionError

__all__ = [
    "PositionSet",
    "vec",
    "mat",
    "kron",
    "commutation_matrix",
    "symmetrization_matrix",
    "duplication_matrix",
    "selection_matrix",
    "lower_triangle_positions",
    "check_symmetric",
    "check_spd",
    "spd_inverse",
]


def check_symmetric(A, tol=0.0) -> np.ndarray:
    """Return ``A`` as a float array, raising if it is not square symmetric
    or has a non-finite entry.

    ``tol`` is an absolute entrywise tolerance (per slice of a stack when
    it broadcasts so); the default demands exact symmetry.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    bad = np.argwhere(~np.isfinite(A))
    if bad.size:
        i, j = bad[0][-2:] + 1
        raise PreconditionError(f"matrix has a non-finite value at row {i}, column {j}")
    if not np.all(np.abs(A - A.mT) <= tol):
        raise DimensionError("matrix is not symmetric")
    return A


def check_spd(A, tol: float = 1e-12) -> np.ndarray:
    """Return ``A`` if symmetric positive definite, else raise.

    The symmetry tolerance is ``tol`` times max(1, max-abs entry) of each
    matrix.  Positive definiteness is established by a Cholesky
    factorization, which fails exactly when the matrix is not numerically
    SPD.  A stack passes only if every slice does.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim >= 2:  # otherwise check_symmetric names the bad shape
        tol = tol * np.maximum(1.0, np.max(np.abs(A), axis=(-2, -1), keepdims=True))
    A = check_symmetric(A, tol=tol)
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


@dataclass(frozen=True)
class PositionSet:
    """An ordered set of (row, col) positions of a p x p matrix.

    Positions are 1-based and kept strictly increasing under the
    column-major key (col - 1) * p + row, the order in which vec(A)
    lists the entries.
    """

    p: int
    positions: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = -1
        for (i, j) in self.positions:
            if not (1 <= i <= self.p and 1 <= j <= self.p):
                raise DimensionError(f"position {(i, j)} out of range for p={self.p}")
            key = (j - 1) * self.p + i
            if key <= last:
                raise DimensionError("positions must be strictly increasing in column-major order")
            last = key

    @classmethod
    def from_positions(cls, p: int, positions) -> "PositionSet":
        """Build a PositionSet from an unordered iterable of (row, col)."""
        uniq = sorted(set((int(i), int(j)) for i, j in positions),
                      key=lambda ij: (ij[1] - 1) * p + ij[0])
        return cls(p, tuple(uniq))

    def __len__(self) -> int:
        return len(self.positions)

    def vec_indices(self) -> np.ndarray:
        """0-based indices of the positions within vec(A)."""
        return np.array([(j - 1) * self.p + (i - 1) for i, j in self.positions], dtype=int)


def lower_triangle_positions(p: int) -> PositionSet:
    """All diagonal-and-below positions, in the v(A) stacking order."""
    return PositionSet(p, tuple((i, j) for j in range(1, p + 1) for i in range(j, p + 1)))


def selection_matrix(Z: PositionSet) -> np.ndarray:
    """The |Z| x p^2 matrix picking the listed entries out of vec(A)."""
    Q = np.zeros((len(Z), Z.p * Z.p))
    if len(Z):
        Q[np.arange(len(Z)), Z.vec_indices()] = 1.0
    return Q
