"""The twisted chain complex of a graph: boundary, metrics, Laplacian.

Convention used everywhere in this package: inner products are linear in the
first slot and conjugate linear in the second, i.e. <x, y> = sum x_b *
conj(y_b).  The degree-1 pairing is rescaled edgewise by the resistances,
<x, y>_R = sum r_b x_b conj(y_b), and the formal adjoint of the boundary
operator with respect to it is R^{-1} @ conjugate-transpose(boundary).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import BasisMismatchError, NonSquareError
from .graphs import Graph, Subcomplex

if TYPE_CHECKING:
    from .bundle import LineBundle


@dataclass(frozen=True)
class ChainVector:
    """A vector of complex coefficients over an ordered cell basis."""

    degree: int
    basis: tuple[str, ...]
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (len(self.basis),):
            raise ValueError(
                f"coefficient shape {arr.shape} does not match basis of size {len(self.basis)}"
            )
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def from_dict(cls, degree: int, basis, mapping) -> "ChainVector":
        basis = tuple(basis)
        pos = {c: i for i, c in enumerate(basis)}
        arr = np.zeros(len(basis), dtype=complex)
        for cell, value in mapping.items():
            if cell not in pos:
                raise ValueError(f"cell {cell!r} is not in the basis")
            arr[pos[cell]] = value
        return cls(degree, basis, arr)

    def coeff(self, cell: str) -> complex:
        try:
            return complex(self.coeffs[self.basis.index(cell)])
        except ValueError:
            raise ValueError(f"cell {cell!r} is not in the basis") from None

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def edge_basis(g: Graph) -> tuple[str, ...]:
    return tuple(e.id for e in g.edges)


def vertex_basis(g: Graph) -> tuple[str, ...]:
    return g.vertices


def zero_chain(degree: int, basis) -> ChainVector:
    basis = tuple(basis)
    return ChainVector(degree, basis, np.zeros(len(basis), dtype=complex))


def unit_chain(degree: int, basis, cell: str) -> ChainVector:
    return ChainVector.from_dict(degree, basis, {cell: 1.0})


@dataclass(frozen=True)
class LinearOperator:
    """A matrix together with the ordered bases it acts between."""

    matrix: np.ndarray
    domain_degree: int
    domain: tuple[str, ...]
    codomain_degree: int
    codomain: tuple[str, ...]

    def __post_init__(self):
        arr = np.asarray(self.matrix, dtype=complex)
        if arr.shape != (len(self.codomain), len(self.domain)):
            raise ValueError(
                f"matrix shape {arr.shape} does not match bases "
                f"({len(self.codomain)}, {len(self.domain)})"
            )
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "codomain", tuple(self.codomain))

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def __call__(self, x: ChainVector) -> ChainVector:
        if x.degree != self.domain_degree or x.basis != self.domain:
            raise BasisMismatchError("chain vector does not live on the operator's domain")
        return ChainVector(self.codomain_degree, self.codomain, self.matrix @ x.coeffs)


class ResistanceMap:
    """A positive real resistance per edge id."""

    def __init__(self, values):
        vals = {}
        for k, r in values.items():
            r = float(r)
            if not (math.isfinite(r) and r > 0.0):
                raise ValueError(f"resistance for edge {k!r} must be positive and finite, got {r!r}")
            vals[k] = r
        self._values = vals

    @classmethod
    def unit(cls, g: Graph) -> "ResistanceMap":
        return cls({e.id: 1.0 for e in g.edges})

    def __contains__(self, edge_id) -> bool:
        return edge_id in self._values

    def r(self, edge_id: str) -> float:
        try:
            return self._values[edge_id]
        except KeyError:
            raise ValueError(f"no resistance for edge {edge_id!r}") from None

    def items(self):
        return self._values.items()

    def diagonal(self, basis) -> np.ndarray:
        return np.asarray([self.r(b) for b in basis], dtype=float)


def boundary_operator(g: Graph, L: LineBundle, restrict_to: Subcomplex | None = None) -> LinearOperator:
    """The twisted boundary: edge b maps to rho_b * tail(b) - head(b).

    With restrict_to given, rows and columns are limited to the subcomplex's
    cells (kept in graph order); a spanning subcomplex keeps every vertex row.
    """
    if L.graph is not g:
        raise ValueError("bundle belongs to a different graph")
    if restrict_to is not None and restrict_to.graph is not g:
        raise ValueError("subcomplex belongs to a different graph")
    tails, heads = g._end_index.T
    cols = np.arange(len(g.edges))
    M = np.zeros((len(g.vertices), len(g.edges)), dtype=complex)
    M[tails, cols] += L.values
    M[heads, cols] -= 1.0  # after the phase, so a loop column is rho_b - 1
    if restrict_to is None:
        return LinearOperator(M, 1, edge_basis(g), 0, g.vertices)
    rows = [g.vertex_index(v) for v in restrict_to.vertices]
    keep = [g.edge_index(b) for b in restrict_to.edges]
    return LinearOperator(M[np.ix_(rows, keep)], 1, restrict_to.edges, 0, restrict_to.vertices)


def standard_ip(x: ChainVector, y: ChainVector) -> complex:
    """sum x_c * conj(y_c); linear in x, conjugate linear in y."""
    if x.degree != y.degree or x.basis != y.basis:
        raise BasisMismatchError("standard_ip requires the same degree and basis")
    return complex(np.vdot(y.coeffs, x.coeffs))


def modified_ip(x: ChainVector, y: ChainVector, R: ResistanceMap) -> complex:
    """sum r_b * x_b * conj(y_b) on degree-1 chains."""
    if x.degree != 1 or y.degree != 1:
        raise BasisMismatchError("modified_ip is defined on degree-1 chains")
    if x.basis != y.basis:
        raise BasisMismatchError("modified_ip requires the same basis")
    r = R.diagonal(x.basis)
    return complex(np.vdot(y.coeffs, r * x.coeffs))


def adjoint_R(bop: LinearOperator, R: ResistanceMap) -> LinearOperator:
    """Adjoint of the boundary against the resistance-weighted degree-1 metric."""
    if bop.domain_degree != 1 or bop.codomain_degree != 0:
        raise ValueError("adjoint_R expects an operator from degree 1 to degree 0")
    r = R.diagonal(bop.domain)
    M = bop.matrix.conj().T / r[:, None]
    return LinearOperator(M, 0, bop.codomain, 1, bop.domain)


def laplacian(bop: LinearOperator, R: ResistanceMap) -> LinearOperator:
    """boundary @ adjoint_R(boundary): a Hermitian PSD operator on degree 0."""
    r = R.diagonal(bop.domain)
    M = (bop.matrix / r[None, :]) @ bop.matrix.conj().T
    return LinearOperator(M, 0, bop.codomain, 0, bop.codomain)


def _rank_of(sv: np.ndarray, shape, tol) -> int:
    """Count the singular values above tol, by default above max(shape) * eps * sv[0]."""
    if tol is None:
        tol = max(shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    return int(np.count_nonzero(sv > tol))


def numerical_rank(matrix: np.ndarray, tol=None) -> int:
    M = np.asarray(matrix)
    if M.size == 0:
        return 0
    return _rank_of(np.linalg.svd(M, compute_uv=False), M.shape, tol)


def kernel_basis(op: LinearOperator) -> list[ChainVector]:
    """An orthonormal basis of ker(op) in the standard inner product."""
    M = op.matrix
    n = M.shape[1]
    if n == 0:
        return []
    _, sv, vh = np.linalg.svd(M, full_matrices=True)
    null = vh[_rank_of(sv, M.shape, None):].conj()
    return [ChainVector(op.domain_degree, op.domain, row) for row in null]


def homology_dims(g: Graph, L: LineBundle, subc: Subcomplex | None = None) -> tuple[int, int]:
    """(dim H_0, dim H_1) of the twisted complex, via the rank of the boundary."""
    bop = boundary_operator(g, L, subc)
    r = numerical_rank(bop.matrix)
    return (len(bop.codomain) - r, len(bop.domain) - r)


@dataclass(frozen=True)
class DeterminantValue:
    """Determinant in log form (pivoted LU) plus the plain complex value.

    The plain value overflows to inf for extreme magnitudes; log_abs and
    phase are always meaningful.
    """

    log_abs: float
    phase: float
    value: complex


def determinant(op: LinearOperator) -> DeterminantValue:
    M = op.matrix
    if M.shape[0] != M.shape[1]:
        raise NonSquareError(f"determinant of a {M.shape[0]}x{M.shape[1]} operator")
    if M.shape[0] == 0:
        return DeterminantValue(0.0, 0.0, 1.0 + 0.0j)
    sign, log_abs = np.linalg.slogdet(M)
    if sign == 0:
        return DeterminantValue(float("-inf"), 0.0, 0.0j)
    with np.errstate(over="ignore"):
        value = complex(sign * np.exp(log_abs))
    return DeterminantValue(float(log_abs), float(np.angle(sign)), value)
