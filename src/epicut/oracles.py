"""Convex oracles: function value plus one deterministic subgradient.

The subdifferential of a piecewise function is a set; every oracle here
returns a single fixed element of it (smallest active index wins) so that
solver runs are reproducible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np

from .errors import DimensionMismatch

# Absolute gap below the max that still counts as an active piece.
ACTIVE_TOL = 1e-12


class ConvexOracle(ABC):
    """Finite convex function on R^n with a subgradient everywhere."""

    @property
    @abstractmethod
    def dim(self) -> int:
        raise NotImplementedError

    @abstractmethod
    def eval(self, x) -> float:
        raise NotImplementedError

    @abstractmethod
    def subgradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def value_and_subgradient(self, x) -> Tuple[float, np.ndarray]:
        """(eval(x), subgradient(x)); subclasses share the work of the two."""
        return self.eval(x), self.subgradient(x)


class MaxAffineFunction(ConvexOracle):
    """f(x) = max_k (rows[k] . x + offsets[k])."""

    def __init__(self, rows, offsets):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        offsets = np.asarray(offsets, dtype=float).ravel()
        if rows.shape[0] != offsets.shape[0] or rows.shape[0] == 0:
            raise DimensionMismatch("need one offset per row and at least one row")
        self.rows = rows
        self.offsets = offsets

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def _values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.rows.shape[1],):
            raise DimensionMismatch("point dimension does not match function")
        vals = self.rows.dot(x)
        vals += self.offsets
        return vals

    def eval(self, x) -> float:
        return self.eval_with_index(x)[0]

    def eval_with_index(self, x) -> Tuple[float, int]:
        """Value and the smallest index active within ACTIVE_TOL."""
        return _top(self._values(x))

    def subgradient(self, x) -> np.ndarray:
        _, idx = self.eval_with_index(x)
        return self.rows[idx].copy()

    def value_and_subgradient(self, x) -> Tuple[float, np.ndarray]:
        top, idx = _top(self._values(x))
        return top, self.rows[idx].copy()

    def eval_many(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return (pts @ self.rows.T + self.offsets).max(axis=1)


def _top(vals: np.ndarray) -> Tuple[float, int]:
    """The largest of ``vals`` and the smallest index within ACTIVE_TOL of it.

    The value is read at argmax, which skips ndarray.max's Python-level
    wrapper; a NaN is its own argmax, so a NaN value stays NaN and, with
    no entry active, the index is 0.
    """
    top = vals[vals.argmax()]
    return float(top), int((vals >= top - ACTIVE_TOL).argmax())


# No code in the package builds a QuadraticForm or a LinearConstraintSet;
# both stay importable because benchmark/tracing.py wraps their methods.
class QuadraticForm(ConvexOracle):
    """f(q) = q^T gram q for a positive-semidefinite gram matrix."""

    def __init__(self, gram):
        gram = np.asarray(gram, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise DimensionMismatch("gram matrix must be square")
        gram = (gram + gram.T) / 2.0
        eigs = np.linalg.eigvalsh(gram)
        scale = max(1.0, float(abs(eigs[-1])))
        if eigs[0] < -1e-8 * scale:
            raise ValueError("gram matrix is not positive semidefinite")
        self.gram = gram

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def eval(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ (self.gram @ x))

    def subgradient(self, x) -> np.ndarray:
        return 2.0 * (self.gram @ np.asarray(x, dtype=float))

    def eval_many(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.einsum("ij,jk,ik->i", pts, self.gram, pts)


class LinearConstraintSet(MaxAffineFunction):
    """{ z : rows z + offsets <= 0 componentwise }; as a function, its
    largest violation max_k (rows[k] z + offsets[k])."""

    def __init__(self, rows, offsets):
        super().__init__(rows, offsets)
        self.row_norms = np.linalg.norm(self.rows, axis=1)
        self._safe_norms = np.maximum(self.row_norms, 1e-300)

    def normalized_max_violation(self, z) -> Tuple[float, int]:
        """(worst violation in Euclidean-distance units, its row index)."""
        scaled = self._values(z) / self._safe_norms
        idx = int(np.argmax(scaled))
        return float(scaled[idx]), idx
