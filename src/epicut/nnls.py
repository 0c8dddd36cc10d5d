"""Nonnegative least squares and the minimum-norm point of a hull of rows.

One kernel serves two layers: the solver's max-affine model step (its
simplex weights give a weak-duality bound on the minimum) and the lp
layer's Farkas certificates and subgradient floors.

The kernel is Lawson and Hanson's active-set method; each least-squares
solve on the passive set is one np.linalg.solve on the matching block of
the Gram matrix, built once per call.  A problem with no more columns
than rows first solves the whole Gram system, and returns its solution
when every entry is positive: the method from zero would end there with
the same solve, unless a near-duplicate column stays out (see nnls).
That covers the solver's first model prefix, n + 1 rows for n + 1
unknowns, in one solve instead of one per column.  Its accuracy affects
only speed: every certificate is checked by lp.validate_certificate,
and every bound built on the weights is a weak-duality bound, which
holds for any weights on the simplex.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

_EPS = float(np.finfo(float).eps)
# (z > 0.0).all() on z.tolist(), False at NaN too: faster on the few
# entries these solves have.
_POSITIVE = (0.0).__lt__


def simplex_system(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The nnls problem [A^T s; 1^T] q ~ [0; 1] for ``rows`` A, whose
    solutions rescaled to sum 1 are the simplex weights of least ||A^T q||.

    s is the power of two that brings the largest entry of A into
    [1/2, 1), so the row of ones and the rows weigh alike whatever the
    scale of A; a power of two scales exactly, and the weights do not
    depend on s.  s is 1 for rows that are all 0 or not finite.
    """
    k, n = rows.shape
    exponent = math.frexp(float(np.max(np.abs(rows))))[1]
    matrix = np.empty((n + 1, k))
    matrix[:n] = np.ldexp(rows.T, -exponent)
    matrix[n] = 1.0
    target = np.zeros(n + 1)
    target[n] = 1.0
    return matrix, target


def min_norm_weights(rows: np.ndarray) -> np.ndarray:
    """Multipliers q >= 0 with sum q = 1 minimizing ||A^T q|| for ``rows`` A.

    Solves simplex_system(A) by nnls and rescales q to sum 1.  When
    A^T q = 0 has such a solution the residual is 0 up to rounding, so the
    result is one of them; otherwise A^T q stays away from 0, and callers
    that need a certificate reject q by checking it.  Either way the
    result minimizes ||A^T q|| over the simplex: with q = t L for L in
    the simplex and A scaled by s, the residual
    t^2 ||s A^T L||^2 + (t - 1)^2 is least at t = 1 / (1 + ||s A^T L||^2),
    where it grows with ||A^T L||, so nnls returns
    L* / (1 + ||s A^T L*||^2).
    """
    q = nnls(*simplex_system(rows))
    return q / float(q.sum())


def nnls(matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    """min ||matrix q - target|| over q >= 0.

    With no more columns than rows, the whole Gram system is solved
    first, and its solution z is returned when it is finite and
    positive.  z then meets the KKT conditions with w = 0.  Whenever
    the method from zero (_lawson_hanson) ends with every column
    passive, its last solve is this same np.linalg.solve on the same
    block: the same bits.  It leaves a column out only when the
    column's gradient falls below the threshold first, as can happen to
    a near-duplicate of a passive column; both answers then meet the KKT
    conditions up to rounding.  Any other problem, or any other z (a
    singular block, an entry <= 0), runs the method from zero as if z
    had not been tried.
    """
    m, k = matrix.shape
    # matmul for the products with matrix^T: lp passes strided column
    # windows, where ndarray.dot copies the operand and rounds otherwise.
    # matrix.dot(q), a matrix-vector product, rounds alike on any layout.
    gram = matrix.T @ matrix
    rhs = matrix.T @ target
    if k <= m:
        z = _solve(gram, rhs)
        if z is not None and all(map(_POSITIVE, z.tolist())):
            return z
    return _lawson_hanson(matrix, target, gram, rhs)


def _lawson_hanson(matrix, target, gram, rhs):
    """nnls by Lawson and Hanson's active-set method from q = 0 ("Solving
    Least Squares Problems", 1974, ch. 23); ``gram`` and ``rhs`` are
    matrix^T matrix and matrix^T target.

    Each outer step moves the free column with the largest positive
    gradient entry w = matrix^T (target - matrix q) into the passive
    set and solves least squares on that set; when an entry of the
    solution is not positive, q steps toward it only as far as the first
    passive entry reaching zero, which leaves the set.  The loop ends
    when no free entry of w exceeds a rounding threshold (the KKT
    conditions: w <= 0, and w = 0 where q > 0), or after 3k outer steps
    as a guard against rounding cycles.
    """
    m, k = matrix.shape
    q = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    scale = float(np.abs(matrix).sum(axis=0).max())
    threshold = 10.0 * _EPS * scale * max(m, k)
    for _ in range(3 * k):
        w = matrix.T @ (target - matrix.dot(q))
        w[passive] = -np.inf
        entering = int(w.argmax())
        if not w[entering] > threshold:
            break
        passive[entering] = True
        passive = _settle(matrix, target, gram, rhs, q, passive)
    return q


def _settle(matrix, target, gram, rhs, q, passive):
    """Lawson and Hanson's inner loop: solve least squares on the passive
    set, stepping q (in place) back to the first entry that reaches zero
    and dropping it until the solution is positive.  Returns the new
    passive set."""
    while True:
        cols = passive.nonzero()[0]
        z = _passive_solution(matrix, target, gram, rhs, cols)
        if all(map(_POSITIVE, z.tolist())):
            q[cols] = z
            return passive
        current = q[cols]
        low = (z <= 0.0).nonzero()[0]
        # Only the entering column can have current 0: no step at all.
        steps = np.divide(current[low], current[low] - z[low],
                          out=np.zeros(low.size), where=current[low] > 0.0)
        first = int(np.argmin(steps))
        q[cols] = np.maximum(current + steps[first] * (z - current), 0.0)
        q[cols[low[first]]] = 0.0
        passive = q > 0.0
        if not passive.any():
            return passive


def _passive_solution(matrix, target, gram, rhs, cols):
    """Least squares on the columns ``cols``: the normal equations on
    their Gram block, or lstsq when that block is singular to working
    precision (no finite solution)."""
    z = _solve(gram[cols[:, None], cols], rhs[cols])
    if z is not None:
        return z
    return np.linalg.lstsq(matrix[:, cols], target, rcond=None)[0]


def _solve(gram, rhs):
    """np.linalg.solve(gram, rhs), or None when it finds no finite
    solution."""
    try:
        z = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None
    return z if all(map(math.isfinite, z.tolist())) else None
