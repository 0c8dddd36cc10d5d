"""Nonnegative least squares and the minimum-norm point of a hull of rows.

One kernel serves two layers: the solver's max-affine model step (its
simplex weights give a weak-duality bound on the minimum) and the lp
layer's Farkas certificates and subgradient floors.
"""

from __future__ import annotations

import numpy as np


def min_norm_weights(rows: np.ndarray) -> np.ndarray:
    """Multipliers q >= 0 with sum q = 1 minimizing ||A^T q|| for ``rows`` A.

    Solves [A^T; 1^T] q ~ [0; 1] with q >= 0 by nnls and rescales q to
    sum 1.  When A^T q = 0 has such a solution the residual is 0 up to
    rounding, so the result is one of them; otherwise A^T q stays away
    from 0, and callers that need a certificate reject q by checking it.
    Either way the result minimizes ||A^T q|| over the simplex: with
    q = t L for L in the simplex, the residual
    t^2 ||A^T L||^2 + (t - 1)^2 is least at t = 1 / (1 + ||A^T L||^2),
    where it grows with ||A^T L||, so nnls returns
    L* / (1 + ||A^T L*||^2).
    """
    k, n = rows.shape
    matrix = np.vstack([rows.T, np.ones((1, k))])
    target = np.zeros(n + 1)
    target[n] = 1.0
    q = nnls(matrix, target)
    return q / float(q.sum())


def nnls(matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    """min ||matrix q - target|| over q >= 0, by Lawson and Hanson's
    active-set method ("Solving Least Squares Problems", 1974, ch. 23).

    Each outer step moves the free column with the largest positive
    gradient entry w = matrix^T (target - matrix q) into the passive
    set and solves least squares on that set; when an entry of the
    solution is not positive, q steps toward it only as far as the first
    passive entry reaching zero, which leaves the set.  The loop ends
    when no free entry of w exceeds a rounding threshold (the KKT
    conditions: w <= 0, and w = 0 where q > 0), or after 3k outer steps
    as a guard against rounding cycles.
    """
    k = matrix.shape[1]
    q = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    scale = float(np.abs(matrix).sum(axis=0).max())
    threshold = 10.0 * np.finfo(float).eps * scale * max(matrix.shape)
    for _ in range(3 * k):
        w = matrix.T @ (target - matrix @ q)
        w[passive] = -np.inf
        entering = int(np.argmax(w))
        if not w[entering] > threshold:
            break
        passive[entering] = True
        while True:
            cols = np.flatnonzero(passive)
            z = np.linalg.lstsq(matrix[:, cols], target, rcond=None)[0]
            if float(z.min()) > 0.0:
                q[cols] = z
                break
            current = q[cols]
            low = np.flatnonzero(z <= 0.0)
            # Only the entering column can have current 0: no step at all.
            steps = np.divide(current[low], current[low] - z[low],
                              out=np.zeros(low.size), where=current[low] > 0.0)
            first = int(np.argmin(steps))
            q[cols] = np.maximum(current + steps[first] * (z - current), 0.0)
            q[cols[low[first]]] = 0.0
            passive = q > 0.0
            if not passive.any():
                break
    return q
