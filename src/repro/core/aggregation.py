"""Index-wise aggregation of salient parameters (§IV-C1, Eq. 12).

Clients upload filter subsets of different sizes; aggregating them naively
would mismatch shapes.  Following Eq. 12, the server updates each global
coordinate only from the clients that *covered* it:

    W_global[idx] += eta * mean_{i : idx in I_i} (W_i[idx] - W_global[idx])

implemented as a vectorized sum/count reduction (DESIGN.md §11) that
folds one upload at a time (:class:`SalientAccumulator` — the batch
entry point :func:`salient_aggregate` and the streaming SPATL fold are
the same body): coverage as float64 sums of the upload weights, row
sums via unique-index fancy adds (``acc[indices] += diff``) — the
buffered ``np.add.at`` inner loop is several times slower than the
plain gather-add-scatter it replaces, and client selections are sets of
filters, so indices within one upload are unique and the fancy add sums
exactly the same terms in exactly the same order.  Uploads that *do*
repeat an index (allowed by the API, never produced by the selection
policy) fall back to ``np.add.at`` for that upload.  The
pre-vectorization implementation is preserved verbatim as the oracle
the golden tests keep (``tests/reference_agg.py``); they assert the two
agree **bitwise**.  That bit-for-bit requirement is also why the reduction is
not ``np.add.reduceat`` over argsorted indices: reduceat's pairwise
summation changes low-order bits and would break the golden-state byte
identity the repo's acceptance gates enforce.
"""

from __future__ import annotations

import numpy as np


class SalientAccumulator:
    """Running Eq. 12 state for one layer: the repo's one scatter/count body.

    Holds the float64 snapshot of the pre-round global weight (every diff
    is taken against it), the scatter-add of ``w_i * (W_i[idx] - W[idx])``
    and the per-filter coverage denominators — float64 sums of covering
    weights, added in upload order (exactly ``np.bincount(...,
    weights=...)`` over the concatenated indices).  Unit weights make
    both exact: ``1.0 * diff`` is ``diff`` and the coverage sums are
    integers, so they are bitwise the unweighted reduction.  Uploads fold
    in one at a time, so a batch reduction and a streaming one are the
    same code.
    """

    def __init__(self, global_weight: np.ndarray):
        self.out = np.array(global_weight, dtype=np.float64)
        self.acc = np.zeros_like(self.out)
        self.counts = np.zeros(self.out.shape[0], dtype=np.float64)
        # The fancy-add fast path pays a fixed uniqueness check per upload;
        # for near-scalar rows (biases, BN stats) the buffered scatter is
        # already cheaper than that check, so only wide rows take it.
        self._wide = int(np.prod(self.out.shape[1:], dtype=np.int64)) >= 8

    def add(self, indices: np.ndarray, rows: np.ndarray,
            weight: float = 1.0) -> None:
        """Fold one client's ``(indices, rows)`` upload in."""
        n_filters = self.out.shape[0]
        indices = np.asarray(indices, dtype=np.int64)
        rows = np.asarray(rows)
        if rows.shape[0] != len(indices):
            raise ValueError("upload rows/indices mismatch")
        if len(indices) and (indices.min() < 0 or indices.max() >= n_filters):
            raise IndexError("salient index out of range")
        diff = float(weight) * (rows.astype(np.float64) - self.out[indices])
        np.add.at(self.counts, indices.ravel(), float(weight))
        if self._wide and indices.size == np.unique(indices).size:
            # Unique indices: the fancy add sums the identical terms in
            # the identical order as np.add.at, minus its buffered
            # element-wise inner loop.
            self.acc[indices] += diff
        else:
            np.add.at(self.acc, indices, diff)

    def result(self, step_size: float = 1.0) -> np.ndarray:
        """Apply the covered-coordinate means; returns the float64 tensor.

        Rows no upload selected are untouched.  Single use: the mean is
        applied to the held snapshot in place.
        """
        covered = self.counts > 0
        if covered.any():
            denom = self.counts[covered].reshape(
                (-1,) + (1,) * (self.out.ndim - 1))
            self.out[covered] += step_size * self.acc[covered] / denom
        return self.out


def salient_aggregate(global_weight: np.ndarray,
                      uploads: list[tuple[np.ndarray, np.ndarray]],
                      step_size: float = 1.0,
                      weights: list[float] | None = None) -> np.ndarray:
    """Eq. 12 for one layer: a loop over :class:`SalientAccumulator`.

    Parameters
    ----------
    global_weight:
        Dense (out_c, ...) global tensor; not modified in place.
    uploads:
        Per-client ``(indices, rows)`` pairs, where ``rows`` has shape
        ``(len(indices),) + global_weight.shape[1:]``.
    step_size:
        The update step ``eta`` of Eq. 12 (1.0 = move fully to the mean of
        covering clients, the FedAvg-consistent choice).
    weights:
        Optional per-upload multiplicative weights (the async runtime's
        staleness discounts); ``None`` means unit weights.  The
        covered-coordinate mean is a weighted mean: each covering client
        contributes ``w_i * (W_i[idx] - W_global[idx])`` and the
        denominator is the sum of covering weights.

    Returns the updated dense tensor.  With unit weights,
    bitwise-identical to the sequential-scatter oracle the golden tests
    keep (``tests/reference_agg.py``).
    """
    if weights is not None and len(weights) != len(uploads):
        raise ValueError("uploads/weights length mismatch")
    layer = SalientAccumulator(global_weight)
    for i, (indices, rows) in enumerate(uploads):
        layer.add(indices, rows, 1.0 if weights is None else weights[i])
    return layer.result(step_size).astype(global_weight.dtype)
