"""Square matrices stored as their diagonals.

A continuous Markov semigroup has a local, second-order generator, so the
Q-matrix ``build_qmatrix`` assembles couples each node only to its grid
neighbours: 3 diagonals in 1-D, 2d + 1 in d dimensions.  ``BandMatrix``
keeps exactly those diagonals in one numpy array, which every reader of Q
uses as it is; a dense chain has at most 2n - 1 of them.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


class BandMatrix:
    """A square matrix as its diagonals: ``bands[m, i] = A[i, i + offsets[m]]``
    for the increasing ``offsets``, zero where i + offsets[m] falls off the
    matrix or nothing is stored.

    The stored entries are the nonzero ones, plus every main-diagonal entry
    when ``full_diagonal`` is set, as ``build_qmatrix`` stores them (the
    zero rows of absorbing walls keep a -0.0 diagonal).  ``nnz`` counts
    them, and ``entries`` lists them in row-major order.

    ``A @ x`` adds the diagonals' products in increasing offset into zeros,
    so each row adds its entries in increasing column starting from +0, as
    scipy's CSR product does, and the result is bitwise scipy's: an entry
    that is not stored adds a signed zero to a sum that is never -0.
    ``A.T @ x`` likewise matches scipy's product with the CSR's transpose.
    One elimination factors it from these bands for the resolvent and GTH;
    only the reachability graph of ``htheorem._closed_classes``, built from
    ``entries()``, goes to scipy.
    """

    def __init__(self, offsets, bands, full_diagonal=False):
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.bands = np.asarray(bands, dtype=float)
        self.full_diagonal = full_diagonal
        n = self.bands.shape[1]
        # per band: the entries on the matrix, their rows and their columns
        self._spans = [(band[max(0, -d):min(n, n - d)], slice(max(0, -d), min(n, n - d)),
                        slice(max(0, d), min(n, n + d)))
                       for band, d in zip(self.bands, self.offsets.tolist())]
        self.nnz = int(np.count_nonzero(self._stored()))

    @classmethod
    def from_matrix(cls, A):
        """A dense array (or nested lists), or a scipy sparse matrix, read
        through its ``tocoo()`` with duplicate entries summed.  Anything but
        a square 2-D input raises ShapeError."""
        sparse = hasattr(A, "tocoo")
        A = A.tocoo() if sparse else np.asarray(A, dtype=float)
        if len(A.shape) != 2 or A.shape[0] != A.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {A.shape}")
        rows, cols = (A.row, A.col) if sparse else np.nonzero(A)
        return cls.from_entries(rows, cols, A.data if sparse else A[rows, cols], A.shape[0])

    @classmethod
    def from_entries(cls, rows, cols, vals, n):
        """The n x n matrix with A[rows, cols] = vals, duplicates summed."""
        offsets, where = np.unique(np.subtract(cols, rows, dtype=np.intp), return_inverse=True)
        bands = np.zeros((offsets.size, n))
        np.add.at(bands, (where, rows), vals)
        return cls(offsets, bands)

    @property
    def shape(self):
        n = self.bands.shape[1]
        return (n, n)

    def _stored(self):
        stored = self.bands != 0.0
        if self.full_diagonal:
            stored[self.offsets == 0] = True
        return stored

    def __matmul__(self, x):
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[0]:
            raise ShapeError(f"cannot multiply a {self.shape} matrix by shape {x.shape}")
        out = np.zeros(x.shape, dtype=np.result_type(self.bands, x))
        for part, rows, cols in self._spans:
            out[rows] += (part if x.ndim == 1 else part[:, None]) * x[cols]
        return out

    def __getitem__(self, index):
        """A[i, j] for index arrays i and j, broadcast together."""
        i, j = (np.asarray(a, dtype=np.intp) for a in index)
        if not self.offsets.size:
            return np.zeros(np.broadcast(i, j).shape)
        m = np.minimum(np.searchsorted(self.offsets, j - i), self.offsets.size - 1)
        return np.where(self.offsets[m] == j - i, self.bands[m, i], 0.0)

    @property
    def T(self):
        bands = np.zeros_like(self.bands)
        for new, (part, _, cols) in zip(bands, self._spans):
            new[cols] = part
        return BandMatrix(-self.offsets[::-1], bands[::-1], self.full_diagonal)

    def diagonal(self, k=0):
        """The k-th diagonal, A[i, i + k] for every i that has one."""
        n = self.shape[0]
        lo, hi = max(0, -k), min(n, n - k)
        m = np.flatnonzero(self.offsets == k)
        return self.bands[m[0], lo:hi].copy() if m.size else np.zeros(max(hi - lo, 0))

    def entries(self):
        """(rows, cols, values) of the stored entries, row-major."""
        stored = self._stored().T
        rows, m = np.nonzero(stored)
        return rows, rows + self.offsets[m], self.bands.T[stored]
