"""Seeded input generation for ``live_ingest``: a base matrix and a rating stream.

One synthetic matrix is generated over ``base + newcomer`` users and
items, so stream ratings come from the same ground truth the base model
is trained on and the held-out window RMSE is an honest accuracy figure.
Ratings among base users and items form the base matrix, less a pool
held back for the stream.  Every batch is that pool's next slice plus
the next slice of newcomer users' ratings, at most ``NEWCOMER_RATINGS``
per user and in user order — so every batch brings users (and, through
them, items) the model has never seen, folds them in and publishes, and
the matrix only ever grows.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_matrix
from repro.sparse import SparseRatingMatrix

from spec import LiveIngestSize

#: Stream ratings kept per newcomer user.  A popular newcomer would
#: otherwise fill batch after batch with no new id in them.
NEWCOMER_RATINGS = 5


class RatingStream:
    """The base matrix plus ``batches`` stream batches."""

    def __init__(self, size: LiveIngestSize, seed: int, batches: int) -> None:
        self.size = size
        self.batches = batches
        full, _, _ = generate_synthetic_matrix(
            SyntheticConfig(
                n_rows=size.base_rows + size.new_rows,
                n_cols=size.base_cols + size.new_cols,
                n_ratings=size.n_ratings,
                seed=seed,
            )
        )
        rng = np.random.default_rng(seed)
        rows, cols, vals = full.rows, full.cols, full.vals
        known = (rows < size.base_rows) & (cols < size.base_cols)
        by_user = np.flatnonzero(rows >= size.base_rows)
        by_user = by_user[np.argsort(rows[by_user], kind="stable")]
        first_of_user = np.searchsorted(rows[by_user], rows[by_user], side="left")
        self._newcomers = by_user[np.arange(len(by_user)) - first_of_user < NEWCOMER_RATINGS]
        known_index = rng.permutation(np.flatnonzero(known))
        self._per_batch_new = max(1, int(size.batch_ratings * size.newcomer_share))
        self._per_batch_known = size.batch_ratings - self._per_batch_new
        if batches * self._per_batch_new > len(self._newcomers):
            raise ValueError(f"{batches} batches need more newcomer ratings than {len(self._newcomers)}")
        held_back = batches * self._per_batch_known
        self._known = known_index[:held_back]
        base_index = np.sort(known_index[held_back:])
        self.base = SparseRatingMatrix(
            rows[base_index], cols[base_index], vals[base_index], shape=(size.base_rows, size.base_cols)
        )
        self._triples = (rows, cols, vals)
        self._next = 0

    def next_batch(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(users, items, vals)`` of the next batch, newcomers first."""
        if self._next >= self.batches:
            raise RuntimeError(f"the stream was built for {self.batches} batches")
        new = self._newcomers[self._next * self._per_batch_new : (self._next + 1) * self._per_batch_new]
        old = self._known[self._next * self._per_batch_known : (self._next + 1) * self._per_batch_known]
        self._next += 1
        index = np.concatenate([new, old])
        rows, cols, vals = self._triples
        return rows[index], cols[index], vals[index]
