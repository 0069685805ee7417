"""Approximate top-K retrieval: IVF index tier behind the exact scorer.

See DESIGN.md ("Approximate retrieval memory model") for the segment
layout and the determinism argument; README ("Approximate top-K") for
the quickstart and the measured users/s-vs-recall frontier.
"""

from .index import (
    DEFAULT_NLIST,
    DEFAULT_NPROBE,
    DEFAULT_TRAIN_ITERATIONS,
    AnnIndexMeta,
    IvfIndex,
)
from .kmeans import kmeans
from .scorer import AnnScorer

__all__ = [
    "AnnIndexMeta",
    "AnnScorer",
    "IvfIndex",
    "kmeans",
    "DEFAULT_NLIST",
    "DEFAULT_NPROBE",
    "DEFAULT_TRAIN_ITERATIONS",
]
