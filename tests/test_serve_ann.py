"""The approximate retrieval tier: IVF index, AnnScorer.

Pins the properties the tier is built on:

* **deterministic builds** — same seed and factors give a
  bitwise-identical index (k-means centroids and inverted lists),
  across repeated builds and across a shared-memory serialisation
  round-trip, and the arrays and slates match digests recorded before
  the product-quantization tier was removed;
* **the exact-scorer contract survives approximation** — scores
  descending, item ids ascending among ties, and the returned ids are
  invariant to batch size and ``chunk_items``; probing every list
  returns exactly the exact scorer's ids (scores may differ by an ulp
  from the different GEMM tiling, so ids are pinned bitwise and scores
  to ``allclose``);
* **recall** — at the default ``nlist``/``nprobe`` the index clears the
  CI-gated recall@10 floor on netflix-shaped synthetic factors;
* **publication** — the index rides the model's shared segment through
  :class:`ModelStore`, attaches zero-copy (in-process and from a forked
  reader), round-trips through the handle JSON, and old handles without
  an index still load;
* **degradation** — an ANN service whose store hot-swaps to an
  index-less version keeps serving the old model+index pair and counts
  a reload failure rather than mixing tiers.
"""

import hashlib
import json
import multiprocessing
import os
import tempfile

import numpy as np
import pytest

from repro.exceptions import ExecutionError, InvalidMatrixError
from repro.serve import (
    PAD_ITEM,
    AnnScorer,
    IvfIndex,
    ModelStore,
    RecommendationService,
    Scorer,
    attach_model,
)
from repro.serve.ann import DEFAULT_NLIST, DEFAULT_NPROBE, AnnIndexMeta, kmeans
from repro.serve.bench import recall_at_k, synthetic_model
from repro.sgd import FactorModel
from repro.shm import SharedSegment, live_segment_names
from repro.sparse import SparseRatingMatrix


@pytest.fixture(scope="module")
def model() -> FactorModel:
    return FactorModel.initialize(60, 47, 8, seed=5)


@pytest.fixture(scope="module")
def index(model) -> IvfIndex:
    return IvfIndex.build(model, nlist=6, seed=0)


def _assert_no_segments():
    assert live_segment_names() == ()


class TestKmeans:
    def test_same_seed_is_bitwise_identical(self):
        points = np.random.default_rng(3).normal(size=(200, 6))
        c1, a1 = kmeans(points, 8, seed=4)
        c2, a2 = kmeans(points, 8, seed=4)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(a1, a2)

    def test_assignments_are_valid_and_every_cluster_nonempty(self):
        points = np.random.default_rng(7).normal(size=(100, 3))
        centroids, assignments = kmeans(points, 10, seed=0)
        assert centroids.shape == (10, 3)
        assert assignments.shape == (100,)
        assert set(np.unique(assignments)) == set(range(10))

    def test_assignment_is_nearest_centroid_lowest_id_ties(self):
        points = np.random.default_rng(11).normal(size=(80, 4))
        centroids, assignments = kmeans(points, 5, seed=1)
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(assignments, np.argmin(dists, axis=1))

    def test_rejects_more_clusters_than_points(self):
        with pytest.raises(InvalidMatrixError):
            kmeans(np.ones((3, 2)), 4, seed=0)


class TestIndexBuild:
    def test_build_is_bitwise_deterministic(self, model, index):
        rebuilt = IvfIndex.build(model, nlist=6, seed=0)
        assert index.same_arrays(rebuilt)

    def test_different_seed_differs(self, model, index):
        other = IvfIndex.build(model, nlist=6, seed=1)
        assert not index.same_arrays(other)

    def test_lists_partition_the_catalogue(self, model, index):
        n = model.shape[1]
        np.testing.assert_array_equal(np.sort(index.ids), np.arange(n))
        assert index.offsets[0] == 0 and index.offsets[-1] == n
        assert (np.diff(index.offsets) >= 0).all()
        for lst in range(index.nlist):
            ids = index.list_ids(lst)
            assert (np.diff(ids) > 0).all(), "ids ascending within a list"

    def test_meta_roundtrips_through_dict(self, index):
        meta = index.meta
        assert AnnIndexMeta.from_dict(meta.as_dict()) == meta

    def test_build_accepts_raw_item_matrix(self, model, index):
        from_q = IvfIndex.build(model.q, nlist=6, seed=0)
        assert index.same_arrays(from_q)

    def test_build_validates_inputs(self, model):
        with pytest.raises(InvalidMatrixError):
            IvfIndex.build(model, nlist=0)
        with pytest.raises(InvalidMatrixError):
            IvfIndex.build(model, nlist=model.shape[1] + 1)


class TestAnnScorerContract:
    def test_full_probe_ids_match_exact(self, model, index):
        """nprobe == nlist scans everything: ids exactly the exact
        scorer's; scores allclose (different GEMM tiling, ulp noise)."""
        users = np.arange(model.shape[0])
        exact_ids, exact_scores = Scorer(model).top_k(users, 10)
        ids, scores = AnnScorer(model, index, nprobe=index.nlist).top_k(
            users, 10
        )
        np.testing.assert_array_equal(ids, exact_ids)
        np.testing.assert_allclose(scores, exact_scores, rtol=1e-12, atol=0)

    def test_scores_descend_ids_ascend_on_ties(self, model, index):
        ids, scores = AnnScorer(model, index, nprobe=3).top_k(
            np.arange(model.shape[0]), 10
        )
        assert (np.diff(scores, axis=1) <= 0).all()
        for row_ids, row_scores in zip(ids, scores):
            for j in range(len(row_ids) - 1):
                if row_scores[j] == row_scores[j + 1] != -np.inf:
                    assert row_ids[j] < row_ids[j + 1]

    @pytest.mark.parametrize("chunk", (1, 7, 64, 10_000))
    def test_ids_invariant_to_chunk_items(self, model, index, chunk):
        users = np.arange(model.shape[0])
        baseline, _ = AnnScorer(model, index, nprobe=3).top_k(users, 10)
        ids, _ = AnnScorer(model, index, nprobe=3, chunk_items=chunk).top_k(
            users, 10
        )
        np.testing.assert_array_equal(ids, baseline)

    def test_ids_invariant_to_batch_splits(self, model, index):
        users = np.arange(model.shape[0])
        scorer = AnnScorer(model, index, nprobe=3)
        whole, _ = scorer.top_k(users, 10)
        for split in (1, 7, 13):
            parts = [
                scorer.top_k(users[i : i + split], 10)[0]
                for i in range(0, len(users), split)
            ]
            np.testing.assert_array_equal(np.vstack(parts), whole)

    def test_single_user_matches_batch_row(self, model, index):
        scorer = AnnScorer(model, index, nprobe=3)
        batch_ids, _ = scorer.top_k(np.asarray([4]), 7)
        np.testing.assert_array_equal(scorer.top_k_single(4, 7), batch_ids[0])

    def test_exclusion_applied_after_candidate_generation(self, model, index):
        m, n = model.shape
        rng = np.random.default_rng(0)
        train = SparseRatingMatrix(
            rng.integers(0, m, size=300),
            rng.integers(0, n, size=300),
            np.ones(300),
            shape=(m, n),
            check=False,
        )
        users = np.arange(m)
        ids, _ = AnnScorer(model, index, exclude=train, nprobe=3).top_k(
            users, 10
        )
        indptr, seen = train.csr_rows()
        for row, user in enumerate(users):
            rated = set(seen[indptr[user] : indptr[user + 1]].tolist())
            assert rated.isdisjoint(set(ids[row].tolist()) - {PAD_ITEM})
        # Full probe + exclusion == the exact scorer with exclusion.
        full, _ = AnnScorer(
            model, index, exclude=train, nprobe=index.nlist
        ).top_k(users, 10)
        exact, _ = Scorer(model, exclude=train).top_k(users, 10)
        np.testing.assert_array_equal(full, exact)

    def test_user_with_everything_seen_gets_padding(self):
        model = FactorModel.initialize(3, 6, 2, seed=0)
        index = IvfIndex.build(model, nlist=2, seed=0)
        train = SparseRatingMatrix.from_triples(
            [(1, v, 1.0) for v in range(6)], shape=(3, 6)
        )
        ids, scores = AnnScorer(
            model, index, exclude=train, nprobe=2
        ).top_k(np.asarray([1]), 4)
        np.testing.assert_array_equal(ids[0], np.full(4, PAD_ITEM))
        assert np.isneginf(scores[0]).all()

    def test_validation(self, model, index):
        with pytest.raises(InvalidMatrixError):
            AnnScorer(model, index, nprobe=0)
        with pytest.raises(InvalidMatrixError):
            AnnScorer(model, index, chunk_items=0)
        other = FactorModel.initialize(10, 12, 8, seed=0)
        with pytest.raises(InvalidMatrixError):
            AnnScorer(other, index)  # catalogue mismatch
        scorer = AnnScorer(model, index)
        with pytest.raises(InvalidMatrixError):
            scorer.top_k(np.asarray([model.shape[0]]), 5)
        with pytest.raises(InvalidMatrixError):
            scorer.top_k(np.asarray([0]), 0)

    def test_recall_floor_at_defaults_netflix_shaped(self):
        """The CI-gated property: recall@10 >= 0.95 at the default
        nlist/nprobe on factors shaped like the paper's catalogue."""
        model = synthetic_model(2_000, 17_770, 128, seed=0)
        index = IvfIndex.build(model, nlist=DEFAULT_NLIST, seed=0)
        users = np.arange(256)
        exact_ids, _ = Scorer(model).top_k(users, 10)
        approx_ids, _ = AnnScorer(
            model, index, nprobe=DEFAULT_NPROBE
        ).top_k(users, 10)
        assert recall_at_k(approx_ids, exact_ids) >= 0.95


def _exclusion_csr(m: int, n: int, nnz: int):
    """A seeded ``(indptr, indices)`` exclusion set of ``nnz`` distinct cells."""
    cells = np.sort(np.random.default_rng(17).choice(m * n, size=nnz, replace=False))
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells // n, minlength=m), out=indptr[1:])
    return indptr, (cells % n).astype(np.int64)


def _digest(*arrays: np.ndarray) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def _ivf_digests(model: FactorModel, nlist: int, nnz: int) -> dict:
    """sha256 of the index arrays and of the slates of users ``0..255``."""
    index = IvfIndex.build(model, nlist=nlist, seed=0)
    out = {name: _digest(getattr(index, name)) for name in ("centroids", "offsets", "ids")}
    users = np.arange(min(256, model.shape[0]))
    exclude = _exclusion_csr(*model.shape, nnz)
    for nprobe in (2, 8, nlist):
        for label, excl in (("all", None), ("excl", exclude)):
            ids, scores = AnnScorer(model, index, exclude=excl, nprobe=nprobe).top_k(users, 10)
            out[f"top_k/nprobe={nprobe}/{label}"] = _digest(ids, scores)
    return out


#: Digests recorded before the product-quantization tier was removed; the
#: IVF arrays and the slates it serves must stay bit-identical.  Scores are
#: float64 GEMM results, so the constants hold for a given BLAS build.
PINNED_IVF_DIGESTS = {
    "small": {
        "centroids": "e75282b4ba1a703a168fd1661a3891b72ee8b06717b12a8303b9622ea5191902",
        "offsets": "b0b3bdbf17670ef05479fe03dd2454d170a823b38af4d6680e9b925b7a131c8f",
        "ids": "95b7842efad5fe4e48390fa97ae63d51977277f22e48cf928494f66c414c00d5",
        "top_k/nprobe=2/all": "54d0c99bc60d42750473eea43d0350c922613c6c5683e7e81e13843f45b78343",
        "top_k/nprobe=2/excl": "46634f89eca295ab49db51472f19fd1e180c9fff392be6e67b93692ee459bc01",
        "top_k/nprobe=8/all": "da088401be7c784b85946ca1e5c652437a41289b9db4a2f79c4245a332a401e4",
        "top_k/nprobe=8/excl": "0e81d54b52786609de0749c21690720f45b95a4b53003b932a243e08c16bebff",
        "top_k/nprobe=6/all": "da088401be7c784b85946ca1e5c652437a41289b9db4a2f79c4245a332a401e4",
        "top_k/nprobe=6/excl": "0e81d54b52786609de0749c21690720f45b95a4b53003b932a243e08c16bebff",
    },
    "netflix": {
        "centroids": "8f5d079ee17357977e01ba3a8db2c3f4239ce87e21f75051ba23b633c6fa6465",
        "offsets": "b403913085d92cbfacd2f52b8f26ff6469b7b7b867ae1349a76d3575fcce3f8a",
        "ids": "0cd4e086e49f8f4346709c07c410400800738aa5b71d05cb9bb3632455af3d29",
        "top_k/nprobe=2/all": "ace5ba6ea1f353dae3601cfe017a233bf761b35caa161c467ed88cf4d26a4f99",
        "top_k/nprobe=2/excl": "fa5c26c5e53f0c8de80b8f1d67a0a78b2f57f6a251cf95bac0454ec0a9903952",
        "top_k/nprobe=8/all": "edd754b2b8e1d9c7569e8c3cc96d7fa329484fe5dfa961e1bc9facfeaecce1bc",
        "top_k/nprobe=8/excl": "04f87f6f237cbaad94f6eee37ae32dd99a1d58cffebc6089fc330e549dca8d8b",
        "top_k/nprobe=64/all": "306bcc7daadcd606f1577460f146ecc0b5c1435343f1baf362156fae24c3ac23",
        "top_k/nprobe=64/excl": "c2dcaff0a3c80502be10e87d42ea415a0e7dfaaa804f410bd29fe84359e07a71",
    },
}


class TestIvfPinned:
    def test_small_model(self, model):
        assert _ivf_digests(model, nlist=6, nnz=300) == PINNED_IVF_DIGESTS["small"]

    def test_netflix_shaped(self):
        model = synthetic_model(2_000, 17_770, 128, seed=0)
        assert _ivf_digests(model, nlist=64, nnz=2_000_000) == PINNED_IVF_DIGESTS["netflix"]


class TestSerialization:
    def test_pack_attach_roundtrip_bitwise(self, model, index):
        segment = SharedSegment.create(index.meta.nbytes, purpose="annidx")
        try:
            index.pack_into(segment, 0)
            attached = IvfIndex.attach(segment, 0, index.meta)
            assert index.same_arrays(attached)
            assert not attached.centroids.flags.writeable
            attached = None
        finally:
            segment.close()
            segment.unlink()
        _assert_no_segments()


class TestStorePublication:
    def test_publish_with_index_attach_zero_copy(self, model, index):
        with ModelStore() as store:
            handle = store.publish(model, index=index)
            assert handle.index == index.meta
            assert handle.nbytes == handle.model_nbytes + index.meta.nbytes
            attached_model, attached_index, segment = attach_model(
                handle, with_index=True
            )
            np.testing.assert_array_equal(attached_model.q, model.q)
            assert index.same_arrays(attached_index)
            attached_model = attached_index = None
            segment.close()
        _assert_no_segments()

    def test_two_tuple_attach_stays_backward_compatible(self, model, index):
        with ModelStore() as store:
            handle = store.publish(model, index=index)
            attached, segment = attach_model(handle)
            np.testing.assert_array_equal(attached.p, model.p)
            attached = None
            segment.close()
        _assert_no_segments()

    def test_publish_rejects_mismatched_index(self, model):
        other = IvfIndex.build(
            FactorModel.initialize(10, 12, 8, seed=0), nlist=3, seed=0
        )
        with ModelStore() as store:
            with pytest.raises(InvalidMatrixError):
                store.publish(model, index=other)
        _assert_no_segments()

    def test_lease_carries_the_index(self, model, index):
        with ModelStore() as store:
            store.publish(model, index=index)
            lease = store.acquire()
            try:
                assert lease.index is not None
                assert index.same_arrays(lease.index)
            finally:
                lease.release()
            assert lease.index is None
        _assert_no_segments()

    def test_handle_json_roundtrip_with_index(self, model, index):
        with ModelStore() as store:
            handle = store.publish(model, index=index)
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "handle.json")
                handle.save(path)
                loaded = type(handle).load(path)
            assert loaded == handle
            assert loaded.index == index.meta
        _assert_no_segments()

    def test_handle_json_without_index_still_loads(self, model):
        """Handles written before the ANN tier carry no "index" key."""
        with ModelStore() as store:
            handle = store.publish(model)
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "handle.json")
                handle.save(path)
                loaded = type(handle).load(path)
            assert loaded == handle
            assert loaded.index is None
        _assert_no_segments()

    @staticmethod
    def _reload_with_index_fields(handle, **fields):
        """Save ``handle``, patch its "index" object, and load it back."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "handle.json")
            handle.save(path)
            with open(path, encoding="utf-8") as stream:
                raw = json.load(stream)
            raw["index"].update(fields)
            with open(path, "w", encoding="utf-8") as stream:
                json.dump(raw, stream)
            return type(handle).load(path), raw["index"]

    def test_handle_json_index_has_no_pq_m_key(self, model, index):
        with ModelStore() as store:
            handle = store.publish(model, index=index)
            loaded, raw = self._reload_with_index_fields(handle)
            assert "pq_m" not in raw
            assert loaded == handle
        _assert_no_segments()

    def test_handle_json_with_pq_m_zero_still_loads(self, model, index):
        """Handles written while the PQ tier existed carry "pq_m": 0."""
        with ModelStore() as store:
            handle = store.publish(model, index=index)
            loaded, _ = self._reload_with_index_fields(handle, pq_m=0)
            assert loaded == handle
        _assert_no_segments()

    def test_handle_json_with_pq_index_fails_loudly(self, model, index):
        with ModelStore() as store:
            handle = store.publish(model, index=index)
            with pytest.raises(ExecutionError, match="pq_m=4"):
                self._reload_with_index_fields(handle, pq_m=4)
        _assert_no_segments()

    def test_forked_reader_returns_identical_ids(self, model, index):
        with ModelStore() as store:
            handle = store.publish(model, index=index)
            ctx = multiprocessing.get_context(
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
            queue = ctx.Queue()
            proc = ctx.Process(
                target=_ann_reader, args=(handle, queue), daemon=True
            )
            proc.start()
            segment_name, remote_ids = queue.get(timeout=120)
            proc.join(timeout=60)
            assert proc.exitcode == 0
            assert segment_name == handle.segment
            local_ids, _ = AnnScorer(model, index, nprobe=3).top_k(
                np.arange(model.shape[0]), 10
            )
            np.testing.assert_array_equal(np.asarray(remote_ids), local_ids)
        _assert_no_segments()


def _ann_reader(handle, queue):
    attached_model, attached_index, segment = attach_model(
        handle, with_index=True
    )
    try:
        ids, _ = AnnScorer(attached_model, attached_index, nprobe=3).top_k(
            np.arange(attached_model.shape[0]), 10
        )
        queue.put((segment.name, ids.tolist()))
    finally:
        attached_model = attached_index = None
        segment.close()


class TestAnnService:
    def test_service_serves_ann_tier_from_store(self, model, index):
        with ModelStore() as store:
            store.publish(model, index=index)
            with RecommendationService(
                store, k=10, ann=True, nprobe=3
            ) as service:
                assert service.tier == "ann"
                expected, _ = AnnScorer(model, index, nprobe=3).top_k(
                    np.asarray([7]), 10
                )
                rec = service.recommend(7)
                np.testing.assert_array_equal(rec.items, expected[0])
        _assert_no_segments()

    def test_ann_service_requires_a_published_index(self, model):
        with ModelStore() as store:
            store.publish(model)
            with pytest.raises(ExecutionError):
                RecommendationService(store, ann=True)
        _assert_no_segments()

    def test_reload_without_index_degrades_not_mixes(self, model, index):
        """Hot-swap to an index-less version: the ANN service keeps the
        old model+index pair and counts a reload failure."""
        with ModelStore() as store:
            store.publish(model, index=index)
            with RecommendationService(
                store, k=10, ann=True, nprobe=3
            ) as service:
                first = service.recommend(3)
                assert first.model_version == 1
                store.publish(FactorModel.initialize(60, 47, 8, seed=9))
                again = service.recommend(4)
                assert again.model_version == 1, "must not adopt v2"
                assert service.stats.reload_failures >= 1
                assert service.tier == "ann"
        _assert_no_segments()


class TestRecallAtK:
    def test_perfect_and_partial(self):
        exact = np.asarray([[1, 2, 3], [4, 5, 6]])
        assert recall_at_k(exact, exact) == 1.0
        approx = np.asarray([[1, 2, 9], [4, 5, 6]])
        assert recall_at_k(approx, exact) == pytest.approx(5 / 6)

    def test_order_within_slate_is_irrelevant(self):
        exact = np.asarray([[1, 2, 3]])
        assert recall_at_k(np.asarray([[3, 1, 2]]), exact) == 1.0

    def test_pad_in_exact_shrinks_denominator(self):
        exact = np.asarray([[1, 2, PAD_ITEM]])
        assert recall_at_k(np.asarray([[1, 2, PAD_ITEM]]), exact) == 1.0
        assert recall_at_k(np.asarray([[1, 9, PAD_ITEM]]), exact) == 0.5

    def test_pad_in_approx_never_counts_as_hit(self):
        exact = np.asarray([[PAD_ITEM, PAD_ITEM]])
        # Fully padded exact slate: nothing to find, recall 1.0 not 0/0.
        assert recall_at_k(np.asarray([[PAD_ITEM, PAD_ITEM]]), exact) == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidMatrixError):
            recall_at_k(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(InvalidMatrixError):
            recall_at_k(np.zeros(3), np.zeros(3))
