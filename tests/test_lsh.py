import numpy as np
import pytest
from oracles import box_muller, neighbor_lists

from ogeec.data import generate_synthetic, split_dataset
from ogeec.embedding import EmbeddedMatrix, EmbeddingSpec, embed, project_csr
from ogeec.lsh import (
    LSH_SEED_NAMESPACE,
    _codes,
    build_index,
    candidates,
    hyperplanes_for,
    query_lsh,
)
from ogeec.predictor import knn


def matrix_of(columns) -> EmbeddedMatrix:
    data = np.asfortranarray(np.asarray(columns, dtype=np.float32))
    return EmbeddedMatrix(r=data.shape[0], n=data.shape[1], data=data)


@pytest.fixture(scope="module")
def indexed():
    rng = np.random.default_rng(0)
    cols = rng.normal(size=(16, 120))
    cols /= np.linalg.norm(cols, axis=0)
    train = matrix_of(cols)
    return train, build_index(train, T=4, H=12, seed=9)


def test_identical_vectors_share_codes(indexed):
    train, index = indexed
    dup = np.column_stack([train.data, train.data[:, 0]])
    index2 = build_index(matrix_of(dup), T=4, H=12, seed=9)
    for t in range(4):
        planes = index2.hyperplanes[t * 12 : (t + 1) * 12]
        codes = _codes(planes, index2.train.data)
        assert codes[0] == codes[-1]


def test_negated_vector_gives_complement_code():
    rng = np.random.default_rng(3)
    x = rng.normal(size=20)
    planes = hyperplanes_for(7, 1, 16, 20)
    code = int(_codes(planes, x.reshape(-1, 1))[0])
    code_neg = int(_codes(planes, (-x).reshape(-1, 1))[0])
    assert code_neg == (~code) & 0xFFFF


def test_every_index_in_exactly_one_bucket_per_table(indexed):
    train, index = indexed
    for table in index.buckets:
        members = np.concatenate(list(table.values()))
        assert np.array_equal(np.sort(members), np.arange(train.n))


def test_hyperplane_stream_is_namespaced():
    direct = box_muller(7, 0, 20)
    plane = hyperplanes_for(7, 1, 1, 20)[0]
    assert not np.array_equal(direct, plane)
    assert np.array_equal(plane, box_muller(7 ^ LSH_SEED_NAMESPACE, 0, 20))


@pytest.mark.parametrize("seed", [0, 7, 123456789])
@pytest.mark.parametrize("r", [1, 2, 3, 20, 99, 100, 200])
def test_hyperplanes_equal_box_muller_rows(seed, r):
    """Drawn through the projection's column plan at every column and put back
    in column order, the hyperplanes are the definitional rows bit for bit,
    at odd and even r."""
    planes = hyperplanes_for(seed, 3, 2, r)
    expect = np.vstack([box_muller(seed ^ LSH_SEED_NAMESPACE, i, r) for i in range(6)])
    assert planes.shape == (6, r) and planes.flags.c_contiguous
    assert planes.tobytes() == expect.tobytes()


def test_single_bit_agreement_tracks_angle():
    """Sign agreement frequency over many hyperplanes approximates
    1 - theta/pi (Monte-Carlo check at three angles)."""
    r = 24
    rng = np.random.default_rng(0)
    x = rng.normal(size=r)
    x /= np.linalg.norm(x)
    y0 = rng.normal(size=r)
    planes = hyperplanes_for(9, 10000, 1, r)
    for target in (0.3, 1.0, 2.0):
        y_perp = y0 - (y0 @ x) * x
        y_perp /= np.linalg.norm(y_perp)
        y = np.cos(target) * x + np.sin(target) * y_perp
        agree = np.mean(((planes @ x) >= 0) == ((planes @ y) >= 0))
        theta = np.arccos(np.clip(x @ y, -1.0, 1.0))
        assert abs(agree - (1 - theta / np.pi)) < 0.02


def test_indexed_vector_is_always_its_own_candidate(indexed):
    train, index = indexed
    for i in (0, 17, 119):
        cand = candidates(index, train.data[:, i])
        assert i in set(cand.tolist())
        entries = neighbor_lists(*query_lsh(index, train.data[:, i], 3))
        assert entries[0][0] == i


def test_lsh_scores_are_bit_identical_to_exhaustive(indexed):
    train, _ = indexed
    index = build_index(train, T=4, H=3, seed=9)  # coarse buckets: many candidates
    for j in (0, 17, 119):
        q = train.data[:, j] * 0.7  # a float64 query in column j's buckets
        exhaustive = dict(neighbor_lists(*knn(q, train, train.n)))
        found = neighbor_lists(*query_lsh(index, q, train.n))
        assert len(found) > 1
        assert all(s == exhaustive[i] for i, s in found)


def test_candidates_monotone_in_table_count(indexed):
    train, _ = indexed
    q = train.data[:, 5]
    prev: set = set()
    for T in (1, 2, 4, 8):
        index = build_index(train, T=T, H=12, seed=9)
        cand = set(candidates(index, q).tolist())
        assert prev <= cand
        prev = cand


def test_empty_candidate_set_yields_empty_list():
    x = np.ones(8, dtype=np.float32) / np.sqrt(8)
    train = matrix_of(x.reshape(-1, 1))
    index = build_index(train, T=1, H=8, seed=2)
    found, sims = query_lsh(index, -x, 3)
    assert neighbor_lists(found, sims) == []
    assert found.tolist() == [-1, -1, -1] and sims.tolist() == [0.0, 0.0, 0.0]


def test_recall_with_many_tables():
    """T large enough recovers at least 80% of the true top-5."""
    ds = generate_synthetic(
        n=600, d=2000, L=40, sparsity=15, labels_per_sample=2, clusters=8, seed=5
    )
    train_ds, test_ds = split_dataset(ds, 500)
    spec = EmbeddingSpec(seed=3, d=2000, r=32)
    emb = embed(spec, train_ds)
    index = build_index(emb, T=64, H=8, seed=3)
    q_emb = project_csr(spec, test_ds.to_feature_csr(np.float64))
    recalls = []
    for i in range(test_ds.n):
        q = q_emb[:, i]
        true = {idx for idx, _ in neighbor_lists(*knn(q, emb, 5))}
        got = {idx for idx, _ in neighbor_lists(*query_lsh(index, q, 5))}
        recalls.append(len(true & got) / 5)
    assert float(np.mean(recalls)) >= 0.8


def test_build_index_validation(indexed):
    train, _ = indexed
    with pytest.raises(ValueError):
        build_index(train, T=0, H=4)
    with pytest.raises(ValueError):
        build_index(train, T=1, H=65)
    index = build_index(train, T=1, H=4, seed=0)
    with pytest.raises(ValueError):
        query_lsh(index, np.zeros(train.r + 1, dtype=np.float32), 0)
