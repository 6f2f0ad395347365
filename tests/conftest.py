import pytest

from ogeec import EmbeddingSpec, embed, generate_synthetic, split_dataset


@pytest.fixture(scope="session")
def small_ds():
    return generate_synthetic(
        n=300, d=2000, L=30, sparsity=10, labels_per_sample=2, clusters=6, seed=3
    )


@pytest.fixture(scope="session")
def small_spec():
    return EmbeddingSpec(seed=42, d=2000, r=32)


@pytest.fixture(scope="session")
def small_embedded(small_ds, small_spec):
    return embed(small_spec, small_ds)


@pytest.fixture(scope="session")
def train_test():
    """700/300 split of a clustered corpus with a recoverable kNN signal."""
    ds = generate_synthetic(
        n=1000, d=4000, L=120, sparsity=12, labels_per_sample=3, clusters=24, seed=100
    )
    return split_dataset(ds, 700)


def make_pair(seed: int):
    """One (train, test) pair per dataset seed; used by the trend criteria."""
    ds = generate_synthetic(
        n=1000,
        d=4000,
        L=120,
        sparsity=12,
        labels_per_sample=3,
        clusters=24,
        seed=100 + seed,
    )
    return split_dataset(ds, 700)


@pytest.fixture(scope="session")
def dataset_pairs():
    return [make_pair(seed) for seed in range(5)]
