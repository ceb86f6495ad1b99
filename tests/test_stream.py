"""taskreg's seeded draws against numpy's own ``default_rng``.

`split` and cmtl's k-means draw from :class:`taskreg._stream.Stream`,
which must give numpy's PCG64 stream bit for bit. The draws are pinned
here against numpy, and the outputs against digests recorded with
numpy's ``Generator``. (The split oracle in ``oracles.py`` draws from
numpy too.)
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from taskreg import cli
from taskreg._stream import Stream
from taskreg.cmtl import _kmeans_labels, extract_clusters
from taskreg.dataset import RowTable, stratified_split

# 2**32 + 5 and 2**64 + 3 take two and three 32-bit words of entropy.
_SEEDS = (0, 1, 2**32 + 5, 2**64 + 3)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("n", [1, 2, 3, 17, 2501])
def test_permutation_matches_numpy(seed, n):
    for t in (0, 5):
        expected = np.random.default_rng([seed, t]).permutation(n).tolist()
        assert Stream([seed, t]).permutation(n) == expected


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("k", [2, 5, 64, 1000])
def test_integers_and_random_match_numpy(seed, k):
    # Interleaved, so a 32-bit draw's buffered high half is carried across
    # the 64-bit draws of random(), as numpy carries it.
    stream, rng = Stream(seed), np.random.default_rng(seed)
    for i in range(300):
        if i % 3 == 2:
            assert stream.random() == rng.random()
        else:
            assert stream.integers(k) == rng.integers(k)
    assert stream.integers(1) == rng.integers(1) == 0
    assert stream.permutation(9) == rng.permutation(9).tolist()


def test_inverse_cdf_draw_is_numpy_choice():
    # _kmeans_pp_init draws with the inverse CDF what rng.choice(n, p=p) draws.
    weights = np.array([0.0, 3.0, 1e-9, 2.5, 0.0, 7.0, 1.0])
    p = weights / weights.sum()
    for seed in range(200):
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        ours = int(cdf.searchsorted(Stream(seed).random(), side="right"))
        assert ours == np.random.default_rng(seed).choice(p.size, p=p)


@pytest.mark.parametrize("seed", [0, 3, 2**40])
def test_kmeans_labels_same_with_stream_and_generator(seed):
    points = np.random.default_rng(99).normal(size=(40, 3))
    with_stream = _kmeans_labels(points, 5, Stream(seed), restarts=4)
    with_numpy = _kmeans_labels(points, 5, np.random.default_rng(seed), restarts=4)
    np.testing.assert_array_equal(with_stream, with_numpy)


_FOUR_ROWS = RowTable(
    table=np.zeros((4, 2)), task_rows=(np.arange(4),), task_labels=("a",), feature_names=("f",)
)


def test_seed_errors_match_numpy():
    for seed, error in ((-1, ValueError), (1.5, TypeError)):
        with pytest.raises(error):
            np.random.default_rng([seed, 0])
        with pytest.raises(error):
            Stream([seed, 0])
        with pytest.raises(error):
            stratified_split(_FOUR_ROWS, 0.5, seed)


def _write_fixed_csv(path):
    """61 rows in three interleaved tasks, written without a random draw."""
    lines = ["task,f0,f1,f2,outcome"]
    for i in range(61):
        task = "abc"[(i * 7) % 5 % 3]
        x = [((i * 37 + j * 11) % 101) / 100 for j in range(3)]
        lines.append(",".join([task, *map(repr, x), repr(round(sum(x) + (i % 7) / 10, 6))]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# SHA-256 of train.csv and test.csv, recorded when split drew from numpy's Generator.
_SPLIT_DIGESTS = {
    0: ("b2d19a8fe64efdb21a5e1dba14235ca1cee907abc3402fc762326d4ae61b2772",
        "78783b91f13c22f2430dcf94fac13ac5837b9637ae55b5c8ffa0773a8a9dcbd1"),
    1: ("834504b0d2ac3fdeec30b2f43a95be220c2d3541eb64d41ad7a266e7b68b30cb",
        "49cee1bec6cfc38e88a7bb0fd1e647c1d51e56f8a6618131a78dca7aefed12a1"),
    2**40: ("bced21151e6bb9cfbaa0923ca933298bd8554f9636ea0b32ad362bdf808e21b2",
            "a4cb5cb5e261520fc205ab36cd1fa8a1b96f70a1e2bd75c5f1098af17534fa86"),
}


@pytest.mark.parametrize("seed", sorted(_SPLIT_DIGESTS))
def test_split_outputs_match_recorded_digests(tmp_path, seed):
    source = tmp_path / "fixed.csv"
    _write_fixed_csv(source)
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    argv = ["split", str(source), "--seed", str(seed), "--train-out", str(train),
            "--test-out", str(test), "--manifest", str(tmp_path / "split.json")]
    assert cli.main(argv) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (train, test))
    assert digests == _SPLIT_DIGESTS[seed]


# extract_clusters(m, 4, seed) on the fixed 20 x 20 matrix below, recorded
# when k-means drew from numpy's Generator; each seed gives other labels.
_CLUSTER_LABELS = {
    0: (0, 1, 2, 0, 0, 3, 2, 2, 3, 3, 1, 3, 2, 3, 3, 3, 3, 0, 1, 2),
    1: (0, 1, 0, 1, 2, 0, 0, 2, 1, 1, 2, 3, 3, 1, 3, 3, 1, 0, 1, 0),
    2**40: (0, 1, 2, 0, 0, 3, 2, 2, 1, 1, 1, 1, 2, 1, 3, 1, 1, 0, 1, 2),
}


@pytest.mark.parametrize("seed", sorted(_CLUSTER_LABELS))
def test_extract_clusters_matches_recorded_labels(seed):
    i = np.arange(1, 21)
    matrix = np.sin(np.multiply.outer(i, i) * 0.37)
    assert extract_clusters(matrix, 4, seed) == _CLUSTER_LABELS[seed]
