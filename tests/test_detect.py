import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepscan.detect import classify, distinct_rows, fit_threshold, knn_scores


def brute_force_scores(train, query, k, exclude_self=False):
    out = []
    for i, q in enumerate(query):
        dists = []
        for j, t in enumerate(train):
            if exclude_self and i == j:
                continue
            sq = 0.0
            for a, b in zip(q, t):
                d = a - b
                sq += d * d
            dists.append(np.sqrt(sq))
        dists.sort()
        out.append(sum(dists[:k]))
    return np.array(out)


def test_hand_example_with_self_exclusion():
    train = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    scores = knn_scores(train, train, k=2, exclude_self=True)
    assert scores[0] == pytest.approx(1.0 + 2.0)
    assert scores[1] == pytest.approx(1.0 + 1.0)
    assert scores[2] == pytest.approx(2.0 + 1.0)


def test_duplicate_query_scores_zero():
    train = np.array([[1.0, 2.0], [3.0, 4.0]])
    scores = knn_scores(train, np.array([[1.0, 2.0]]), k=1)
    assert scores[0] == 0.0


def test_matches_brute_force_oracle_exactly():
    rng = np.random.default_rng(0)
    train = rng.normal(size=(50, 3))
    query = rng.normal(size=(50, 3))
    assert np.array_equal(knn_scores(train, query, k=5), brute_force_scores(train, query, 5))
    assert np.array_equal(
        knn_scores(train, train, k=5, exclude_self=True),
        brute_force_scores(train, train, 5, exclude_self=True),
    )
    # more queries than one 512-row block, with the self-distance skipped in every block
    big = rng.normal(size=(520, 2))
    assert np.array_equal(
        knn_scores(big, big, k=7, exclude_self=True),
        brute_force_scores(big, big, 7, exclude_self=True),
    )
    # tied, duplicated training rows, with k ending inside and across tie groups
    tied = np.repeat(np.arange(5.0), 4)[:, None]
    points = np.array([[0.0], [2.0], [4.5]])
    for k in (1, 4, 7, 20):
        assert np.array_equal(knn_scores(tied, points, k=k), brute_force_scores(tied, points, k))
    for k in (3, 5, 19):
        assert np.array_equal(
            knn_scores(tied, tied, k=k, exclude_self=True),
            brute_force_scores(tied, tied, k, exclude_self=True),
        )


# Few values, so rows repeat heavily; -0.0 and 0.0 make rows that are
# equal as numbers but not as bytes.
_ROW_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_duplicate_heavy_rows_match_brute_force_exactly(data):
    dim = data.draw(st.integers(0, 3))

    def matrix(n):
        rows = data.draw(st.lists(st.lists(_ROW_VALUES, min_size=dim, max_size=dim), min_size=n, max_size=n))
        return np.array(rows, dtype=np.float64).reshape(n, dim)

    train = matrix(data.draw(st.integers(2, 30)))
    query = matrix(data.draw(st.integers(0, 30)))
    k = data.draw(st.integers(1, len(train)))
    assert np.array_equal(knn_scores(train, query, k=k), brute_force_scores(train, query, k))
    k = data.draw(st.integers(1, len(train) - 1))
    assert np.array_equal(
        knn_scores(train, train, k=k, exclude_self=True),
        brute_force_scores(train, train, k, exclude_self=True),
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_distinct_rows_key_rows_by_their_bits(data):
    """Every row maps to a distinct row of its exact bits (-0.0 is not 0.0, a NaN is kept),
    no two distinct rows share their bits, and the counts add up to the rows."""
    dim = data.draw(st.integers(0, 3))
    values = _ROW_VALUES | st.just(float("nan"))
    rows = data.draw(st.lists(st.lists(values, min_size=dim, max_size=dim), max_size=30))
    rows = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    distinct, inverse, counts = distinct_rows(rows)
    assert distinct[inverse].tobytes() == rows.tobytes()
    assert len({row.tobytes() for row in distinct}) == len(distinct)
    assert counts.tolist() == np.bincount(inverse, minlength=len(distinct)).tolist()
    assert counts.sum() == len(rows) and (counts > 0).all()
    if len(rows) > 1:  # the fold's path: both scores from one set of distinct training rows
        k = data.draw(st.integers(1, len(rows) - 1))
        train_distinct = distinct_rows(rows)
        assert knn_scores(rows, rows, k=k, exclude_self=True, train_distinct=train_distinct).tobytes() == (
            knn_scores(rows, rows, k=k, exclude_self=True).tobytes()
        )
        assert knn_scores(rows, rows[::-1], k=k, train_distinct=train_distinct).tobytes() == (
            knn_scores(rows, rows[::-1], k=k).tobytes()
        )


def test_duplicate_row_edge_cases_match_brute_force_exactly():
    # all-identical training rows, every neighbour but the row itself
    same = np.ones((6, 2))
    assert np.array_equal(
        knn_scores(same, same, k=5, exclude_self=True), brute_force_scores(same, same, 5, exclude_self=True)
    )
    # rows equal as numbers but not as bytes
    signed = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, -0.0], [2.0, 0.0]])
    for k in (1, 2, 3, 4):
        assert np.array_equal(
            knn_scores(signed, signed, k=k, exclude_self=True),
            brute_force_scores(signed, signed, k, exclude_self=True),
        )
        assert np.array_equal(knn_scores(signed, signed[::-1], k=k), brute_force_scores(signed, signed[::-1], k))
    # more distinct query rows than one 512-row block, each repeated
    grid = np.array(np.meshgrid(*[np.arange(5.0)] * 4)).reshape(4, -1).T[:520]
    rows = np.vstack([grid, grid[:30]])
    assert np.array_equal(
        knn_scores(rows, rows, k=3, exclude_self=True), brute_force_scores(rows, rows, 3, exclude_self=True)
    )
    assert np.array_equal(knn_scores(grid[::7], rows, k=4), brute_force_scores(grid[::7], rows, 4))


def test_accepts_non_contiguous_and_casts():
    rng = np.random.default_rng(0)
    wide = rng.normal(size=(30, 12))
    train = wide[:, ::2]  # non-contiguous view
    query = wide[:10, ::2].astype(np.float32)
    scores = knn_scores(train, query, k=3)
    assert scores.dtype == np.float64
    assert np.array_equal(scores, brute_force_scores(train, query.astype(np.float64), 3))


def test_k_bounds_and_shape_validation():
    train = np.zeros((5, 2))
    with pytest.raises(ValueError, match="exceeds"):
        knn_scores(train, train, k=5, exclude_self=True)
    with pytest.raises(ValueError, match="exceeds"):
        knn_scores(train, np.zeros((2, 2)), k=6)
    with pytest.raises(ValueError):
        knn_scores(train, np.zeros((2, 3)), k=1)
    with pytest.raises(ValueError):
        knn_scores(train, np.zeros((4, 2)), k=1, exclude_self=True)
    with pytest.raises(ValueError, match="training set itself"):
        knn_scores(train, np.ones((5, 2)), k=1, exclude_self=True)
    with pytest.raises(ValueError):
        knn_scores(train, np.zeros((5, 2)), k=0)


def test_threshold_nearest_rank():
    scores = np.arange(1.0, 101.0)
    assert type(fit_threshold(scores, 95)) is float and fit_threshold(scores, 95) == 95.0
    assert fit_threshold(np.array([7.5]), 95) == 7.5
    assert fit_threshold(np.full(10, 3.0), 95) == 3.0
    # order must not matter
    rng = np.random.default_rng(2)
    shuffled = rng.permutation(scores)
    assert fit_threshold(shuffled, 95) == 95.0


def test_classification_is_strict():
    flags = classify(np.array([4.0, 5.0, 5.0 + 1e-12]), 5.0)
    assert flags.tolist() == [False, False, True]


def test_constant_training_scores_flag_nothing():
    scores = np.full(40, 2.5)
    thr = fit_threshold(scores, 95)
    assert classify(scores, thr).sum() == 0


def test_at_most_five_percent_of_train_flagged():
    rng = np.random.default_rng(3)
    scores = rng.exponential(size=200)
    thr = fit_threshold(scores, 95)
    assert classify(scores, thr).mean() <= 0.05


def test_separable_scores_have_no_misses():
    # miss-free contract: every affected row above the threshold is flagged
    clean = np.linspace(0.0, 1.0, 50)
    affected = np.linspace(2.0, 3.0, 10)
    thr = fit_threshold(clean, 95)
    assert thr < affected.min()
    assert classify(affected, thr).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_orthonormal_invariance(n, k, seed):
    rng = np.random.default_rng(seed)
    if k >= n:
        k = n - 1
    train = rng.normal(size=(n, 4))
    query = rng.normal(size=(8, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    base = knn_scores(train, query, k=k)
    rotated = knn_scores(train @ q, query @ q, k=k)
    assert np.allclose(base, rotated, rtol=1e-10, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 30), st.integers(0, 2**31 - 1))
def test_adding_a_training_point_never_raises_scores(n, seed):
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(n, 3))
    extra = np.vstack([train, rng.normal(size=(1, 3))])
    query = rng.normal(size=(10, 3))
    k = min(3, n)
    assert np.all(knn_scores(extra, query, k=k) <= knn_scores(train, query, k=k) + 1e-12)
