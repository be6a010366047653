from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from currikit import rng
from helpers import scalar_swaps, splitmix_draws

KEY_PART = st.one_of(st.integers(min_value=-(2**70), max_value=2**70), st.text(max_size=8))


def test_first_draws_pinned():
    assert rng.draws64(3, 0, "bootstrap", 0).tolist() == [
        0x39006FF960ABC1FA, 0xC21961FC0413582E, 0x13E637573287E0D1,
    ]
    assert rng.draws64(3, 7, "id", "pair-3").tolist() == [
        0xDF6C51780C0EB227, 0x29BCC67B01680A9E, 0x28FAB1C2D6C0BF22,
    ]
    assert rng.indices_with_replacement(1000, 5, 1, "bootstrap", 0).tolist() == [
        397, 943, 674, 571, 784,
    ]


def test_shuffle_pinned():
    assert rng.shuffled(range(16), 0, "batch", 0, 0) == [
        2, 7, 12, 1, 5, 11, 14, 3, 13, 0, 4, 9, 15, 10, 6, 8,
    ]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=0, max_value=40), key=st.lists(KEY_PART, max_size=4))
def test_swaps_and_shuffle_match_scalar_steps(n, key):
    steps = scalar_swaps(n, *key)
    assert list(rng.swaps(n, *key)) == steps
    expected = list(range(n))
    for i, j in steps:
        expected[i], expected[j] = expected[j], expected[i]
    assert rng.shuffled(range(n), *key) == expected


@pytest.mark.parametrize(
    "key", [(40, "direction", "id"), (0,), (), ("x", -3, "\u00e9"), (2**70, "th", 7)]
)
def test_coins_match_coin_per_index(key):
    assert list(islice(rng.coins(*key), 1000)) == [rng.coin(*key, i) for i in range(1000)]


@settings(max_examples=200, deadline=None)
@given(count=st.integers(min_value=0, max_value=300), key=st.lists(KEY_PART, max_size=3))
def test_draws_match_scalar_splitmix(count, key):
    draws = rng.draws64(count, *key)
    assert draws.dtype == np.uint64
    assert draws.tolist() == splitmix_draws(count, *key)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=2**63 - 1),
    count=st.integers(min_value=0, max_value=100),
    key=st.lists(KEY_PART, max_size=3),
)
def test_indices_are_draws_modulo_n(n, count, key):
    idx = rng.indices_with_replacement(n, count, *key)
    assert idx.dtype == np.intp
    assert idx.tolist() == [d % n for d in splitmix_draws(count, *key)]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=2**63 - 1),
    count=st.integers(min_value=0, max_value=50),
    keys=st.lists(st.lists(KEY_PART, max_size=3), max_size=4),
)
def test_index_rows_are_per_key_indices(n, count, keys):
    rows = rng.index_rows(n, count, [rng.hash64(*key) for key in keys])
    assert rows.dtype == np.intp
    assert rows.shape == (len(keys), count)
    assert rows.tolist() == [[d % n for d in splitmix_draws(count, *key)] for key in keys]


@pytest.mark.parametrize(
    "n, count, message",
    [
        (0, 3, "empty range"),
        (-1, 3, "empty range"),
        (2**63, 3, "limit"),
        (2**64 + 5, 3, "limit"),
        (10, -1, "negative count"),
    ],
)
def test_indices_reject_bad_arguments(n, count, message):
    with pytest.raises(ValueError, match=message):
        rng.indices_with_replacement(n, count, "k")

