import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceineq import MAX_N, InvalidRange
from traceineq.cli import _perm_text
from traceineq.combinatorics import doubling_permutation, shape_params, slot_sources, thue_morse
from traceineq.entangle import build_layout


def test_thue_morse_prefix_frozen():
    # bit-parity sequence on slots 2, 3, 4, ...
    assert [thue_morse(k) for k in range(2, 10)] == [0, 1, 1, 0, 1, 0, 0, 1]


def test_thue_morse_rejects_below_two():
    with pytest.raises(InvalidRange):
        thue_morse(1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10 ** 6))
def test_thue_morse_doubling_relations(k):
    # parity of popcount: even doublings preserve, odd offsets flip
    base = thue_morse(k)
    assert thue_morse(2 * (k - 2) + 2) == base
    assert thue_morse(2 * (k - 2) + 3) == 1 - base


def test_shape_params_table():
    # (levels, padded slots) for each chain length, on the layout record
    expect = {
        3: (1, 1), 4: (1, 0), 5: (2, 1), 6: (2, 0),
        7: (3, 3), 8: (3, 2), 9: (3, 1), 10: (3, 0),
    }
    for n, (levels, pads) in expect.items():
        layout = build_layout(n, 2)
        assert shape_params(n) == layout.level_count == levels
        assert layout.pad_count == pads
        assert layout.full_n == 2 ** levels + 2
        assert layout.factor_count == layout.full_n - 2
    for bad in (2, 11, 0, -1):
        with pytest.raises(InvalidRange):
            shape_params(bad)
    assert MAX_N == 10


def test_doubling_permutation_frozen_levels():
    assert doubling_permutation(1) == {2: 2, 3: 3}
    assert doubling_permutation(2) == {2: 2, 3: 5, 4: 3, 5: 4}
    assert doubling_permutation(3) == {2: 2, 3: 9, 4: 5, 5: 6, 6: 3, 7: 8, 8: 4, 9: 7}


def test_doubling_permutation_is_bijection():
    for level in range(1, 5):
        perm = doubling_permutation(level)
        full = 2 ** level + 2
        assert set(perm.keys()) == set(range(2, full))
        assert set(perm.values()) == set(range(2, full))


def test_doubling_recursion_structure():
    # even slots pull from the previous level, odd slots mirror it
    for level in (2, 3, 4):
        prev = doubling_permutation(level - 1)
        cur = doubling_permutation(level)
        full = 2 ** level + 2
        for k in range(2, full):
            if k % 2 == 0:
                assert cur[k] == prev[(k + 2) // 2]
            else:
                assert cur[k] == full + 1 - prev[(k + 1) // 2]


def test_slot_sources_frozen():
    assert slot_sources(3) == (2, None)
    assert slot_sources(4) == (2, 3)
    assert slot_sources(5) == (2, None, 3, 4)
    assert slot_sources(6) == (2, 5, 3, 4)
    assert slot_sources(7) == (2, None, 5, 6, 3, None, 4, None)
    assert slot_sources(10) == (2, 9, 5, 6, 3, 8, 4, 7)


def test_slot_sources_cover_chain_exactly_once():
    for n in range(3, MAX_N + 1):
        sources = slot_sources(n)
        live = [s for s in sources if s is not None]
        assert sorted(live) == list(range(2, n))
        assert len(sources) == 2 ** shape_params(n)


def test_build_permutation_reindexes_live_slots():
    # the perm command's "reduced permutation" rows: live slot j -> source
    def reduced(n):
        text = _perm_text(n)
        rows = text[text.index("reduced permutation on live slots:") + 1:]
        return dict(tuple(map(int, row.split(" -> "))) for row in rows)

    assert reduced(5) == {2: 2, 3: 3, 4: 4}
    assert reduced(6) == {2: 2, 3: 5, 4: 3, 5: 4}
    assert reduced(4) == {2: 2, 3: 3}
    perm7 = reduced(7)
    assert set(perm7.keys()) == set(range(2, 7))
    assert set(perm7.values()) == set(range(2, 7))
