"""Shape and determinism of the cell-scaled input generator.

    python3 -m pytest perfbench/tests -q
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from scaled import GROUP_SIZE, N_GROUPS, generate_pairs  # noqa: E402


@pytest.fixture(scope="module")
def pairs():
    return generate_pairs(7)


def _index(key):
    return int(key[1:])


def test_same_seed_same_pairs(pairs):
    assert generate_pairs(7) == pairs


def test_different_seed_different_pairs(pairs):
    assert generate_pairs(8) != pairs


def test_keys_are_padded_and_in_range(pairs):
    n = N_GROUPS * GROUP_SIZE
    for u, i in pairs:
        assert u[0] == "u" and i[0] == "i"
        assert len(u) == len(i) == 1 + len(str(n - 1))
        assert 0 <= _index(u) < n and 0 <= _index(i) < n


def test_every_user_has_degree_4_or_12(pairs):
    degree = Counter(_index(u) for u, _ in pairs)
    assert len(degree) == N_GROUPS * GROUP_SIZE
    assert set(degree.values()) == {4, 12}
    heavy = sum(d == 12 for d in degree.values()) / len(degree)
    assert heavy == pytest.approx(0.125, abs=0.02)
    assert len(pairs) / len(degree) == pytest.approx(5.0, abs=0.1)


def test_about_ninety_percent_of_edges_in_group(pairs):
    inside = sum(_index(u) // GROUP_SIZE == _index(i) // GROUP_SIZE for u, i in pairs)
    assert inside / len(pairs) == pytest.approx(0.9, abs=0.01)

