"""Maximum matching, Hall certification, and the exhaustive oracle."""

import random

import pytest

from keeptree.graphs import Graph
from keeptree.matching import (
    HallViolator,
    Matching,
    check_matching,
    find_tight_set,
    saturating_matching_or_violator,
)
from oracles import max_matching_size


def brute_max_matching_size(g: Graph, left: list[int], right: set[int]) -> int:
    """Exhaustive matching enumeration: try every saturation pattern."""

    def best(i: int, used: frozenset[int]) -> int:
        if i == len(left):
            return 0
        skip = best(i + 1, used)
        take = 0
        for b in g.neighbors(left[i]) & right:
            if b not in used:
                take = max(take, 1 + best(i + 1, used | {b}))
        return max(skip, take)

    return best(0, frozenset())


def random_bipartite_instance(seed: int):
    rng = random.Random(seed)
    a = rng.randint(1, 6)
    b = rng.randint(1, 6)
    edges = [
        (i, a + j)
        for i in range(a)
        for j in range(b)
        if rng.random() < rng.choice((0.3, 0.5, 0.8))
    ]
    return Graph(a + b, edges), list(range(a)), set(range(a, a + b))


class TestMaxMatching:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert max_matching_size(g, {0}, {1}) == 1

    def test_empty_right(self):
        g = Graph(3)
        assert max_matching_size(g, {0, 1, 2}, set()) == 0

    def test_k33_perfect(self, k33):
        m = saturating_matching_or_violator(k33, range(3), range(3, 6))
        assert isinstance(m, Matching) and m.size == 3
        assert not check_matching(k33, range(3), range(3, 6), m)

    def test_left_endpoint_outside_left_set(self, k44):
        problems = check_matching(k44, [0], [4, 5], Matching(((1, 4),)))
        assert problems == ["left endpoint 1 outside the left set"]

    def test_overlapping_sides_rejected(self, k33):
        with pytest.raises(ValueError, match="overlap"):
            saturating_matching_or_violator(k33, {0, 1}, {1, 4})

    def test_against_brute_force(self):
        for seed in range(120):
            g, left, right = random_bipartite_instance(seed)
            assert max_matching_size(g, left, right) == brute_max_matching_size(g, left, right)

    def test_deterministic(self):
        g, left, right = random_bipartite_instance(7)
        first = saturating_matching_or_violator(g, left, right)
        assert first == saturating_matching_or_violator(g, left, right)


class TestSaturatingOrViolator:
    def test_k33_saturates(self, k33):
        result = saturating_matching_or_violator(k33, range(3), range(3, 6))
        assert isinstance(result, Matching) and result.size == 3

    def test_two_left_one_right(self):
        # a, b both adjacent only to r: violator of size 2 with one neighbor.
        g = Graph(3, [(0, 2), (1, 2)])
        result = saturating_matching_or_violator(g, {0, 1}, {2})
        assert isinstance(result, HallViolator)
        assert result.subset == {0, 1} and result.neighborhood_size == 1

    def test_exactly_one_outcome_matches_brute(self):
        for seed in range(150):
            g, left, right = random_bipartite_instance(seed + 1000)
            result = saturating_matching_or_violator(g, left, right)
            brute = brute_max_matching_size(g, left, right)
            if isinstance(result, Matching):
                assert brute == len(left)
            else:
                assert brute < len(left)
                recount = {b for a in result.subset for b in g.neighbors(a)} & right
                assert len(recount) == result.neighborhood_size < len(result.subset)

    def test_empty_left_trivially_saturated(self, k33):
        result = saturating_matching_or_violator(k33, set(), range(3, 6))
        assert isinstance(result, Matching) and result.size == 0


class TestTightSet:
    def test_finds_tight_singleton(self):
        # a--x, b--x, b--y: the matching saturates, but {a} is tight.
        g = Graph(4, [(0, 2), (1, 2), (1, 3)])
        m = saturating_matching_or_violator(g, {0, 1}, {2, 3})
        assert isinstance(m, Matching) and m.size == 2
        assert find_tight_set(g, {0, 1}, {2, 3}, m) == {0}

    def test_no_tight_set_when_surplus_everywhere(self, k33):
        m = saturating_matching_or_violator(k33, {0, 1}, range(3, 6))
        assert find_tight_set(k33, {0, 1}, range(3, 6), m) is None

    def test_requires_saturating_matching(self):
        g = Graph(3, [(0, 2), (1, 2)])
        m = Matching(((0, 2),))  # maximum, but leaves 1 unmatched
        with pytest.raises(ValueError, match="saturating"):
            find_tight_set(g, {0, 1}, {2}, m)

    def test_tight_sets_are_tight(self):
        for seed in range(200):
            g, left, right = random_bipartite_instance(seed + 9000)
            m = saturating_matching_or_violator(g, left, right)
            if not isinstance(m, Matching):
                continue
            tight = find_tight_set(g, left, right, m)
            if tight is not None:
                recount = {b for a in tight for b in g.neighbors(a)} & right
                assert len(recount) == len(tight) > 0
