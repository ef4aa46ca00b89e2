"""The test oracles themselves: the small-graph corpus."""

import pytest

from keeptree.errors import GuardExceeded
from oracles import small_connected_graphs


class TestSmallGraphCorpus:
    def test_counts_per_order(self):
        graphs = small_connected_graphs(7)
        by_n = {}
        for g in graphs:
            by_n[g.n] = by_n.get(g.n, 0) + 1
        # Connected graphs up to isomorphism on 1..7 vertices.
        assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

    def test_guard_beyond_atlas(self):
        with pytest.raises(GuardExceeded):
            small_connected_graphs(8)
