"""Document synopsis construction and maintenance: the Figure 2 example in
all three matching-set representations."""

import pytest

from repro.core.labels import ROOT_LABEL
from repro.core.pattern_parser import parse_xpath
from repro.core.selectivity import SelectivityEstimator
from repro.synopsis.synopsis import MODES, DocumentSynopsis
from repro.xmltree.tree import XMLTree, XMLTreeBuilder


def find_node(synopsis, *path):
    """Walk plain-label children from the root along *path*."""
    node = synopsis.root
    for tag in path:
        node = node.child_by_tag(tag)
        assert node is not None, f"missing synopsis path {path}"
    return node


class TestConstruction:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            DocumentSynopsis(mode="bitmaps")

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DocumentSynopsis(capacity=0)

    def test_root_label(self):
        synopsis = DocumentSynopsis()
        assert synopsis.root.tag == ROOT_LABEL

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_synopsis(self, mode):
        synopsis = DocumentSynopsis(mode=mode)
        assert synopsis.n_documents == 0
        assert synopsis.n_nodes == 1


class TestFigure2MatchingSets:
    """The exact matching sets printed in Figure 2 (Sets mode, no sampling)."""

    @pytest.fixture()
    def synopsis(self, figure2_synopsis_factory):
        return figure2_synopsis_factory(mode="sets", capacity=100)

    def full_ids(self, synopsis, *path):
        return set(synopsis.full_view(find_node(synopsis, *path)).ids)

    def test_root_set(self, synopsis):
        assert self.full_ids(synopsis) == {1, 2, 3, 4, 5, 6}

    def test_a(self, synopsis):
        assert self.full_ids(synopsis, "a") == {1, 2, 3, 4, 5, 6}

    def test_a_b(self, synopsis):
        assert self.full_ids(synopsis, "a", "b") == {1, 2, 3}

    def test_a_c(self, synopsis):
        assert self.full_ids(synopsis, "a", "c") == {3, 4}

    def test_a_d(self, synopsis):
        assert self.full_ids(synopsis, "a", "d") == {4, 5, 6}

    def test_a_b_e(self, synopsis):
        assert self.full_ids(synopsis, "a", "b", "e") == {1, 2, 3}

    def test_a_b_f(self, synopsis):
        assert self.full_ids(synopsis, "a", "b", "f") == {1, 2, 3}

    def test_a_b_g(self, synopsis):
        assert self.full_ids(synopsis, "a", "b", "g") == {1, 2}

    def test_a_b_e_k(self, synopsis):
        assert self.full_ids(synopsis, "a", "b", "e", "k") == {1, 2, 3}

    def test_a_b_e_m(self, synopsis):
        assert self.full_ids(synopsis, "a", "b", "e", "m") == {1, 2}

    def test_a_b_f_n(self, synopsis):
        assert self.full_ids(synopsis, "a", "b", "f", "n") == {2, 3}

    def test_a_b_g_n(self, synopsis):
        assert self.full_ids(synopsis, "a", "b", "g", "n") == {1, 2}

    def test_a_c_f(self, synopsis):
        assert self.full_ids(synopsis, "a", "c", "f") == {3, 4}

    def test_a_c_f_o(self, synopsis):
        assert self.full_ids(synopsis, "a", "c", "f", "o") == {3, 4}

    def test_a_c_e(self, synopsis):
        assert self.full_ids(synopsis, "a", "c", "e") == {3, 4}

    def test_a_c_h(self, synopsis):
        assert self.full_ids(synopsis, "a", "c", "h") == {3}

    def test_a_d_e(self, synopsis):
        assert self.full_ids(synopsis, "a", "d", "e") == {4, 5, 6}

    def test_a_d_e_m(self, synopsis):
        assert self.full_ids(synopsis, "a", "d", "e", "m") == {4, 5, 6}

    def test_a_d_q(self, synopsis):
        assert self.full_ids(synopsis, "a", "d", "q") == {4}

    def test_a_d_p(self, synopsis):
        assert self.full_ids(synopsis, "a", "d", "p") == {5}


class TestCountersMode:
    @pytest.fixture()
    def synopsis(self, figure2_synopsis_factory):
        return figure2_synopsis_factory(mode="counters")

    def test_root_counts_documents(self, synopsis):
        assert synopsis.root.summary.count == 6

    def test_path_frequencies(self, synopsis):
        assert find_node(synopsis, "a", "b").summary.count == 3
        assert find_node(synopsis, "a", "c").summary.count == 2
        assert find_node(synopsis, "a", "d").summary.count == 3
        assert find_node(synopsis, "a", "b", "e", "m").summary.count == 2

    def test_counter_counts_document_once(self):
        # A document with two distinct paths through the same prefix must
        # count once at the shared prefix node.
        synopsis = DocumentSynopsis(mode="counters")
        synopsis.insert_document(
            XMLTree.from_nested(("a", [("b", ["c", "d"])]), doc_id=0)
        )
        assert find_node(synopsis, "a", "b").summary.count == 1

    def test_represented_documents(self, synopsis):
        assert synopsis.represented_documents == 6.0

    def test_full_count(self, synopsis):
        assert synopsis.full_count(find_node(synopsis, "a", "b")) == 3.0

    def test_full_view_raises(self, synopsis):
        with pytest.raises(TypeError):
            synopsis.full_view(synopsis.root)


class TestHashesMode:
    def test_small_corpus_is_exact(self, figure2_synopsis_factory):
        synopsis = figure2_synopsis_factory(mode="hashes", capacity=100)
        view = synopsis.full_view(find_node(synopsis, "a", "b"))
        assert set(view.ids) == {1, 2, 3}
        assert view.level == 0

    def test_capacity_bounds_stored_entries(self, figure2_documents):
        synopsis = DocumentSynopsis(mode="hashes", capacity=1)
        for document in figure2_documents:
            synopsis.insert_document(document)
        for node in synopsis.iter_nodes():
            assert len(node.summary) <= 1

    def test_counter_mode_has_no_views(self):
        synopsis = DocumentSynopsis(mode="counters")
        with pytest.raises(TypeError):
            synopsis.stored_view(synopsis.root)


class TestSetsModeSampling:
    def test_reservoir_limits_documents(self):
        synopsis = DocumentSynopsis(mode="sets", capacity=5, seed=3)
        for doc_id in range(50):
            synopsis.insert_document(
                XMLTree.from_nested(("a", [("b", [f"t{doc_id}"])]), doc_id=doc_id)
            )
        resident = set(synopsis.full_view(synopsis.root).ids)
        assert len(resident) == 5
        assert synopsis.represented_documents == 5.0
        # Evicted documents must be gone from every node.
        for node in synopsis.iter_nodes():
            if node is not synopsis.root:
                assert set(node.summary) <= resident

    def test_n_documents_counts_all_offers(self):
        synopsis = DocumentSynopsis(mode="sets", capacity=2, seed=1)
        for doc_id in range(10):
            synopsis.insert_document(XMLTree.from_nested("a", doc_id=doc_id))
        assert synopsis.n_documents == 10


class TestStructuralSharing:
    def test_common_paths_shared(self, figure2_synopsis_factory):
        synopsis = figure2_synopsis_factory()
        # 6 documents share the 'a' root: one 'a' node only.
        assert len(synopsis.root.children) == 1

    def test_node_count_matches_distinct_paths(self, figure2_synopsis_factory):
        synopsis = figure2_synopsis_factory()
        # Distinct label paths over all six documents: the root, 'a', the
        # three branches b/c/d, and 21 nodes below them as drawn in Figure 2.
        assert synopsis.n_nodes == 26

    def test_insert_assigns_sequential_ids(self):
        synopsis = DocumentSynopsis(mode="sets", capacity=10)
        first = synopsis.insert_document(XMLTree.from_nested("a"))
        second = synopsis.insert_document(XMLTree.from_nested("a"))
        assert (first, second) == (0, 1)

    def test_full_view_cache_invalidated_on_insert(self):
        synopsis = DocumentSynopsis(mode="sets", capacity=10)
        synopsis.insert_document(XMLTree.from_nested(("a", ["b"]), doc_id=0))
        before = set(synopsis.full_view(synopsis.root).ids)
        synopsis.insert_document(XMLTree.from_nested(("a", ["c"]), doc_id=1))
        after = set(synopsis.full_view(synopsis.root).ids)
        assert before == {0}
        assert after == {0, 1}


class TestVersion:
    def test_insertions_move_the_version(self):
        synopsis = DocumentSynopsis(mode="sets", capacity=1, seed=1)
        versions = [synopsis.version]
        for doc_id in range(3):  # the reservoir turns two of these away
            synopsis.insert_document(XMLTree.from_nested("a", doc_id=doc_id))
            versions.append(synopsis.version)
        assert versions == sorted(set(versions))

    def test_pruning_moves_the_version(self):
        synopsis = DocumentSynopsis(mode="sets", capacity=10)
        synopsis.insert_document(XMLTree.from_nested(("a", ["b"]), doc_id=0))
        before = synopsis.version
        synopsis.mark_pruned()
        assert synopsis.version > before

    def test_queries_leave_the_version_alone(self):
        synopsis = DocumentSynopsis(mode="hashes", capacity=10)
        synopsis.insert_document(XMLTree.from_nested(("a", ["b"]), doc_id=0))
        before = synopsis.version
        synopsis.full_view(synopsis.root)
        _ = synopsis.represented_documents
        assert synopsis.version == before


class TestDeepChain:
    """A document nested far past the interpreter's recursion limit."""

    DEPTH = 10_000

    @staticmethod
    def chain(depth: int) -> XMLTree:
        """``<a>…<a><leaf/></a>…</a>`` with *depth* ``a`` elements."""
        builder = XMLTreeBuilder()
        parent = -1
        for _ in range(depth):
            parent = builder.add("a", parent)
        builder.add("leaf", parent)
        return builder.build(doc_id=0)

    @pytest.mark.parametrize("mode", MODES)
    def test_chain_inserts_and_estimates(self, mode):
        synopsis = DocumentSynopsis(mode=mode, capacity=10)
        synopsis.insert_document(self.chain(self.DEPTH))
        assert synopsis.n_nodes == self.DEPTH + 2
        assert synopsis.represented_documents == 1.0
        if mode != "counters":
            assert synopsis.full_view(synopsis.root).ids == frozenset({0})
        estimator = SelectivityEstimator(synopsis)
        assert estimator.selectivity(parse_xpath("/a/a")) == 1.0
        assert estimator.selectivity(parse_xpath("/a/b")) == 0.0
