"""Sliding-window synopsis: rotation, coverage bounds, drift tracking."""

import pytest

from repro.core.pattern_parser import parse_xpath
from repro.synopsis.windowed import WindowedEstimator, WindowedSynopsis
from repro.xmltree.tree import XMLTree


def doc(flavour: str, doc_id: int) -> XMLTree:
    return XMLTree.from_nested(("a", [flavour]), doc_id=doc_id)


class TestRotation:
    def test_window_must_be_sane(self):
        with pytest.raises(ValueError):
            WindowedSynopsis(window=1)

    def test_rotation_happens_at_half_window(self):
        windowed = WindowedSynopsis(window=10, mode="sets", capacity=100)
        for doc_id in range(4):
            windowed.insert_document(doc("b", doc_id))
        assert windowed.frozen is None
        windowed.insert_document(doc("b", 4))
        assert windowed.frozen is not None
        assert windowed.frozen.n_documents == 5
        assert windowed.active.n_documents == 0

    def test_coverage_bounds(self):
        windowed = WindowedSynopsis(window=10, mode="sets", capacity=100)
        for doc_id in range(57):
            windowed.insert_document(doc("b", doc_id))
            assert windowed.covered_documents <= windowed.window
        assert windowed.covered_documents >= windowed.half_window

    def test_generations_list(self):
        windowed = WindowedSynopsis(window=6, mode="sets", capacity=100)
        assert len(windowed.generations()) == 1
        for doc_id in range(3):
            windowed.insert_document(doc("b", doc_id))
        generations = windowed.generations()
        assert 1 <= len(generations) <= 2


class TestWindowedEstimation:
    def test_empty_estimates_zero(self):
        windowed = WindowedSynopsis(window=10, mode="sets", capacity=100)
        estimator = WindowedEstimator(windowed)
        assert estimator.selectivity(parse_xpath("/a")) == 0.0

    def test_estimates_reflect_window_only(self):
        """After the stream flips from 'b' documents to 'c' documents, the
        window forgets 'b' entirely once `window` new documents passed."""
        windowed = WindowedSynopsis(window=20, mode="sets", capacity=100)
        estimator = WindowedEstimator(windowed)
        for doc_id in range(50):
            windowed.insert_document(doc("b", doc_id))
        assert estimator.selectivity(parse_xpath("/a/b")) == pytest.approx(1.0)
        for doc_id in range(50, 90):  # 40 > window 'c' documents
            windowed.insert_document(doc("c", doc_id))
        assert estimator.selectivity(parse_xpath("/a/b")) == 0.0
        assert estimator.selectivity(parse_xpath("/a/c")) == pytest.approx(1.0)

    def test_mixed_window_averages(self):
        windowed = WindowedSynopsis(window=100, mode="sets", capacity=200)
        estimator = WindowedEstimator(windowed)
        for doc_id in range(30):
            windowed.insert_document(doc("b" if doc_id % 2 else "c", doc_id))
        value = estimator.selectivity(parse_xpath("/a/b"))
        assert 0.3 <= value <= 0.7

    def test_joint_selectivity(self):
        windowed = WindowedSynopsis(window=40, mode="sets", capacity=100)
        estimator = WindowedEstimator(windowed)
        for doc_id in range(20):
            windowed.insert_document(
                XMLTree.from_nested(("a", ["b", "c"]), doc_id=doc_id)
            )
        joint = estimator.joint_selectivity(
            parse_xpath("/a/b"), parse_xpath("/a/c")
        )
        assert joint == pytest.approx(1.0)

    def test_works_with_hashes(self):
        windowed = WindowedSynopsis(window=30, mode="hashes", capacity=16, seed=9)
        estimator = WindowedEstimator(windowed)
        for doc_id in range(60):
            windowed.insert_document(doc("b", doc_id))
        assert estimator.selectivity(parse_xpath("/a/b")) == pytest.approx(
            1.0, abs=0.3
        )
