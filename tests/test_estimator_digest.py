"""Golden digest of the selectivity estimator's outputs at NITF scale.

The estimator may share work across patterns only if every number it
returns stays bit-identical.  This test pins, for 200 NITF patterns over
60 NITF documents, every ``selectivity``, every ``matching_view`` (its
hash level and sorted sample ids) and the ``joint_selectivity`` of each
consecutive pattern pair, in four synopses: explicit sets, hash samples
small enough that views carry hash levels, counters, and explicit sets
compressed to half their size (folded labels and merged DAG nodes).  The
sha256 was cut on the estimator before any such rewrite.
"""

from __future__ import annotations

import hashlib

from repro.core.selectivity import SelectivityEstimator
from repro.dtd.builtin import nitf_dtd
from repro.generators.docgen import DocumentGenerator
from repro.generators.querygen import PatternGenerator
from repro.synopsis.compression import compress_to_ratio
from repro.synopsis.synopsis import DocumentSynopsis


def synopses(documents) -> list[DocumentSynopsis]:
    """The four synopses the digest covers, each holding *documents*."""
    built = [
        DocumentSynopsis(mode="sets", capacity=128),
        DocumentSynopsis(mode="hashes", capacity=8),
        DocumentSynopsis(mode="counters"),
        DocumentSynopsis(mode="sets", capacity=128),
    ]
    for synopsis in built:
        for document in documents:
            synopsis.insert_document(document)
    compress_to_ratio(built[3], 0.5)
    return built


def estimator_digest() -> str:
    """sha256 over every estimate, view and consecutive-pair joint."""
    dtd = nitf_dtd()
    generator = DocumentGenerator(dtd, seed=8)
    documents = [generator.generate(doc_id=index) for index in range(60)]
    patterns = PatternGenerator(dtd, seed=7).generate_many(200)
    outcomes: list[object] = []
    for synopsis in synopses(documents):
        estimator = SelectivityEstimator(synopsis)
        outcomes.append([estimator.selectivity(p) for p in patterns])
        if synopsis.mode != "counters":
            views = [estimator.matching_view(p) for p in patterns]
            outcomes.append([(view.level, sorted(view.ids)) for view in views])
        outcomes.append(
            [
                estimator.joint_selectivity(p, q)
                for p, q in zip(patterns, patterns[1:], strict=False)
            ]
        )
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()


#: Cut on the estimator before per-constraint memos and subtree-tag
#: pruning; a change to any estimate, view level or sample id moves it.
ESTIMATOR_DIGEST = "3c9d367ba4e572232043c93f6c63448c086898887e43a2f28b3745b0be67399d"


def test_estimator_outputs_match_the_golden_digest():
    assert estimator_digest() == ESTIMATOR_DIGEST
