"""Quickstart: estimate tree-pattern selectivity and similarity over an
XML document stream.

This walks the full pipeline of the paper on a toy music-catalogue stream:

1. stream XML documents into a :class:`DocumentSynopsis` (Hashes mode);
2. estimate the selectivity ``P(p)`` of XPath-subset patterns;
3. estimate the similarity of two subscriptions under the three proximity
   metrics M1, M2, M3 — including the Figure 1 insight that two patterns
   with *no containment relationship* can still be near-equivalent on the
   actual document distribution.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro import (
    METRICS,
    DocumentSynopsis,
    SelectivityEstimator,
    parse_xml,
    parse_xpath,
)

CD_TEMPLATE = """
<media>
  <CD>
    <composer><first>{first}</first><last>{last}</last></composer>
    <title>{title}</title>
    <interpreter><ensemble>{ensemble}</ensemble></interpreter>
  </CD>
</media>
"""

BOOK_TEMPLATE = """
<media>
  <book>
    <author><first>{first}</first><last>{last}</last></author>
    <title>{title}</title>
  </book>
</media>
"""

COMPOSERS = [("Wolfgang", "Mozart"), ("Ludwig", "Beethoven"), ("Clara", "Schumann")]
AUTHORS = [("William", "Shakespeare"), ("Jane", "Austen"), ("Mary", "Shelley")]
ENSEMBLES = ["Berliner Phil.", "Concertgebouw", "LSO"]


def make_stream(n_documents: int, seed: int = 7):
    """A stream mixing CD and book documents, 70/30."""
    rng = random.Random(seed)
    for doc_id in range(n_documents):
        if rng.random() < 0.7:
            first, last = rng.choice(COMPOSERS)
            text = CD_TEMPLATE.format(
                first=first,
                last=last,
                title=f"Opus {rng.randrange(100)}",
                ensemble=rng.choice(ENSEMBLES),
            )
        else:
            first, last = rng.choice(AUTHORS)
            text = BOOK_TEMPLATE.format(
                first=first, last=last, title=f"Volume {rng.randrange(100)}"
            )
        yield parse_xml(text, doc_id=doc_id)


def main() -> None:
    # 1. Maintain the synopsis incrementally over the stream.
    synopsis = DocumentSynopsis(mode="hashes", capacity=64, seed=1)
    for document in make_stream(500):
        synopsis.insert_document(document)
    print(f"synopsis after the stream: {synopsis}")

    # 2. Selectivity estimation.
    estimator = SelectivityEstimator(synopsis)
    for expression in (
        "/media/CD",
        "/media/book",
        "//Mozart",
        "/media/CD/*/last/Mozart",
        "/media/CD[title][interpreter]",
    ):
        probability = estimator.selectivity(parse_xpath(expression))
        print(f"P({expression:38s}) ≈ {probability:6.3f}")

    # 3. Similarity of the Figure 1 patterns on this stream.
    pa = parse_xpath("/media/CD/*/last/Mozart")     # rigid structure
    pd = parse_xpath("//composer[last/Mozart]")     # different shape...
    pb = parse_xpath("//CD/Mozart")                 # ...and a dead pattern
    print()
    for name, p, q in (("pa ~ pd", pa, pd), ("pa ~ pb", pa, pb)):
        for metric in ("M1", "M2", "M3"):
            value = METRICS[metric](estimator, p, q)
            print(f"{name}  {metric} = {value:5.3f}")
        print()

    print(
        "pa and pd are structurally unrelated (no containment either way)\n"
        "yet near-equivalent on this stream — exactly the cases the\n"
        "synopsis-based similarity is built to discover."
    )


if __name__ == "__main__":
    main()
