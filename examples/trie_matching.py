"""Merged-trie matching: one traversal answers a whole routing table.

A broker that evaluates every routing-table pattern independently pays
filtering cost linear in table size.  :class:`PatternTrie` merges all
patterns into one structure — shared spine prefixes, hash-consed branch
constraints, degree-sorted branch order — so one traversal returns every
matching destination, and the operation count tracks the table's
*distinct structure* rather than its pattern count.

This example:

1. matches a document through a small :class:`PatternTrie` directly and
   shows which subscriptions fire;
2. fills a :class:`RoutingTable` with generated NITF subscriptions and
   compares the filtering cost of its two modes — the default merged
   trie vs the per-pattern ``"linear"`` oracle — on the same documents,
   asserting that both list the same destinations in table order.

Run:  PYTHONPATH=src python examples/trie_matching.py
"""

from __future__ import annotations

from repro import PatternTrie, parse_xml, parse_xpath
from repro.dtd.builtin import nitf_dtd
from repro.generators.docgen import DocumentGenerator
from repro.generators.querygen import PatternGenerator
from repro.routing.table import RoutingTable

DOCUMENT = parse_xml(
    """
    <media>
      <CD>
        <composer><last>Mozart</last></composer>
        <title>Requiem</title>
      </CD>
    </media>
    """
)

SUBSCRIPTIONS = {
    "alice": "/media/CD",
    "bob": "/media/CD[title]",
    "carol": "//composer/last",
    "dave": "/media/book",
    "erin": "//CD/Mozart",
}


def trie_tour() -> None:
    trie = PatternTrie()
    for subscriber, expression in SUBSCRIPTIONS.items():
        trie.add(parse_xpath(expression), subscriber)
    print(f"trie over {len(SUBSCRIPTIONS)} subscriptions: {trie}")
    result = trie.match(DOCUMENT)
    print(f"matched subscribers: {sorted(result.destinations)}")
    print(f"trie operations:     {result.operations}")
    print()


def table_modes() -> None:
    dtd = nitf_dtd()
    patterns = PatternGenerator(dtd, seed=7).generate_many(
        2_000, distinct=False
    )
    table = RoutingTable()
    for index, pattern in enumerate(patterns):
        table.add(pattern, index)
    docgen = DocumentGenerator(dtd, seed=21)
    documents = [docgen.generate() for _ in range(5)]
    print(f"routing table with {len(patterns)} NITF subscriptions")
    header = f"{'doc':>4s} {'trie ops':>9s} {'linear ops':>11s} {'matched':>8s}"
    print(header)
    print("-" * len(header))
    for number, document in enumerate(documents):
        via_trie = table.destinations_for(document)
        via_linear = table.destinations_for(document, matching="linear")
        # The same destinations in the same (table) order.
        assert via_trie.destinations == via_linear.destinations
        print(
            f"{number:4d} {via_trie.operations:9d} "
            f"{via_linear.operations:11d} {len(via_trie.destinations):8d}"
        )
    print()
    print(
        "Both modes list identical destinations in table order; the trie\n"
        "pays for the table's shared structure once instead of once per\n"
        "pattern."
    )


def main() -> None:
    trie_tour()
    table_modes()


if __name__ == "__main__":
    main()
