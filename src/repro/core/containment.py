"""Tree-pattern containment — the baseline proximity notion the paper's
introduction argues *against*.

``q ⊑ p`` (p contains q) holds when every document matching q also matches
p.  The introduction points out why containment cannot build semantic
communities: it is asymmetric, boolean, and produces inclusion trees rather
than clusters.  This module implements it anyway, both as the comparison
baseline for the routing layer and because checking our similarity metrics
against containment is a useful sanity property
(``q ⊑ p  ⇒  P(p|q) = 1``).

The decision procedure is the classic **homomorphism test** (Miklau &
Suciu): map every node of p to a node of q such that labels subsume
(``label(q-node) ≼ label(p-node)``), child edges map to child edges, and
``//`` edges map to downward paths.  For patterns with ``*`` and ``//`` the
homomorphism test is sound but not complete (containment for XP^{/,//,*,[]}
is coNP-hard); :func:`contains` documents this and errs on the side of
*not* containing.  On the ``//``-free, ``*``-free fragment it is exact.

Two shortcuts run before the search and change no answer.  The **tag
test** answers False when p names a tag q does not (``p.tags() <=
q.tags()`` fails): a homomorphism maps each tag node of p onto a node
with an equal tag, since only ``*`` maps onto another label, so every
tag of p occurs in q.  Tag sets are cached on the patterns, and most
covering tests between unrelated subscriptions end here.  Canonically
equal patterns then answer True, because the identity map is a
homomorphism.  The search walks p and q with an explicit stack, so
neither a deep p nor a deep q costs interpreter recursion.
"""

from __future__ import annotations

from repro.core.labels import DESCENDANT, WILDCARD
from repro.core.pattern import PatternNode, TreePattern

__all__ = ["contains", "equivalent", "containment_order"]


def _label_subsumes(container_label: str, contained_label: str) -> bool:
    """Can a pattern node labeled *container_label* be mapped onto one
    labeled *contained_label*?  Tags need equality; ``*`` maps onto any tag
    or ``*`` (not onto ``//``)."""
    if container_label == WILDCARD:
        return contained_label != DESCENDANT
    return container_label == contained_label


def _embeds(p_node: PatternNode, q_node: PatternNode, memo: dict) -> bool:
    """Is there a homomorphism of ``Subtree(p_node)`` into
    ``Subtree(q_node)`` anchored at q_node?

    The recursion — a ``//`` node of p anchors its child at q_node or
    embeds itself at some child of q_node (a ``//`` edge of q absorbs it
    too); any other node needs a subsuming label and, for each of its
    children, some child of q_node that child embeds at — walked with an
    explicit stack of open pairs, so neither a deep p nor a deep q costs
    one Python frame per level.  It tries the alternatives in the
    recursion's order, stops where it stops and leaves the memo entries
    it leaves.
    """
    # An open pair: [memo key, p node, q node, p child index, q child
    # index].  A '//' pair has p child index -1 and tries the q child at
    # its q child index next.
    stack: list[list] = []
    p, q = p_node, q_node
    while True:
        # Per-call embedding memo: keys die with this call, never persist
        # or cross a process, and the verdict is id-independent.
        # reprolint: disable=RL003 -- transient per-call memo key, never persisted
        key = (id(p), id(q))
        result = memo.get(key)
        if result is None:
            if p.label == DESCENDANT:
                # Anchor its child here first.
                stack.append([key, p, q, -1, 0])
                p = p.children[0]
                continue
            if q.label == DESCENDANT or not _label_subsumes(p.label, q.label):
                # q is less specific here than any tag/wildcard p requires.
                result = memo[key] = False
            elif not p.children or not q.children:
                result = memo[key] = not p.children
            else:
                stack.append([key, p, q, 0, 0])
                p, q = p.children[0], q.children[0]
                continue
        # Hand the answer to the open pairs, closing each it decides.
        while stack:
            frame = stack[-1]
            _, open_p, open_q, p_index, q_index = frame
            if p_index < 0:
                if not result and q_index < len(open_q.children):
                    frame[4] = q_index + 1
                    p, q = open_p, open_q.children[q_index]
                    break
            elif result:
                p_index += 1
                if p_index < len(open_p.children):
                    frame[3], frame[4] = p_index, 0
                    p, q = open_p.children[p_index], open_q.children[0]
                    break
            else:
                q_index += 1
                if q_index < len(open_q.children):
                    frame[4] = q_index
                    p, q = open_p.children[p_index], open_q.children[q_index]
                    break
            memo[frame[0]] = result
            stack.pop()
        else:
            return result


def contains(p: TreePattern, q: TreePattern) -> bool:
    """Sound containment test: True implies every document matching *q*
    matches *p* (``q ⊑ p``).

    Complete on patterns without ``*``/``//`` interactions; in the general
    case a False answer may be a false negative (homomorphism is a
    sufficient condition only).  The tag test and the equality shortcut
    (see the module docstring) answer first.
    """
    if not p.tags() <= q.tags():
        return False
    return p == q or _homomorphic(p, q)


def _homomorphic(p: TreePattern, q: TreePattern) -> bool:
    """The homomorphism search of :func:`contains`, without its shortcuts."""
    memo: dict = {}
    # Pattern-root children anchor at the document root, so each root
    # constraint of p must embed into some root constraint of q with the
    # *same* anchor — i.e. at q's root-constraint nodes.
    return all(
        any(_root_embeds(p_child, q_child, memo) for q_child in q.root_children)
        for p_child in p.root_children
    )


def _root_embeds(p_node: PatternNode, q_node: PatternNode, memo: dict) -> bool:
    """Embedding where both nodes are root constraints (anchored at the
    document root node itself)."""
    if p_node.label == DESCENDANT:
        target = p_node.children[0]
        # '//' at p's root may anchor at the document root (where q's
        # constraint sits) or anywhere below it.
        if _root_embeds(target, q_node, memo):
            return True
        if q_node.label == DESCENDANT:
            return _embeds(p_node, q_node.children[0], memo) or _root_embeds(
                p_node, q_node.children[0], memo
            )
        return any(_embeds(p_node, child, memo) for child in q_node.children)
    if q_node.label == DESCENDANT:
        return False
    if not _label_subsumes(p_node.label, q_node.label):
        return False
    return all(
        any(_embeds(p_child, q_child, memo) for q_child in q_node.children)
        for p_child in p_node.children
    )


def equivalent(p: TreePattern, q: TreePattern) -> bool:
    """Mutual containment (under the sound test)."""
    return contains(p, q) and contains(q, p)


def containment_order(
    patterns: list[TreePattern],
) -> list[tuple[int, int]]:
    """All containment edges ``(i, j)`` with ``patterns[j] ⊑ patterns[i]``,
    ``i != j`` — the inclusion topology the introduction contrasts with
    semantic communities."""
    edges: list[tuple[int, int]] = []
    for i, p in enumerate(patterns):
        for j, q in enumerate(patterns):
            if i != j and contains(p, q):
                edges.append((i, j))
    return edges
