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
homomorphism.  The search walks a ``//`` descent through q with an
explicit stack, so a deep q costs no interpreter recursion; it still
recurses once per level of p.
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
    ``Subtree(q_node)`` anchored at q_node?"""
    # Per-call embedding memo: keys die with this call, never persist or
    # cross a process, and the verdict is id-independent.
    # reprolint: disable=RL003 -- transient per-call memo key, never persisted
    key = (id(p_node), id(q_node))
    cached = memo.get(key)
    if cached is not None:
        return cached

    result: bool
    if p_node.label == DESCENDANT:
        # '//' maps to any downward path of length >= 0 in q: anchor its
        # single child here or below (a '//' edge in q absorbs it too).
        result = _embeds(p_node.children[0], q_node, memo) or _embeds_below(
            p_node, q_node, memo
        )
    elif q_node.label == DESCENDANT:
        # q is less specific here than any tag/wildcard p requires.
        result = False
    elif not _label_subsumes(p_node.label, q_node.label):
        result = False
    else:
        result = all(
            any(_embeds(p_child, q_child, memo) for q_child in q_node.children)
            for p_child in p_node.children
        )
    memo[key] = result
    return result


def _embeds_below(p_node: PatternNode, q_node: PatternNode, memo: dict) -> bool:
    """Whether the ``//`` node *p_node* embeds at some child of *q_node*.

    ``_embeds(p_node, c)`` for each child c, which anchors p_node's
    child at c or descends further, walked with an explicit stack: the
    recursion would take one frame per level of q.  Every node visited
    gets the memo entry ``_embeds`` would give it.
    """
    target = p_node.children[0]
    levels = [iter(q_node.children)]
    keys: list[tuple[int, int]] = []  # memo key of each level's q parent
    while levels:
        child = next(levels[-1], None)
        if child is None:
            levels.pop()
            if keys:
                memo[keys.pop()] = False
            continue
        # reprolint: disable=RL003 -- transient per-call memo key, never persisted
        key = (id(p_node), id(child))
        found = memo.get(key)
        if found is None:
            if not _embeds(target, child, memo):
                keys.append(key)
                levels.append(iter(child.children))
                continue
            found = True
        if found:
            keys.append(key)
            for on_path in keys:
                memo[on_path] = True
            return True
    return False


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
        return _embeds_below(p_node, q_node, memo)
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
