"""Code-level predicates: isomorphism, adjacency, and subtree matching.

Two colored arborescences are isomorphic exactly when their codes are
identical arrays, so ``==`` between codes decides it.

Sub-arborescence containment is decided exactly, on the code rows.  The
parents row spells out the prune-step tree (see below), and children are
always pruned before their parents, so one left-to-right pass gives every
prune step a hash-consed id for its rooted subtree, ``(color, sorted child
ids)``.  A memo over pairs of ids then answers whether one subtree embeds
in another with root on root: colors, sizes and out-degrees must allow
it, and the children must match injectively (bipartite matching by
augmenting paths, after every child pair of one color is decided; a
corpus sweeps all pairs at once, bottom up).  The witness names, per
prune step of the smaller code, the prune step of the larger code that
takes it.  This is the unordered subtree question of Shamir & Tsur
(J. Algorithms 1999) for colored rooted trees.

The prune-step tree, which :func:`code_adjacent` also reads: the parent
of the vertex pruned at step ``a`` is the vertex pruned at the step whose
label (:func:`prune_labels <colored_prufer.codec.prune_labels>`, the
codec's inverse scan) is ``parents[a]``.  That holds for every valid code,
canonical or not.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .codec import Vcpc, prune_labels
from .errors import IndexOutOfRange, SentinelCompared
from .trees import ColoredArborescence

# Default of the ignored third argument of subtree_search and
# undirected_subtree; kept so that callers passing a cap keep working.
DEFAULT_CANDIDATE_CAP = 10**6

# The memo row of every id until its first write; never written itself.
_UNSET: frozenset[int] = frozenset()


class Rooted(NamedTuple):
    """A code's prune-step tree interned into a :class:`SubtreeTable`.

    Per prune step (children before parents, the root last): its subtree
    id and its child steps.
    """

    ids: list[int]
    kids: list[Sequence[int]]


def code_adjacent(p: Vcpc, i: int, j: int) -> bool:
    """Whether the vertex pruned at step j is the parent of the one at step i.

    Both positions must be non-sentinel: ``i < j < n-1``.  It is when
    step j's prune label is step i's parents entry.  Each call runs the
    inverse scan, so it costs O(n); for many questions about one code,
    read :func:`prune_labels <colored_prufer.codec.prune_labels>` once.
    """
    if j == p.n - 1:
        raise SentinelCompared("position n-1 holds the sentinel, not a parent label")
    if not 0 <= i < j < p.n - 1:
        raise IndexOutOfRange(f"need 0 <= i < j < n-1, got i={i}, j={j}, n={p.n}")
    return prune_labels(p)[j] == p.parents[i]


# --- exact decider ----------------------------------------------------------


def _cover_left(adj: Sequence[Sequence[int]], n_right: int) -> list[int] | None:
    """A matching that covers every left vertex, or ``None`` if none exists.

    ``adj[i]`` lists the right vertices left vertex ``i`` may take.
    Returns the left owner of each right vertex (-1 when unused).  Each
    left vertex in turn first takes its first free right vertex; the rest
    then search augmenting paths (Kuhn) on an explicit stack.  Both go in
    list order, so the result is deterministic.  Plain loops advance the
    row iterators: no generator is made per row.
    """
    owner = [-1] * n_right
    unmatched = []
    for i, row in enumerate(adj):
        for j in row:
            if owner[j] < 0:
                owner[j] = i
                break
        else:
            unmatched.append(i)
    for start in unmatched:
        seen = [False] * n_right
        lefts = [start]
        todo = [iter(adj[start])]
        via: list[int] = []  # via[k]: the right vertex that led to lefts[k + 1]
        while True:
            for j in todo[-1]:
                if not seen[j]:
                    break
            else:
                lefts.pop()
                todo.pop()
                if not lefts:
                    return None
                via.pop()
                continue
            seen[j] = True
            if owner[j] < 0:
                break
            via.append(j)
            lefts.append(owner[j])
            todo.append(iter(adj[owner[j]]))
        owner[j] = lefts[-1]
        for right, left in zip(via, lefts):
            owner[right] = left
    return owner


class SubtreeTable:
    """Hash-consed rooted subtrees and a memo of which embed in which.

    Ids are dense and every child id is smaller than its parent's.  The
    memo keeps, per host id, the set of query ids known to map onto it
    and the set of those known not to; a row is the shared empty
    ``_UNSET`` until its first write, so interning allocates no rows.
    Every id maps onto itself, which needs no memo entry (:meth:`sweep`
    still writes one).  Trees interned into one table share both the ids
    and the memo.
    """

    def __init__(self) -> None:
        self._ids: dict[tuple[int, tuple[int, ...]], int] = {}
        self.color: list[int] = []
        self.kids: list[tuple[int, ...]] = []
        self.size: list[int] = []
        self._yes: list[set[int]] = []
        self._no: list[set[int]] = []

    def _new(self, key: tuple[int, tuple[int, ...]], size: int = 0) -> int:
        """Make the id of a key not interned yet, its child ids sorted.
        A caller that knows the key's size passes it, as for a leaf, a
        unary key or a rerooted side of an edge; otherwise it is summed
        here."""
        sid = len(self.size)
        self._ids[key] = sid
        self.color.append(key[0])
        self.kids.append(key[1])
        self.size.append(size or 1 + sum(map(self.size.__getitem__, key[1])))
        self._yes.append(_UNSET)
        self._no.append(_UNSET)
        return sid

    def intern_code(self, code: Vcpc) -> Rooted:
        """Intern a code's prune-step tree in one pass over its prune
        labels: a step's children are the earlier steps whose parents
        entry is its label, listed per label as the pass goes."""
        parents, colors = code.parents, code.colors
        known, new, size = self._ids, self._new, self.size
        ids: list[int] = []
        kids: list[Sequence[int]] = []
        below: list[Sequence[int]] = [()] * code.n  # child steps per label
        for step, label in enumerate(prune_labels(code)):
            mine = below[label]
            if not mine:
                key, grown = (colors[step], ()), 1
            elif len(mine) == 1:
                d = ids[mine[0]]
                key, grown = (colors[step], (d,)), size[d] + 1
            else:
                key, grown = (colors[step], tuple(sorted([ids[c] for c in mine]))), 0
            sid = known.get(key)
            if sid is None:
                sid = new(key, grown)
            ids.append(sid)
            kids.append(mine)
            value = parents[step]
            if value is not None:
                if below[value]:
                    below[value].append(step)
                else:
                    below[value] = [step]
        return Rooted(ids, kids)

    def intern_tree(
        self, tree: ColoredArborescence, order: list[int] | None = None
    ) -> list[int]:
        """The subtree id of every vertex, rooted there, children first; a
        caller that has the tree's ``bfs_order`` passes it as ``order``.

        Two trees in one table are isomorphic exactly when their roots get
        one id (Aho, Hopcroft & Ullman 1974), the root id of their canonical
        code, so a corpus is grouped into classes with no code built."""
        colors, children = tree.colors, tree.children
        known, new, size = self._ids, self._new, self.size
        down = [0] * tree.n
        for v in reversed(order or tree.bfs_order()):
            kids = children[v]
            if not kids:
                key, grown = (colors[v], ()), 1
            elif len(kids) == 1:
                d = down[kids[0]]
                key, grown = (colors[v], (d,)), size[d] + 1
            else:
                key, grown = (colors[v], tuple(sorted([down[c] for c in kids]))), 0
            sid = known.get(key)
            down[v] = new(key, grown) if sid is None else sid
        return down

    def intern_up(
        self, tree: ColoredArborescence, down: list[int], order: Sequence[int]
    ) -> list[int]:
        """Subtree ids of the parent's side of the edges below ``order``.

        ``up[v]`` is the side of the edge to v's parent that holds the
        parent, rooted there (-1 where not made); ``down`` is
        :meth:`intern_tree`'s result.  ``order`` lists parents before
        their children: the whole ``bfs_order`` for every edge, or one
        root-to-vertex path for the edges hanging off it.  At each vertex
        the ids outside it are sorted once, and each distinct child id
        gets one up-id: that list less one copy of the child's id.
        """
        colors, children, n = tree.colors, tree.children, tree.n
        known, new, size = self._ids, self._new, self.size
        # an up side holds every vertex outside the child's down side
        up = [-1] * n
        for p in order:
            kids = children[p]
            if not kids:
                continue
            if len(kids) == 1:
                key = (colors[p], (up[p],) if up[p] >= 0 else ())
                sid = known.get(key)
                up[kids[0]] = new(key, n - size[down[kids[0]]]) if sid is None else sid
                continue
            outside = [down[c] for c in kids]
            if up[p] >= 0:
                outside.append(up[p])
            outside.sort()
            made: dict[int, int] = {}
            for c in kids:
                d = down[c]
                if d not in made:
                    k = outside.index(d)
                    key = (colors[p], tuple(outside[:k] + outside[k + 1 :]))
                    sid = known.get(key)
                    made[d] = new(key, n - size[d]) if sid is None else sid
                up[c] = made[d]
        return up

    def _known(self, q: int, h: int) -> bool | None:
        """Whether q maps onto h root on root, or ``None`` if undecided.
        Equal ids map at once."""
        if q == h or q in self._yes[h]:
            return True
        return False if q in self._no[h] else None

    def _record(self, q: int, h: int, mapped: bool) -> None:
        memo = self._yes if mapped else self._no
        if memo[h] is _UNSET:
            memo[h] = {q}
        else:
            memo[h].add(q)

    def _edges(
        self, qs: Sequence[int], hs: Sequence[int]
    ) -> tuple[list[list[int]], list[tuple[int, int]]]:
        """The child pairs of qs and hs; ``can_map`` and ``witness`` read
        child pairs nowhere else.

        Returns, per q in qs, the positions in hs it is known to map onto,
        in host order, and the distinct pairs still undecided that color,
        size and out-degree allow.  Each q scans only the hosts of its
        color, bucketed once here.
        """
        color, size, kids, known = self.color, self.size, self.kids, self._known
        slots: dict[int, list[int]] = {}
        for j, h in enumerate(hs):
            slots.setdefault(color[h], []).append(j)
        rows: dict[int, list[int]] = {}
        pending: list[tuple[int, int]] = []
        for q in qs:
            if q in rows:
                continue
            row = rows[q] = []
            for j in slots.get(color[q], ()):
                h = hs[j]
                mapped = known(q, h)
                if mapped:
                    row.append(j)
                elif mapped is None and size[q] <= size[h] and len(kids[q]) <= len(kids[h]):
                    pending.append((q, h))
        if pending:
            pending = list(dict.fromkeys(pending))  # a host id repeated in hs
        return [rows[q] for q in qs], pending

    def can_map(self, q: int, h: int) -> bool:
        """Whether subtree ``q`` embeds in subtree ``h`` with root on root.

        One rule decides every pair: its undecided child pairs first,
        deepest first, on an explicit stack, so the depth of the trees
        does not matter; then a matching of its children by known pairs.
        """
        color, size, kids = self.color, self.size, self.kids
        if color[q] != color[h] or size[q] > size[h] or len(kids[q]) > len(kids[h]):
            return False  # color, size or out-degree rules it out
        known, record = self._known, self._record
        stack = [(q, h)]
        while stack:
            a, b = stack[-1]
            if known(a, b) is not None:
                stack.pop()
                continue
            rows, pending = self._edges(kids[a], kids[b])
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            # every child pair is decided: match the children by known pairs
            record(a, b, all(rows) and _cover_left(rows, len(kids[b])) is not None)
        return known(q, h) is True

    def sweep(self) -> None:
        """Decide, bottom up, every pair of ids that embeds root on root.

        Candidates for host h are the ids of its color, split by arity.
        The color's leaf always maps.  A unary id maps exactly when its
        child maps onto a child of h; hash-consing makes it the only unary
        id over that child, so one lookup finds it.  At a unary host nothing
        else can map.  Elsewhere the memo rows of h's children give the
        positions each query id maps onto, and an id with more children is
        tried under its largest child (FREQT-style triggers, Asai et al.,
        SDM 2002).  Two children map when both have positions and cover two
        between them, so a repeated child needs two; more need a matching.
        The memo then holds exactly the pairs that map, each id in its own row.
        """
        kids, yes, size = self.kids, self._yes, self.size
        # per color: its leaf, unary ids by child, wider ids by largest child
        leaves: dict[int, int] = {}
        unary: dict[int, dict[int, int]] = {c: {} for c in self.color}
        wider: dict[int, dict[int, list[int]]] = {c: {} for c in self.color}
        for p, (color, kid_ids) in enumerate(zip(self.color, kids)):
            if len(kid_ids) == 1:
                unary[color][kid_ids[0]] = p
            elif kid_ids:
                wider[color].setdefault(kid_ids[-1], []).append(p)
            else:
                leaves[color] = p
        for h, color in enumerate(self.color):
            up, hk = unary[color], kids[h]
            leaf = leaves.get(color)
            mine = yes[h] = set() if leaf is None else {leaf}
            if len(hk) == 1:
                mine.update(map(up.__getitem__, up.keys() & yes[hk[0]]))
                continue
            rows: dict[int, list[int]] = {}
            for j, y in enumerate(hk):
                for x in yes[y]:
                    rows.setdefault(x, []).append(j)
            mine.update(map(up.__getitem__, up.keys() & rows.keys()))
            n = len(hk)
            index = wider[color]
            for x in rows:
                for q in index.get(x, ()):
                    qk = kids[q]
                    if len(qk) == 2:
                        a = rows.get(qk[0])
                        if a is not None and (len(a) > 1 or a != rows[x]):
                            mine.add(q)
                    elif (
                        len(qk) <= n
                        and size[q] <= size[h]
                        and all(map(rows.__contains__, qk))
                        and _cover_left([rows[z] for z in qk], n) is not None
                    ):
                        mine.add(q)

    def contained(self, ids: Iterable[int]) -> set[int]:
        """Ids that embed anywhere in an interned tree, once :meth:`sweep`
        has run: the union of the memo rows of the tree's subtree ids."""
        return set().union(*map(self._yes.__getitem__, ids))

    def witness(self, query: Rooted, host: Rooted, at: int | None = None) -> tuple[int, ...]:
        """Host step per query step, the query's root on the first host
        step whose id it is known to map onto; a caller that has found
        that host step passes it as ``at``.

        Children take the first host child they map onto where that
        leaves a matching for the rest.  In canonical codes, under two
        steps of equal id that is position by position, memo or not: both
        list the same child ids in the same prune order.
        """
        q_ids, q_kids = query.ids, query.kids
        h_ids, h_kids = host.ids, host.kids
        yes = self._yes
        image = [0] * len(q_ids)
        if at is None:
            root = q_ids[-1]
            for at, h in enumerate(h_ids):
                if root == h or root in yes[h]:
                    break
            else:
                raise ValueError("the query root maps onto no host subtree")
        stack = [(len(q_ids) - 1, at)]
        while stack:
            a, b = stack.pop()
            image[a] = b
            qa, hb = q_kids[a], h_kids[b]
            if len(qa) == 1:
                x, y = q_ids[qa[0]], hb[0]
                if len(hb) > 1:
                    for y in hb:
                        h = h_ids[y]
                        if x == h or x in yes[h]:
                            break
                stack.append((qa[0], y))
            elif qa:
                edges, _ = self._edges([q_ids[x] for x in qa], [h_ids[y] for y in hb])
                for y, left in zip(hb, _cover_left(edges, len(hb))):
                    if left >= 0:
                        stack.append((qa[left], y))
        return tuple(image)


# --- entry points -------------------------------------------------------------


def _colors_fit(want: tuple[int, ...], have: tuple[int, ...]) -> bool:
    """Whether ``have`` holds every color as often as ``want`` does, which
    an injective, color-preserving map needs.  Both rows are sorted, and
    each run of a query color is counted in the host's row by bisection."""
    want, have = sorted(want), sorted(have)
    i = 0
    while i < len(want):
        c = want[i]
        j = bisect_right(want, c, i)
        if bisect_right(have, c) - bisect_left(have, c) < j - i:
            return False
        i = j
    return True


@dataclass(frozen=True)
class SubtreeResult:
    witness: tuple[int, ...] | None
    candidates_examined: int


def subtree_search(
    pq: Vcpc,
    p: Vcpc,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> SubtreeResult:
    """Find a witness embedding pq's tree into p's, with statistics.

    The witness gives, per prune step of pq, the prune step of p whose
    vertex takes it.  ``candidates_examined`` counts the distinct subtrees
    of p tried as the image of pq's root after the color, size and
    out-degree filters.  ``candidate_cap`` is accepted for compatibility
    and ignored: the decider needs no cap.  Any valid codes will do,
    canonical or not.
    """
    if pq.n > p.n or not _colors_fit(pq.colors, p.colors):
        return SubtreeResult(None, 0)
    table = SubtreeTable()
    query, host = table.intern_code(pq), table.intern_code(p)
    # can_map's entry check, inlined: one method call per host subtree
    # costs the long path queries a few percent
    root = query.ids[-1]
    color, size, kids = table.color, table.size, table.kids
    c, s, d = color[root], size[root], len(kids[root])
    tried = 0
    for sid in dict.fromkeys(host.ids):
        if color[sid] == c and size[sid] >= s and len(kids[sid]) >= d:
            tried += 1
            if table.can_map(root, sid):
                return SubtreeResult(table.witness(query, host, host.ids.index(sid)), tried)
    return SubtreeResult(None, tried)


def is_subarborescence(pq: Vcpc, p: Vcpc) -> tuple[int, ...] | None:
    """Witness embedding pq's tree into p's tree, or ``None``.

    See :func:`subtree_search`.
    """
    return subtree_search(pq, p).witness


# --- undirected extension -------------------------------------------------


def undirected_subtree(
    t1: ColoredArborescence,
    t2: ColoredArborescence,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> bool:
    """Whether t1's underlying colored tree embeds in t2's.

    Fix a leaf f of t1 and its neighbor g.  An embedding sends f to some
    vertex x of t2 and the rest of t1 into the side of one neighbor z of
    x away from x, g onto z.  So the test is whether, for some directed
    edge (x, z) of t2 with x colored like f, the side of z takes t1's side
    of g, root on root.  Both trees' sides are interned into one table.

    The checks run cheapest first.  Color counts come first.  Of t1 only
    g's side is built: f is the root when it has one child, and otherwise
    the leaf reached through first children, so the up rule runs along
    the path to g alone.  Of t2 the down sides come next, and one equal
    to the query side decides at once.  Only then are t2's up sides
    built, and every side is tried with ``can_map``, in order of first
    appearance, down sides first.
    ``candidate_cap`` is accepted for compatibility and ignored.
    """
    if t1.n > t2.n or not _colors_fit(t1.colors, t2.colors):
        return False
    if t1.n == 1:
        return True
    table = SubtreeTable()
    down = table.intern_tree(t1)
    f, kids = t1.root, t1.children
    if len(kids[f]) == 1:
        query = down[kids[f][0]]
    else:
        path = []
        while kids[f]:
            path.append(f)
            f = kids[f][0]
        query = table.intern_up(t1, down, path)[f]
    color = t1.colors[f]
    order = t2.bfs_order()
    down = table.intern_tree(t2, order)
    colors, children = t2.colors, t2.children
    hosts = [down[z] for x in range(t2.n) if colors[x] == color for z in children[x]]
    if query in hosts:
        return True
    up = table.intern_up(t2, down, order)
    hosts += [up[x] for x in range(t2.n) if colors[x] == color and x != t2.root]
    # the same side in both trees maps at once, without a call per host;
    # the others are tried once each, in order of first appearance
    return query in hosts or any(table.can_map(query, h) for h in dict.fromkeys(hosts))
