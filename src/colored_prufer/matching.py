"""Code-level predicates: isomorphism, adjacency, and subtree matching.

Two colored arborescences are isomorphic exactly when their codes are
identical arrays.

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

Adjacency inside a code: the parent of the vertex pruned at step ``a``
is the vertex pruned at the first later step ``b`` whose own parent
entry drops below ``parents[a]`` (the terminal sentinel counting as
smaller than every label).  So step ``b`` is the parent of step ``a``
exactly when ``parents[b] < parents[a]`` and no step strictly between
them drops below ``parents[a]``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .codec import Vcpc
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
    id and its child steps; ``firsts`` maps each distinct id to the first
    step that has it.
    """

    ids: list[int]
    kids: list[Sequence[int]]
    firsts: dict[int, int]


def codes_isomorphic(p: Vcpc, q: Vcpc) -> bool:
    """True iff the two codes are identical arrays."""
    return p.n == q.n and p.parents == q.parents and p.colors == q.colors


def code_adjacent(p: Vcpc, i: int, j: int) -> bool:
    """Whether the vertex pruned at step j is the parent of the one at step i.

    Both positions must be non-sentinel: ``i < j < n-1``.
    """
    if j == p.n - 1:
        raise SentinelCompared("position n-1 holds the sentinel, not a parent label")
    if not 0 <= i < j < p.n - 1:
        raise IndexOutOfRange(f"need 0 <= i < j < n-1, got i={i}, j={j}, n={p.n}")
    pi = p.parents[i]
    pj = p.parents[j]
    if pj >= pi:
        return False
    return all(p.parents[k] >= pi for k in range(i + 1, j))


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
    Every id maps onto itself, which needs no memo entry.  Trees
    interned into one table share both the ids and the memo.
    """

    def __init__(self) -> None:
        self._ids: dict[tuple[int, tuple[int, ...]], int] = {}
        self.color: list[int] = []
        self.kids: list[tuple[int, ...]] = []
        self.size: list[int] = []
        self._yes: list[set[int]] = []
        self._no: list[set[int]] = []

    def _id(self, key: tuple[int, tuple[int, ...]]) -> int:
        """Id of a key whose child ids are sorted, made if new."""
        sid = self._ids.get(key)
        return self._add(key) if sid is None else sid

    def _add(self, key: tuple[int, tuple[int, ...]]) -> int:
        sid = len(self.color)
        self._ids[key] = sid
        color, kid_ids = key
        self.color.append(color)
        self.kids.append(kid_ids)
        self.size.append(1 + sum(map(self.size.__getitem__, kid_ids)))
        self._yes.append(_UNSET)
        self._no.append(_UNSET)
        return sid

    def intern_code(self, code: Vcpc) -> Rooted:
        """Intern a code's prune-step tree in one monotonic-stack scan:
        a step's parent is pruned at its next smaller parents entry (the
        sentinel counting as -1), so its children are the steps it pops."""
        parents, colors = code.parents, code.colors
        known = self._ids
        ids: list[int] = []
        kids: list[Sequence[int]] = []
        firsts: dict[int, int] = {}
        stack: list[int] = []  # steps whose parent is not pruned yet
        top = -1  # the parents entry of the step on top of the stack
        for step, value in enumerate(parents):
            if value is None:
                value = -1
            if top > value:
                k = len(stack) - 1
                while k and parents[stack[k - 1]] > value:
                    k -= 1
                mine = stack[k:]
                del stack[k:]
                if len(mine) == 1:
                    key = (colors[step], (ids[mine[0]],))
                else:
                    key = (colors[step], tuple(sorted(map(ids.__getitem__, mine))))
            else:
                mine = ()
                key = (colors[step], ())
            sid = known.get(key)
            if sid is None:
                sid = self._add(key)
            ids.append(sid)
            kids.append(mine)
            if sid not in firsts:
                firsts[sid] = step
            stack.append(step)
            top = value
        return Rooted(ids, kids, firsts)

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

    def _fits(self, q: int, h: int) -> bool:
        """Whether color, size and out-degree let q map onto h."""
        return (
            self.color[q] == self.color[h]
            and self.size[q] <= self.size[h]
            and len(self.kids[q]) <= len(self.kids[h])
        )

    def _edges(self, qs: Sequence[int], hs: Sequence[int]) -> list[list[int]]:
        """Bipartite graph of pairs known to map: the positions in hs each
        q in qs maps onto.  Each row scans only the hosts of q's color."""
        color, known = self.color, self._known
        slots: dict[int, list[int]] = {}
        for j, h in enumerate(hs):
            slots.setdefault(color[h], []).append(j)
        rows: dict[int, list[int]] = {}
        for q in qs:
            if q not in rows:
                rows[q] = [j for j in slots.get(color[q], ()) if known(q, hs[j])]
        return [rows[q] for q in qs]

    def can_map(self, q: int, h: int) -> bool:
        """Whether subtree ``q`` embeds in subtree ``h`` with root on root.

        Undecided child pairs are decided first, deepest first, on an
        explicit stack, so the depth of the trees does not matter.
        """
        fits, known, record = self._fits, self._known, self._record
        if not fits(q, h):
            return False
        kids = self.kids
        color, size = self.color, self.size
        stack = [(q, h)]
        while stack:
            a, b = stack[-1]
            if known(a, b) is not None:
                stack.pop()
                continue
            ka, kb = kids[a], kids[b]
            if len(ka) == 1 == len(kb):
                # Unary on both sides: the pair maps exactly when its child
                # pair does.  Walk down to the first child pair that is
                # decided, filtered out or not unary on both sides.
                chain = [(a, b)]
                x, y = ka[0], kb[0]
                while fits(x, y) and known(x, y) is None and len(kids[x]) == 1 == len(kids[y]):
                    chain.append((x, y))
                    x, y = kids[x][0], kids[y][0]
                mapped = fits(x, y) and known(x, y)
                if mapped is None:
                    stack.append((x, y))
                    continue
                for x, y in chain:
                    record(x, y, mapped)
                stack.pop()
                continue
            hosts: dict[int, list[int]] = {}
            for y in set(kb):
                hosts.setdefault(color[y], []).append(y)
            pending = [
                (x, y)
                for x in set(ka)
                for y in hosts.get(color[x], ())
                if size[x] <= size[y] and len(kids[x]) <= len(kids[y]) and known(x, y) is None
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            # every child pair is decided: match the children by known pairs
            if len(ka) <= 1:
                mapped = not ka or any(known(ka[0], y) for y in kb)
            else:
                rows = self._edges(ka, kb)
                mapped = all(rows) and _cover_left(rows, len(kb)) is not None
            record(a, b, mapped)
        return known(q, h) is True

    def sweep(self, roots: Sequence[int]) -> list[int]:
        """Decide, bottom up, every pair of ids that embeds root on root.

        At id h, the memo sets of h's children give the positions of the
        children each query id maps onto.  Candidates are the ids of h's
        color that are leaves or whose children all appear there
        (FREQT-style occurrence counting, Asai et al., SDM 2002), each
        decided by one matching over those positions, so the memo then
        holds exactly the pairs that map.  Returns, per root, the bitset
        of the positions ``k`` of the roots that embed anywhere in it.
        """
        kids, yes, size = self.kids, self._yes, self.size
        marks: dict[int, int] = {}
        for k, r in enumerate(roots):
            marks[r] = marks.get(r, 0) | 1 << k
        # per color, each id with children is listed once, under its
        # largest child; a color has at most one leaf id
        parents: dict[int, dict[int, list[int]]] = {c: {} for c in self.color}
        for p, kid_ids in enumerate(kids):
            if kid_ids:
                parents[self.color[p]].setdefault(kid_ids[-1], []).append(p)
        leaves = {color: sid for (color, kid_ids), sid in self._ids.items() if not kid_ids}
        inside: list[int] = []
        for h, color in enumerate(self.color):
            bits = 0
            rows: dict[int, list[int]] = {}
            for j, y in enumerate(kids[h]):
                bits |= inside[y]
                for x in yes[y]:
                    rows.setdefault(x, []).append(j)
            mine = yes[h]
            if mine is _UNSET:
                mine = yes[h] = set()
            leaf = leaves.get(color)
            if leaf is not None:
                mine.add(leaf)
            n = len(kids[h])
            index = parents[color]
            # the index fixes the color, and a unary candidate whose child
            # maps onto a child of h always fits
            for x in rows:
                for q in index.get(x, ()):
                    qk = kids[q]
                    if len(qk) == 1 or (
                        len(qk) <= n
                        and size[q] <= size[h]
                        and all(map(rows.__contains__, qk))
                        and _cover_left([rows[z] for z in qk], n) is not None
                    ):
                        mine.add(q)
            for q in mine:
                bits |= marks.get(q, 0)
            inside.append(bits)
        return [inside[r] for r in roots]

    def witness(self, query: Rooted, host: Rooted, at: int | None = None) -> tuple[int, ...]:
        """Host step per query step, the query's root on the first host
        step, in ``firsts`` order, whose id it is known to map onto; a
        caller that has found that host id passes it as ``at``.

        Children take the first host child they map onto where that
        leaves a matching for the rest.  Under two steps of equal id
        that is position by position, memo or not: in canonical codes
        both list the same child ids in the same prune order.
        """
        q_ids, q_kids = query.ids, query.kids
        h_ids, h_kids = host.ids, host.kids
        yes = self._yes
        image = [0] * len(q_ids)
        if at is None:
            root = q_ids[-1]
            for at in host.firsts:
                if root == at or root in yes[at]:
                    break
            else:
                raise ValueError("the query root maps onto no host subtree")
        stack = [(len(q_ids) - 1, host.firsts[at])]
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
                edges = self._edges([q_ids[x] for x in qa], [h_ids[y] for y in hb])
                for y, left in zip(hb, _cover_left(edges, len(hb))):
                    if left >= 0:
                        stack.append((qa[left], y))
        return tuple(image)

    def search(self, query: Rooted, host: Rooted) -> tuple[tuple[int, ...] | None, int]:
        """First witness over the host's prune steps in order, and the
        number of distinct host subtrees tried as the query root's image
        (those that pass the color, size and out-degree filters)."""
        root = query.ids[-1]
        color, size, kids = self.color, self.size, self.kids
        c, s, d = color[root], size[root], len(kids[root])
        tried = 0
        for sid in host.firsts:
            if color[sid] != c or size[sid] < s or len(kids[sid]) < d:
                continue
            tried += 1
            if self.can_map(root, sid):
                return self.witness(query, host, sid), tried
        return None, tried


# --- entry points -------------------------------------------------------------


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
    and ignored: the decider needs no cap.
    """
    if pq.n > p.n:
        return SubtreeResult(None, 0)
    # color-count dominance: sort both color rows, then count each run of
    # the query's colors in the host's by bisection
    want, have = sorted(pq.colors), sorted(p.colors)
    i = 0
    while i < len(want):
        c = want[i]
        j = bisect_right(want, c, i)
        if bisect_right(have, c) - bisect_left(have, c) < j - i:
            return SubtreeResult(None, 0)
        i = j
    table = SubtreeTable()
    witness, tried = table.search(table.intern_code(pq), table.intern_code(p))
    return SubtreeResult(witness, tried)


def is_subarborescence(pq: Vcpc, p: Vcpc) -> tuple[int, ...] | None:
    """Witness embedding pq's tree into p's tree, or ``None``.

    See :func:`subtree_search`.
    """
    return subtree_search(pq, p).witness


# --- undirected extension -------------------------------------------------


def _side_ids(table: SubtreeTable, tree: ColoredArborescence) -> tuple[list[int], list[int]]:
    """Subtree ids of both sides of every edge, by one rerooting pass.

    ``down[v]`` is v's side of the edge to its parent, rooted at v;
    ``up[v]`` is the parent's side, rooted at the parent (-1 at the root).
    At each vertex the ids outside it are sorted once, and each distinct
    child id gets one up-id: that list less one copy of the child's id.
    """
    order = tree.bfs_order()
    colors, children = tree.colors, tree.children
    make = table._id
    down = [0] * tree.n
    for v in reversed(order):
        kids = children[v]
        if len(kids) > 1:
            down[v] = make((colors[v], tuple(sorted([down[c] for c in kids]))))
        else:
            down[v] = make((colors[v], (down[kids[0]],) if kids else ()))
    up = [-1] * tree.n
    for p in order:
        kids = children[p]
        if len(kids) == 1:
            up[kids[0]] = make((colors[p], (up[p],) if up[p] >= 0 else ()))
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
                made[d] = make((colors[p], tuple(outside[:k] + outside[k + 1 :])))
            up[c] = made[d]
    return down, up


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
    ``candidate_cap`` is accepted for compatibility and ignored.
    """
    if t1.n > t2.n:
        return False
    if t1.n == 1:
        return t1.colors[0] in t2.colors
    table = SubtreeTable()
    down, up = _side_ids(table, t1)
    if len(t1.children[t1.root]) == 1:
        f = t1.root
        query = down[t1.children[f][0]]
    else:
        f = next(v for v in range(t1.n) if not t1.children[v])
        query = up[f]
    down, up = _side_ids(table, t2)
    parent = t2.parent_map()
    color = t1.colors[f]
    hosts = {down[v] for v in range(t2.n) if v != t2.root and t2.colors[parent[v]] == color}
    hosts.update(up[v] for v in range(t2.n) if v != t2.root and t2.colors[v] == color)
    # the same side in both trees maps at once, without a call per host
    return query in hosts or any(table.can_map(query, h) for h in hosts)
