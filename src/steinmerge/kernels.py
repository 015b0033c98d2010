"""The hot inner loops: elimination, multi-source Dijkstra and the DP tables.

Callers reach these through the module attribute (``kernels.dp_join(...)``,
never ``from .kernels import ...``), so a tracer such as ``perfbench/``
can rebind them for the length of a run.

Dynamic-program tables map a state key to (value, backref). A key is
(mask, partition id): ``mask`` marks the bag positions chosen into the
partial solution, and the id names, in the DP's ``Partitions``, a label
tuple that assigns a block id to each chosen position in ascending position
order, relabelled so block ids appear in first-occurrence order. That
relabelling makes the tuple canonical and interning gives each tuple one
id, so equal partial solutions always collide and the minimum is kept.
"""

from __future__ import annotations

import heapq
import time
from functools import lru_cache
from math import inf
from operator import itemgetter

# perfbench records this name with each result and compares only results
# that carry the same one.
BACKEND_NAME = "python"


# ---------------------------------------------------------------------------
# greedy minimum-degree elimination


def eliminate(masks, cap):
    """Greedy minimum-degree elimination over bitmask adjacency.

    masks[i] is the neighbor bitmask of vertex i (the caller's list is not
    mutated). Ties on degree go to the lowest vertex. cap < 0 disables the
    width cap.

    Returns (width, order, bags): bags[i] is the bitmask of order[i] and its
    neighbours not yet eliminated when it goes, one bag of the tree
    decomposition the order induces. When some elimination would exceed cap
    the scan aborts and returns (exceeding_degree, None, None).
    """
    n = len(masks)
    adj = list(masks)
    deg = [m.bit_count() for m in adj]
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    removed = [False] * n
    order = []
    bags = []
    width = 0
    alive = n
    while alive:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        if cap >= 0 and d > cap:
            return d, None, None
        if d > width:
            width = d
        order.append(v)
        removed[v] = True
        alive -= 1
        nb = adj[v]
        bags.append(nb | (1 << v))
        adj[v] = 0
        not_v = ~(1 << v)
        m = nb
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            # neighborhood becomes a clique, v disappears
            nu = (adj[u] | nb) & ~(1 << u) & not_v
            adj[u] = nu
            du = nu.bit_count()
            # u's entry at its current degree is already in the heap
            if du != deg[u]:
                deg[u] = du
                heapq.heappush(heap, (du, u))
    return width, order, bags


# ---------------------------------------------------------------------------
# shortest paths


def dijkstra_multi(indptr, nbrs, wts, seeds, n, limit=inf):
    """Multi-source Dijkstra over CSR arrays; returns (dist, pred) lists.

    ``seeds`` are (distance, vertex) pairs; (0, s) makes s a plain source.
    Distances of ``limit`` or more are never kept: such vertices, like
    unreached ones, end at ``limit`` with pred -1, as do seeds that
    nothing improves. Every vertex closer than ``limit`` gets the distance
    and predecessor the unbounded search gives it. Ties resolve
    deterministically (first strict improvement wins, heap breaks equal
    distances by vertex index).
    """
    dist = [limit] * n
    pred = [-1] * n
    heap = []
    for d, s in seeds:
        if d < dist[s]:
            dist[s] = d
            heap.append((d, s))
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for i in range(indptr[v], indptr[v + 1]):
            u = nbrs[i]
            nd = d + wts[i]
            if nd < dist[u]:
                dist[u] = nd
                pred[u] = v
                heapq.heappush(heap, (nd, u))
    return dist, pred


# ---------------------------------------------------------------------------
# decomposition-guided dynamic program: per-node table transforms


def canon_labels(labels):
    """Renumber block labels into first-occurrence order (canonical form)."""
    seen = {}
    out = []
    for x in labels:
        r = seen.get(x)
        if r is None:
            r = len(seen)
            seen[x] = r
        out.append(r)
    return tuple(out)


class Partitions:
    """The canonical label tuples of one DP, each interned once under an id.

    ``labels[i]`` is the tuple of id i and ``ids`` maps a tuple to its id;
    id 0 is ``(0,)``, the partition of the leaf and of the root. The
    transforms memo each partition transition they compute: an introduce
    or a forget under (id, j), where j counts the chosen positions below
    the transformed one, an introduce-edge under (id, a, b), the two blocks
    a < b it merges, and a join each right partition's tie getter.
    """

    __slots__ = ("labels", "ids", "introduced", "forgotten", "merged", "ties")

    def __init__(self):
        self.labels = [(0,)]
        self.ids = {(0,): 0}
        self.introduced = {}
        self.forgotten = {}
        self.merged = {}
        self.ties = {}

    def intern(self, labels):
        """The id of a canonical label tuple, assigned on first sight."""
        pid = self.ids.get(labels)
        if pid is None:
            pid = self.ids[labels] = len(self.labels)
            self.labels.append(labels)
        return pid


def dp_leaf():
    # single pinned vertex, chosen, in its own block, cost 0
    return {(1, 0): (0, None)}


def dp_introduce_vertex(table, pos, is_terminal, parts, deadline=None):
    """Bag gains a vertex at position pos.

    Non-terminals branch into an excluded copy and an included-as-singleton
    copy; terminals must be included. Both branches are injective so no
    collision handling is needed. A state's backref is the key it came
    from; its mask bit says which branch it took. Returns None once
    ``time.monotonic()`` passes ``deadline``, read before each input state
    when one is set.
    """
    out = {}
    low = (1 << pos) - 1
    bit = 1 << pos
    memo = parts.introduced
    for key, entry in table.items():
        if deadline is not None and time.monotonic() > deadline:
            return None
        mask, pid = key
        # both branches keep the value and point back at this key
        kept = (entry[0], key)
        nm = (mask & low) | ((mask >> pos) << (pos + 1))
        if not is_terminal:
            out[(nm, pid)] = kept
        j = (mask & low).bit_count()
        ck = (pid, j)
        npid = memo.get(ck)
        if npid is None:
            labels = parts.labels[pid]
            # the new block takes the first id not used before position j
            # and the later ids move up by one, which keeps first-occurrence
            # order
            if j == len(labels):
                nl = labels + (max(labels, default=-1) + 1,)
            elif j:
                head = labels[:j]
                b = max(head) + 1
                nl = head + (b,) + tuple([x + (x >= b) for x in labels[j:]])
            else:
                nl = (0,) + tuple([x + 1 for x in labels])
            npid = memo[ck] = parts.intern(nl)
        out[(nm | bit, npid)] = kept
    return out


def dp_introduce_edge(table, pu, pv, w, parts, deadline=None):
    """Offer one graph edge: a state may pay w to merge its endpoints' blocks.

    Returns None once ``time.monotonic()`` passes ``deadline``, read before
    each input state when one is set.
    """
    out = {}
    bu = 1 << pu
    bv = 1 << pv
    both = bu | bv
    lowu = bu - 1
    lowv = bv - 1
    memo = parts.merged
    labels_of = parts.labels
    for key, entry in table.items():
        if deadline is not None and time.monotonic() > deadline:
            return None
        val = entry[0]
        cur = out.get(key)
        if cur is None or val < cur[0]:
            out[key] = (val, (key, False))
        mask, pid = key
        if mask & both == both:
            labels = labels_of[pid]
            lu = labels[(mask & lowu).bit_count()]
            lv = labels[(mask & lowv).bit_count()]
            if lu == lv:
                continue  # edge inside a block only adds weight
            if lu > lv:
                lu, lv = lv, lu
            ck = (pid, lu, lv)
            npid = memo.get(ck)
            if npid is None:
                # block lv joins the earlier block lu and the later ids
                # close the gap, which keeps first-occurrence order
                npid = memo[ck] = parts.intern(
                    tuple([lu if x == lv else x - (x > lv) for x in labels])
                )
            nk = (mask, npid)
            nv = val + w
            cur = out.get(nk)
            if cur is None or nv < cur[0]:
                out[nk] = (nv, (key, True))
    return out


def dp_forget(table, pos, parts, deadline=None):
    """Bag drops the vertex at position pos.

    A chosen vertex may leave only if its block keeps another bag vertex;
    otherwise its component could never reattach and the state dies.
    Returns None once ``time.monotonic()`` passes ``deadline``, read before
    each input state when one is set.
    """
    out = {}
    bit = 1 << pos
    low = bit - 1
    memo = parts.forgotten
    for key, entry in table.items():
        if deadline is not None and time.monotonic() > deadline:
            return None
        mask, pid = key
        val = entry[0]
        if mask & bit:
            j = (mask & low).bit_count()
            ck = (pid, j)
            npid = memo.get(ck)
            if npid is None:
                labels = parts.labels[pid]
                lab = labels[j]
                rest = labels[:j] + labels[j + 1 :]
                if lab not in rest:
                    npid = -1
                else:
                    # dropping a later member of a block keeps
                    # first-occurrence order
                    npid = parts.intern(
                        rest if labels.index(lab) < j else canon_labels(rest)
                    )
                memo[ck] = npid
            if npid < 0:
                continue
        else:
            npid = pid
        nk = ((mask & low) | ((mask >> (pos + 1)) << pos), npid)
        cur = out.get(nk)
        if cur is None or val < cur[0]:
            out[nk] = (val, key)
    return out


@lru_cache(maxsize=1 << 16)
def _join_relabel(c, ends):
    """Block relabelling after tying left blocks pairwise, or None if unchanged.

    ``ends`` lists left block ids two by two; each pair lies in one right
    block. The result maps every old block id below ``c`` to its canonical
    id in the joined partition.
    """
    parent = list(range(c))
    merged = False
    it = iter(ends)
    for a in it:
        b = next(it)
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            merged = True
            # the lower id stays the root, so roots are the lowest members
            if a < b:
                parent[b] = a
            else:
                parent[a] = b
    if not merged:
        return None
    # a merged block first occurs where its lowest member block does, so
    # labelling the roots in block order gives first-occurrence order
    ids = []
    n = 0
    for b in range(c):
        a = parent[b]
        if a == b:
            ids.append(n)
            n += 1
        else:
            ids.append(ids[a])
    return tuple(ids)


def _tie_getter(labels):
    """What a right partition ties: each later member of a block to its
    first one, as a getter of those positions' left blocks (None: no ties)."""
    firsts = []
    ties = []
    for i, lab in enumerate(labels):
        if lab == len(firsts):
            firsts.append(i)
        else:
            ties.append(firsts[lab])
            ties.append(i)
    return itemgetter(*ties) if ties else None


def dp_join(left, right, parts, deadline=None):
    """Combine sibling tables over an identical bag.

    States pair up on equal chosen sets; values add and blocks coarsen to
    the transitive closure of overlaps between the two partitions. Returns
    None once ``time.monotonic()`` passes ``deadline``, read before each
    left state when one is set.
    """
    labels_of = parts.labels
    getters = parts.ties
    by_mask = {}
    for key, entry in right.items():
        rpid = key[1]
        get = getters.get(rpid, False)
        if get is False:
            get = getters[rpid] = _tie_getter(labels_of[rpid])
        by_mask.setdefault(key[0], []).append((key, entry[0], get))
    ids_of = parts.ids
    out = {}
    for lkey, lentry in left.items():
        if deadline is not None and time.monotonic() > deadline:
            return None
        mask, lpid = lkey
        matches = by_mask.get(mask)
        if not matches:
            continue
        lval = lentry[0]
        llabels = labels_of[lpid]
        c = len(llabels)
        # relabels this state's blocks; only two or more blocks can merge
        pick = itemgetter(*llabels) if c > 1 else None
        for rkey, rval, get in matches:
            npid = lpid
            if get is not None:
                ids = _join_relabel(c, get(llabels))
                if ids is not None:
                    labels = pick(ids)
                    npid = ids_of.get(labels)
                    if npid is None:
                        npid = parts.intern(labels)
            nk = (mask, npid)
            nv = lval + rval
            cur = out.get(nk)
            if cur is None or nv < cur[0]:
                out[nk] = (nv, (lkey, rkey))
    return out
