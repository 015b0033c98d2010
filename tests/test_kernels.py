"""The kernel module: its transforms against reference loops, and the
contract the benchmark tracer relies on."""

import random
from collections import Counter
from math import inf

import steinmerge
from helpers import tie_heavy_instance
from steinmerge import GeneratorConfig, MergeConfig, generate_pool, kernels, run_smh
from steinmerge.synth import sparse_instance


def random_masks(rng, n, p=0.3):
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return masks


def grow_table(ops, parts):
    """Replay a recorded op sequence against the kernel transforms."""
    table = kernels.dp_leaf()
    for op in ops:
        table = apply_op(table, op, parts)
    return table


def apply_op(table, op, parts):
    kind = op[0]
    if kind == "intro":
        return kernels.dp_introduce_vertex(table, op[1], op[2], parts)
    if kind == "edge":
        return kernels.dp_introduce_edge(table, op[1], op[2], op[3], parts)
    return kernels.dp_forget(table, op[1], parts)


def labelled(table, parts):
    """``table`` with every key, and every key in a backref, in the
    (mask, label tuple) form of the reference loops."""
    def key(k):
        return (k[0], parts.labels[k[1]])

    def back(b):
        if b is None:
            return None
        if isinstance(b[0], int):  # an introduce or a forget: the child key
            return key(b)
        if isinstance(b[1], bool):  # an introduce-edge: (child key, taken)
            return (key(b[0]), b[1])
        return (key(b[0]), key(b[1]))  # a join: both child keys

    return {key(k): (val, back(b)) for k, (val, b) in table.items()}


def random_ops(rng, length):
    """A valid random transform sequence starting from a one-vertex bag."""
    ops = []
    bag = 1
    for _ in range(length):
        choices = ["intro"]
        if bag >= 2:
            choices += ["edge", "edge", "forget"]
        kind = rng.choice(choices)
        if kind == "intro":
            ops.append(("intro", rng.randrange(bag + 1), rng.random() < 0.5))
            bag += 1
        elif kind == "edge":
            pu, pv = rng.sample(range(bag), 2)
            ops.append(("edge", pu, pv, rng.randint(1, 9)))
        else:
            ops.append(("forget", rng.randrange(bag)))
            bag -= 1
    return ops, bag


class TestKernelContracts:
    def test_eliminate_does_not_mutate_input(self):
        for seed in range(10):
            masks = random_masks(random.Random(seed), 12)
            keep = list(masks)
            for cap in (-1, 2):
                kernels.eliminate(masks, cap)
                assert masks == keep

    def test_eliminate_records_the_bags_its_order_induces(self):
        for seed in range(20):
            masks = random_masks(random.Random(seed), 14)
            width, order, bags = kernels.eliminate(masks, -1)
            assert sorted(order) == list(range(14))
            # replay the order: each bag is the vertex and its neighbours
            # left in the fill-in graph
            adj = list(masks)
            want = []
            for v in order:
                want.append(adj[v] | 1 << v)
                for u in range(14):
                    if adj[v] >> u & 1:
                        adj[u] = (adj[u] | adj[v]) & ~(1 << u) & ~(1 << v)
                adj[v] = 0
            assert bags == want
            assert width == max(b.bit_count() for b in bags) - 1
            assert kernels.eliminate(masks, width) == (width, order, bags)
            if width:
                assert kernels.eliminate(masks, width - 1)[1:] == (None, None)

    def test_canon_labels_is_canonical_and_idempotent(self):
        for seed in range(50):
            rng = random.Random(300 + seed)
            labels = tuple(rng.randrange(5) for _ in range(rng.randint(0, 8)))
            a = kernels.canon_labels(labels)
            assert a == ref_canon(labels)
            assert kernels.canon_labels(a) == a

    def test_dijkstra_multi_line(self):
        # path 0 -2- 1 -3- 2 plus a direct edge 0 -10- 2, in CSR form
        indptr = [0, 2, 4, 6]
        nbr = [1, 2, 0, 2, 0, 1]
        wts = [2, 10, 2, 3, 10, 3]
        dist, pred = kernels.dijkstra_multi(indptr, nbr, wts, [(0, 0)], 3)
        assert list(dist) == [0, 2, 5]
        assert list(pred) == [-1, 0, 1]  # 2 is reached through the middle vertex

    def test_dijkstra_multi_keeps_no_distance_at_the_limit(self):
        indptr = [0, 2, 4, 6]
        nbr = [1, 2, 0, 2, 0, 1]
        wts = [2, 10, 2, 3, 10, 3]
        # vertex 2 lies at 5: at a limit of 5 or less it stays at the limit
        for limit in (3, 5):
            dist, pred = kernels.dijkstra_multi(indptr, nbr, wts, [(0, 0)], 3, limit)
            assert dist == [0, 2, limit]
            assert pred == [-1, 0, -1]
        dist, pred = kernels.dijkstra_multi(indptr, nbr, wts, [(0, 0)], 3, 6)
        assert (dist, pred) == ([0, 2, 5], [-1, 0, 1])

    def test_seeds_act_as_one_extra_source(self):
        # seeding s at distance d is searching from one extra vertex n,
        # joined to each seed s by an edge of weight d, with or without a limit
        for seed in range(200):
            rng = random.Random(seed)
            inst = tie_heavy_instance(seed)
            indptr, nbr, wts = inst.graph.csr
            n = inst.graph.n_vertices
            seeds = [(rng.randint(0, 6), s) for s in rng.sample(range(n), rng.randint(1, 5))]
            extra = (
                indptr + [indptr[-1] + len(seeds)],
                nbr + [s for _, s in seeds],
                wts + [d for d, _ in seeds],
            )
            for limit in (inf, rng.randint(0, 8)):
                dist, pred = kernels.dijkstra_multi(indptr, nbr, wts, seeds, n, limit)
                far, via = kernels.dijkstra_multi(*extra, [(0, n)], n + 1, limit)
                assert dist == far[:n]
                assert pred == [-1 if p == n else p for p in via[:n]]

    def test_pipeline_calls_kernels_through_the_module(self, monkeypatch):
        """perfbench traces the pipeline by rebinding these module attributes
        and records ``BACKEND_NAME`` with each result."""
        calls = Counter()
        for name in ("dijkstra_multi", "eliminate", "dp_join"):
            def counted(*args, _name=name, _inner=getattr(kernels, name)):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(kernels, name, counted)
        # a pool of two distinct trees, whose union has a cycle: a union
        # that is one tree is solved without elimination or a DP
        inst = sparse_instance(0, 40, 8)
        pool = generate_pool(inst, GeneratorConfig(
            pool_size=3, iterations_per_run=1, perturbation_strength=0.7))
        report = run_smh(inst, pool, MergeConfig(rank_iterations=2))
        assert report.union_width >= 2
        assert calls["dijkstra_multi"] > 0
        assert calls["eliminate"] > 0
        assert calls["dp_join"] > 0
        assert steinmerge.BACKEND_NAME == "python"


# The loop forms the pure-Python table transforms had before their partition
# bookkeeping was shortened; the shortened ones must give identical tables,
# down to the insertion order and the backrefs.


def ref_canon(labels):
    seen = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


def ref_introduce_vertex(table, pos, is_terminal):
    out = {}
    for key, (val, _) in table.items():
        mask, labels = key
        low = mask & ((1 << pos) - 1)
        nm = low | ((mask >> pos) << (pos + 1))
        if not is_terminal:
            out[(nm, labels)] = (val, key)
        # chosen, the new vertex is a block of its own
        j = low.bit_count()
        fresh = max(labels, default=-1) + 1
        out[(nm | 1 << pos, ref_canon(labels[:j] + (fresh,) + labels[j:]))] = (val, key)
    return out


def ref_introduce_edge(table, pu, pv, w):
    out = {}
    for key, (val, _) in table.items():
        cur = out.get(key)
        if cur is None or val < cur[0]:
            out[key] = (val, (key, False))
        mask, labels = key
        if mask >> pu & 1 and mask >> pv & 1:
            lu = labels[(mask & ((1 << pu) - 1)).bit_count()]
            lv = labels[(mask & ((1 << pv) - 1)).bit_count()]
            if lu == lv:
                continue
            lu, lv = min(lu, lv), max(lu, lv)
            nk = (mask, ref_canon(tuple(lu if x == lv else x for x in labels)))
            cur = out.get(nk)
            if cur is None or val + w < cur[0]:
                out[nk] = (val + w, (key, True))
    return out


def ref_forget(table, pos):
    out = {}
    low = (1 << pos) - 1
    for key, (val, _) in table.items():
        mask, labels = key
        nl = labels
        if mask >> pos & 1:
            j = (mask & low).bit_count()
            rest = labels[:j] + labels[j + 1:]
            if labels[j] not in rest:
                continue
            nl = ref_canon(rest)
        nk = ((mask & low) | ((mask >> (pos + 1)) << pos), nl)
        cur = out.get(nk)
        if cur is None or val < cur[0]:
            out[nk] = (val, key)
    return out


def ref_join(left, right):
    out = {}
    for lkey, (lval, _) in left.items():
        for rkey, (rval, _) in right.items():
            if rkey[0] != lkey[0]:
                continue
            c = len(lkey[1])
            parent = list(range(c))

            def find(a):
                while parent[a] != a:
                    a = parent[a]
                return a

            for labels in (lkey[1], rkey[1]):
                for i in range(c):
                    a, b = find(i), find(labels.index(labels[i]))
                    if a != b:
                        parent[a] = b
            nk = (lkey[0], ref_canon(tuple(find(i) for i in range(c))))
            cur = out.get(nk)
            if cur is None or lval + rval < cur[0]:
                out[nk] = (lval + rval, (lkey, rkey))
    return out


class TestPythonTransformsMatchReference:
    py = kernels

    @staticmethod
    def same(a, b):
        assert a == b
        assert list(a) == list(b)

    def test_introduce_vertex(self):
        for seed in range(150):
            rng = random.Random(1100 + seed)
            ops, bag = random_ops(rng, rng.randint(0, 12))
            parts = self.py.Partitions()
            table = grow_table(ops, parts)
            ref = labelled(table, parts)
            pos = rng.randrange(bag + 1)
            for is_terminal in (False, True):
                self.same(
                    labelled(self.py.dp_introduce_vertex(table, pos, is_terminal, parts), parts),
                    ref_introduce_vertex(ref, pos, is_terminal),
                )

    def test_introduce_edge_and_forget(self):
        for seed in range(150):
            rng = random.Random(700 + seed)
            ops, bag = random_ops(rng, rng.randint(1, 14))
            parts = self.py.Partitions()
            table = grow_table(ops, parts)
            ref = labelled(table, parts)
            if bag >= 2:
                pu, pv = rng.sample(range(bag), 2)
                self.same(
                    labelled(self.py.dp_introduce_edge(table, pu, pv, 3, parts), parts),
                    ref_introduce_edge(ref, pu, pv, 3),
                )
            pos = rng.randrange(bag)
            self.same(
                labelled(self.py.dp_forget(table, pos, parts), parts), ref_forget(ref, pos)
            )

    def test_join(self):
        for seed in range(150):
            rng = random.Random(900 + seed)
            prefix, bag = random_ops(rng, rng.randint(1, 10))

            def branch():
                ops = list(prefix)
                for _ in range(rng.randint(0, 5) if bag >= 2 else 0):
                    pu, pv = rng.sample(range(bag), 2)
                    ops.append(("edge", pu, pv, rng.randint(0, 3)))
                return grow_table(ops, parts)

            parts = self.py.Partitions()
            left, right = branch(), branch()
            self.same(
                labelled(self.py.dp_join(left, right, parts), parts),
                ref_join(labelled(left, parts), labelled(right, parts)),
            )


class TestPartitions:
    def test_equal_partitions_share_an_id_and_distinct_ones_never_do(self):
        parts = kernels.Partitions()
        assert parts.labels[0] == (0,)
        for seed in range(40):
            rng = random.Random(1500 + seed)
            ops, _ = random_ops(rng, rng.randint(1, 14))
            grow_table(ops, parts)
        assert len(parts.labels) > 20
        assert len(set(parts.labels)) == len(parts.labels)
        assert len(parts.ids) == len(parts.labels)
        for pid, labels in enumerate(parts.labels):
            assert kernels.canon_labels(labels) == labels
            # an equal tuple built apart finds the same id
            assert parts.intern(tuple(list(labels))) == pid
        assert parts.intern(tuple(range(20))) == len(parts.labels) - 1

    def test_one_partitions_serves_narrow_then_wide_bags(self):
        # the memos filled on bags of at most 16 positions serve bags past
        # them, step by step against the reference loops; terminals only,
        # so the tables stay small
        parts = kernels.Partitions()
        refs = {"intro": ref_introduce_vertex, "edge": ref_introduce_edge, "forget": ref_forget}
        for seed in range(12):
            rng = random.Random(1600 + seed)
            ops, bag = random_ops(rng, 6)
            edges = 0
            while bag < 20:
                if bag >= 2 and edges < 6 and rng.random() < 0.3:
                    pu, pv = rng.sample(range(bag), 2)
                    ops.append(("edge", pu, pv, rng.randint(0, 3)))
                    edges += 1
                else:
                    ops.append(("intro", rng.randrange(bag + 1), True))
                    bag += 1
            for _ in range(4):
                pu, pv = rng.sample(range(bag - 4, bag), 2)
                ops.append(("edge", pu, pv, 1))
            ops += [("forget", bag - 1), ("forget", 0)]
            table = kernels.dp_leaf()
            ref = {(1, (0,)): (0, None)}
            for op in ops:
                table = apply_op(table, op, parts)
                ref = refs[op[0]](ref, *op[1:])
                got = labelled(table, parts)
                assert got == ref
                assert list(got) == list(ref)
        assert max(map(len, parts.labels)) == 20
