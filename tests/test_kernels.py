"""The two kernel backends must be interchangeable, bit for bit."""

import os
import random
import subprocess
import sys

import pytest

from steinmerge import kernels

BACKENDS = kernels.available_backends()
needs_both = pytest.mark.skipif(
    len(BACKENDS) < 2, reason="compiled backend not built"
)


def random_masks(rng, n, p=0.3):
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return masks


def random_csr(rng, n, p=0.3):
    nbrs_of = {v: [] for v in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = rng.randint(1, 20)
                nbrs_of[u].append((v, w))
                nbrs_of[v].append((u, w))
    indptr, nbrs, wts = [0], [], []
    for v in range(n):
        for u, w in sorted(nbrs_of[v]):
            nbrs.append(u)
            wts.append(w)
        indptr.append(len(nbrs))
    return indptr, nbrs, wts


def grow_table(mod, ops):
    """Replay a recorded op sequence against one backend's transforms."""
    table = mod.dp_leaf()
    for op in ops:
        kind = op[0]
        if kind == "intro":
            table = mod.dp_introduce_vertex(table, op[1], op[2])
        elif kind == "edge":
            table = mod.dp_introduce_edge(table, op[1], op[2], op[3])
        elif kind == "forget":
            table = mod.dp_forget(table, op[1])
    return table


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


class TestDispatch:
    def test_python_always_available(self):
        assert "python" in BACKENDS

    def test_active_backend_is_known(self):
        assert kernels.BACKEND_NAME in BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            kernels.load_backend("fortran")

    def test_env_forces_pure_python(self):
        env = dict(os.environ, SMH_PURE_PYTHON="1")
        out = subprocess.run(
            [sys.executable, "-c",
             "from steinmerge import kernels; print(kernels.BACKEND_NAME)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "python"

    @needs_both
    def test_default_prefers_compiled(self):
        env = {k: v for k, v in os.environ.items() if k != "SMH_PURE_PYTHON"}
        out = subprocess.run(
            [sys.executable, "-c",
             "from steinmerge import kernels; print(kernels.BACKEND_NAME)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "cython"


@needs_both
class TestBackendEquivalence:
    def setup_method(self):
        self.py = kernels.load_backend("python")
        self.cy = kernels.load_backend("cython")

    def test_eliminate(self):
        for seed in range(30):
            rng = random.Random(seed)
            masks = random_masks(rng, rng.randint(1, 18))
            for cap in (-1, 2, 4):
                for tie_high in (False, True):
                    assert self.py.eliminate(masks, cap, tie_high) == \
                        self.cy.eliminate(masks, cap, tie_high)

    def test_eliminate_does_not_mutate_input(self):
        rng = random.Random(0)
        masks = random_masks(rng, 10)
        keep = list(masks)
        for mod in (self.py, self.cy):
            mod.eliminate(masks, -1, False)
            assert masks == keep

    def test_elimination_bags(self):
        for seed in range(30):
            rng = random.Random(100 + seed)
            masks = random_masks(rng, rng.randint(1, 18))
            _, order = self.py.eliminate(masks, -1, False)
            assert self.py.elimination_bags(masks, order) == \
                self.cy.elimination_bags(masks, order)

    def test_dijkstra(self):
        for seed in range(30):
            rng = random.Random(200 + seed)
            n = rng.randint(1, 25)
            indptr, nbrs, wts = random_csr(rng, n)
            sources = sorted(rng.sample(range(n), rng.randint(1, n)))
            assert self.py.dijkstra_multi(indptr, nbrs, wts, sources, n) == \
                self.cy.dijkstra_multi(indptr, nbrs, wts, sources, n)

    def test_canon_labels(self):
        for seed in range(50):
            rng = random.Random(300 + seed)
            labels = tuple(rng.randrange(5) for _ in range(rng.randint(0, 8)))
            a = self.py.canon_labels(labels)
            assert a == self.cy.canon_labels(labels)
            # canonical means idempotent
            assert self.py.canon_labels(a) == a

    def test_transform_sequences(self):
        for seed in range(40):
            rng = random.Random(400 + seed)
            ops, _ = random_ops(rng, rng.randint(1, 12))
            assert grow_table(self.py, ops) == grow_table(self.cy, ops)

    def test_join(self):
        for seed in range(25):
            rng = random.Random(500 + seed)
            # two siblings share a bag: same intro prefix, different edges
            prefix = []
            bag = 1
            for _ in range(rng.randint(1, 4)):
                prefix.append(("intro", rng.randrange(bag + 1), rng.random() < 0.5))
                bag += 1
            def branch():
                ops = list(prefix)
                for _ in range(rng.randint(0, 4)):
                    pu, pv = rng.sample(range(bag), 2)
                    ops.append(("edge", pu, pv, rng.randint(1, 9)))
                return ops
            left_ops, right_ops = branch(), branch()
            out_py = self.py.dp_join(
                grow_table(self.py, left_ops), grow_table(self.py, right_ops)
            )
            out_cy = self.cy.dp_join(
                grow_table(self.cy, left_ops), grow_table(self.cy, right_ops)
            )
            assert out_py == out_cy


# The loop forms the pure-Python table transforms had before their partition
# bookkeeping was shortened; the shortened ones must give identical tables,
# down to the insertion order and the backrefs.


def ref_canon(labels):
    seen = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


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
    py = kernels.load_backend("python")

    @staticmethod
    def same(a, b):
        assert a == b
        assert list(a) == list(b)

    def test_introduce_edge_and_forget(self):
        for seed in range(150):
            rng = random.Random(700 + seed)
            ops, bag = random_ops(rng, rng.randint(1, 14))
            table = grow_table(self.py, ops)
            if bag >= 2:
                pu, pv = rng.sample(range(bag), 2)
                self.same(
                    self.py.dp_introduce_edge(table, pu, pv, 3),
                    ref_introduce_edge(table, pu, pv, 3),
                )
            pos = rng.randrange(bag)
            self.same(self.py.dp_forget(table, pos), ref_forget(table, pos))

    def test_join(self):
        for seed in range(150):
            rng = random.Random(900 + seed)
            prefix, bag = random_ops(rng, rng.randint(1, 10))

            def branch():
                ops = list(prefix)
                for _ in range(rng.randint(0, 5) if bag >= 2 else 0):
                    pu, pv = rng.sample(range(bag), 2)
                    ops.append(("edge", pu, pv, rng.randint(0, 3)))
                return grow_table(self.py, ops)

            left, right = branch(), branch()
            self.same(self.py.dp_join(left, right), ref_join(left, right))
