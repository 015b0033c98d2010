"""Solution merging: union selection, randomized ranking, and the pipeline.

The idea: the graph union of a few good trees is far richer than any single
tree but still sparse enough for the width-bounded exact solver. Selection
keeps adding pool trees while the union's greedy elimination width stays
within a cap; the ranking phase scores each tree by how good the unions it
joins turn out to be; the final pass solves the union of the best-ranked
trees exactly. One ``UnionMemo`` per ``run_smh`` call lets every round
reuse the width checks and exact solves of earlier rounds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .exact import CapacityError, DEFAULT_STATE_BUDGET, DeadlineError, dp_solve
from .generator import SolutionPool, _derive_seed
from .graph import (
    Edge,
    SteinerInstance,
    SteinerSolution,
    ValidationError,
    WeightedGraph,
)
from .treewidth import (
    EliminationOrder,
    decomposition_from_order,
    greedy_degree,
    greedy_degree_capped,
    make_nice,
)

# keeps ranking-iteration seeds disjoint from generator run seeds
_RANK_SALT = 1 << 20


@dataclass(frozen=True)
class MergeConfig:
    """Width caps and iteration counts for the merge pipeline."""

    final_width: int = 10
    rank_width: int = 8
    rank_iterations: int = 20
    keep_best: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.final_width < 1:
            raise ValidationError("final_width must be at least 1")
        if not 1 <= self.rank_width <= self.final_width:
            raise ValidationError("rank_width must lie in [1, final_width]")
        if self.rank_iterations < 0:
            raise ValidationError("rank_iterations must be nonnegative")


@dataclass(frozen=True)
class UnionSelection:
    """Outcome of the greedy union step: who made it in, and their union."""

    selected: tuple[int, ...]
    edges: frozenset[Edge]
    elimination: EliminationOrder
    instance: SteinerInstance = field(repr=False, compare=False)

    @property
    def width(self) -> int:
        return self.elimination.width

    @cached_property
    def graph(self) -> WeightedGraph:
        """The union subgraph (``edges`` plus every terminal), built on first read."""
        return _union_graph(self.instance, self.edges)


@dataclass
class UnionMemo:
    """Width checks and exact solves already done, keyed by what decides them.

    ``widths`` maps (tie rule, width cap, union edge set) to the union's
    elimination order, or to None when the capped elimination broke the
    cap; a first tree's key has cap None, since it is eliminated uncapped.
    ``solves`` maps (union edge set, elimination order, state budget) to the
    union's optimum or to the CapacityError its DP raised. Both values are
    functions of their keys: the union graph is the edge set plus the
    terminals, and elimination and the DP are deterministic. Only edge
    sets, orders and trees are stored, never graphs.
    """

    widths: dict = field(default_factory=dict)
    solves: dict = field(default_factory=dict)


def _union_graph(instance: SteinerInstance, edges) -> WeightedGraph:
    return instance.graph.subgraph_of_edges(edges, extra_vertices=instance.terminals)


def greedy_steiner_union(
    instance: SteinerInstance,
    solutions: Sequence[SteinerSolution],
    width_cap: int,
    tie: str = "low",
    memo: UnionMemo | None = None,
) -> UnionSelection:
    """Greedily fold solutions into a union while its width stays in bounds.

    The first solution is always taken (a tree eliminates at width 1); each
    later one joins only if the capped greedy elimination of the tentative
    union stays within ``width_cap``. The result is maximal for the given
    order: every rejected solution would have pushed the union past the cap
    at the moment it was tried.

    A tentative union already in ``memo`` is answered without building its
    graph. The selection carries the union's edge set; its graph is built
    only when something reads it, which ``_solve_union`` does on a miss.
    """
    if not solutions:
        raise ValidationError("cannot select from an empty pool")
    widths = {} if memo is None else memo.widths
    union_edges = solutions[0].edges
    key = (tie, None, union_edges)
    elim = widths.get(key)
    if elim is None:
        elim = widths[key] = greedy_degree(_union_graph(instance, union_edges), tie=tie)
    selected = [0]
    for i in range(1, len(solutions)):
        edges = union_edges | solutions[i].edges
        key = (tie, width_cap, edges)
        if key not in widths:
            res = greedy_degree_capped(
                _union_graph(instance, edges), width_cap, tie=tie
            )
            widths[key] = (
                None if res.exceeded else EliminationOrder(res.order, res.width)
            )
        if widths[key] is None:
            continue
        selected.append(i)
        union_edges = edges
        elim = widths[key]
    return UnionSelection(tuple(selected), union_edges, elim, instance)


def _solve_union(
    instance: SteinerInstance,
    selection: UnionSelection,
    state_budget: int,
    memo: UnionMemo,
    deadline: float | None = None,
) -> SteinerSolution:
    """Exact solve of the instance restricted to the union subgraph.

    A union already in ``memo`` returns the same tree, or raises a fresh
    CapacityError with the stored message. A deadline stop is not stored.
    """
    key = (selection.edges, selection.elimination.order, state_budget)
    known = memo.solves.get(key)
    if isinstance(known, CapacityError):
        raise CapacityError(*known.args)
    if known is not None:
        return known
    union_instance = SteinerInstance.create(
        selection.graph, instance.terminals, instance.name
    )
    td = decomposition_from_order(selection.graph, selection.elimination)
    nice = make_nice(selection.graph, td, min(instance.terminals))
    try:
        tree = dp_solve(
            union_instance, nice, state_budget=state_budget, deadline=deadline
        )
    except CapacityError as exc:
        # a copy that was never raised carries no traceback, so no frames
        memo.solves[key] = CapacityError(*exc.args)
        raise
    memo.solves[key] = tree
    return tree


@dataclass(frozen=True)
class RankIteration:
    """Log entry for one ranking round."""

    index: int
    value: int | None  # union optimum, or None when the DP hit its budget
    selected: tuple[int, ...]  # pool indices that made the union
    width: int
    seconds: float


@dataclass
class RankingState:
    """Observed-value multisets and their exact means, per pool index."""

    z: dict[int, tuple[int, ...]]
    f_a: dict[int, Fraction]
    incumbent: SteinerSolution | None
    iterations: tuple[RankIteration, ...]
    skipped: int


def ranking_procedure(
    instance: SteinerInstance,
    pool: SolutionPool,
    cfg: MergeConfig,
    state_budget: int = DEFAULT_STATE_BUDGET,
    deadline: float | None = None,
    memo: UnionMemo | None = None,
) -> RankingState:
    """Score pool members by the union optima they contribute to.

    Each round shuffles the pool, selects a union at the ranking width cap,
    solves it exactly, and appends the optimum to the observed values of
    every selected member. A member's adjusted value is the exact mean of
    its own weight plus all those optima; members that keep company with
    good unions are pulled below their raw weight. Rounds whose DP exceeds
    the state budget record no value. The best union tree seen is kept when
    the config asks for it.

    Small pools make most rounds pick a union an earlier round already
    solved. ``memo`` (fresh when not given) answers those width checks and
    solves from the earlier round; every round still logs its value, or
    its skip, as if it had solved the union itself. A deadline that passes,
    between rounds or inside a DP, ends the ranking.
    """
    if memo is None:
        memo = UnionMemo()
    sols = pool.solutions
    observed: dict[int, list[int]] = {i: [s.weight] for i, s in enumerate(sols)}
    incumbent: SteinerSolution | None = None
    iterations: list[RankIteration] = []
    skipped = 0
    for it in range(cfg.rank_iterations):
        if deadline is not None and time.monotonic() > deadline:
            break
        t0 = time.monotonic()
        rng = random.Random(_derive_seed(cfg.seed, _RANK_SALT + it))
        perm = list(range(len(sols)))
        rng.shuffle(perm)
        selection = greedy_steiner_union(
            instance, [sols[p] for p in perm], cfg.rank_width, memo=memo
        )
        chosen = tuple(sorted(perm[j] for j in selection.selected))
        try:
            tree = _solve_union(instance, selection, state_budget, memo, deadline)
        except DeadlineError:
            break
        except CapacityError:
            skipped += 1
            iterations.append(
                RankIteration(it, None, chosen, selection.width, time.monotonic() - t0)
            )
            continue
        for i in chosen:
            observed[i].append(tree.weight)
        if incumbent is None or tree.weight < incumbent.weight:
            incumbent = tree
        iterations.append(
            RankIteration(
                it, tree.weight, chosen, selection.width, time.monotonic() - t0
            )
        )
    f_a = {i: Fraction(sum(zs), len(zs)) for i, zs in observed.items()}
    return RankingState(
        z={i: tuple(zs) for i, zs in observed.items()},
        f_a=f_a,
        incumbent=incumbent if cfg.keep_best else None,
        iterations=tuple(iterations),
        skipped=skipped,
    )


@dataclass
class MergeReport:
    """Everything the pipeline decided, plus provenance of the returned tree."""

    instance: str
    pool_size: int
    pool_weights: tuple[int, ...]
    solution: SteinerSolution
    weight: int
    source: str  # "final-dp", "ranking", or "pool"
    trees_used: int
    union_width: int
    ranking: RankingState
    capacity_fallback: bool
    timed_out: bool
    rank_seconds: float
    final_seconds: float

    @property
    def merge_seconds(self) -> float:
        return self.rank_seconds + self.final_seconds


def run_smh(
    instance: SteinerInstance,
    pool: SolutionPool,
    cfg: MergeConfig,
    state_budget: int = DEFAULT_STATE_BUDGET,
    deadline: float | None = None,
) -> MergeReport:
    """Rank, reselect at the final width cap, solve the union, keep the best.

    The returned tree is the minimum over the final union's optimum, the
    ranking incumbent (when kept), and the best raw pool member, so it is
    never worse than the best pool tree. A final-stage budget or deadline
    miss degrades gracefully to the other candidates and flags the report.

    One ``UnionMemo`` serves the ranking rounds and the final pass and is
    dropped on return. When the final union is one ranking already solved,
    the final pass gets the same tree back and, as the final-dp result,
    wins the tie with the ranking incumbent.
    """
    if not pool.entries:
        raise ValidationError("merge needs a nonempty pool")
    memo = UnionMemo()
    t_rank = time.monotonic()
    ranking = ranking_procedure(instance, pool, cfg, state_budget, deadline, memo)
    rank_seconds = time.monotonic() - t_rank

    sols = pool.solutions
    order = sorted(
        range(len(sols)), key=lambda i: (ranking.f_a[i], sols[i].weight, i)
    )
    t_final = time.monotonic()
    selection = greedy_steiner_union(
        instance, [sols[i] for i in order], cfg.final_width, memo=memo
    )
    final_tree: SteinerSolution | None = None
    capacity_fallback = False
    timed_out = deadline is not None and time.monotonic() > deadline
    if not timed_out:
        try:
            final_tree = _solve_union(
                instance, selection, state_budget, memo, deadline
            )
        except DeadlineError:
            timed_out = True
        except CapacityError:
            capacity_fallback = True
    final_seconds = time.monotonic() - t_final

    best_idx = pool.best_index()
    candidates: list[tuple[int, int, SteinerSolution, str]] = [
        (sols[best_idx].weight, 2, sols[best_idx], "pool")
    ]
    if ranking.incumbent is not None:
        candidates.append((ranking.incumbent.weight, 1, ranking.incumbent, "ranking"))
    if final_tree is not None:
        candidates.append((final_tree.weight, 0, final_tree, "final-dp"))
    weight, _, solution, source = min(candidates, key=lambda c: (c[0], c[1]))

    return MergeReport(
        instance=instance.name,
        pool_size=len(pool.entries),
        pool_weights=tuple(pool.weights),
        solution=solution,
        weight=weight,
        source=source,
        trees_used=len(selection.selected),
        union_width=selection.width,
        ranking=ranking,
        capacity_fallback=capacity_fallback,
        timed_out=timed_out,
        rank_seconds=rank_seconds,
        final_seconds=final_seconds,
    )
