"""Solution merging: union selection, randomized ranking, and the pipeline.

The idea: the graph union of a few good trees is far richer than any single
tree but still sparse enough for the width-bounded exact solver. Selection
keeps adding pool trees while the union's greedy elimination width stays
within a cap; the ranking phase scores each tree by how good the unions it
joins turn out to be; the final pass solves the union of the best-ranked
trees exactly. Each ``run_smh`` call keeps one memo, a dict from every
union edge set it meets to that union's ``_Union`` record, so every round
reuses the width checks and exact solves of earlier rounds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .exact import (
    CapacityError,
    DEFAULT_STATE_BUDGET,
    DeadlineError,
    dp_solve,
    tree_states_bound,
)
from .generator import SolutionPool, _derive_seed
from .graph import (
    Edge,
    SteinerInstance,
    SteinerSolution,
    ValidationError,
    WeightedGraph,
    prune,
)
from .treewidth import (
    EliminationOrder,
    decomposition_from_order,
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


@dataclass(eq=False)
class _Union:
    """Everything one ``run_smh`` learns about one union edge set.

    ``verdict`` answers every width cap. Greedy elimination pops the same
    sequence at any cap and stops only at the first degree above it, so an
    elimination of width w accepts the union at each cap of w or more and
    rejects it below, and its recorded bags decompose the union; an
    elimination that broke its cap at degree d rejects every cap below d. A
    cap of d or more eliminates again and replaces it. ``solved`` maps a state
    budget to the union's optimum, or to None when its DP ran out of states.
    ``joined`` maps a tree's edge set to the edge set of this union with
    the tree added, so a repeated tentative union builds no edge set. It
    holds edge sets, not records: a tree inside the union joins it to
    itself, and no record may refer to itself, or a dropped memo would wait
    for the cycle collector. Each is a function of the edge set: the graph
    is the edges plus the terminals, and elimination and the DP are
    deterministic.
    """

    instance: SteinerInstance = field(repr=False)
    edges: frozenset[Edge]
    verdict: EliminationOrder | None = None
    solved: dict[int, SteinerSolution | None] = field(default_factory=dict)
    joined: dict[frozenset[Edge], frozenset[Edge]] = field(default_factory=dict, repr=False)

    @cached_property
    def graph(self) -> WeightedGraph:
        """The union subgraph: ``edges`` plus every terminal, built at most once."""
        # pool trees were checked against the host when read or generated, so
        # their edges are normalized host edges and need no second check
        weights = self.instance.graph.weights
        vertices = set(self.instance.terminals)
        for u, v in self.edges:
            vertices.add(u)
            vertices.add(v)
        return WeightedGraph(frozenset(vertices), {e: weights[e] for e in self.edges})

    @cached_property
    def n_vertices(self) -> int:
        """The terminals plus the edges' endpoints, counted without the graph."""
        return len(self.instance.terminals.union(*self.edges))

    @property
    def is_tree(self) -> bool:
        # pool trees span the terminals, so their union is connected
        return len(self.edges) == self.n_vertices - 1

    def within(self, cap: int) -> bool:
        """Whether the union's greedy elimination width is at most ``cap``."""
        found = self.verdict
        if found is None or (found.exceeded and cap >= found.width):
            found = self.verdict = greedy_degree_capped(self.graph, cap)
        return not found.exceeded and found.width <= cap

    @property
    def elimination(self) -> EliminationOrder:
        """The union's greedy elimination, eliminated at most once.

        A union of several trees passed a width check that left its
        elimination in ``verdict``. A lone tree is taken unchecked, so it is
        eliminated only when read, at a cap no vertex's degree can exceed.
        """
        self.within(self.n_vertices)
        return self.verdict

    @property
    def width(self) -> int:
        """The union's greedy elimination width; a tree's needs no elimination.

        A tree eliminates leaf by leaf: no vertex has more than one
        neighbour left when it goes, and no fill edge appears.
        """
        if self.is_tree:
            return min(len(self.edges), 1)
        return self.elimination.width

    def solve(self, state_budget: int, deadline: float | None = None) -> SteinerSolution | None:
        """Exact solve of the instance restricted to the union subgraph, or
        None when the DP runs out of states.

        The DP runs over the union's decomposition but against the host
        instance: it reads only edge weights and terminals, which the union
        shares with the host, and pruning over the host's edge ranks keeps
        the same (w, u, v) order, so the tree is the one the union alone
        would give.

        A tree union's optimum is its pruned subtree, the one minimal
        subtree spanning the terminals, which every connected
        terminal-spanning subgraph of it contains; the DP's own pruning
        strips its result down to that subtree. So when ``state_budget`` is
        at least ``tree_states_bound``, below which the DP might run out of
        states, the tree is pruned directly and no graph, decomposition or
        DP is built. Below that budget the DP runs as for any union.

        A budget this record has seen returns the same answer, tree or
        None, without a second DP. A deadline stop is not stored: its
        DeadlineError propagates.
        """
        if state_budget in self.solved:
            return self.solved[state_budget]
        instance = self.instance
        if self.is_tree and state_budget >= tree_states_bound(self.n_vertices):
            tree = prune(instance, self.edges)
        else:
            graph = self.graph
            td = decomposition_from_order(graph, self.elimination)
            nice = make_nice(graph, td, min(instance.terminals))
            try:
                tree = dp_solve(instance, nice, state_budget=state_budget, deadline=deadline)
            except CapacityError:
                tree = None
        self.solved[state_budget] = tree
        return tree


def _record(
    memo: dict[frozenset[Edge], _Union], instance: SteinerInstance, edges: frozenset[Edge]
) -> _Union:
    """The memo's record of ``edges``, made and stored on first meeting."""
    found = memo.get(edges)
    if found is None:
        found = memo[edges] = _Union(instance, edges)
    return found


def greedy_steiner_union(
    instance: SteinerInstance,
    solutions: Sequence[SteinerSolution],
    width_cap: int,
    memo: dict[frozenset[Edge], _Union] | None = None,
) -> tuple[tuple[int, ...], _Union]:
    """Greedily fold solutions into a union while its width stays in bounds.

    Returns the indices that made it in and the record of their union.
    The first solution is always taken, unchecked (a tree eliminates at
    width 1, or 0 without edges); each later one joins only if the capped
    greedy elimination of the tentative union stays within ``width_cap``.
    The result is maximal for the given order: every rejected solution
    would have pushed the union past the cap at the moment it was tried.

    A tentative union already in ``memo`` is answered by its record,
    without eliminating it again, and one reached from the same union by
    the same tree without building its edge set.
    """
    if not solutions:
        raise ValidationError("cannot select from an empty pool")
    if memo is None:
        memo = {}
    union = _record(memo, instance, solutions[0].edges)
    selected = [0]
    for i, tree in enumerate(solutions[1:], 1):
        edges = union.joined.get(tree.edges)
        if edges is None:
            joined = _record(memo, instance, union.edges | tree.edges)
            edges = union.joined[tree.edges] = joined.edges
        tentative = memo[edges]
        if tentative.within(width_cap):
            selected.append(i)
            union = tentative
    return tuple(selected), union


@dataclass(frozen=True)
class RankIteration:
    """Log entry for one ranking round."""

    index: int
    value: int | None  # union optimum, or None when the DP hit its budget
    selected: tuple[int, ...]  # pool indices that made the union
    width: int


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
    memo: dict[frozenset[Edge], _Union] | None = None,
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
    solved. ``memo`` (fresh when not given) maps each union edge set met
    so far to its record, whose width checks and solves answer the later
    rounds; every round still logs its value, or its skip, and the width
    its record reads, as if it had solved the union itself. A deadline
    that passes, between rounds or inside a DP, ends the ranking.
    """
    if memo is None:
        memo = {}
    sols = pool.entries
    observed: dict[int, list[int]] = {i: [s.weight] for i, s in enumerate(sols)}
    incumbent: SteinerSolution | None = None
    iterations: list[RankIteration] = []
    skipped = 0
    for it in range(cfg.rank_iterations):
        if deadline is not None and time.monotonic() > deadline:
            break
        rng = random.Random(_derive_seed(cfg.seed, _RANK_SALT + it))
        perm = list(range(len(sols)))
        rng.shuffle(perm)
        selected, union = greedy_steiner_union(
            instance, [sols[p] for p in perm], cfg.rank_width, memo=memo
        )
        chosen = tuple(sorted(perm[j] for j in selected))
        try:
            tree = union.solve(state_budget, deadline)
        except DeadlineError:
            break
        if tree is None:
            skipped += 1
            iterations.append(RankIteration(it, None, chosen, union.width))
            continue
        for i in chosen:
            observed[i].append(tree.weight)
        if incumbent is None or tree.weight < incumbent.weight:
            incumbent = tree
        iterations.append(RankIteration(it, tree.weight, chosen, union.width))
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
    miss degrades gracefully to the other candidates and flags the report,
    as does a deadline passed by the end of the final pass.

    One memo of union records serves the ranking rounds and the final
    pass and is dropped on return; the report's width is the final
    union record's. When the final union is one ranking already solved,
    the final pass gets the same tree back and, as the final-dp result,
    wins the tie with the ranking incumbent.
    """
    if not pool.entries:
        raise ValidationError("merge needs a nonempty pool")
    memo: dict[frozenset[Edge], _Union] = {}
    t_rank = time.monotonic()
    ranking = ranking_procedure(instance, pool, cfg, state_budget, deadline, memo)
    rank_seconds = time.monotonic() - t_rank

    sols = pool.entries
    order = sorted(
        range(len(sols)), key=lambda i: (ranking.f_a[i], sols[i].weight, i)
    )
    t_final = time.monotonic()
    selected, union = greedy_steiner_union(
        instance, [sols[i] for i in order], cfg.final_width, memo=memo
    )
    final_tree: SteinerSolution | None = None
    capacity_fallback = False
    timed_out = deadline is not None and time.monotonic() > deadline
    if not timed_out:
        try:
            final_tree = union.solve(state_budget, deadline)
        except DeadlineError:
            timed_out = True
        else:
            capacity_fallback = final_tree is None
    final_seconds = time.monotonic() - t_final
    timed_out = timed_out or (deadline is not None and time.monotonic() > deadline)

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
        trees_used=len(selected),
        union_width=union.width,
        ranking=ranking,
        capacity_fallback=capacity_fallback,
        timed_out=timed_out,
        rank_seconds=rank_seconds,
        final_seconds=final_seconds,
    )
