"""Typed plan trees: per-node cardinality and cost annotations.

A plan is a binary tree of joins over relation leaves.  Every node
carries the estimator's cardinality for the relation set it produces
and the accumulated cost under the classic sum-of-intermediates model
(leaf scans are free; each join node adds its own output cardinality).

:func:`render_plan` is the one rendering routine — the CLI's plan
printer and ``PlanNode.__str__`` both call it, so there is no cosmetic
untested twin.  :func:`evaluate_plan` re-prices a fixed tree shape
under a different estimator, which is how plan-quality *regret* is
measured: enumerate under a cheap policy, re-cost the winner under
exact statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from .estimators import CardinalityEstimator
    from .graph import JoinGraph

__all__ = ["PlanNode", "render_plan", "evaluate_plan"]


@dataclass(frozen=True)
class PlanNode:
    """One node of a join tree: a base relation or a binary join.

    Attributes
    ----------
    relations:
        The relation names this subtree produces, in the graph's
        insertion order (deterministic, comparison-friendly).
    cardinality:
        Estimated output size of this subtree.
    cost:
        Accumulated cost: sum of join-output cardinalities in the
        subtree (leaves cost nothing).
    left, right:
        Child subtrees (``None`` for leaves).
    cross_product:
        True on a join node whose two sides share no join edge.
    """

    relations: tuple[str, ...]
    cardinality: float
    cost: float
    left: Optional["PlanNode"] = None
    right: Optional["PlanNode"] = None
    cross_product: bool = False

    @property
    def is_leaf(self) -> bool:
        """Whether this node scans a base relation."""
        return self.left is None

    @property
    def name(self) -> str:
        """The base relation name (leaves only)."""
        if not self.is_leaf:
            raise ValueError(f"join node over {self.relations} has no name")
        return self.relations[0]

    def order(self) -> tuple[str, ...]:
        """Relation names in left-to-right leaf order.

        For a left-deep tree this is exactly the classic join *order*;
        for bushy trees it is the leaf sequence of the tree.
        """
        if self.is_leaf:
            return self.relations
        assert self.right is not None
        return self.left.order() + self.right.order()

    def depth(self) -> int:
        """Height of the tree (a leaf has depth 1)."""
        if self.is_leaf:
            return 1
        assert self.right is not None
        return 1 + max(self.left.depth(), self.right.depth())

    def structure(self) -> object:
        """A nested-tuple shape fingerprint (for bit-identity checks)."""
        if self.is_leaf:
            return self.name
        assert self.right is not None
        return (self.left.structure(), self.right.structure())

    def __str__(self) -> str:
        return render_plan(self)


def _label(node: PlanNode) -> str:
    if node.is_leaf:
        return f"{node.name}  [card {node.cardinality:,.6g}]"
    op = "×" if node.cross_product else "⋈"
    return (
        f"{op} {{{', '.join(node.relations)}}}  "
        f"[card {node.cardinality:,.6g}, cost {node.cost:,.6g}]"
    )


def render_plan(node: PlanNode) -> str:
    """An ASCII tree of the plan with per-node cardinality and cost.

    ::

        ⋈ {A, B, C}  [card 1,200, cost 1,450]
        ├── ⋈ {A, B}  [card 250, cost 250]
        │   ├── A  [card 1,000]
        │   └── B  [card 500]
        └── C  [card 50]
    """
    lines: list[str] = []

    def walk(n: PlanNode, prefix: str, tail: str) -> None:
        lines.append(prefix + _label(n))
        if n.is_leaf:
            return
        assert n.right is not None
        walk(n.left, tail + "├── ", tail + "│   ")
        walk(n.right, tail + "└── ", tail + "    ")

    walk(node, "", "")
    return "\n".join(lines)


def evaluate_plan(
    node: PlanNode,
    graph: "JoinGraph",
    estimator: "CardinalityEstimator",
) -> PlanNode:
    """Re-price a fixed tree shape under a different estimator.

    The structure (and therefore the join order) is kept; cardinality
    and cost annotations are recomputed bottom-up with the given
    estimator's pairwise selectivities.  Cross products are priced as
    cartesian growth regardless of how the tree was found — the shape
    is already decided, so this never raises
    :class:`~repro.planner.graph.CrossProductError`.
    """
    from .estimators import pairwise_selectivity  # local: avoid cycle

    def walk(n: PlanNode) -> PlanNode:
        if n.is_leaf:
            return PlanNode(
                relations=n.relations,
                cardinality=float(graph.size(n.name)),
                cost=0.0,
            )
        assert n.right is not None
        left = walk(n.left)
        right = walk(n.right)
        selectivity = 1.0
        for a in left.relations:
            for b in right.relations:
                if graph.has_edge(a, b):
                    selectivity *= pairwise_selectivity(graph, estimator, a, b)
        card = left.cardinality * right.cardinality * selectivity
        return PlanNode(
            relations=tuple(
                graph.mask_names(graph.subset_mask(left.relations + right.relations))
            ),
            cardinality=card,
            cost=left.cost + right.cost + card,
            left=left,
            right=right,
            cross_product=n.cross_product,
        )

    return walk(node)
