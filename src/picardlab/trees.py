"""Full binary trees: enumeration, iterated-integral constants, reconstruction.

Every nesting pattern of the iterated Duhamel integrals is indexed by a full
binary tree (each node has 0 or 2 children).  For a tree tau with j leaves the
iterated time integral collapses to the closed form

    I_tau(t) = t^(j-1) / C_tau,          C_leaf = 1,
    C_tau = (j - 1) * C_left * C_right,

and the minimum C*_j of C_tau over all j-leaf trees is attained by balanced
shapes, with the height-n upper bound  C*_{2^n} <= prod_{k=1}^n (2^k-1)^(2^(n-k)).

The module also evaluates tree terms on actual field data: a leaf carries the
free derivative series of one unit-block projection, a node applies the
Duhamel operator to the dealiased product of its children.  Summing all trees
realizable at iterate level n over all block tuples (weighted by the product
of Rademacher signs) reconstructs the n-th Picard iterate -- the central
cross-check against the direct recursion, sharing the product and the Duhamel
implementation but never squaring a running iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as cartesian_product
from typing import NamedTuple

import numpy as np

from .picard import (
    FieldSeries,
    TimeGrid,
    _check_d_choice,
    _d_duhamel_hat,
    _frozen_series,
    free_derivative_hat,
    product_dealias,
)
from .randomization import RandomizedData

__all__ = [
    "BinaryTree",
    "LEAF",
    "enumerate_trees",
    "c_tau",
    "i_tau_oracle",
    "c_star",
    "c_star_upper",
    "CStarUpper",
    "b_index_set",
    "trees_at_level",
    "evaluate_tree_term",
    "reconstruct_iterate",
]

MAX_LEAVES = 14
ORACLE_NODES = 32


@dataclass(frozen=True)
class BinaryTree:
    """A full binary tree; a leaf has no children, a node exactly two."""

    left: "BinaryTree | None" = None
    right: "BinaryTree | None" = None

    def __post_init__(self) -> None:
        if (self.left is None) != (self.right is None):
            raise ValueError("full binary tree: a node has either 0 or 2 children")

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def leaves(self) -> int:
        return _leaves(self)

    @property
    def internal_nodes(self) -> int:
        return _leaves(self) - 1

    @property
    def height(self) -> int:
        return _height(self)

    def encode(self) -> str:
        """Canonical left-to-right encoding: leaf 'o', node '(LR)'."""
        if self.is_leaf:
            return "o"
        return f"({self.left.encode()}{self.right.encode()})"


LEAF = BinaryTree()


@lru_cache(maxsize=None)
def _leaves(tree: BinaryTree) -> int:
    if tree.is_leaf:
        return 1
    return _leaves(tree.left) + _leaves(tree.right)


@lru_cache(maxsize=None)
def _height(tree: BinaryTree) -> int:
    if tree.is_leaf:
        return 0
    return 1 + max(_height(tree.left), _height(tree.right))


@lru_cache(maxsize=32)
def enumerate_trees(j: int) -> tuple[BinaryTree, ...]:
    """All full binary trees with j leaves; exactly Catalan(j-1) of them."""
    if not 1 <= j <= MAX_LEAVES:
        raise ValueError(f"j must be in [1, {MAX_LEAVES}], got {j}")
    if j == 1:
        return (LEAF,)
    out = []
    for i in range(1, j):
        for a in enumerate_trees(i):
            for b in enumerate_trees(j - i):
                out.append(BinaryTree(a, b))
    return tuple(out)


@lru_cache(maxsize=None)
def c_tau(tree: BinaryTree) -> int:
    """Exact integer C_tau from the recurrence (j-1) * C_left * C_right."""
    if tree.is_leaf:
        return 1
    return (_leaves(tree) - 1) * c_tau(tree.left) * c_tau(tree.right)


def c_star(j: int) -> int:
    """min C_tau over all full binary trees with j leaves (exact)."""
    return min(c_tau(t) for t in enumerate_trees(j))


class CStarUpper(NamedTuple):
    value: int
    exponent_identity: bool


def c_star_upper(n: int) -> CStarUpper:
    """Balanced-tree upper bound prod_{k=1}^n (2^k - 1)^(2^(n-k)).

    Also checks the exponent-sum identity sum_k k 2^(n-k) = 2^(n+1) - n - 2
    in exact arithmetic and reports it alongside the value.
    """
    if not 0 <= n <= 20:
        raise ValueError(f"n must be in [0, 20], got {n}")
    value = 1
    for k in range(1, n + 1):
        value *= (2**k - 1) ** (2 ** (n - k))
    identity = sum(k * 2 ** (n - k) for k in range(1, n + 1)) == 2 ** (n + 1) - n - 2
    return CStarUpper(value, identity)


def b_index_set(j: int, n: int) -> frozenset[int]:
    """Left-leaf counts that can split a j-factor term at iterate level n.

    {1..j-1} when j <= 2^(n-1); {j - 2^(n-1) .. 2^(n-1)} when j > 2^(n-1).
    """
    if n < 1 or not 2 <= j <= 2**n:
        raise ValueError(f"need n >= 1 and 2 <= j <= 2^n, got j={j}, n={n}")
    half = 2 ** (n - 1)
    if j <= half:
        return frozenset(range(1, j))
    return frozenset(range(j - half, half + 1))


@lru_cache(maxsize=None)
def trees_at_level(j: int, n: int) -> tuple[BinaryTree, ...]:
    """Trees contributing j-factor terms at iterate level n.

    Built by the index-set recursion: a level-n tree splits into level-(n-1)
    subtrees whose leaf counts lie in b_index_set(j, n).  The result is exactly
    the set of full binary trees with j leaves and height <= n, each once.
    """
    if j < 1 or n < 0:
        raise ValueError(f"need j >= 1 and n >= 0, got j={j}, n={n}")
    if j == 1:
        return (LEAF,)
    if j > 2**n:
        return ()
    out = []
    for i in sorted(b_index_set(j, n)):
        for a in trees_at_level(i, n - 1):
            for b in trees_at_level(j - i, n - 1):
                out.append(BinaryTree(a, b))
    return tuple(out)


# ---------------------------------------------------------------------------
# Independent quadrature oracle for I_tau
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _collocation(t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre collocation data on [0, t] with ORACLE_NODES nodes.

    Returns (nodes, antiderivative matrix Q, endpoint row e): for samples v of
    a polynomial on the nodes, (Q v)_i = int_0^{x_i} p  and  e . v = int_0^t p,
    exact for degree < ORACLE_NODES.  Values -> Legendre coefficients by the
    discrete orthogonality projection (exact at Gauss nodes), antiderivative
    by legint, evaluation back at the nodes.
    """
    from numpy.polynomial import legendre

    u, w = legendre.leggauss(ORACLE_NODES)
    nodes = 0.5 * t * (u + 1.0)
    v_mat = legendre.legvander(u, ORACLE_NODES - 1)
    degrees = np.arange(ORACLE_NODES)
    coeff_of_values = ((2.0 * degrees + 1.0) / 2.0)[:, None] * (v_mat.T * w[None, :])
    anti = np.zeros((ORACLE_NODES + 1, ORACLE_NODES))
    for col in range(ORACLE_NODES):
        c = np.zeros(ORACLE_NODES)
        c[col] = 1.0
        anti[:, col] = legendre.legint(c, lbnd=-1.0)
    eval_nodes = legendre.legvander(u, ORACLE_NODES)
    q_mat = 0.5 * t * (eval_nodes @ anti @ coeff_of_values)
    end_row = 0.5 * t * (legendre.legvander(np.array([1.0]), ORACLE_NODES)[0] @ anti
                         @ coeff_of_values)
    for arr in (nodes, q_mat, end_row):
        arr.flags.writeable = False
    return nodes, q_mat, end_row


def i_tau_oracle(tree: BinaryTree, t: float) -> float:
    """I_tau(t) by direct nested quadrature, never consulting the closed form.

    Per level the integrand samples live on a shared Gauss-Legendre node grid
    of [0, t]; one integration matrix maps the pointwise product of child
    values to the antiderivative samples of the next level.  Exact (to
    rounding) for the polynomial integrands that arise, j <= 8 by contract.
    """
    if _leaves(tree) > 8:
        raise ValueError("oracle is budgeted for trees with at most 8 leaves")
    if not 0.0 <= t <= 2.0:
        raise ValueError(f"t must lie in [0, 2], got {t}")
    if tree.is_leaf:
        return 1.0
    if t == 0.0:
        return 0.0
    _, q_mat, end_row = _collocation(float(t))

    memo: dict[BinaryTree, np.ndarray] = {}

    def values_on_nodes(sub: BinaryTree) -> np.ndarray:
        if sub.is_leaf:
            return np.ones(ORACLE_NODES)
        got = memo.get(sub)
        if got is None:
            got = q_mat @ (values_on_nodes(sub.left) * values_on_nodes(sub.right))
            memo[sub] = got
        return got

    return float(end_row @ (values_on_nodes(tree.left) * values_on_nodes(tree.right)))


# ---------------------------------------------------------------------------
# Tree terms on field data
# ---------------------------------------------------------------------------

def _canonical_blocks(tree: BinaryTree, blocks: tuple) -> tuple:
    """Normalize block assignments that provably give the same term.

    The dealiased product is symmetric, so whenever the two subtrees are
    structurally equal, swapping their block halves reproduces the same field
    bit for bit; sorting those halves makes the memo key canonical.
    """
    if tree.is_leaf:
        return blocks
    split = _leaves(tree.left)
    left = _canonical_blocks(tree.left, blocks[:split])
    right = _canonical_blocks(tree.right, blocks[split:])
    if tree.left == tree.right:
        left, right = sorted((left, right))
    return left + right


def _tree_term_hat(
    tree: BinaryTree,
    blocks: tuple[tuple[int, int], ...],
    data: RandomizedData,
    tg: TimeGrid,
    d_choice: str,
    memo: dict,
) -> np.ndarray:
    key = (tree, _canonical_blocks(tree, blocks))
    got = memo.get(key)
    if got is not None:
        return got
    grid = data.grid
    if tree.is_leaf:
        block = blocks[0]
        out = free_derivative_hat(data.phi0_blocks[block].values, grid, tg, d_choice)
    else:
        split = _leaves(tree.left)
        left = _tree_term_hat(tree.left, blocks[:split], data, tg, d_choice, memo)
        right = _tree_term_hat(tree.right, blocks[split:], data, tg, d_choice, memo)
        src = product_dealias(left, right, grid)
        out = _d_duhamel_hat(src, grid, tg, d_choice, box=True)
    memo[key] = out
    return out


def _require_tree_data(data: RandomizedData) -> None:
    if not data.phi1_is_zero:
        raise ValueError("tree expansion is defined for zero velocity datum (phi1 = 0)")


def evaluate_tree_term(
    tree: BinaryTree,
    blocks: tuple[tuple[int, int], ...],
    data: RandomizedData,
    tg: TimeGrid,
    d_choice: str = "x1",
    memo: dict | None = None,
) -> FieldSeries:
    """The unsigned term G^tau for one tree and one tuple of unit blocks.

    Leaves consume the block tuple left to right and carry the free derivative
    series of P_k phi0; each node applies the Duhamel operator to the
    dealiased product of its children -- the same product and kernel code the
    direct engine uses.  Rademacher signs are not applied here.
    """
    _require_tree_data(data)
    _check_d_choice(d_choice)
    if len(blocks) != _leaves(tree):
        raise ValueError(f"tree has {_leaves(tree)} leaves but got {len(blocks)} blocks")
    missing = [k for k in blocks if k not in data.phi0_blocks]
    if missing:
        raise ValueError(f"blocks {missing} carry no data (active set: {sorted(data.phi0_blocks)})")
    if memo is None:
        memo = {}
    norm_blocks = tuple((int(k[0]), int(k[1])) for k in blocks)
    hat = _tree_term_hat(tree, norm_blocks, data, tg, d_choice, memo)
    return _frozen_series(data.grid, tg, hat, "tree_term")


def reconstruct_iterate(
    n: int,
    data: RandomizedData,
    tg: TimeGrid,
    d_choice: str = "x1",
    max_blocks: int = 6,
) -> FieldSeries:
    """du^(n) assembled from the tree expansion (independent of the recursion).

    Sums, over j = 1..2^n, every j-tuple of active blocks and every tree
    realizable at level n, the term G^tau weighted by the product of the
    tuple's Rademacher signs.  Resource-capped: the tuple count is
    |blocks|^j, so the active set is limited to ``max_blocks`` and n <= 2.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > 2:
        raise ValueError("reconstruction is budgeted for n <= 2")
    _require_tree_data(data)
    _check_d_choice(d_choice)
    active = tuple(sorted(data.phi0_blocks))
    if len(active) > max_blocks:
        raise ValueError(f"{len(active)} active blocks exceed the cap {max_blocks}")

    grid = data.grid
    total = np.zeros((tg.n_nodes, grid.n_points, grid.n_points), dtype=np.complex128)
    memo: dict = {}
    for j in range(1, 2**n + 1):
        trees = trees_at_level(j, n)
        if not trees:
            continue
        for tup in cartesian_product(active, repeat=j):
            sign = 1
            for k in tup:
                sign *= data.draw.eps(k)
            term = np.zeros_like(total)
            for tree in trees:
                term += _tree_term_hat(tree, tup, data, tg, d_choice, memo)
            total += sign * term
    return _frozen_series(grid, tg, total, "du_reconstructed")
