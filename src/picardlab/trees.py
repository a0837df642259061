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

The sum does each distinct piece of work once.  The product is bilinear and
symmetric, so a tree term does not change when the two children of any node
swap places together with their blocks; the memo key orders the children of
every node by their own (shape encoding, blocks) keys, and a whole class of
swapped terms is computed once (at n = 2 with 4 blocks, 105 products instead
of 145).  Each product is one multiply of its two factors in the order of
their keys, not of the tree's children: numpy's complex multiply may round
fa*fb and fb*fa differently, and the key order makes every member of a class
the same bits.  A tuple's sign is the product of its blocks' Rademacher
signs, which child swaps keep, so the sum runs over swap classes: each class
term is computed once and added once, scaled by its sign times the number of
(tree, tuple) pairs in the class.  A term serves as a factor at level n only
if its height is at most n - 1.  The memo is a plain dict from key to a
factor's box inverse transform and holds nothing else: the classes are
visited with j ascending, so a factor's class has been added, and its
transform stored, before any product reads it.  Each distinct factor is thus
transformed once, and a product takes the stored arrays (one array twice
when both children share a key); no spectral series is kept.  A term of
height n (a top term) is never a factor, and everything after its product --
the forward transform, the Duhamel sum and the derivative -- is linear.  So
the top terms never enter the memo: their children's pointwise products are
summed in physical space, scaled by the class coefficients, and that one sum
is transformed, put through one Duhamel sum and added last.  At n = 2 with 4
blocks this takes 11 forward transforms and 11 Duhamel sums instead of 105,
and the memo holds only the 14 factors.  A leaf's datum is one unit block's
projection, so its free series is evolved only on the rows and columns of
that block's window (:func:`.picard.free_derivative_hat`).  The sum is capped
by its (tree, tuple) term count, MAX_TREE_TERMS: n = 3 is within reach for up
to 3 blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as cartesian_product
from typing import NamedTuple

import numpy as np

from .picard import (
    FieldSeries,
    TimeGrid,
    _box_fft2,
    _box_ifft2,
    _check_d_choice,
    _check_level,
    _d_duhamel_hat,
    _frozen_series,
    free_derivative_hat,
)
from .multipliers import unit_projection
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
MAX_BLOCKS = 6
MAX_TREE_TERMS = 25_000
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

def _term_key(tree: BinaryTree, blocks: tuple[tuple[int, int], ...]) -> tuple[str, tuple]:
    """The memo key of the term of ``tree`` on ``blocks``: (shape encoding,
    blocks) with the two children of every node put in the order of their
    own keys, so the trees and block tuples that differ by swaps of children
    share one key, and distinct classes keep distinct keys."""
    if tree.is_leaf:
        return ("o", blocks)
    split = _leaves(tree.left)
    first, second = sorted((_term_key(tree.left, blocks[:split]),
                            _term_key(tree.right, blocks[split:])))
    return (f"({first[0]}{second[0]})", first[1] + second[1])


def _factors(tree: BinaryTree, blocks: tuple[tuple[int, int], ...], data: RandomizedData,
             tg: TimeGrid, d_choice: str, memo: dict) -> list[np.ndarray]:
    """The box inverse transforms of the two children of the node ``tree``
    on ``blocks``, from ``memo`` (keyed by :func:`_term_key`); a missing one
    is computed into it.  They come in the order of their keys: numpy's
    complex multiply may round fa*fb and fb*fa differently (fused
    multiply-add), and this order makes the product the same bits for every
    member of a swap class.  Equal keys give one array, a square."""
    split = _leaves(tree.left)
    children = sorted(((_term_key(sub, part), sub, part)
                       for sub, part in ((tree.left, blocks[:split]), (tree.right, blocks[split:]))),
                      key=lambda child: child[0])
    out = []
    for key, sub, part in children:
        if key not in memo:
            memo[key] = _box_ifft2(_term_hat(sub, part, data, tg, d_choice, memo), data.grid)
        out.append(memo[key])
    return out


def _term_hat(tree: BinaryTree, blocks: tuple[tuple[int, int], ...], data: RandomizedData,
              tg: TimeGrid, d_choice: str, memo: dict) -> np.ndarray:
    """The spectral series of the term of ``tree`` on ``blocks``: a leaf's
    free derivative series, or the Duhamel term of the dealiased product of
    the node's factors (:func:`_factors`)."""
    grid = data.grid
    if tree.is_leaf:
        return free_derivative_hat(unit_projection(data.phi0, blocks[0]).values, grid, tg,
                                   d_choice)
    src = _box_fft2(np.multiply(*_factors(tree, blocks, data, tg, d_choice, memo)), grid)
    return _d_duhamel_hat(src, grid, tg, d_choice, box=True)


def evaluate_tree_term(
    tree: BinaryTree,
    blocks: tuple[tuple[int, int], ...],
    data: RandomizedData,
    tg: TimeGrid,
    d_choice: str = "x1",
) -> FieldSeries:
    """The unsigned term G^tau for one tree and one tuple of unit blocks.

    Leaves consume the block tuple left to right and carry the free derivative
    series of P_k phi0; each node applies the Duhamel operator to the
    dealiased product of its children -- the same product and kernel code the
    direct engine uses.  Rademacher signs are not applied here.
    """
    _check_d_choice(d_choice)
    if len(blocks) != _leaves(tree):
        raise ValueError(f"tree has {_leaves(tree)} leaves but got {len(blocks)} blocks")
    missing = [k for k in blocks if k not in data.draw.blocks]
    if missing:
        raise ValueError(f"blocks {missing} carry no data (active set: {data.draw.blocks})")
    norm_blocks = tuple((int(k[0]), int(k[1])) for k in blocks)
    return _frozen_series(data.grid, tg, _term_hat(tree, norm_blocks, data, tg, d_choice, {}))


def reconstruct_iterate(
    n: int,
    data: RandomizedData,
    tg: TimeGrid,
    d_choice: str = "x1",
) -> FieldSeries:
    """du^(n) assembled from the tree expansion (independent of the recursion).

    Sums, over j = 1..2^n, every j-tuple of active blocks and every tree
    realizable at level n, the term G^tau weighted by the product of the
    tuple's Rademacher signs.  The sum is taken once per swap class, as
    (sign x multiplicity) x term, in the order the classes first appear in
    the (j, tuple, tree) walk.  For n >= 1 the classes of height n (the top
    terms) are summed as their children's physical products; that sum takes
    one box forward transform and one Duhamel sum and is added last.  The
    result differs from summing each top term on its own by rounding only.
    Resource-capped: at most MAX_BLOCKS active blocks and MAX_TREE_TERMS
    (tree, tuple) terms.
    """
    _check_level(n, "n")
    _check_d_choice(d_choice)
    active = tuple(sorted(data.draw.blocks))
    if len(active) > MAX_BLOCKS:
        raise ValueError(f"{len(active)} active blocks exceed the cap {MAX_BLOCKS}")
    # sum_j len(trees_at_level(j, h)) * b^j: a tree of height <= h is a leaf
    # or a node over two trees of height <= h - 1, so it is b + (its value at
    # h - 1)^2; the loop stops once it passes the cap
    terms = len(active)
    for _ in range(n):
        if terms > MAX_TREE_TERMS:
            break
        terms = len(active) + terms * terms
    if terms > MAX_TREE_TERMS:
        raise ValueError(f"level {n} over {len(active)} active blocks sums at least {terms} "
                         f"(tree, tuple) terms, above the cap {MAX_TREE_TERMS}")

    # each swap class with its first (tree, tuple) and its coefficient: the
    # tuple's sign, constant on the class, times the class's size
    classes: dict = {}
    for j in range(1, 2**n + 1):
        trees = trees_at_level(j, n)
        for tup in cartesian_product(active, repeat=j):
            sign = math.prod(data.draw.eps(k) for k in tup)
            for tree in trees:
                key = _term_key(tree, tup)
                classes.setdefault(key, [tree, tup, 0])[2] += sign
    grid = data.grid
    total = np.zeros((tg.n_nodes, grid.n_points, grid.n_points), dtype=np.complex128)
    # the physical sum of the top products, and the product at hand
    top, product = np.zeros_like(total), np.empty_like(total)
    # the classes come with j ascending, so a factor's class is added, and
    # its box inverse transform stored, before any term that reads it
    memo: dict = {}
    for key, (tree, tup, coef) in classes.items():
        if n and tree.height == n:
            # a term of height n is no factor at level n, and the transform,
            # Duhamel sum and derivative after its product are linear: only
            # the product enters the sum, and the tail is applied once below
            np.multiply(*_factors(tree, tup, data, tg, d_choice, memo), out=product)
            _add_scaled(top, coef, product)
            continue
        term = _term_hat(tree, tup, data, tg, d_choice, memo)
        if n:
            # a factor (at n = 0 a leaf is none): later products read only
            # its box inverse transform, taken before the term is scaled
            memo[key] = _box_ifft2(term, grid)
        _add_scaled(total, coef, term)
        del term  # not held while the next term is formed
    if n:
        total += _d_duhamel_hat(_box_fft2(top, grid), grid, tg, d_choice, box=True)
    return _frozen_series(grid, tg, total)


def _add_scaled(acc: np.ndarray, coef: int, term: np.ndarray) -> None:
    """acc += coef * term, without a multiply for coef = +-1; otherwise
    ``term``, which the caller no longer reads, is scaled in place."""
    if coef == 1:
        acc += term
    elif coef == -1:
        acc -= term
    else:
        acc += np.multiply(coef, term, out=term)
