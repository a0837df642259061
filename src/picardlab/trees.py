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
symmetric, so a tree term and its tuple's sign (the product of its blocks'
Rademacher signs) do not change when the children of a node swap places
together with their blocks: each swap class is computed and added once,
scaled by its sign times its number of (tree, tuple) pairs.  Each product
multiplies its two factors in the order of their class keys: numpy's complex
multiply may round fa*fb and fb*fa differently, and the key order gives
every member of a class the same bits.  Everything after a top term's
product (height n) -- the forward transform, the Duhamel sum and the
derivative -- is linear, so the top products are summed in physical space
and that one sum takes one transform and one Duhamel sum.  MAX_CLASSES, the
one cap, bounds the work and the factors together.

The sum marches in time on the chunks and box tables of the iterate march
(:func:`.picard._chunk_tables`): the Duhamel integral is causal and each
product is pointwise in time, so a node term on a chunk needs its factors
on that chunk only, and each node class carries its own running Duhamel
sums from chunk to chunk.  A node term is zero outside the 2/3 box, so it
is formed and summed in the box's compact layout, by the Duhamel step of
:func:`.picard.duhamel`; outside the box the sum is the leaves'.  Beside
the result, only the leaves' parts on their blocks' windows are whole
series, so the memory the sum holds does not grow with the number of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .picard import (
    FieldSeries,
    TimeGrid,
    _box_fft2,
    _box_ifft2,
    _check_d_choice,
    _check_level,
    _chunk_length,
    _chunk_tables,
    _d_duhamel_hat,
    _d_duhamel_part,
    _DuhamelSums,
    _free_derivative_window,
    _frozen_series,
    _region,
    free_derivative_hat,
)
from .grid import _check_integer
from .multipliers import unit_projection
from .randomization import RademacherDraw, RandomizedData

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
MAX_CLASSES = 6_000
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
    anti = legendre.legint(np.eye(ORACLE_NODES), lbnd=-1.0)  # one column per degree
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

def _node_key(ka: tuple, kb: tuple) -> tuple[str, tuple]:
    """The key of a node whose children have the keys ka <= kb: its shape
    encoding and its blocks, the children taken in key order."""
    return (f"({ka[0]}{kb[0]})", ka[1] + kb[1])


def _keyed_term(tree: BinaryTree, blocks: tuple[tuple[int, int], ...], data: RandomizedData,
                tg: TimeGrid, d_choice: str) -> tuple[tuple, np.ndarray]:
    """The key and the spectral series of the term of ``tree`` on ``blocks``
    on the lattice, whole series at a time; a node multiplies its children
    in the order of their keys, and its term is zero outside the box."""
    if tree.is_leaf:
        return ("o", blocks), free_derivative_hat(unit_projection(data.phi0, blocks[0]).values,
                                                  data.grid, tg, d_choice)
    split = _leaves(tree.left)
    (ka, ta), (kb, tb) = sorted((_keyed_term(tree.left, blocks[:split], data, tg, d_choice),
                                 _keyed_term(tree.right, blocks[split:], data, tg, d_choice)),
                                key=lambda child: child[0])
    whole, box = _region(data.grid, False), _region(data.grid, True)
    product = np.multiply(_box_ifft2(ta, whole), _box_ifft2(tb, whole))
    term = _d_duhamel_hat(_box_fft2(product, box), box, tg, d_choice)
    hat = np.zeros_like(ta)
    box.place(term, hat)
    return _node_key(ka, kb), hat


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
    direct engine uses.  Trees that differ by swaps of children, together
    with their blocks, give the same bits.  Rademacher signs are not applied
    here.
    """
    _check_d_choice(d_choice)
    norm_blocks = tuple(_check_block(k) for k in blocks)
    if len(norm_blocks) != _leaves(tree):
        raise ValueError(f"tree has {_leaves(tree)} leaves but got {len(norm_blocks)} blocks")
    missing = [k for k in norm_blocks if k not in data.draw.blocks]
    if missing:
        raise ValueError(f"blocks {missing} carry no data (active set: {data.draw.blocks})")
    return _frozen_series(data.grid, tg, _keyed_term(tree, norm_blocks, data, tg, d_choice)[1])


def _check_block(block) -> tuple[int, int]:
    """A unit block as a pair of ints, from any pair of Python or numpy
    integers (a tuple, a list, an array row)."""
    pair = tuple(block) if np.iterable(block) else ()
    if len(pair) != 2:
        raise ValueError(f"a block is a pair of integers, got {block!r}")
    return tuple(_check_integer(i, "block coordinate") for i in pair)


def _swap_classes(n: int, draw: RademacherDraw) -> list[tuple]:
    """The swap classes of the level-n tree sum over the blocks of ``draw``
    in height order, each as (key, coefficient, height, children): the
    leaves in block order with their signs and no children, then for
    h = 1..n the unordered pairs {A, B} of earlier classes of which at least
    one has height h - 1, in the order of their positions, with coefficient
    c_A c_B (times 2 if A != B) and the two positions in key order as
    children.  A key is (shape encoding, blocks), built from the children's
    keys in key order.  Each height's class count, b + C (C + 1) / 2 with b
    blocks and C earlier classes, is checked against MAX_CLASSES before the
    height is built."""
    blocks = sorted(draw.blocks)
    classes = [(("o", (k,)), draw.eps(k), 0, None) for k in blocks]
    start = 0  # the position of the first class of height h - 1
    for h in range(1, n + 1):
        end = len(classes)
        count = len(blocks) + end * (end + 1) // 2
        if count > MAX_CLASSES:
            raise ValueError(f"level {n} over {len(blocks)} active blocks has at least {count} "
                             f"swap classes, above the cap {MAX_CLASSES}")
        for i in range(end):
            for j in range(max(i, start), end):
                a, b = (i, j) if classes[i][0] <= classes[j][0] else (j, i)
                (ka, ca, _, _), (kb, cb, _, _) = classes[a], classes[b]
                classes.append((_node_key(ka, kb), ca * cb * (1 if a == b else 2), h, (a, b)))
        start = end
    return classes


def reconstruct_iterate(
    n: int,
    data: RandomizedData,
    tg: TimeGrid,
    d_choice: str = "x1",
) -> FieldSeries:
    """du^(n) assembled from the tree expansion (independent of the recursion).

    Sums, over j = 1..2^n, every j-tuple of active blocks and every tree
    realizable at level n, the term G^tau weighted by the product of the
    tuple's Rademacher signs, once per swap class (see the module
    docstring) in class order.  The top terms (height n) enter as one sum
    of their products, added last, so the result differs from summing each
    top term on its own by rounding only.  At n = 0 it is the signed sum of
    the leaves.  At most MAX_CLASSES swap classes, counted before any leaf
    is evolved; the call holds a chunk-sized row per factor (class of
    height < n).
    """
    _check_level(n, "n")
    _check_d_choice(d_choice)
    classes = _swap_classes(n, data.draw)
    grid = data.grid
    leaves = [(coef, _free_derivative_window(unit_projection(data.phi0, key[1][0]).values,
                                             grid, tg, d_choice))
              for key, coef, _, _ in classes[:len(data.draw.blocks)]]
    total = np.zeros((tg.n_nodes, grid.n_points, grid.n_points), dtype=np.complex128)
    for coef, (window, part) in leaves:  # the signed sum of the leaves, on their windows
        total[(slice(None),) + window] += coef * part
    if not n:
        return _frozen_series(grid, tg, total)
    n_factors = sum(height < n for _, _, height, _ in classes)
    # the chunk-sized workspace.  On the lattice: the leaf at hand, later
    # the top sum; the product at hand; and the box inverse transforms of
    # the factors, a row per class position -- the classes come in height
    # order, so the factors are the classes before the top ones and each
    # row is written before a product reads it.  On the box: the Duhamel
    # buffers and the chunk's total.
    chunk = (_chunk_length(tg), grid.n_points, grid.n_points)
    lattice, product = np.empty(chunk, dtype=complex), np.empty(chunk, dtype=complex)
    factors = np.empty((n_factors,) + chunk, dtype=complex)
    whole, box = _region(grid, False), _region(grid, True)
    work = box.buffers(chunk[0])
    box_total = np.empty_like(work[0])
    # one Duhamel integral per node factor, and the last for the top sum
    sums = [_DuhamelSums(box, tg) for _ in range(n_factors - len(leaves) + 1)]
    # dt u, and with it the sin table, only for d = d/dt
    for nodes, tables in _chunk_tables(tg, box, spread=(True, d_choice == "t", True)):
        k = nodes.stop - nodes.start
        leaf, prod, node_total = lattice[:k], product[:k], box_total[:k]
        for i, (_, (window, part)) in enumerate(leaves):
            leaf.fill(0.0)
            leaf[(slice(None),) + window] = part[nodes]
            _box_ifft2(leaf, whole, out=factors[i, :k])
        # a node term is zero outside the box: the nodes are summed on the
        # box, from the leaves' sum there
        box.gather(total[nodes], out=node_total)
        for i, (_, coef, _, (a, b)) in enumerate(classes[len(leaves):n_factors], len(leaves)):
            np.multiply(factors[a, :k], factors[b, :k], out=prod)
            term = _d_duhamel_part(_box_fft2(prod, box, out=work[0][:k]),
                                   sums[i - len(leaves)], work, tables, d_choice)
            # later products read only its box inverse transform, taken
            # before the term is scaled
            _box_ifft2(term, box, out=factors[i, :k])
            _add_scaled(node_total, coef, term)
        # no top term is a factor: the top products are summed in class
        # order, and the sum takes one transform and one Duhamel sum
        top = leaf
        top.fill(0.0)
        for _, coef, _, (a, b) in classes[n_factors:]:
            _add_scaled(top, coef, np.multiply(factors[a, :k], factors[b, :k], out=prod))
        node_total += _d_duhamel_part(_box_fft2(top, box, out=work[0][:k]), sums[-1], work,
                                      tables, d_choice)
        box.place(node_total, total[nodes])
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
