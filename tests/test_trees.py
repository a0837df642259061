"""Full binary tree combinatorics, integral constants, and reconstruction."""

import json
import math
import sys
import tracemalloc
import weakref
from collections import Counter
from itertools import product as cartesian_product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import box_mask, run_python, two_block_datum
from picardlab import (
    BinaryTree,
    Field,
    TimeGrid,
    b_index_set,
    c_star,
    c_star_upper,
    c_tau,
    duhamel,
    enumerate_trees,
    evaluate_tree_term,
    free_evolution,
    i_tau_oracle,
    make_grid,
    picard_iterate,
    reconstruct_iterate,
    sobolev_norm,
)
from picardlab import picard, trees
from picardlab.multipliers import unit_projection
from picardlab.picard import FieldSeries, free_derivative_hat, product_dealias
from picardlab.randomization import active_blocks, draw_rademacher, randomize
from picardlab.trees import LEAF, trees_at_level

NODE2 = BinaryTree(LEAF, LEAF)


@pytest.fixture(scope="module")
def small_oracle():
    """The 4-block oracle datum and draw at 32^2 (same box, so same blocks)
    on a few time nodes: cheap enough to sum every tree term without a memo."""
    phi0 = two_block_datum(make_grid(32, 8.0 * math.pi))
    blocks = active_blocks(phi0)
    assert len(blocks) == 4
    data = randomize(phi0, None, draw_rademacher(99, blocks, sample_index=1))
    return data, TimeGrid(t_final=0.5, n_steps=5)


def _key(tree, blocks):
    """The key of the term of ``tree`` on ``blocks``: (shape encoding, blocks)
    with the two children of every node in the order of their own keys."""
    if tree.is_leaf:
        return ("o", blocks)
    split = tree.left.leaves
    first, second = sorted((_key(tree.left, blocks[:split]), _key(tree.right, blocks[split:])))
    return (f"({first[0]}{second[0]})", first[1] + second[1])


def _reference_product(tree, blocks, data, tg, d_choice, averaged=False):
    """The physical pointwise product of the two children of the node ``tree``
    without a memo, from numpy's full inverse transforms of the children
    truncated to the box.  The children are multiplied once, in the order of
    their keys (``_key``), not in the tree's own child order:
    numpy's complex multiply may round fa * fb and fb * fa differently, and
    the key order is the one every member of a swap class shares.  With
    ``averaged``, every product in the term is instead the symmetric average
    0.5 * (fa * fb + fb * fa) of ``product_dealias``."""
    mask = box_mask(data.grid.n_points)
    split = tree.left.leaves
    children = sorted(((tree.left, blocks[:split]), (tree.right, blocks[split:])),
                      key=lambda child: _key(*child))
    fa, fb = (np.fft.ifft2(_reference_term(sub, part, data, tg, d_choice, averaged) * mask,
                           norm="ortho", axes=(-2, -1))
              for sub, part in children)
    return 0.5 * (fa * fb + fb * fa) if averaged else fa * fb


def _reference_duhamel(pointwise, data, tg, d_choice):
    """The public whole-lattice duhamel of a physical product truncated to
    the box by numpy's full forward transform."""
    hat = np.fft.fft2(pointwise, norm="ortho", axes=(-2, -1)) * box_mask(data.grid.n_points)
    return duhamel(FieldSeries(data.grid, tg, hat, "spectral"), tg, d_choice).values


def _reference_term(tree, blocks, data, tg, d_choice, averaged=False):
    """G^tau without a memo: the leaf's free derivative series, and at a node
    the Duhamel term of its children's product, from public pieces and
    numpy's full transforms only."""
    if tree.is_leaf:
        leaf = unit_projection(data.phi0, blocks[0])
        return free_derivative_hat(leaf.values, data.grid, tg, d_choice)
    return _reference_duhamel(_reference_product(tree, blocks, data, tg, d_choice, averaged),
                              data, tg, d_choice)


def test_tree_shape_validation():
    with pytest.raises(ValueError):
        BinaryTree(LEAF, None)
    assert LEAF.is_leaf and LEAF.leaves == 1 and LEAF.height == 0
    assert NODE2.leaves == 2 and NODE2.internal_nodes == 1 and NODE2.height == 1
    assert NODE2.encode() == "(oo)"


def test_enumeration_matches_catalan():
    for j in range(1, 13):
        count = math.comb(2 * (j - 1), j - 1) // j
        trees = enumerate_trees(j)
        assert len(trees) == count
        assert len(set(trees)) == count
        assert all(t.leaves == j for t in trees)


def test_enumeration_range_errors():
    with pytest.raises(ValueError):
        enumerate_trees(0)
    with pytest.raises(ValueError):
        enumerate_trees(15)


def test_c_tau_small_values():
    assert c_tau(LEAF) == 1
    assert c_tau(NODE2) == 1
    for t in enumerate_trees(3):
        assert c_tau(t) == 2
    balanced4 = BinaryTree(NODE2, NODE2)
    comb4 = BinaryTree(BinaryTree(NODE2, LEAF), LEAF)
    assert c_tau(balanced4) == 3
    assert c_tau(comb4) == 6
    assert c_star(4) == 3


def test_c_star_balanced_values():
    assert c_star(1) == 1
    assert c_star(2) == 1
    assert c_star(8) == 63
    assert c_tau(BinaryTree(BinaryTree(NODE2, NODE2), BinaryTree(NODE2, NODE2))) == 63


def test_c_star_upper_bound_and_identity():
    assert c_star_upper(0).value == 1
    assert c_star_upper(1).value == 1
    assert c_star_upper(2).value == 3
    assert c_star_upper(3).value == 63
    for n in range(0, 21):
        assert c_star_upper(n).exponent_identity
    for n in (1, 2, 3):
        assert c_star(2**n) <= c_star_upper(n).value
    with pytest.raises(ValueError):
        c_star_upper(21)


def test_i_tau_oracle_against_closed_form():
    for j in range(1, 8):
        for tree in enumerate_trees(j):
            for t in (0.3, 1.0, 2.0):
                expect = t ** (j - 1) / c_tau(tree)
                got = i_tau_oracle(tree, t)
                assert abs(got - expect) <= 1e-9 * max(1.0, expect)


def test_i_tau_oracle_at_zero():
    assert i_tau_oracle(LEAF, 0.0) == 1.0
    assert i_tau_oracle(NODE2, 0.0) == 0.0


def test_i_tau_oracle_domain_errors():
    with pytest.raises(ValueError):
        i_tau_oracle(NODE2, 2.5)
    with pytest.raises(ValueError):
        i_tau_oracle(NODE2, -0.1)
    wide = BinaryTree(
        BinaryTree(BinaryTree(NODE2, NODE2), BinaryTree(NODE2, NODE2)),
        NODE2,
    )
    assert wide.leaves == 10
    with pytest.raises(ValueError):
        i_tau_oracle(wide, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.floats(0.05, 2.0), st.data())
def test_i_tau_closed_form_property(j, t, data):
    tree = data.draw(st.sampled_from(enumerate_trees(j)))
    expect = t ** (j - 1) / c_tau(tree)
    assert i_tau_oracle(tree, t) == pytest.approx(expect, abs=1e-9, rel=1e-9)


def test_b_index_set_cases():
    assert b_index_set(2, 1) == frozenset({1})
    assert b_index_set(4, 2) == frozenset({2})
    assert b_index_set(3, 2) == frozenset({1, 2})
    assert b_index_set(6, 3) == frozenset({2, 3, 4})
    assert b_index_set(8, 3) == frozenset({4})
    with pytest.raises(ValueError):
        b_index_set(5, 2)
    with pytest.raises(ValueError):
        b_index_set(2, 0)


def test_trees_at_level_are_height_filtered_enumeration():
    for n in (1, 2, 3):
        for j in range(1, min(2**n, 8) + 1):
            got = trees_at_level(j, n)
            assert len(got) == len(set(got))
            expect = {t for t in enumerate_trees(j) if t.height <= n}
            assert set(got) == expect
    assert trees_at_level(3, 1) == ()
    assert len(trees_at_level(4, 2)) == 1


def _swap_class(tree, blocks):
    """The labelled tree with unordered children: a leaf is its block, a node
    the multiset of its two children's classes."""
    if tree.is_leaf:
        return blocks[0]
    split = tree.left.leaves
    halves = (_swap_class(tree.left, blocks[:split]), _swap_class(tree.right, blocks[split:]))
    return frozenset(Counter(halves).items())


def test_term_key_is_canonical_under_child_swaps(small_oracle):
    data, tg = small_oracle
    a, b, c = data.draw.blocks[:3]
    key = _key

    # same-shape halves swapped, at the top and inside
    balanced = BinaryTree(NODE2, NODE2)
    assert key(balanced, (a, a, b, b)) == key(balanced, (b, b, a, a))
    assert key(balanced, (a, b, c, a)) == key(balanced, (a, c, b, a))
    assert key(NODE2, (a, b)) == key(NODE2, (b, a))
    # children of different shapes swapped
    right_comb, left_comb = BinaryTree(LEAF, NODE2), BinaryTree(NODE2, LEAF)
    assert key(right_comb, (a, b, c)) == key(left_comb, (b, c, a))
    for tree, blocks in ((right_comb, (a, b, c)), (left_comb, (b, c, a))):
        got = evaluate_tree_term(tree, blocks, data, tg).values
        assert np.array_equal(got, _reference_term(tree, blocks, data, tg, "x1"))
    assert np.array_equal(evaluate_tree_term(right_comb, (a, b, c), data, tg).values,
                          evaluate_tree_term(left_comb, (b, c, a), data, tg).values)
    # one key per class of (tree, blocks) under child swaps, never two
    classes = {}
    for j in range(1, 5):
        for tree in enumerate_trees(j):
            for blocks in cartesian_product((a, b, c), repeat=j):
                classes.setdefault(_swap_class(tree, blocks), set()).add(key(tree, blocks))
    assert all(len(keys) == 1 for keys in classes.values())
    assert len(set().union(*classes.values())) == len(classes)


def _walk_classes(n, draw):
    """Each swap class of the level-n sum over the blocks of ``draw``, found
    by walking every (j, tuple, tree): its first (tree, tuple) and its sign
    times its size."""
    classes = {}
    for j in range(1, 2**n + 1):
        for tup in cartesian_product(sorted(draw.blocks), repeat=j):
            sign = math.prod(draw.eps(k) for k in tup)
            for tree in trees_at_level(j, n):
                classes.setdefault(_swap_class(tree, tup), [tree, tup, 0])[2] += sign
    return classes


@pytest.mark.parametrize("n_blocks, n", [(4, 1), (4, 2), (3, 3)])
def test_generated_swap_classes_equal_the_walk(small_oracle, n_blocks, n):
    """The classes generated bottom-up carry the walk's keys, coefficients
    and heights (14, 109 and 1,179 classes), in height order."""
    data, _ = small_oracle
    draw = draw_rademacher(99, data.draw.blocks[:n_blocks], sample_index=1)
    walk = {_key(tree, tup): (coef, tree.height)
            for tree, tup, coef in _walk_classes(n, draw).values()}
    generated = trees._swap_classes(n, draw)
    assert len(generated) == len(walk) == {1: 14, 2: 109, 3: 1179}[n]
    assert {key: (coef, height) for key, coef, height, _ in generated} == walk
    heights = [height for _, _, height, _ in generated]
    assert heights == sorted(heights)


def _tuple_order_sum(n, data, tg, d_choice):
    """The plain tree sum: per tuple, its trees' terms in tree order, signed
    and added from zero."""
    grid = data.grid
    total = np.zeros((tg.n_nodes, grid.n_points, grid.n_points), dtype=complex)
    for j in range(1, 2**n + 1):
        for tup in cartesian_product(sorted(data.draw.blocks), repeat=j):
            sign = math.prod(data.draw.eps(k) for k in tup)
            term = np.zeros_like(total)
            for tree in trees_at_level(j, n):
                term += _reference_term(tree, tup, data, tg, d_choice)
            total += sign * term
    return total


def _in_generation_order(n, classes):
    """The walk's classes in the order reconstruct_iterate adds them: the
    leaves by block, then per height by the sorted positions of their two
    children."""
    position = {c: i for i, c in enumerate(sorted(c for c in classes if classes[c][0].is_leaf))}

    def children(c):
        tree, tup, _ = classes[c]
        split = tree.left.leaves
        return sorted((position[_swap_class(tree.left, tup[:split])],
                       position[_swap_class(tree.right, tup[split:])]))

    for h in range(1, n + 1):
        for c in sorted((c for c in classes if classes[c][0].height == h), key=children):
            position[c] = len(position)
    return [classes[c] for c in position]


def _class_sum(n, data, tg, d_choice, averaged=False):
    """The level-n sum over swap classes, in reconstruct_iterate's order and
    scaled and added the same way, each class recomputed without a memo.  A
    class of height n (n >= 1) adds its children's physical product to a top
    sum, which is transformed, put through duhamel() once and added last."""
    grid = data.grid
    total = np.zeros((tg.n_nodes, grid.n_points, grid.n_points), dtype=complex)
    top = np.zeros_like(total)
    for tree, tup, coef in _in_generation_order(n, _walk_classes(n, data.draw)):
        if n and tree.height == n:
            term, acc = _reference_product(tree, tup, data, tg, d_choice, averaged), top
        else:
            term, acc = _reference_term(tree, tup, data, tg, d_choice, averaged), total
        if coef == 1:
            acc += term
        elif coef == -1:
            acc -= term
        else:
            acc += np.multiply(coef, term)
    if n:
        total += _reference_duhamel(top, data, tg, d_choice)
    return total


@pytest.mark.parametrize("d_choice", ["x1", "x2", "t"])
def test_reconstruction_equals_the_memo_free_tree_sum(small_oracle, d_choice):
    """Third reference for the tree sum: each swap class recomputed from
    public pieces and numpy's full transforms, its products taken in key
    order.  Merging swapped terms, caching factor transforms, adding and
    scaling in place and the box-restricted kernels change no value."""
    data, tg = small_oracle
    for n in (0, 1, 2):
        got = reconstruct_iterate(n, data, tg, d_choice).values
        assert np.array_equal(got, _class_sum(n, data, tg, d_choice)), n


@pytest.mark.parametrize("d_choice", ["x1", "x2", "t"])
def test_key_ordered_products_move_the_sum_by_rounding_only(small_oracle, d_choice):
    """Multiplying each pair of factors once, in key order, instead of
    averaging both orders as product_dealias does, moves the tree sum by
    rounding only; at n = 0 there is no product and the bits agree."""
    data, tg = small_oracle
    for n in (0, 1, 2):
        got = reconstruct_iterate(n, data, tg, d_choice).values
        ref = _class_sum(n, data, tg, d_choice, averaged=True)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), n
        if n == 0:
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("d_choice", ["x1", "x2", "t"])
def test_reconstruction_is_the_tuple_order_sum_to_rounding(small_oracle, d_choice):
    """Summing by swap class instead of by tuple moves the total by rounding
    only."""
    data, tg = small_oracle
    for n in (0, 1, 2):
        got = reconstruct_iterate(n, data, tg, d_choice).values
        ref = _tuple_order_sum(n, data, tg, d_choice)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), n


def _count_calls(monkeypatch, *names, owner=trees, calls=None):
    """A Counter (``calls``, or a fresh one) of the calls, by name, of these
    attributes of ``owner``: by default the functions that trees calls."""
    calls = Counter() if calls is None else calls
    for name in names:
        original = getattr(owner, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def _non_leaf_classes(n, draw):
    """The number of products the level-n tree sum takes, one per class
    that is not a leaf."""
    return sum(children is not None for *_, children in trees._swap_classes(n, draw))


def _chunk_count(tg):
    return -(-tg.n_nodes // picard._CHUNK)


def test_reconstruction_does_each_distinct_piece_of_work_once(small_oracle, monkeypatch):
    """With 4 blocks, n = 2 has 4 leaves, 10 pairs, 40 three-leaf and 55
    four-leaf terms up to child swaps.  Each leaf evolves its block's window
    once per call.  The sum marches in time, so the rest is counted per
    chunk of nodes (2 chunks here).  Each factor (the leaves and the pairs)
    has one box inverse transform per chunk: 14.  Each pair is one
    pointwise product with its own forward transform and Duhamel sum: 10.
    The 95 three- and four-leaf terms have height 2, so each is one
    pointwise product added into the top sum, which takes one forward
    transform and one Duhamel sum: 105 pointwise products, 11 forward
    transforms and 11 Duhamel sums in all, each sum advanced once per
    chunk.  The box tables a sum reads are spread once per chunk and shared
    by every sum: cos and sinc for d = d/dx1, and sin too for d = d/dt,
    whose dt u needs it.  At n = 1 the 10 pairs are the top terms: 4
    inverse transforms, 10 pointwise products, one forward transform and
    one Duhamel sum per chunk; at n = 0 there is no transform and no sum.
    Each pointwise product is one non-leaf class."""
    data, tg = small_oracle
    chunks = _chunk_count(tg)
    assert chunks == 2
    calls = _count_calls(monkeypatch, "_free_derivative_window", "_box_ifft2", "_box_fft2",
                         "_DuhamelSums")
    _count_calls(monkeypatch, "advance", owner=picard._DuhamelSums, calls=calls)
    _count_calls(monkeypatch, "spread", owner=picard._Region, calls=calls)
    for d_choice, spread in (("x1", 2), ("t", 3)):
        for n, products, per_call, per_chunk in (
                (0, 0, {"_free_derivative_window": 4}, {}),
                (1, 10, {"_free_derivative_window": 4, "_DuhamelSums": 1},
                 {"_box_ifft2": 4, "_box_fft2": 1, "advance": 1, "spread": spread}),
                (2, 105, {"_free_derivative_window": 4, "_DuhamelSums": 11},
                 {"_box_ifft2": 14, "_box_fft2": 11, "advance": 11, "spread": spread})):
            calls.clear()
            reconstruct_iterate(n, data, tg, d_choice)
            assert calls == per_call | {name: chunks * count
                                        for name, count in per_chunk.items()}, (d_choice, n)
            assert _non_leaf_classes(n, data.draw) == products, n


def test_reconstruction_drops_terms_that_are_never_factors(small_oracle, monkeypatch):
    """The sum holds the box inverse transforms of factors only, one chunk
    of nodes at a time, in one block with a row per factor.  A term of
    height n is never a factor at level n and is never held; at n = 0 no
    leaf is.  With 4 blocks the block holds no rows at n = 0, the 4
    leaves' at n = 1 and the 14 factors' (leaves and pairs) at n = 2, not
    all 109 terms', each row one chunk long (3 of the 6 nodes); each row is
    written once per chunk, in class order, and the block is released when
    the sum returns."""
    data, tg = small_oracle
    size = data.grid.n_points
    block, rows = [], []
    original = trees._box_ifft2

    def address(array):
        return array.__array_interface__["data"][0]

    def counted(hat, region, out=None):
        if not block:
            block.append(weakref.ref(out.base))
        base = out.base
        assert base is block[0]()
        rows.append((base.shape, len(out), (address(out) - address(base)) // base.strides[0]))
        return original(hat, region, out=out)

    monkeypatch.setattr(trees, "_box_ifft2", counted)
    for n, held in ((0, 0), (1, 4), (2, 14)):
        block.clear()
        rows.clear()
        reconstruct_iterate(n, data, tg)
        assert rows == [((held, 3, size, size), 3, row)
                        for _ in range(_chunk_count(tg)) for row in range(held)], n
        assert all(ref() is None for ref in block), n


def _traced_peak(n, data, tg):
    """The tracemalloc peak of the level-n sum and the bytes of its result,
    after a warm-up call, so the cached propagator tables are not counted."""
    reconstruct_iterate(1, data, tg)
    tracemalloc.start()
    try:
        result = reconstruct_iterate(n, data, tg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result.values.nbytes


def test_reconstruction_at_level_2_stays_within_7_series(oracle_data):
    """Memory guard on the benchmark's oracle datum (64^2, 4 blocks, 17
    nodes): the n = 2 sum holds the result and chunk-sized buffers -- the
    14 factors' rows, the leaf or top sum, the product, the box workspace
    and the 11 Duhamel sums' running sums -- about 5.7 series of
    17 x 64^2 complex values.  Holding the factors whole-series read 19.1."""
    tg = TimeGrid(t_final=0.5, n_steps=16)
    peak, series_bytes = _traced_peak(2, oracle_data, tg)
    print(f"\nn=2 traced peak: {peak / 1e6:.1f} MB ({peak / series_bytes:.1f} series)")
    assert peak < 7 * series_bytes


def test_reconstruction_memory_beside_the_result_does_not_grow_with_the_nodes(oracle_data):
    """The n = 2 sum on the oracle datum marches in time: beside its result
    it holds chunk-sized buffers only, so its traced peak minus the result
    is the same at 17 and 65 nodes (5.2 MB; with whole-series factors it
    read 20.2 and 74.8 MB)."""
    beside = []
    for steps in (16, 64):
        peak, result_bytes = _traced_peak(2, oracle_data, TimeGrid(t_final=0.5, n_steps=steps))
        beside.append(peak - result_bytes)
    print(f"\nn=2 traced peak beside the result: {beside[0] / 1e6:.2f} MB at 17 nodes, "
          f"{beside[1] / 1e6:.2f} MB at 65")
    assert abs(beside[1] - beside[0]) <= 0.1 * beside[0]


def test_oracle_calls_keep_no_whole_series_tables():
    """The tree sum at n = 1 and 2, the direct iterate, duhamel() and
    free_evolution on the benchmark's oracle datum (64^2, 17 nodes), in a
    fresh process: every table is spread at call time or one chunk at a
    time, and the tree factors live only within their call, so what the calls
    keep (the cached regions and symbols) stays below one 17 x 64^2 complex
    series.  Whole-series tables cached beside the per-|xi| profiles kept
    2.8 MB."""
    tests = str(Path(__file__).resolve().parent)
    out = run_python(
        "import json, math, sys, tracemalloc\n"
        "import numpy as np\n"
        f"sys.path.insert(0, {tests!r})\n"
        "from conftest import two_block_datum\n"
        "from picardlab import (TimeGrid, duhamel, free_evolution, make_grid,\n"
        "                       picard_iterate, reconstruct_iterate)\n"
        "from picardlab.randomization import active_blocks, draw_rademacher, randomize\n"
        "phi0 = two_block_datum(make_grid(64, 8.0 * math.pi))\n"
        "data = randomize(phi0, None, draw_rademacher(99, active_blocks(phi0), sample_index=1))\n"
        "tg = TimeGrid(t_final=0.5, n_steps=16)\n"
        "tracemalloc.start()\n"
        "before = tracemalloc.get_traced_memory()[0]\n"
        "direct = picard_iterate(2, data, tg)\n"
        "out = [reconstruct_iterate(n, data, tg).values for n in (1, 2)]\n"
        "out += [direct.du.values, duhamel(direct.du, tg).values]\n"
        "out += [series.values for series in free_evolution(data, tg)]\n"
        "finite = all(bool(np.isfinite(v).all()) for v in out)\n"
        "del out, direct\n"
        "held = tracemalloc.get_traced_memory()[0] - before\n"
        "print(json.dumps([finite, held]))\n")
    finite, held = json.loads(out)
    assert finite
    print(f"\nkept after the oracle calls: {held / 1e6:.2f} MB")
    assert held < 17 * 64 * 64 * 16


def test_whole_series_duhamel_and_tree_sum_are_bit_identical_for_every_chunk_length(
        monkeypatch, oracle_data):
    """duhamel() and the tree sum take the propagator tables one chunk of
    nodes at a time from the march's chunk driver, so any chunk length gives
    the same bits: duhamel() on a source that fills the whole lattice, and
    the tree sum at n = 0 (the leaves alone, no chunks), 1 and 2 for d = x1
    and d = t (the Duhamel sums' u and dt u paths)."""
    grid = oracle_data.grid
    tg = TimeGrid(t_final=0.5, n_steps=16)
    rng = np.random.default_rng(5)
    shape = (tg.n_nodes, grid.n_points, grid.n_points)
    source = FieldSeries(grid, tg, rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                         "spectral")

    def outputs():
        return ([duhamel(source, tg, d).values for d in ("x1", "x2", "t")]
                + [reconstruct_iterate(n, oracle_data, tg, d).values
                   for n in (0, 1, 2) for d in ("x1", "t")])

    monkeypatch.setattr(picard, "_CHUNK", tg.n_nodes)
    expect = outputs()
    for chunk in (1, 3, 4):
        monkeypatch.setattr(picard, "_CHUNK", chunk)
        for got, want in zip(outputs(), expect):
            assert np.array_equal(got, want), chunk


def test_reconstruction_at_level_3_matches_the_direct_iterate(grid64, monkeypatch):
    """A 2-block datum, the (4,0), (4,1) and (4,N-1) modes of the oracle datum
    with their conjugates (blocks (+-1, 0)): its level-3 tree sum, 1,446
    (tree, tuple) terms in 155 swap classes, agrees with the direct
    recursion to rounding.  Up to swaps there are 3 pairs, 6 three-leaf
    terms (leaf and pair) and 6 balanced four-leaf terms (two pairs) of
    height at most 2: 15 products, each with its Duhamel sum.  The other
    138 classes have height 3: each is one pointwise product added into the
    top sum, which takes one forward transform and one Duhamel sum.  That is
    16 forward transforms, 153 pointwise products (one per non-leaf class)
    and 16 Duhamel sums."""
    n_pts = grid64.n_points
    full = two_block_datum(grid64).values
    keep = np.zeros(full.shape, dtype=bool)
    for i, j in ((4, 0), (4, 1), (4, n_pts - 1)):
        keep[i, j] = keep[-i % n_pts, -j % n_pts] = True
    phi0 = Field(grid64, np.where(keep, full, 0.0), "spectral")
    blocks = active_blocks(phi0)
    assert blocks == ((-1, 0), (1, 0))
    data = randomize(phi0, None, draw_rademacher(99, blocks, sample_index=1))
    tg = TimeGrid(t_final=0.5, n_steps=16)
    calls = _count_calls(monkeypatch, "_free_derivative_window", "_box_fft2", "_DuhamelSums")
    _count_calls(monkeypatch, "advance", owner=picard._DuhamelSums, calls=calls)
    rec = reconstruct_iterate(3, data, tg)
    chunks = _chunk_count(tg)
    assert chunks == 6
    assert calls == {"_free_derivative_window": 2, "_DuhamelSums": 16, "_box_fft2": 16 * chunks,
                     "advance": 16 * chunks}
    assert _non_leaf_classes(3, data.draw) == 153
    direct = picard_iterate(3, data, tg)
    rel = _rel_linf_l2(rec.values, direct.du.values, grid64)
    print(f"\nn=3 tree-vs-direct relative Linf-L2 discrepancy: {rel:.3e}")
    assert rel <= 1e-12


def test_tree_term_validation(oracle_data, oracle_timegrid):
    with pytest.raises(ValueError):
        evaluate_tree_term(NODE2, ((1, 0),), oracle_data, oracle_timegrid)
    with pytest.raises(ValueError):
        evaluate_tree_term(NODE2, ((1, 0), (7, 7)), oracle_data, oracle_timegrid)
    # a block is a pair of integers, not anything int() maps onto one
    for bad in ((1.5, 0), (True, 0), ("1", 0), (1, 0, 7), (1,), "10", 1, np.array([1.0, 0.0])):
        with pytest.raises(ValueError, match="block"):
            evaluate_tree_term(NODE2, (bad, (0, 1)), oracle_data, oracle_timegrid)


def test_tree_term_takes_blocks_as_any_integer_pairs(small_oracle):
    """Lists, numpy integers and array rows name the same blocks as tuples
    of ints, and give the same bits; an inactive block is still refused."""
    data, tg = small_oracle
    tree = BinaryTree(NODE2, LEAF)
    blocks = ((-1, 0), (0, -1), (-1, 0))
    expect = evaluate_tree_term(tree, blocks, data, tg).values
    for form in ([list(k) for k in blocks], [tuple(np.int64(i) for i in k) for k in blocks],
                 np.array(blocks)):
        assert np.array_equal(evaluate_tree_term(tree, form, data, tg).values, expect)
    with pytest.raises(ValueError, match="carry no data"):
        evaluate_tree_term(tree, np.array(((-1, 0), (0, -1), (7, 7))), data, tg)


@pytest.mark.parametrize("d_choice", ["bogus", "x3", ""])
def test_tree_entry_points_reject_unknown_d_choice(oracle_data, oracle_timegrid, d_choice):
    with pytest.raises(ValueError, match="d_choice"):
        evaluate_tree_term(NODE2, ((1, 0), (0, 1)), oracle_data, oracle_timegrid,
                           d_choice=d_choice)
    with pytest.raises(ValueError, match="d_choice"):
        reconstruct_iterate(1, oracle_data, oracle_timegrid, d_choice=d_choice)
    with pytest.raises(ValueError, match="d_choice"):
        free_derivative_hat(unit_projection(oracle_data.phi0, (1, 0)).values, oracle_data.grid,
                            oracle_timegrid, d_choice)


def test_two_leaf_term_is_duhamel_of_leaf_product(oracle_data, oracle_timegrid):
    """Definitional check: the 2-leaf tree term equals A0 applied to the
    dealiased product of the two free leaf series."""
    grid = oracle_data.grid
    tg = oracle_timegrid
    k1, k2 = (1, 0), (0, 1)
    term = evaluate_tree_term(NODE2, (k1, k2), oracle_data, tg)
    leaf1 = free_derivative_hat(unit_projection(oracle_data.phi0, k1).values, grid, tg, "x1")
    leaf2 = free_derivative_hat(unit_projection(oracle_data.phi0, k2).values, grid, tg, "x1")
    src = FieldSeries(grid, tg, product_dealias(leaf1, leaf2, grid), "spectral")
    direct = duhamel(src, tg, d_choice="x1")
    scale = max(float(np.max(np.abs(direct.values))), 1e-300)
    assert np.max(np.abs(term.values - direct.values)) <= 1e-10 * scale


def _rel_linf_l2(a, b, grid):
    diff = np.linalg.norm(a - b, axis=(1, 2)).max()
    ref = np.linalg.norm(b, axis=(1, 2)).max()
    return grid.dx * diff / (grid.dx * ref)


def _outside_box_data(grid):
    """The modes (4, 0) and (23, 0) with their conjugates, the second
    outside the 2/3 box (|m| <= 21 at 64^2), at H^1 norm 1: blocks (-6, 0),
    (-1, 0), (1, 0) and (6, 0)."""
    n = grid.n_points
    hat = np.zeros((n, n), dtype=complex)
    for i, a in ((4, 0.8 - 0.3j), (23, -0.4 + 0.6j)):
        hat[i, 0] += a
        hat[-i % n, 0] += np.conj(a)
    phi0 = Field(grid, hat, "spectral")
    phi0 = Field(grid, hat / sobolev_norm(phi0, 1.0), "spectral")
    return randomize(phi0, None, draw_rademacher(5, active_blocks(phi0), sample_index=2))


def test_reconstruction_on_a_datum_with_modes_outside_the_box(grid64):
    """Outside the box every iterate is its free part.  The tree sum adds
    its node terms on the box only, so there it must hold exactly the signed
    sum of the leaves, added in block order; everywhere it agrees with the
    direct recursion to rounding."""
    data = _outside_box_data(grid64)
    assert data.draw.blocks == ((-6, 0), (-1, 0), (1, 0), (6, 0))
    tg = TimeGrid(t_final=0.5, n_steps=16)
    leaves = np.zeros((tg.n_nodes, 64, 64), dtype=complex)
    for k in data.draw.blocks:
        leaf = free_derivative_hat(unit_projection(data.phi0, k).values, grid64, tg, "x1")
        if data.draw.eps(k) == 1:
            leaves += leaf
        else:
            leaves -= leaf
    outside = ~box_mask(64)
    assert np.abs(leaves[:, outside]).max() > 0.0
    for n in (0, 1, 2):
        rec = reconstruct_iterate(n, data, tg).values
        assert np.array_equal(rec[:, outside], leaves[:, outside]), n
        rel = _rel_linf_l2(rec, picard_iterate(n, data, tg).du.values, grid64)
        assert rel <= 1e-12, n


def test_no_tree_workspace_view_escapes(small_oracle):
    """The tree sum forms its terms in one workspace per call; every result
    of reconstruct_iterate, evaluate_tree_term and duhamel() is its own
    memory, untouched by a later call on another draw."""
    data, tg = small_oracle
    other = randomize(data.phi0, None, draw_rademacher(7, data.draw.blocks, sample_index=4))
    tree, blocks = BinaryTree(NODE2, LEAF), ((-1, 0), (0, -1), (1, 0))

    def results(sample):
        out = [reconstruct_iterate(n, sample, tg, d).values for n in (0, 1, 2)
               for d in ("x1", "t")]
        out += [evaluate_tree_term(t, b, sample, tg, d).values
                for t, b in ((LEAF, blocks[:1]), (NODE2, blocks[:2]), (tree, blocks))
                for d in ("x1", "t")]
        source = FieldSeries(data.grid, tg, out[2], "spectral")
        return out + [duhamel(source, tg, d).values for d in ("x1", "t")]

    first = results(data)
    before = [a.copy() for a in first]
    results(other)
    for old, new in zip(before, first):
        assert np.array_equal(old, new)
    for i, a in enumerate(first):
        for b in first[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor faults of a Linux process")
def test_warm_tree_sum_maps_no_fresh_memory_per_term():
    """The n = 2 sum on the benchmark's oracle datum (64^2, 17 nodes) forms
    every term in one workspace per call, so a warm call touches few pages
    it has not touched before: one fresh 1.1 MB series per term took about
    11,500 minor faults per call."""
    tests = str(Path(__file__).resolve().parent)
    out = run_python(
        "import math, resource, sys\n"
        f"sys.path.insert(0, {tests!r})\n"
        "from conftest import two_block_datum\n"
        "from picardlab import TimeGrid, make_grid, reconstruct_iterate\n"
        "from picardlab.randomization import active_blocks, draw_rademacher, randomize\n"
        "phi0 = two_block_datum(make_grid(64, 8.0 * math.pi))\n"
        "data = randomize(phi0, None, draw_rademacher(99, active_blocks(phi0), sample_index=1))\n"
        "tg = TimeGrid(t_final=0.5, n_steps=16)\n"
        "for _ in range(2):\n"
        "    reconstruct_iterate(2, data, tg)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "reconstruct_iterate(2, data, tg)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    faults = int(out)
    print(f"\nwarm n=2 tree sum: {faults} minor faults")
    assert faults < 3000


def test_reconstruction_matches_free_du(oracle_data, oracle_timegrid):
    rec = reconstruct_iterate(0, oracle_data, oracle_timegrid)
    _, _, du0 = free_evolution(oracle_data, oracle_timegrid)
    scale = float(np.max(np.abs(du0.values)))
    assert np.max(np.abs(rec.values - du0.values)) <= 1e-12 * scale


def test_reconstruction_at_level_3_on_four_blocks_matches_the_direct_iterate(oracle_data):
    """The criterion-4 datum (4 blocks) at n = 3, on 5 time nodes: 5,999
    swap classes, 109 of them factors, agree with the direct recursion to
    rounding."""
    tg = TimeGrid(t_final=0.5, n_steps=4)
    rec = reconstruct_iterate(3, oracle_data, tg)
    direct = picard_iterate(3, oracle_data, tg)
    rel = _rel_linf_l2(rec.values, direct.du.values, oracle_data.grid)
    print(f"\nn=3, 4 blocks tree-vs-direct relative Linf-L2 discrepancy: {rel:.3e}")
    assert rel <= 1e-12


def test_reconstruction_matches_direct_iterate_n1(oracle_data, oracle_timegrid):
    rec = reconstruct_iterate(1, oracle_data, oracle_timegrid)
    direct = picard_iterate(1, oracle_data, oracle_timegrid)
    rel = _rel_linf_l2(rec.values, direct.du.values, oracle_data.grid)
    print(f"\nn=1 tree-vs-direct relative Linf-L2 discrepancy: {rel:.3e}")
    assert rel <= 1e-6


def test_reconstruction_budget_errors(oracle_data, oracle_timegrid, monkeypatch):
    with pytest.raises(ValueError, match=r"at least 17997004 .* cap 6000"):
        reconstruct_iterate(4, oracle_data, oracle_timegrid)
    five = draw_rademacher(99, ((-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)))
    with pytest.raises(ValueError, match=r"5 active blocks has at least 23225 .* cap 6000"):
        trees._swap_classes(3, five)
    with pytest.raises(ValueError):
        reconstruct_iterate(-1, oracle_data, oracle_timegrid)
    monkeypatch.setattr(trees, "MAX_BLOCKS", 2)
    with pytest.raises(ValueError, match="active blocks exceed the cap 2"):
        reconstruct_iterate(1, oracle_data, oracle_timegrid)


def test_reconstruction_class_cap_counts_swap_classes(small_oracle, monkeypatch):
    """The cap applies to the swap classes, 109 at n = 2 with 4 blocks, and
    refuses a deep level before its classes are built."""
    data, tg = small_oracle
    monkeypatch.setattr(trees, "MAX_CLASSES", 109)
    reconstruct_iterate(2, data, tg)
    monkeypatch.setattr(trees, "MAX_CLASSES", 108)
    with pytest.raises(ValueError, match="at least 109 "):
        reconstruct_iterate(2, data, tg)
    with pytest.raises(ValueError, match="cap 108"):
        reconstruct_iterate(60, data, tg)
