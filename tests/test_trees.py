"""Full binary tree combinatorics, integral constants, and reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardlab import (
    BinaryTree,
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
    picard_iterate,
    reconstruct_iterate,
)
from picardlab.picard import FieldSeries, free_derivative_hat, product_dealias
from picardlab.trees import LEAF, _canonical_blocks, trees_at_level

NODE2 = BinaryTree(LEAF, LEAF)


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


def test_canonical_blocks_sorts_symmetric_halves():
    tree = BinaryTree(NODE2, NODE2)
    a, b = (1, 0), (0, 1)  # lexicographically b < a
    assert _canonical_blocks(tree, (a, a, b, b)) == (b, b, a, a)
    assert _canonical_blocks(tree, (b, b, a, a)) == (b, b, a, a)
    # asymmetric top node: the two halves stay in place, but the symmetric
    # NODE2 inside still sorts its own pair
    askew = BinaryTree(BinaryTree(NODE2, LEAF), LEAF)
    assert _canonical_blocks(askew, (a, b, a, b)) == (b, a, a, b)


def test_tree_term_validation(oracle_data, oracle_timegrid):
    with pytest.raises(ValueError):
        evaluate_tree_term(NODE2, ((1, 0),), oracle_data, oracle_timegrid)
    with pytest.raises(ValueError):
        evaluate_tree_term(NODE2, ((1, 0), (7, 7)), oracle_data, oracle_timegrid)


@pytest.mark.parametrize("d_choice", ["bogus", "x3", ""])
def test_tree_entry_points_reject_unknown_d_choice(oracle_data, oracle_timegrid, d_choice):
    with pytest.raises(ValueError, match="d_choice"):
        evaluate_tree_term(NODE2, ((1, 0), (0, 1)), oracle_data, oracle_timegrid,
                           d_choice=d_choice)
    with pytest.raises(ValueError, match="d_choice"):
        reconstruct_iterate(1, oracle_data, oracle_timegrid, d_choice=d_choice)
    with pytest.raises(ValueError, match="d_choice"):
        free_derivative_hat(oracle_data.phi0_blocks[(1, 0)].values, oracle_data.grid,
                            oracle_timegrid, d_choice)


def test_two_leaf_term_is_duhamel_of_leaf_product(oracle_data, oracle_timegrid):
    """Definitional check: the 2-leaf tree term equals A0 applied to the
    dealiased product of the two free leaf series."""
    grid = oracle_data.grid
    tg = oracle_timegrid
    k1, k2 = (1, 0), (0, 1)
    term = evaluate_tree_term(NODE2, (k1, k2), oracle_data, tg)
    leaf1 = free_derivative_hat(oracle_data.phi0_blocks[k1].values, grid, tg, "x1")
    leaf2 = free_derivative_hat(oracle_data.phi0_blocks[k2].values, grid, tg, "x1")
    src = FieldSeries(grid, tg, product_dealias(leaf1, leaf2, grid), "spectral")
    direct = duhamel(src, tg, d_choice="x1")
    scale = max(float(np.max(np.abs(direct.values))), 1e-300)
    assert np.max(np.abs(term.values - direct.values)) <= 1e-10 * scale


def _rel_linf_l2(a, b, grid):
    diff = np.linalg.norm(a - b, axis=(1, 2)).max()
    ref = np.linalg.norm(b, axis=(1, 2)).max()
    return grid.dx * diff / (grid.dx * ref)


def test_reconstruction_matches_free_du(oracle_data, oracle_timegrid):
    rec = reconstruct_iterate(0, oracle_data, oracle_timegrid)
    _, _, du0 = free_evolution(oracle_data, oracle_timegrid)
    scale = float(np.max(np.abs(du0.values)))
    assert np.max(np.abs(rec.values - du0.values)) <= 1e-12 * scale


def test_reconstruction_matches_direct_iterate_n1(oracle_data, oracle_timegrid):
    rec = reconstruct_iterate(1, oracle_data, oracle_timegrid)
    direct = picard_iterate(1, oracle_data, oracle_timegrid)
    rel = _rel_linf_l2(rec.values, direct.du.values, oracle_data.grid)
    print(f"\nn=1 tree-vs-direct relative Linf-L2 discrepancy: {rel:.3e}")
    assert rel <= 1e-6


def test_reconstruction_budget_errors(oracle_data, oracle_timegrid):
    with pytest.raises(ValueError):
        reconstruct_iterate(3, oracle_data, oracle_timegrid)
    with pytest.raises(ValueError):
        reconstruct_iterate(-1, oracle_data, oracle_timegrid)
    with pytest.raises(ValueError):
        reconstruct_iterate(1, oracle_data, oracle_timegrid, max_blocks=2)
