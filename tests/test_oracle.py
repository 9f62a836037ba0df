"""Brute-force counting oracles.

Everything here counts by explicit enumeration or recurrences over exact
rationals; nothing goes through the series engine.  The engine is tested
against these counts elsewhere, so these tests pin the oracles themselves
to closed forms and hand-checked values.
"""

from math import comb

import pytest

from motivic_pairs import (
    BudgetExceededError,
    FiniteScene,
    MarkedP1Scene,
    ProjectivePoint,
    count_marked_union,
    count_power_configs,
    count_squarefree_monic,
    enumerate_projective,
    weil_symmetric_counts,
)
from motivic_pairs.oracle import (
    affine_line_counts,
    finite_set_counts,
    projective_line_counts,
)


def test_enumerate_projective_counts():
    for q in (2, 3, 5):
        for n in range(4):
            points = enumerate_projective(n, q)
            assert len(points) == (q ** (n + 1) - 1) // (q - 1)
            assert len(set(points)) == len(points)


def test_enumerate_projective_canonical_form():
    for p in enumerate_projective(2, 3):
        lead = next(c for c in p.coords if c != 0)
        assert lead == 1
        assert all(0 <= c < 3 for c in p.coords)
    assert enumerate_projective(0, 5) == [ProjectivePoint((1,))]


def test_count_marked_union_hand_checked():
    # P^2 over F_2 has 7 points; two general lines share 1, so the union has
    # 3 + 3 - 1 = 5.  Over F_3: 4 + 4 - 1 = 7.
    assert count_marked_union(2, 2, MarkedP1Scene.standard(2, 2)) == 5
    assert count_marked_union(2, 3, MarkedP1Scene.standard(2, 3)) == 7
    assert count_marked_union(2, 2, MarkedP1Scene.standard(0, 2)) == 0
    # one hyperplane in P^n is a P^{n-1}
    assert count_marked_union(3, 2, MarkedP1Scene.standard(1, 2)) == 7


def test_projective_enumeration_budget():
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_projective(30, 5)
    assert exc.value.needed == (5**31 - 1) // 4
    with pytest.raises(BudgetExceededError):
        enumerate_projective(2, 3, budget=12)
    assert len(enumerate_projective(2, 3, budget=13)) == 13
    with pytest.raises(BudgetExceededError):
        count_marked_union(2, 2, MarkedP1Scene.standard(2, 2), budget=6)


def test_count_marked_union_validation():
    with pytest.raises(ValueError):
        count_marked_union(0, 2, MarkedP1Scene.standard(1, 2))
    with pytest.raises(ValueError):
        count_marked_union(2, 3, MarkedP1Scene.standard(1, 2))


def test_weil_counts_projective_line():
    # exp(sum_r (q^r + 1) t^r / r) has coefficients (q^{n+1} - 1)/(q - 1)
    for q in (2, 3, 5):
        counts = weil_symmetric_counts(projective_line_counts(q), 8)
        assert counts == [(q ** (n + 1) - 1) // (q - 1) for n in range(9)]


def test_weil_counts_affine_line():
    for q in (2, 3):
        assert weil_symmetric_counts(affine_line_counts(q), 6) == [q ** n for n in range(7)]


def test_weil_counts_finite_sets():
    for s in range(4):
        counts = weil_symmetric_counts(finite_set_counts(s), 6)
        assert counts == [1 if n == 0 else comb(s + n - 1, n) for n in range(7)]


def test_weil_counts_reject_non_realizable_sequences():
    # N_1 = 2, N_2 = 1 forces a half-integer multiset count at degree 2
    with pytest.raises(ArithmeticError):
        weil_symmetric_counts(lambda r: 2 if r == 1 else 1, 3)


def test_squarefree_counts_hand_checked():
    # monic squarefree over F_2: deg 1 {x, x+1}; deg 2 {x^2+x, x^2+x+1}
    assert count_squarefree_monic(2, 1) == 2
    assert count_squarefree_monic(2, 2) == 2
    assert count_squarefree_monic(2, 3) == 4
    assert count_squarefree_monic(3, 2) == 6


def test_squarefree_counts_closed_form():
    # q^n - q^{n-1} for n >= 2, all q monic linears are squarefree
    for q in (2, 3, 5):
        assert count_squarefree_monic(q, 1) == q
        for n in range(2, 6):
            assert count_squarefree_monic(q, n) == q ** n - q ** (n - 1)


def test_squarefree_budget():
    with pytest.raises(BudgetExceededError) as exc:
        count_squarefree_monic(5, 12, budget=1000)
    assert exc.value.needed == 5 ** 12
    assert exc.value.budget == 1000


def test_finite_scene_validation():
    with pytest.raises(ValueError):
        FiniteScene.from_sizes(2, 3, [(1, 0)])
    with pytest.raises(ValueError):
        FiniteScene.from_sizes(2, 0, [(1, 2)])
    scene = FiniteScene.from_sizes(0, 0, [])
    assert count_power_configs(scene, 0) == (1, 1)
    assert count_power_configs(scene, 1) == (0, 0)


def test_count_power_configs_hand_checked():
    # 3 atoms (1 marked), one weight-1 label: a weight-n config is just an
    # n-subset, so ambient C(3, n); complement configs avoid the marked atom
    scene = FiniteScene.from_sizes(3, 1, [(1, 0)])
    assert [count_power_configs(scene, n) for n in range(4)] == [
        (1, 1),
        (3, 2),
        (3, 1),
        (1, 0),
    ]


def test_count_power_configs_weighted_labels():
    # 2 unmarked atoms; one marked weight-1 label, one clean weight-2 label.
    # Weight 2 comes from {two atoms with weight-1 labels} (1 way) or {one
    # atom with the weight-2 label} (2 ways): ambient 3.  The complement
    # bars the marked label, leaving the two weight-2 picks... plus nothing
    # else, so 2.
    scene = FiniteScene.from_sizes(2, 0, [(1, 1), (1, 0)])
    assert count_power_configs(scene, 2) == (3, 2)


def test_count_power_configs_exceeding_total_weight():
    scene = FiniteScene.from_sizes(2, 1, [(2, 1), (1, 0)])
    assert count_power_configs(scene, 5) == (0, 0)


def test_count_power_configs_budget():
    scene = FiniteScene.from_sizes(4, 0, [(2, 0), (2, 0)])
    with pytest.raises(BudgetExceededError) as exc:
        count_power_configs(scene, 3, budget=10)
    assert exc.value.budget == 10
    assert exc.value.needed > 10


def test_configs_agree_with_series_exponential():
    # dual route: the same numbers out of the series engine
    from motivic_pairs import catalog, power_pow, PAIR_RING

    for size, marked, labels in [
        (3, 1, [(2, 1)]),
        (2, 0, [(1, 1), (2, 0)]),
        (4, 2, [(1, 0), (1, 1)]),
    ]:
        scene = FiniteScene.from_sizes(size, marked, labels)
        base = PAIR_RING.one_plus([catalog("finite", *l) for l in labels], 4)
        powered = power_pow(base, catalog("finite", size, marked), PAIR_RING)
        for n in range(5):
            amb, comp = count_power_configs(scene, n)
            c = powered.coefficient(n)
            assert (c.amb.coefficient(0), c.comp.coefficient(0)) == (amb, comp)
            assert c.amb.degree <= 0 and c.comp.degree <= 0
