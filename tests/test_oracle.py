"""Brute-force counting oracles.

Everything here counts by explicit enumeration or exact integer
recurrences; nothing goes through the series engine.  The engine is tested
against these counts elsewhere, so these tests pin the oracles themselves
to closed forms and hand-checked values.
"""

import itertools
import json
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from motivic_pairs import oracle
from motivic_pairs.cli import main
from motivic_pairs.geometry import point_in_marked_union
from motivic_pairs.oracle import (
    _affine_values,
    _marked_union_pass,
    _shift_tables,
    _square_marks,
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
    assert count_marked_union(2, MarkedP1Scene.standard(2, 2)) == 5
    assert count_marked_union(2, MarkedP1Scene.standard(2, 3)) == 7
    assert count_marked_union(2, MarkedP1Scene.standard(0, 2)) == 0
    # one hyperplane in P^n is a P^{n-1}
    assert count_marked_union(3, MarkedP1Scene.standard(1, 2)) == 7


def test_projective_enumeration_budget():
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_projective(30, 5)
    assert exc.value.needed == (5**31 - 1) // 4
    with pytest.raises(BudgetExceededError):
        enumerate_projective(2, 3, budget=12)
    assert len(enumerate_projective(2, 3, budget=13)) == 13
    with pytest.raises(BudgetExceededError):
        count_marked_union(2, MarkedP1Scene.standard(2, 2), budget=6)


def test_count_marked_union_validation():
    with pytest.raises(ValueError):
        count_marked_union(0, MarkedP1Scene.standard(1, 2))


# -- the bulk marked-union pass against the per-point reference -----------------


def _reference_union(points, scene):
    # (points, points on some mark), each point tested by Horner's rule at each mark
    return len(points), sum(point_in_marked_union(p, scene) for p in points)


def _bulk_union(n, scene):
    return _marked_union_pass(n, scene.q, [mark.coords for mark in scene.marks])


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_marked_union_pass_matches_the_reference_on_standard_scenes(q):
    for n in range(4):
        points = enumerate_projective(n, q)
        for s in range(q + 2):
            scene = MarkedP1Scene.standard(s, q)
            assert _bulk_union(n, scene) == _reference_union(points, scene), (n, s)


def _scene(marks, q):
    return MarkedP1Scene(tuple(map(ProjectivePoint, marks)), q)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_marked_union_pass_matches_the_reference_on_any_marks(data):
    # any distinct marks in any order, the point at infinity (1 : 0) among them
    q = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = data.draw(st.integers(0, 3))
    line = [point.coords for point in enumerate_projective(1, q)]
    marks = data.draw(st.lists(st.sampled_from(line), unique=True, max_size=q + 1))
    assert _bulk_union(n, _scene(marks, q)) == _reference_union(enumerate_projective(n, q), _scene(marks, q))


@pytest.mark.parametrize("q", [257, 263])
def test_marked_union_pass_matches_the_reference_beyond_byte_values(q):
    # a value of a form fits no byte: the pass runs one per-point loop
    line = [point.coords for point in enumerate_projective(1, q)]
    for n in range(3):
        points = enumerate_projective(n, q)
        for marks in ([], [(1, 0)], [(0, 1), (1, 0), (1, q - 1)], line if n < 2 else line[::64]):
            assert _bulk_union(n, _scene(marks, q)) == _reference_union(points, _scene(marks, q)), (n, len(marks))


@pytest.mark.parametrize("q", [2, 3, 7, 251, 257])
def test_affine_values_are_the_form_at_every_point(q):
    rng = random.Random(q)
    for k in range(4 if q < 200 else 3):
        const, weights = rng.randrange(q), [rng.randrange(q) for _ in range(k)]
        expected = [(const + sum(w * x for w, x in zip(weights, point))) % q for point in itertools.product(range(q), repeat=k)]
        assert list(_affine_values(const, weights, q, _shift_tables(q))) == expected
        assert list(_affine_values(const, weights, q, None)) == expected


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
    # beyond byte values the sieve's strings are per-point loops
    assert count_squarefree_monic(257, 3, budget=257**3) == 257**3 - 257**2


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
    assert count_power_configs(scene, 1)[0] == (1, 1)
    assert count_power_configs(scene, 1)[1] == (0, 0)


def test_count_power_configs_hand_checked():
    # 3 atoms (1 marked), one weight-1 label: a weight-n config is just an
    # n-subset, so ambient C(3, n); complement configs avoid the marked atom
    scene = FiniteScene.from_sizes(3, 1, [(1, 0)])
    assert count_power_configs(scene, 3) == [
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
    assert count_power_configs(scene, 2)[2] == (3, 2)


def test_count_power_configs_exceeding_total_weight():
    scene = FiniteScene.from_sizes(2, 1, [(2, 1), (1, 0)])
    assert count_power_configs(scene, 5)[5] == (0, 0)


def test_count_power_configs_budget():
    scene = FiniteScene.from_sizes(4, 0, [(2, 0), (2, 0)])
    with pytest.raises(BudgetExceededError) as exc:
        count_power_configs(scene, 3, budget=10)
    assert exc.value.budget == 10
    assert exc.value.needed > 10


def test_configs_agree_with_series_exponential():
    # dual route: the same numbers out of the series engine
    from motivic_pairs import PairClass, catalog, one_plus, power_pow

    for size, marked, labels in [
        (3, 1, [(2, 1)]),
        (2, 0, [(1, 1), (2, 0)]),
        (4, 2, [(1, 0), (1, 1)]),
    ]:
        scene = FiniteScene.from_sizes(size, marked, labels)
        base = one_plus([catalog("finite", *l) for l in labels], 4, PairClass.one())
        powered = power_pow(base, catalog("finite", size, marked))
        for n, (amb, comp) in enumerate(count_power_configs(scene, 4)):
            c = powered.coefficient(n)
            assert (c.amb.coefficient(0), c.comp.coefficient(0)) == (amb, comp)
            assert c.amb.degree <= 0 and c.comp.degree <= 0


# -- fast oracle paths against the slow ones they replace ---------------------------
#
# The references below are the earlier implementations: squarefree as
# coprime to the derivative, by a gcd built from trimmed list rebuilds, and
# one enumeration of the whole configuration space per weight.


def _reference_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _reference_mod(a, b, q):
    a = _reference_trim(list(a))
    inv_lead = pow(b[-1], -1, q)
    while len(a) >= len(b):
        factor = a[-1] * inv_lead % q
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % q
        a = _reference_trim(a)
    return a


def reference_gcd_degree(a, b, q):
    a = _reference_trim(list(a))
    b = _reference_trim(list(b))
    while b:
        a, b = b, _reference_mod(a, b, q)
    return len(a) - 1


def reference_power_configs(scene, n):
    universe = [
        (i + 1, label in marked)
        for i, (full, marked) in enumerate(scene.labels)
        for label in full
    ]
    ambient = complement = 0
    for k_size in range(len(scene.atoms) + 1):
        for subset in itertools.combinations(scene.atoms, k_size):
            for assignment in itertools.product(universe, repeat=k_size):
                if sum(weight for weight, _ in assignment) != n:
                    continue
                ambient += 1
                if any(atom in scene.marked_atoms for atom in subset):
                    continue
                if any(flagged for _, flagged in assignment):
                    continue
                complement += 1
    return (ambient, complement)


def _reference_poly_mul(a, b, q):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return out


def _monic(q, n):
    # (entry of the sieve, ascending coefficients) of every monic degree-n polynomial
    for low in itertools.product(range(q), repeat=n):
        yield sum(c * q**i for i, c in enumerate(low)), [*low, 1]


@pytest.mark.parametrize("q, top", [(2, 10), (3, 5), (5, 5), (7, 5), (11, 4), (13, 4), (257, 2)])
def test_square_marks_match_reference_gcd(q, top):
    # over a perfect field f has a square factor iff gcd(f, f') is not constant
    for n in range(1, top + 1):
        marks = _square_marks(q, n)
        assert len(marks) == q**n
        for index, f in _monic(q, n):
            derivative = [i * c % q for i, c in enumerate(f)][1:]
            assert marks[index] == (reference_gcd_degree(f, derivative, q) >= 1), (q, f)


def _linear_square_marks(q, n):
    # mutant sieve: only the squares of linear g, so the square of an
    # irreducible quadratic goes unmarked
    marks = bytearray(q**n)
    if n < 2:
        return marks
    for r in range(q):
        square = _reference_poly_mul([-r % q, 1], [-r % q, 1], q)
        for _, h in _monic(q, n - 2):
            f = _reference_poly_mul(square, h, q)
            marks[sum(c * q**i for i, c in enumerate(f[:n]))] = 1
    return marks


def test_squarefree_suite_fails_on_a_linear_only_sieve(monkeypatch, capsys):
    # (x^2 + x + 1)^2 = x^4 + x^2 + 1 over F_2 has no linear square factor
    assert not _linear_square_marks(2, 4)[1 + 2**2]
    monkeypatch.setattr(oracle, "_square_marks", _linear_square_marks)
    assert count_squarefree_monic(2, 4) == 9 != 2**4 - 2**3
    assert main(["verify", "--suite", "squarefree"]) == 1
    (report,) = json.loads(capsys.readouterr().out)["suites"]
    failed = [row["params"] for row in report["rows"] if not row["pass"]]
    assert failed[0] == {"q": 2, "n": 4}


def _random_scene(rng):
    size = rng.randint(0, 4)
    weights = rng.randint(0, 3)
    label_sizes = []
    for _ in range(weights):
        full = rng.randint(0, 2)
        label_sizes.append((full, rng.randint(0, full)))
    return FiniteScene.from_sizes(size, rng.randint(0, size), label_sizes)


def test_power_configs_match_per_weight_reference():
    rng = random.Random(4242)
    scenes = [_random_scene(rng) for _ in range(60)]
    # fixed corners: marked atoms and marked labels together, and a scene
    # whose heaviest configurations pass every top tried here
    scenes += [
        FiniteScene.from_sizes(3, 2, [(2, 1), (1, 1), (1, 0)]),
        FiniteScene.from_sizes(4, 4, [(1, 1)]),
        FiniteScene.from_sizes(2, 0, []),
    ]
    for scene in scenes:
        top = rng.randint(0, 8)
        counts = count_power_configs(scene, top)
        assert len(counts) == top + 1
        for n in range(top + 1):
            assert counts[n] == reference_power_configs(scene, n), (scene, n)
