"""Marked projective line: scenes, root-to-coefficient map, union classes."""

import itertools

import pytest

from motivic_pairs import (
    INFINITY,
    MarkedP1Scene,
    MotivicPolynomial,
    ProjectivePoint,
    hyperplane_union_class,
    point_in_marked_union,
    sym_pair_p1_direct,
    sym_pair_p1_lambda,
    vieta_coefficients,
)
from motivic_pairs.oracle import enumerate_projective

L = MotivicPolynomial.lefschetz()
ONE = MotivicPolynomial.one()


def test_projective_point_canonical():
    # leading nonzero coordinate is normalized to 1
    assert ProjectivePoint.from_coords((2, 4), 5) == ProjectivePoint((1, 2))
    assert ProjectivePoint.from_coords((0, 3), 5) == ProjectivePoint((0, 1))
    assert str(ProjectivePoint((1, 0, 2))) == "(1:0:2)"


def test_projective_point_rejects_zero_vector():
    with pytest.raises(ValueError):
        ProjectivePoint.from_coords((0, 0), 3)


def test_scene_validation():
    scene = MarkedP1Scene((0, 2), 3)
    assert scene.marks == (0, 2)
    with pytest.raises(ValueError):
        MarkedP1Scene((0, 0), 3)
    with pytest.raises(ValueError):
        MarkedP1Scene((5,), 3)  # not reduced mod 3
    with pytest.raises(ValueError):
        MarkedP1Scene.standard(5, 3)  # only q+1 points exist


def test_standard_scene_uses_infinity_last():
    assert MarkedP1Scene.standard(2, 5).marks == (0, 1)
    assert MarkedP1Scene.standard(4, 3).marks == (0, 1, 2, INFINITY)
    assert MarkedP1Scene.standard(0, 2).marks == ()


def test_hyperplane_union_class_frozen():
    # inclusion-exclusion over k-fold intersections P^{n-k}, checked by hand
    assert hyperplane_union_class(2, 0) == MotivicPolynomial.zero()
    assert hyperplane_union_class(2, 1) == ONE + L
    assert hyperplane_union_class(2, 2) == ONE + 2 * L
    assert hyperplane_union_class(3, 2) == ONE + L + 2 * L * L
    assert hyperplane_union_class(1, 3) == MotivicPolynomial.constant(3)
    assert hyperplane_union_class(1, 1) == ONE


def test_union_class_counts_match_enumeration():
    # independent route: count P^n points lying on some marked hyperplane
    from motivic_pairs.oracle import count_marked_union

    for q in (2, 3, 5):
        for n in range(1, 4):
            for s in range(0, min(5, q + 1) + 1):
                scene = MarkedP1Scene.standard(s, q)
                assert hyperplane_union_class(n, s).evaluate(q) == count_marked_union(
                    n, q, scene
                )


def test_sym_pair_routes_agree():
    for n in range(7):
        for s in range(6):
            assert sym_pair_p1_direct(n, s) == sym_pair_p1_lambda(n, s)


def test_sym_pair_small_values():
    # n = 1: the pair is the marked line itself
    p = sym_pair_p1_direct(1, 2)
    assert p.amb == ONE + L
    assert p.comp == L - ONE
    # n = 0: a point, nothing marked
    assert sym_pair_p1_direct(0, 3).amb == ONE
    assert sym_pair_p1_direct(0, 3).comp == ONE


def test_vieta_frozen_cases():
    # (u - 2v)(u - 3v) = u^2 - 5uv + 6v^2 = u^2 + v^2 over F_5
    roots = (
        ProjectivePoint.from_coords((2, 1), 5),
        ProjectivePoint.from_coords((3, 1), 5),
    )
    assert vieta_coefficients(roots, 5) == ProjectivePoint((1, 0, 1))
    # single root at 0: the form is u (coefficients (0, 1) after normalizing)
    assert vieta_coefficients(
        (ProjectivePoint.from_coords((0, 1), 3),), 3
    ) == ProjectivePoint((0, 1))
    # all roots at infinity: the form is v^n
    inf = ProjectivePoint((1, 0))
    assert vieta_coefficients((inf, inf), 3) == ProjectivePoint((1, 0, 0))


def test_vieta_injective_into_projective_space():
    # distinct rational multisets give distinct coefficient vectors; the
    # image misses exactly the forms with irreducible factors
    from math import comb

    for q in (2, 3):
        line = enumerate_projective(1, q)
        for n in (1, 2, 3):
            images = {
                vieta_coefficients(roots, q)
                for roots in itertools.combinations_with_replacement(line, n)
            }
            assert len(images) == comb(len(line) + n - 1, n)
            assert images <= set(enumerate_projective(n, q))
        # in degree 1 every form splits, so there the map is onto
        assert {
            vieta_coefficients((p,), q) for p in line
        } == set(enumerate_projective(1, q))


def test_point_in_marked_union_matches_root_membership():
    # a coefficient vector lies on the i-th hyperplane iff the form
    # vanishes at the i-th mark, i.e. iff the mark is a root
    for q in (2, 3):
        line = enumerate_projective(1, q)
        scene = MarkedP1Scene.standard(min(3, q), q)
        marks = set()
        for m in scene.marks:
            if m is INFINITY:
                marks.add(ProjectivePoint((1, 0)))
            else:
                marks.add(ProjectivePoint.from_coords((m, 1), q))
        for n in (1, 2, 3):
            for roots in itertools.combinations_with_replacement(line, n):
                flagged = point_in_marked_union(vieta_coefficients(roots, q), scene)
                assert flagged == any(r in marks for r in roots)


def test_point_in_marked_union_infinity_hyperplane():
    scene = MarkedP1Scene((INFINITY,), 2)
    # v^2 has a root at infinity; u^2 + uv does not vanish there... u^2+uv at
    # (u:v)=(1:0) is 1, at infinity only the leading coefficient matters
    assert point_in_marked_union(ProjectivePoint((1, 0, 0)), scene)
    assert not point_in_marked_union(ProjectivePoint((0, 1, 1)), scene)
