"""Marked projective line: scenes, root-to-coefficient map, and the pn-hyp classes they count."""

import itertools

import pytest

from motivic_pairs import (
    MarkedP1Scene,
    MotivicPolynomial,
    ProjectivePoint,
    catalog,
    kapranov_zeta,
    point_in_marked_union,
    vieta_coefficients,
)
from motivic_pairs.oracle import _marked_union_pass, enumerate_projective

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


def point(*coords):
    return ProjectivePoint(coords)


def test_scene_validation():
    scene = MarkedP1Scene((point(0, 1), point(1, 1)), 3)
    assert scene.marks == (point(0, 1), point(1, 1))
    with pytest.raises(ValueError, match="distinct"):
        MarkedP1Scene((point(0, 1), point(0, 1)), 3)
    with pytest.raises(ValueError, match="not a point of the line"):
        MarkedP1Scene((point(1, 5),), 3)  # not reduced mod 3
    with pytest.raises(ValueError, match="not a point of the line"):
        MarkedP1Scene((point(1, 0, 2),), 3)  # a point of the plane
    with pytest.raises(ValueError):
        MarkedP1Scene.standard(5, 3)  # only q+1 points exist
    with pytest.raises(ValueError):
        MarkedP1Scene.standard(-1, 3)


def test_standard_scene_uses_infinity_last():
    assert MarkedP1Scene.standard(2, 5).marks == (point(0, 1), point(1, 1))
    # (x : 1) in canonical form is (1 : 1/x); (2 : 1) = (1 : 2) over F_3
    assert MarkedP1Scene.standard(4, 3).marks == (point(0, 1), point(1, 1), point(1, 2), point(1, 0))
    assert MarkedP1Scene.standard(0, 2).marks == ()


def union_class(n, s):
    # the class of the marked hyperplanes: the subvariety of the catalog's pn-hyp:n,s
    return catalog("pn-hyp", n, s).subvariety


def test_hyperplane_union_class_frozen():
    # inclusion-exclusion over k-fold intersections P^{n-k}, checked by hand
    assert union_class(2, 0) == MotivicPolynomial.zero()
    assert union_class(2, 1) == ONE + L
    two = MotivicPolynomial.constant(2)
    assert union_class(2, 2) == ONE + two * L
    assert union_class(3, 2) == ONE + L + two * L * L
    assert union_class(1, 3) == MotivicPolynomial.constant(3)
    assert union_class(1, 1) == ONE


def mark_sets(q):
    line = enumerate_projective(1, q)
    return [marks for s in range(len(line) + 1) for marks in itertools.combinations(line, s)]


def test_union_class_counts_match_enumeration():
    # independent route: count P^n points lying on some marked hyperplane.
    # Any s distinct points of the line are in general position, so the
    # count depends on s alone, whichever points are marked.
    for q in (2, 3, 5):
        for marks in mark_sets(q):
            for n in (1, 2, 3):
                _, on_marks = _marked_union_pass(n, q, [mark.coords for mark in marks])
                assert on_marks == union_class(n, len(marks)).evaluate(q)


def test_sym_pair_routes_agree():
    # the hyperplane picture against the t^n coefficient of the marked line's zeta series
    for n in range(7):
        for s in range(6):
            assert catalog("pn-hyp", n, s) == kapranov_zeta(catalog("p1-marked", s), n).coefficient(n)


def test_sym_pair_small_values():
    # n = 1: the pair is the marked line itself
    p = catalog("pn-hyp", 1, 2)
    assert p.amb == ONE + L
    assert p.comp == L - ONE
    # n = 0: a point, nothing marked
    assert catalog("pn-hyp", 0, 3).amb == ONE
    assert catalog("pn-hyp", 0, 3).comp == ONE


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
        for marks in mark_sets(q):
            scene = MarkedP1Scene(marks, q)
            for n in (1, 2, 3):
                for roots in itertools.combinations_with_replacement(line, n):
                    flagged = point_in_marked_union(vieta_coefficients(roots, q), scene)
                    assert flagged == any(r in marks for r in roots), (marks, roots)


def test_point_in_marked_union_infinity_hyperplane():
    scene = MarkedP1Scene((point(1, 0),), 2)
    # at (u : v) = (1 : 0) only the leading coefficient p_n of the form
    # survives: v^2 has coefficients (1, 0, 0) and vanishes there, while
    # u^2 + uv, coefficients (0, 1, 1), takes the value 1
    assert point_in_marked_union(point(1, 0, 0), scene)
    assert not point_in_marked_union(point(0, 1, 1), scene)
