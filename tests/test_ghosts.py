"""Ghost-coordinate recurrences against the slow routes they replaced.

The references below are the earlier implementations, kept here as
oracles: the per-monomial binomial product for zeta series, zeta(t) /
zeta(t^2) by series division for configuration series, and the peeling
loop for the series exponential.  The fast paths must agree with them
exactly on seeded random inputs.
"""

import random
from collections import namedtuple
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motivic_pairs import (
    MotivicPolynomial,
    PairClass,
    TruncatedSeries,
    catalog,
    config_series,
    config_series_pair,
    geometric_series,
    kapranov_zeta,
    one_plus,
    power_pow,
)
from motivic_pairs import lefschetz, power
from motivic_pairs.lefschetz import adams, ghost_exp, ghost_log, lane_memo, projective_class, zeta_series
from motivic_pairs.power import _lane_pow, pow_cost, tail_slopes, zeta_cost
from motivic_pairs.suites import _divide

L = MotivicPolynomial.lefschetz()
ZERO = MotivicPolynomial.zero()
ORDERS = (0, 1, 2, 5, 12)

# The two coefficient rings the series routines run over: one Z[L] lane,
# and pairs of lanes.
Ring = namedtuple("Ring", "one zero zeta config")
LANE = Ring(MotivicPolynomial.one(), ZERO, zeta_series, config_series)
PAIR = Ring(PairClass.one(), PairClass.zero(), kapranov_zeta, config_series_pair)
RINGS = pytest.mark.parametrize("ring", [LANE, PAIR], ids=["lefschetz", "pair"])


# -- references ---------------------------------------------------------------------


def reference_zeta_series(m, order):
    # prod over monomials m_k L^k of (1 - L^k t)^(-m_k), by the binomial theorem
    result = one_plus((), order, MotivicPolynomial.one())
    for degree, mult in m.items():
        factor = []
        for n in range(order + 1):
            c = comb(mult + n - 1, n) if mult > 0 else (-1) ** n * comb(-mult, n)
            factor.append(MotivicPolynomial({degree * n: c}))
        result = result * TruncatedSeries(tuple(factor))
    return result


def reference_zeta(ring, m, order):
    if ring is LANE:
        return reference_zeta_series(m, order)
    amb, comp = reference_zeta_series(m.amb, order), reference_zeta_series(m.comp, order)
    return TruncatedSeries(tuple(map(PairClass, amb.coeffs, comp.coeffs)))


def reference_zeta_factor(ring, b, i, order):
    # zeta_b(t^i), cut at the order
    coeffs = [ring.zero] * (order + 1)
    coeffs[::i] = reference_zeta(ring, b, order // i).coeffs
    return TruncatedSeries(tuple(coeffs))


def divide(a, u):
    # suites._divide takes Z[L] series, so a pair series divides lane by lane
    if isinstance(u.coeffs[0], MotivicPolynomial):
        return _divide(a, u)
    amb, comp = (
        _divide(*(TruncatedSeries(tuple(getattr(c, lane) for c in s.coeffs)) for s in (a, u)))
        for lane in ("amb", "comp")
    )
    return TruncatedSeries(tuple(map(PairClass, amb.coeffs, comp.coeffs)))


def reference_config_series(ring, m, order):
    return divide(reference_zeta(ring, m, order), reference_zeta_factor(ring, m, 2, order))


def reference_power_pow(ring, series, exponent):
    # peel zeta_{b_i}(t^i) off degree by degree, multiply zeta_{m b_i}(t^i) in
    order = series.order
    result = one_plus((), order, ring.one)
    residual = series
    for i in range(1, order + 1):
        b = residual.coefficient(i)
        if b != ring.zero:
            residual = divide(residual, reference_zeta_factor(ring, b, i, order))
            result = result * reference_zeta_factor(ring, exponent * b, i, order)
    assert residual == one_plus((), order, ring.one)
    return result


# -- random inputs ------------------------------------------------------------------


def random_poly(rng, degree):
    # negative coefficients and holes included
    return MotivicPolynomial({d: rng.randint(-3, 3) for d in range(degree + 1)})


def random_element(rng, ring, degree):
    if ring is LANE:
        return random_poly(rng, degree)
    return PairClass(random_poly(rng, degree), random_poly(rng, degree))


def random_unit_series(rng, ring, order):
    return one_plus([random_element(rng, ring, rng.randint(0, 2)) for _ in range(order)], order, ring.one)


# -- fast path against reference ----------------------------------------------------


@RINGS
@pytest.mark.parametrize("order", ORDERS)
def test_zeta_matches_per_monomial_product(ring, order):
    rng = random.Random(f"zeta/{order}")
    for _ in range(6):
        m = random_element(rng, ring, rng.randint(0, 4))
        assert ring.zeta(m, order) == reference_zeta(ring, m, order)


@RINGS
@pytest.mark.parametrize("order", ORDERS)
def test_config_matches_zeta_quotient(ring, order):
    rng = random.Random(f"config/{order}")
    for _ in range(6):
        m = random_element(rng, ring, rng.randint(0, 4))
        assert ring.config(m, order) == reference_config_series(ring, m, order)


@RINGS
@pytest.mark.parametrize("order", ORDERS)
def test_power_pow_matches_peeling(ring, order):
    rng = random.Random(f"pow/{order}")
    for trial in range(5):
        base = random_unit_series(rng, ring, order)
        exponent = ring.zero if trial == 0 else random_element(rng, ring, rng.randint(0, 2))
        assert power_pow(base, exponent) == reference_power_pow(ring, base, exponent)


def test_power_pow_runs_each_pair_lane_alone():
    # a zero lane of the exponent leaves that lane of the result at 1
    rng = random.Random(7)
    base = random_unit_series(rng, PAIR, 6)
    m = random_poly(rng, 2)
    powered = power_pow(base, PairClass(m, ZERO))
    assert [c.comp for c in powered.coeffs] == [MotivicPolynomial.one()] + [ZERO] * 6
    amb = power_pow(TruncatedSeries(tuple(c.amb for c in base.coeffs)), m)
    assert [c.amb for c in powered.coeffs] == list(amb.coeffs)


# -- the recurrences themselves -----------------------------------------------------


def test_adams_reindexes_degrees_and_is_a_ring_map():
    p = MotivicPolynomial({0: 2, 1: -1, 3: 5})
    assert adams(p, 1) == p
    assert adams(p, 3) == MotivicPolynomial({0: 2, 3: -1, 9: 5})
    rng = random.Random(11)
    for _ in range(10):
        a, b, r = random_poly(rng, 3), random_poly(rng, 3), rng.randint(1, 5)
        assert adams(a * b, r) == adams(a, r) * adams(b, r)
        assert adams(a + b, r) == adams(a, r) + adams(b, r)
    with pytest.raises(ValueError):
        adams(p, 0)


def test_log_and_exp_are_inverse():
    rng = random.Random(12)
    for order in ORDERS:
        coeffs = random_unit_series(rng, LANE, order).coeffs
        ghosts = ghost_log(coeffs)
        assert len(ghosts) == order
        assert ghost_exp(ghosts) == coeffs


def test_ghosts_of_geometric_series_are_one():
    # log 1/(1-t) = sum t^r / r
    assert ghost_log(geometric_series(5, MotivicPolynomial.one()).coeffs) == (MotivicPolynomial.one(),) * 5


def test_exp_of_non_integral_ghosts_raises():
    # g_1 = 0, g_2 = L would need a_2 = L/2
    with pytest.raises(ArithmeticError):
        ghost_exp([ZERO, L])


# -- cost bounds --------------------------------------------------------------------


def terms(p):
    return len(p.items())


def zeta_products(m, order):
    # the exp step multiplies ghost k (psi_k(m), as many terms as m) into a_{n-k}
    a = zeta_series(m, order).coeffs
    return sum(terms(m) * terms(a[n - k]) for n in range(1, order + 1) for k in range(1, n + 1))


def lane_pow_products(coeffs, m):
    # log step, c_i = i b_i by the divisor sum, m * c_i, exp step: the same
    # recurrences as power_pow, counting the term products of each
    order = len(coeffs) - 1
    g = (ZERO, *ghost_log(coeffs))
    count = sum(terms(g[k]) * terms(coeffs[n - k]) for n in range(1, order + 1) for k in range(1, n))
    c = list(g)
    scaled = [ZERO] * (order + 1)
    for i in range(1, order + 1):
        for n in range(2 * i, order + 1, i):
            c[n] = c[n] - adams(c[i], n // i)
        count += terms(m) * terms(c[i])
        for n in range(i, order + 1, i):
            scaled[n] = scaled[n] + adams(m * c[i], n // i)
    a = ghost_exp(scaled[1:])
    return count + sum(terms(scaled[k]) * terms(a[n - k]) for n in range(1, order + 1) for k in range(1, n + 1))


def test_cost_bounds_cover_the_term_products():
    rng = random.Random(13)
    for order in ORDERS:
        for _ in range(4):
            m = random_element(rng, PAIR, rng.randint(0, 3))
            needed = zeta_products(m.amb, order) + zeta_products(m.comp, order)
            assert needed <= zeta_cost(m, order)
            tail = [random_element(rng, PAIR, rng.randint(0, 2 * j)) for j in range(1, order + 1)]
            base = one_plus(tail, order, PairClass.one())
            needed = sum(
                lane_pow_products([lane(c) for c in base.coeffs], lane(m))
                for lane in (lambda c: c.amb, lambda c: c.comp)
            )
            assert needed <= pow_cost(tail_slopes(tail), m, order)
    # a zero coefficient bounds like the constant 1, not below it
    one = PairClass.one()
    assert tail_slopes([PairClass.zero(), one]) == tail_slopes([one, one]) == (0, 0)
    assert pow_cost((0, 0), one, 6) > 0
    # the slope is the least s with L-degree at most s*j at t^j, per lane
    unit = MotivicPolynomial.one()
    assert tail_slopes([PairClass(L, unit), PairClass(unit, L * L * L)]) == (1, 2)
    # an unmarked projective space meets the zeta bound exactly
    p = catalog("pn", 2)
    assert zeta_cost(p, 20) == 2 * zeta_products(p.amb, 20)
    with pytest.raises(ValueError):
        zeta_cost(p, -1)


# -- packed products against the dict loops -----------------------------------------
#
# The dict loops below are the arithmetic the packed path replaces above a
# size threshold, kept as references: every packed result must equal them
# exactly.  Inputs straddle the threshold (_PACK_TERMS terms) and include
# negative and wide coefficients, zero polynomials and sparse psi_r images.

LARGE = 2**230


def ref_mul(a, b):
    prod = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            prod[d1 + d2] = prod.get(d1 + d2, 0) + c1 * c2
    return MotivicPolynomial(prod)


def ref_ghost_log(coeffs):
    ghosts = [ZERO]
    for n in range(1, len(coeffs)):
        acc = {d: n * c for d, c in coeffs[n].items()}
        for k in range(1, n):
            for d1, c1 in ghosts[k].items():
                for d2, c2 in coeffs[n - k].items():
                    acc[d1 + d2] = acc.get(d1 + d2, 0) - c1 * c2
        ghosts.append(MotivicPolynomial(acc))
    return tuple(ghosts[1:])


def ref_ghost_exp(ghosts):
    coeffs = [MotivicPolynomial.one()]
    for n in range(1, len(ghosts) + 1):
        acc = {}
        for k in range(1, n + 1):
            for d1, c1 in ghosts[k - 1].items():
                for d2, c2 in coeffs[n - k].items():
                    acc[d1 + d2] = acc.get(d1 + d2, 0) + c1 * c2
        for d, c in acc.items():
            assert c % n == 0
            acc[d] = c // n
        coeffs.append(MotivicPolynomial(acc))
    return tuple(coeffs)


@pytest.fixture
def packed_calls(monkeypatch):
    # the pair counts of the sums that run packed: the window length of a
    # packed series product (f*g packs as one of length 1), or the pairs of a
    # packed ghost recurrence step (the two packed entries), so a test can
    # show that the packed route ran
    calls = []
    packed_series, step = lefschetz._packed_series, lefschetz._PackedRecurrence.step

    def spy_series(a, b):
        calls.append(len(a))
        return packed_series(a, b)

    def spy_step(recurrence, n):
        calls.append(n - 1)
        return step(recurrence, n)

    monkeypatch.setattr(lefschetz, "_packed_series", spy_series)
    monkeypatch.setattr(lefschetz._PackedRecurrence, "step", spy_step)
    return calls


def random_wide_poly(rng, terms, spread=1, wide=False):
    # `terms` nonzero coefficients on degrees spread apart by up to `spread`;
    # signs mixed, and some coefficients above 200 bits when wide
    degrees = sorted(rng.sample(range(terms * spread), terms)) if spread > 1 else range(terms)
    top = LARGE if wide else 9
    return MotivicPolynomial({d: rng.choice((-1, 1)) * rng.randint(1, top) for d in degrees})


def straddling_polys(rng):
    # term counts on both sides of the threshold, dense, with gaps, and psi_r images
    polys = [ZERO, MotivicPolynomial.one()]
    for terms in (PACK - 5, PACK - 1, PACK, PACK + 1, 2 * PACK, 3 * PACK):
        for wide in (False, True):
            polys.append(random_wide_poly(rng, terms, wide=wide))
            polys.append(random_wide_poly(rng, terms, spread=3, wide=wide))
            polys.append(adams(random_wide_poly(rng, terms, wide=wide), rng.randint(2, 7)))
    return polys


PACK = lefschetz._PACK_TERMS


def test_packed_product_matches_dict_loop(packed_calls):
    rng = random.Random(21)
    polys = straddling_polys(rng)
    for a in polys:
        for b in polys:
            assert a * b == ref_mul(a, b)
    assert packed_calls  # the packed path ran, not only the dict loop


@pytest.mark.parametrize(
    "f, g, packs",
    [
        (projective_class(PACK - 1), projective_class(PACK - 1), True),  # 16 dense terms each
        (projective_class(PACK - 2), projective_class(PACK - 1), False),  # 15 terms against 16
        (adams(projective_class(PACK - 1), 8), adams(projective_class(PACK - 1), 8), False),  # sparse
    ],
    ids=["dense-16x16", "dense-15x16", "psi8-16x16"],
)
def test_a_product_packs_on_its_side_of_the_one_pair_rule(packed_calls, f, g, packs):
    # f*g packs as the series product of the windows (f) and (g) when both
    # factors have _PACK_TERMS terms and one is dense
    assert f * g == ref_mul(f, g)
    assert packed_calls == ([1] if packs else [])


def bound_of(pairs):
    # lefschetz._bound on the norms of the pairs' factors
    fs, gs = ([p._coeffs for p in side] for side in zip(*pairs))
    return lefschetz._bound(*lefschetz._norms(fs), *lefschetz._norms(gs))


def packed_sum(pairs):
    # sum f*g over the pairs on the one multi-pair packed kernel: the last
    # coefficient of the series product of (f_1, ..., f_n) and (g_n, ..., g_1)
    fs, gs = zip(*pairs)
    return lefschetz._packed_series(fs, gs[::-1])[-1]


def window_bound(a, b):
    # the bound _packed_series takes: _bound of one pair, each window read as one whole
    (tops_a, ones_a), (tops_b, ones_b) = norms_of(a), norms_of(b)
    return lefschetz._bound([max(tops_a)], [sum(ones_a)], [max(tops_b)], [sum(ones_b)])


def test_packed_product_at_the_digit_bound():
    # f * f with T coefficients +-(2^b - 1) puts +-T (2^b - 1)^2 in the middle
    # coefficient, which meets _bound exactly: |f|_inf |f|_1 = T (2^b - 1)^2.
    # So does a packed sum of three such squares, which meets the bound of
    # its windows, at every digit size; and one of squares of other sizes,
    # which meets the sum of its pairs' bounds.
    for terms in (PACK, PACK + 1, 31, 32, 63, 64, 100):
        for bits in (*range(1, 80, 3), 28, 29, 30, 31, 32, 33, 250):
            top = 2**bits - 1
            same = MotivicPolynomial({d: top for d in range(terms)})
            mixed = MotivicPolynomial({d: top * (-1) ** d for d in range(terms)})
            for a, b in ((same, same), (same, -same), (mixed, mixed), (mixed, same)):
                assert a * b == ref_mul(a, b), (terms, bits)
            assert abs((same * same).coefficient(terms - 1)) == bound_of([(same, same)])
            # with one term in g the lesser product |f|_inf |g|_1 is met, not |f|_1 |g|_inf
            lone = MotivicPolynomial({terms: top})
            assert (same * lone).coefficient(terms) == top * top == bound_of([(same, lone)])
            total = packed_sum([(same, same), (-same, -same), (same, same)])
            assert total.coefficient(terms - 1) == 3 * terms * top * top == window_bound([same] * 3, [same] * 3)
            assert total == MotivicPolynomial.constant(3) * ref_mul(same, same), (terms, bits)
        widths = (5, 31, 33, 64, 90)
        squares = [MotivicPolynomial({d: 2**bits - 1 for d in range(terms)}) for bits in widths]
        pairs = [(f, f) for f in squares[:3]] + [(-f, -f) for f in squares[3:]] + [(ZERO, squares[-1])]
        total = packed_sum(pairs)
        assert total == sum((ref_mul(f, g) for f, g in pairs), ZERO), terms
        middle = sum(terms * (2**bits - 1) ** 2 for bits in widths)
        assert total.coefficient(terms - 1) == middle == bound_of(pairs)


def test_pack_and_unpack_are_inverse_at_the_digit_extremes():
    # a mapping with a term in every degree up to its top one is read as it
    # is, any other is scattered into zeroed digits: both, at every machine
    # word size and above one, with digits at the extremes -2^(w-1) and
    # 2^(w-1) - 1, gaps, and a lone top term
    rng = random.Random(22)
    for width in (8, 16, 24, 32, 64, 72, 128, 256):
        half = 1 << (width - 1)
        extremes = (-half, half - 1, -1, 0, 1, half // 2)
        nonzero = (-half, half - 1, -1, 1, half // 2)
        cases = [
            {d: rng.choice(extremes) for d in range(40)},
            {0: -half},
            {},
            {d: rng.choice(nonzero) for d in sorted(rng.sample(range(120), 30))},
            {0: half - 1, 1: -half, 90: -half},
            {57: -half},
            {57: half - 1},
        ]
        dense = [len(coeffs) == next(reversed(coeffs), -1) + 1 for coeffs in cases]
        assert any(dense) and not all(dense)
        for coeffs in cases:
            expected = {d: c for d, c in coeffs.items() if c}
            value = lefschetz._pack(coeffs, width)
            assert value == sum(c << (width * d) for d, c in coeffs.items())
            assert lefschetz._unpack(value, width) == expected
            assert list(lefschetz._unpack(value, width)) == sorted(expected)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.integers(-(2**300), 2**300), st.integers(2**14, 2**15), st.integers(-(2**70), 2**70)),
    st.sampled_from((8, 16, 24, 32, 64, 72, 128)),
)
@example(32700, 8)  # (120 - 2^8 + 2^16) / 2: 15 bits, but three balanced base-2^8 digits
def test_unpack_gives_the_balanced_digits_of_any_integer(value, width):
    # the exp step's exactness check unpacks a quotient that need not be a packing
    digits = lefschetz._unpack(value, width)
    half = 1 << (width - 1)
    assert all(-half <= c < half for c in digits.values())
    assert sum(c << (width * d) for d, c in digits.items()) == value
    assert list(digits) == sorted(digits)


@pytest.mark.parametrize("wide", [False, True], ids=["small", "wide"])
def test_packed_ghost_log_and_exp_match_dict_loops(packed_calls, wide):
    rng = random.Random(f"ghosts/{wide}")
    for order in (1, 2, 4, 7):
        for terms in (PACK - 2, PACK, 2 * PACK):
            # a unit series whose coefficients straddle the threshold, one with
            # a zero coefficient, one with sparse degrees
            coeffs = [MotivicPolynomial.one()]
            for j in range(1, order + 1):
                kind = rng.randrange(4)
                if kind == 0:
                    coeffs.append(ZERO)
                else:
                    coeffs.append(random_wide_poly(rng, terms + j, spread=kind, wide=wide))
            ghosts = ghost_log(coeffs)
            assert ghosts == ref_ghost_log(coeffs)
            assert ghost_exp(ghosts) == ref_ghost_exp(ghosts) == tuple(coeffs)
            # the ghosts of a zeta series are psi_r images, sparse for large r
            m = random_wide_poly(rng, terms, wide=wide)
            psi = [adams(m, r) for r in range(1, order + 1)]
            assert ghost_exp(psi) == ref_ghost_exp(psi)
    assert packed_calls


@RINGS
def test_packed_pipelines_match_dict_loops_in_both_rings(ring, packed_calls):
    # zeta and power_pow on classes wide enough to pack, against the same
    # pipelines run on the dict-loop references, lane by lane
    rng = random.Random(23)
    for order in (3, 5):
        for _ in range(2):
            lanes = [random_wide_poly(rng, rng.randint(PACK - 3, 2 * PACK), spread=rng.randint(1, 2))
                     for _ in range(2)]
            m = lanes[0] if ring is LANE else PairClass(*lanes)
            expected = [ref_ghost_exp([adams(lane, r) for r in range(1, order + 1)]) for lane in lanes]
            zeta = ring.zeta(m, order).coeffs
            assert [c if ring is LANE else c.amb for c in zeta] == list(expected[0])
            if ring is PAIR:
                assert [c.comp for c in zeta] == list(expected[1])
            base = geometric_series(order, ring.one)
            assert power_pow(base, m) == ring.zeta(m, order)
            product = m * m
            if ring is LANE:
                assert product == ref_mul(m, m)
            else:
                assert product == PairClass(ref_mul(m.amb, m.amb), ref_mul(m.comp, m.comp))
    assert packed_calls


def test_packed_exp_of_non_integral_ghosts_raises(packed_calls):
    # g_1 = g_2 = 1 + L + ... + L^19: 2 a_2 = g_1^2 + g_2 has the odd
    # coefficient 3 at L^1, and both ghosts are above the threshold
    g = projective_class(PACK + 3)
    assert len(g.items()) >= PACK and lefschetz._either_dense(g, g)
    with pytest.raises(ArithmeticError, match=r"t\^2 would have coefficient"):
        ghost_exp([g, g])
    assert packed_calls


# -- packed recurrences across digit widths ------------------------------------------
#
# A packed recurrence keeps both sequences packed at the one digit width
# its first step predicts for every step left.  The inputs below hold the
# recurrence in the dict loop until just after a chosen step (constant
# coefficients, so every ghost before it has one term; a run of 17 of them
# packs by itself), then turn dense with coefficients that gain `ramp` bits
# a step, so the predicted widths run from 8 bits to past a machine word.


def ramped_series(rng, order, start, ramp):
    coeffs = [MotivicPolynomial.one()]
    for j in range(1, order + 1):
        terms = 1 if j < start else PACK + j % 5
        top = 2 ** (1 + ramp * j)
        coeffs.append(MotivicPolynomial({d: rng.choice((-1, 1)) * rng.randint(1, top) for d in range(terms)}))
    return coeffs


@pytest.fixture
def packed_widths(monkeypatch):
    # per packed recurrence, the digit width after each of its steps
    widths = {}
    step = lefschetz._PackedRecurrence.step

    def spy(recurrence, n):
        made = step(recurrence, n)
        widths.setdefault(id(recurrence), [recurrence]).append(recurrence.width)
        return made

    monkeypatch.setattr(lefschetz._PackedRecurrence, "step", spy)
    return widths


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 24), st.data())
def test_packed_recurrences_match_dict_loops_across_widths(order, data):
    start = data.draw(st.integers(1, order), label="start")
    ramp = data.draw(st.sampled_from((0, 1, 3, 6)), label="ramp")
    coeffs = ramped_series(random.Random(data.draw(st.integers(0, 2**32), label="seed")), order, start, ramp)
    ghosts = ghost_log(coeffs)
    assert ghosts == ref_ghost_log(coeffs)
    assert ghost_exp(ghosts) == ref_ghost_exp(ghosts) == tuple(coeffs)


def test_packed_widths_cross_every_word_size(packed_widths):
    # the same inputs as above, showing what they exercise: recurrences at
    # every machine word width and above one, some that start packing late,
    # each at one width from its first step to its last
    for order, start, ramp in ((24, 1, 0), (24, 12, 1), (20, 5, 6), (6, 2, 0), (24, 23, 0), (3, 2, 0)):
        coeffs = ramped_series(random.Random(26), order, start, ramp)
        ghosts = ghost_log(coeffs)
        assert ghosts == ref_ghost_log(coeffs)
        assert ghost_exp(ghosts) == ref_ghost_exp(ghosts) == tuple(coeffs)
    runs = [widths for _, *widths in packed_widths.values()]
    assert all(len(set(widths)) == 1 for widths in runs)
    assert {8, 16, 32, 64} <= {widths[0] for widths in runs}
    assert any(widths[0] > 64 for widths in runs)
    assert any(len(widths) <= 2 for widths in runs)  # packing began at a late step


@pytest.fixture
def packed_steps(monkeypatch):
    # (n, digit width) of each packed step
    steps = []
    step = lefschetz._PackedRecurrence.step

    def spy(recurrence, n):
        steps.append((n, recurrence.width))
        return step(recurrence, n)

    monkeypatch.setattr(lefschetz._PackedRecurrence, "step", spy)
    return steps


@pytest.mark.parametrize(
    "n, error",
    # n a_n gains L^d: n does not divide the packed sum; or it gains
    # L^(d+1) - L^d, whose packing 2^(w d) (2^w - 1) every width w (a multiple
    # of 8) makes divisible by 17, a factor of 2^8 - 1, though no digit is
    [(19, {7: 1}), (17, {7: -1, 8: 1})],
    ids=["remainder", "digits"],
)
def test_late_non_integral_ghost_raises_as_in_the_dict_loop(packed_steps, monkeypatch, n, error):
    # coefficients that gain no bits a step keep the exp recurrence's bound
    # within a word, two bits a step take it past one: the exactness check
    # runs on both of _pack's paths, struct words and bytes
    for words, ramp in ((True, 0), (False, 2)):
        coeffs = ramped_series(random.Random(27), 20, 2, ramp)
        ghosts = list(ghost_log(coeffs))
        ghosts[n - 1] = ghosts[n - 1] + MotivicPolynomial(error)
        c = n * coeffs[n].coefficient(7) + error[7]
        expected = f"L^7 t^{n} would have coefficient {c}/{n}: no series over Z[L] has these ghosts"
        packed_steps.clear()
        with pytest.raises(ArithmeticError) as packed:
            ghost_exp(ghosts)
        raised, width = packed_steps[-1]
        assert raised == n and (width in (8, 16, 32, 64)) == words  # raised in a packed step of that width
        with monkeypatch.context() as dict_only:
            dict_only.setattr(lefschetz, "_packs", lambda *sizes: False)
            packed_steps.clear()
            with pytest.raises(ArithmeticError) as unpacked:
                ghost_exp(ghosts)
            assert not packed_steps
        assert str(packed.value) == str(unpacked.value) == expected, ramp


def test_a_packed_polynomial_with_only_zero_partners_fits_the_width(packed_steps, monkeypatch):
    # The exp recurrence is made to pack from its last step, n = 3 (the rule
    # is asked first with no pairs, then at step n with n - 1), where g_3
    # has PACK dense terms: S_3 = g_1 a_2 + g_2 a_1 with g_1 = a_1 = 0, so
    # g_2 = 1000 and a_2 = 500 have only zero partners and add nothing to
    # _bound, which reads 3 (from g_3) and would give 8-bit digits.  Both
    # are packed all the same, and 1000 needs 16 bits: the width's floor,
    # the largest |c| the first step packs, is what makes them fit.
    monkeypatch.setattr(lefschetz, "_packs", lambda read_terms, pairs, *sizes: pairs != 1)
    g3 = MotivicPolynomial({d: 3 for d in range(PACK)})
    ghosts = (ZERO, MotivicPolynomial.constant(1000), g3)
    expected = (MotivicPolynomial.one(), ZERO, MotivicPolynomial.constant(500), projective_class(PACK - 1))
    assert ghost_exp(ghosts) == ref_ghost_exp(ghosts) == expected
    assert packed_steps == [(3, 16)]


# Series-deep's power_pow draws, as a strategy: 1 + c_1 t + ... + c_N t^N
# with N <= 16 and each c_j of L-degree at most 3 with coefficients in +-4,
# raised to a class of L-degree 1.  Their packed recurrences start from
# about step 3 and almost all predict a bound within a machine word.

deep_coefficients = st.integers(-4, 4)
deep_polys = st.lists(deep_coefficients, min_size=1, max_size=4).map(lambda cs: MotivicPolynomial(dict(enumerate(cs))))
deep_bases = st.integers(1, 16).flatmap(lambda order: st.lists(deep_polys, min_size=order, max_size=order)).map(
    lambda tail: (MotivicPolynomial.one(), *tail)
)
deep_exponents = st.tuples(deep_coefficients, deep_coefficients.filter(bool)).map(
    lambda cs: MotivicPolynomial(dict(enumerate(cs)))
)
# a base of series-deep's own shape, every coefficient of L-degree 3 and none 0, whose
# power_pow runs both of its recurrences at a fixed width
SERIES_DEEP_BASE = (
    MotivicPolynomial.one(),
    *(MotivicPolynomial({d: (-1) ** (j + d) * (1 + (j * d) % 4) for d in range(4)}) for j in range(1, 11)),
)


def test_fixed_width_steps_match_dict_loops_on_series_deep_shapes(packed_widths):
    @settings(max_examples=40, deadline=None)
    @given(deep_bases, deep_exponents)
    @example(SERIES_DEEP_BASE, MotivicPolynomial({0: 2, 1: -3}))
    def check(coeffs, m):
        ghosts = ghost_log(coeffs)
        assert ghosts == ref_ghost_log(coeffs)
        assert ghost_exp(ghosts) == ref_ghost_exp(ghosts) == coeffs
        expected = reference_lane_pow(coeffs, m, ref_ghost_log, ref_ghost_exp, ref_mul)
        assert power_pow(TruncatedSeries(coeffs), m) == TruncatedSeries(expected)

    check()
    runs = [widths for _, *widths in packed_widths.values()]
    assert any(widths[0] <= 64 for widths in runs)  # a machine word width ran
    assert all(len(set(widths)) == 1 for widths in runs)  # and no width changed


# -- where a recurrence starts packing ------------------------------------------------
#
# _packs decides, from running sums of the term counts and packed lengths of
# both sequences, the step from which a recurrence packs.  Cases on each side
# of it, told apart by the step each packed recurrence starts at.

# 18 terms on degrees 0 to 287 with coefficients near 10^30: its psi_r images
# are sparse and the coefficients they make wide, so zeta's ghost route must
# keep the dict loop; packed from step 2 it took 88 times as long (8.5 s)
SPARSE_CLASS = MotivicPolynomial({d: (-1) ** d * (10**30 - 7 * d) for d in (0, *range(17, 273, 17), 287)})
# 18 terms on degrees 0, 8, ..., 136, near 10^30 but 3 on top: the rule must
# guess digit widths from the largest |c| made, not the top-degree one, or it
# packs zeta's ghost route from step 2 and takes 38 times as long
NARROW_TOP_CLASS = MotivicPolynomial({**{d: (-1) ** d * (10**30 - 7 * d) for d in range(0, 136, 8)}, 136: 3})
NINE_L4 = MotivicPolynomial({4: 9})  # one term, 9 > N: zeta's ghost route at N = 8
TWELVE = MotivicPolynomial.constant(12)


def psi_images(m, order):
    return [adams(m, r) for r in range(1, order + 1)]


@pytest.fixture
def packing_starts(monkeypatch):
    # (log, n) of each recurrence that starts packing, at step n
    starts = []
    init = lefschetz._PackedRecurrence.__init__

    def spy(recurrence, seqs, log, n):
        starts.append((log, n))
        init(recurrence, seqs, log, n)

    monkeypatch.setattr(lefschetz._PackedRecurrence, "__init__", spy)
    return starts


@pytest.mark.parametrize(
    "run, starts",
    [
        (lambda: zeta_series(SPARSE_CLASS, 12), []),
        (lambda: zeta_series(NARROW_TOP_CLASS, 12), []),
        # dense psi_r images pack from the first step the rule is asked at
        (lambda: ghost_exp(psi_images(projective_class(20), 8)), [(False, 2)]),
        (lambda: ghost_exp(psi_images(projective_class(60), 8)), [(False, 2)]),
        (lambda: ghost_exp(psi_images(projective_class(8), 16)), [(False, 2)]),
        # 4-term coefficients of degree 3: the log recurrence packs by step 3
        (lambda: ghost_log(SERIES_DEEP_BASE), [(True, 3)]),
        # reads of fewer than _PACK_READ terms in all are never weighed
        (lambda: zeta_series(NINE_L4, 8), []),
        (lambda: zeta_series(TWELVE, 8), []),
    ],
    ids=["sparse-wide-class", "narrow-top-class", "psi-P20", "psi-P60", "psi-P8-N16", "four-term-log", "one-term-lane", "constant-lane"],
)
def test_a_recurrence_packs_on_its_side_of_the_rule(packing_starts, run, starts):
    run()
    assert packing_starts == starts


# -- the same, with generated inputs ------------------------------------------------

coefficients = st.one_of(st.integers(-4, 4), st.integers(-LARGE, LARGE))
polynomials = st.dictionaries(st.integers(0, 3 * PACK), coefficients, max_size=3 * PACK).map(MotivicPolynomial)

# factors of a sum of products: zero, dense or sparse (psi_r images for
# r > 1), with coefficients small or up to 2^200 in absolute value
factors = st.one_of(
    st.just(ZERO),
    st.builds(
        adams,
        st.dictionaries(
            st.integers(0, 3 * PACK), st.one_of(st.integers(-4, 4), st.integers(-(2**200), 2**200)), max_size=3 * PACK
        ).map(MotivicPolynomial),
        st.integers(1, 8),
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(factors, factors), min_size=1, max_size=5), factors)
def test_bound_holds_every_coefficient_of_a_sum_of_products(pairs, wide):
    expected = lefschetz._terms(lefschetz._dict_sum(pairs))
    assert lefschetz._top(expected) <= bound_of(pairs)
    # a factor whose partner is zero adds nothing to the bound, yet the
    # packed kernel packs it, so its width must hold it however wide it is
    pairs += [(wide, ZERO), (ZERO, wide)]
    assert packed_sum(pairs)._coeffs == expected


def norms_of(polys):
    return lefschetz._norms([p._coeffs for p in polys])


def step_bounds(ghost_norms, coeff_norms, log):
    # _bound's recurrence form the slow way: the recurrence run on norms one
    # sum at a time, each step's pairs sliced out and bounded by the sum form
    norms = [list(ghost_norms[0]), list(ghost_norms[1])], [list(coeff_norms[0]), list(coeff_norms[1])]
    (top_g, one_g), (top_a, one_a) = norms
    tops, ones = norms[not log]
    bounds = []
    for k in range(len(tops), len(norms[log][0])):
        g, a = slice(1, k), slice(k - 1, 0, -1)
        top = lefschetz._bound(top_g[g], one_g[g], top_a[a], one_a[a]) + (k * top_a[k] if log else top_g[k])
        one = sum(x * y for x, y in zip(one_g[g], one_a[a])) + (k * one_a[k] if log else one_g[k])
        tops.append(top if log else top // k)
        ones.append(one if log else one // k)
        bounds.append(top)
    return bounds


@settings(max_examples=60, deadline=None)
@given(st.lists(polynomials, min_size=1, max_size=8), st.data())
def test_predicted_bound_holds_every_step_left(tail, data):
    # from any step n on, _bound's recurrence form is the largest step bound
    # of the slow way, and at least every |c| that a step left makes: of g_k
    # in the log recurrence, of k a_k in the exp one
    coeffs = (MotivicPolynomial.one(), *tail)
    ghosts = (ZERO, *ref_ghost_log(coeffs))
    n = data.draw(st.integers(1, len(tail)), label="n")
    for log, made in ((True, ghosts), (False, coeffs)):
        norms = (norms_of(ghosts[:n]), norms_of(coeffs)) if log else (norms_of(ghosts), norms_of(coeffs[:n]))
        predicted = lefschetz._bound(*norms[0], *norms[1], log)
        assert predicted == max(step_bounds(*norms, log))
        assert all((1 if log else k) * lefschetz._top(made[k]._coeffs) <= predicted for k in range(n, len(coeffs)))


# -- every polynomial the engine builds is canonical ----------------------------------
#
# MotivicPolynomial._trusted takes its dict over as it is, so each route that
# builds one must hand it over in ascending degree with no zero coefficient.
# The two routes are forced: the dict loops only, or packing every product
# of two nonzero factors, every series product and every recurrence from the
# first step its rule is asked at, its second.

ROUTES = {
    "dict": {"_PACK_TERMS": 10**9, "_packs": lambda *sizes: False, "_packs_series": lambda a, b: False},
    "packed": {
        "_PACK_TERMS": 1, "_PACK_SPREAD": 10**9, "_packs": lambda *sizes: True, "_packs_series": lambda a, b: True,
    },
}


def assert_canonical(p):
    degrees = list(p._coeffs)
    assert degrees == sorted(degrees), p
    assert 0 not in p._coeffs.values(), p
    rebuilt = MotivicPolynomial(dict(p.items()))
    assert p == rebuilt and hash(p) == hash(rebuilt)


@pytest.mark.parametrize("route", sorted(ROUTES))
@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.integers(0, 2 * PACK), coefficients, max_size=2 * PACK).map(MotivicPolynomial),
    st.dictionaries(st.integers(0, 8), st.integers(-4, 4), max_size=6).map(MotivicPolynomial),
    st.integers(1, 5),
    st.integers(0, 4),
)
@example(ZERO, ZERO, 1, 0)
@example(ZERO, ZERO, 1, 4)
@example(MotivicPolynomial.one(), ZERO, 1, 0)
@example(MotivicPolynomial.one(), ZERO, 1, 1)
@example(ZERO, ZERO, 1, 2)
def test_every_built_polynomial_is_canonical(route, a, b, r, order):
    packed = []
    with pytest.MonkeyPatch.context() as forced:
        for name, value in ROUTES[route].items():
            forced.setattr(lefschetz, name, value)
        unpack = lefschetz._unpack
        forced.setattr(lefschetz, "_unpack", lambda *args: packed.append(args) or unpack(*args))
        built = [a + b, a - b, b - b, a * b, b * a, b * b, -a, adams(a, r), adams(-b, r)]
        built += [
            MotivicPolynomial.sum_of_products(pairs)
            for pairs in ([(a, b), (b, a), (a, -b)], [(a, b), (-a, b)], [(b, b)], [])
        ]
        coeffs = (MotivicPolynomial.one(), a, b, a * b, b)[: order + 1]
        ghosts = ghost_log(coeffs)
        built += [*ghosts, *ghost_exp(ghosts), *ghost_exp([adams(b, j) for j in range(1, order + 1)])]
        built += power_pow(one_plus((a, b), order, MotivicPolynomial.one()), b).coeffs
        before = len(packed)
        built += [*zeta_series(a, order).coeffs, *config_series(b, order).coeffs]
    for p in built:
        assert_canonical(p)
    if route == "packed":
        # every product of two nonzero factors packs, and so does every
        # recurrence of two steps or more.  With b = 0 no product has two
        # nonzero factors, so before zeta and config only the recurrences
        # pack, from order 2 on
        assert bool(packed[:before]) == (b != ZERO or order >= 2)
    else:
        # zeta_series takes its product route on a dense class of small
        # coefficients whatever the forced route, and that route always unpacks
        assert not packed[:before]


@settings(max_examples=150, deadline=None)
@given(polynomials, polynomials, st.integers(1, 4))
def test_generated_products_match_dict_loop(a, b, r):
    assert a * b == ref_mul(a, b)
    assert adams(a, r) * b == ref_mul(adams(a, r), b)


@settings(max_examples=40, deadline=None)
@given(st.lists(polynomials, min_size=1, max_size=5))
@example(list(SERIES_DEEP_BASE[1:]))  # its log recurrence packs from step 3
def test_generated_ghosts_match_dict_loops(tail):
    coeffs = (MotivicPolynomial.one(), *tail)
    ghosts = ghost_log(coeffs)
    assert ghosts == ref_ghost_log(coeffs)
    assert ghost_exp(ghosts) == coeffs
    assert ghost_exp(ghosts) == ref_ghost_exp(ghosts)


def product_route(m, order):
    # the rule zeta_series routes by, restated from its docstring
    dense = lefschetz._PACK_SPREAD * len(m.items()) > max((d for d, _ in m.items()), default=0)
    sizes = [abs(c) for _, c in m.items()]
    return dense and max(sizes, default=0) <= order and sum(sizes) <= lefschetz._ZETA_PASSES * order


@st.composite
def classes_on_both_routes(draw):
    # dense or sparse, few or many terms, coefficients within the order or far beyond it
    terms = draw(st.integers(0, PACK + 2))
    spread = draw(st.sampled_from([1, lefschetz._PACK_SPREAD, 4 * lefschetz._PACK_SPREAD]))
    degrees = draw(st.lists(st.integers(0, max(spread * terms - 1, 0)), min_size=terms, max_size=terms, unique=True))
    nonzero = st.one_of(st.integers(-4, 4), st.integers(-(10**30), 10**30)).filter(bool)
    return MotivicPolynomial({d: draw(nonzero) for d in degrees})


@settings(max_examples=100, deadline=None)
@given(classes_on_both_routes(), st.integers(0, 12))
@example(ZERO, 12)
@example(MotivicPolynomial({0: -3, 1: -(10**30)}), 12)
@example(MotivicPolynomial({0: 12, 1: -12, 2: 5}), 12)
@example(SPARSE_CLASS, 12)
@example(NINE_L4, 8)
@example(TWELVE, 8)
def test_zeta_series_matches_the_ghost_route_on_either_route(m, order):
    ghost_calls = []
    with pytest.MonkeyPatch.context() as spy:
        spy.setattr(lefschetz, "ghost_exp", lambda ghosts: ghost_calls.append(ghosts) or ghost_exp(ghosts))
        zeta = zeta_series(m, order)
    assert bool(ghost_calls) != product_route(m, order)
    if not ghost_calls:
        assert zeta == TruncatedSeries(ghost_exp([adams(m, r) for r in range(1, order + 1)]))


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(0, 40), st.integers(-12, 12).filter(bool), max_size=24).map(MotivicPolynomial),
    st.integers(0, 12),
)
@example(projective_class(20), 8)  # the ghost route packs from step 2 on these three
@example(projective_class(60), 8)
@example(projective_class(8), 16)
def test_zeta_product_is_exact_on_any_class(m, order):
    # the width bound holds whatever the class, sparse or with |m_k| above the order
    assert lefschetz._zeta_product(m, order) == ghost_exp([adams(m, r) for r in range(1, order + 1)])


def test_zeta_route_rule_on_each_side_of_each_threshold(monkeypatch):
    # config_series follows the same rule: it multiplies exactly when zeta takes the product route
    spread, passes = lefschetz._PACK_SPREAD, lefschetz._ZETA_PASSES
    routes, products = [], []
    product, mul = lefschetz._zeta_product, TruncatedSeries.__mul__
    monkeypatch.setattr(lefschetz, "ghost_exp", lambda ghosts: routes.append("ghost") or ghost_exp(ghosts))
    monkeypatch.setattr(lefschetz, "_zeta_product", lambda m, order: routes.append("product") or product(m, order))
    monkeypatch.setattr(TruncatedSeries, "__mul__", lambda a, b: products.append(a.order) or mul(a, b))
    cases = [
        (MotivicPolynomial({0: 1, 2 * spread - 1: -5}), "product"),  # one term per spread degrees
        (MotivicPolynomial({0: 1, 2 * spread: -5}), "ghost"),  # sparser
        (MotivicPolynomial({0: 6, 1: -6}), "product"),  # every |m_k| <= order
        (MotivicPolynomial({0: 6, 1: -7}), "ghost"),  # one above it
        (projective_class(passes * 6 - 1), "product"),  # sum |m_k| = _ZETA_PASSES * order
        (projective_class(passes * 6), "ghost"),  # one more
        (projective_class(PACK + 4), "product"),  # _PACK_TERMS plays no part
    ]
    for m, route in cases:
        routes.clear()
        assert zeta_series(m, 6) == reference_zeta_series(m, 6)
        assert routes == [route]
        products.clear()
        config = config_series(m, 6)
        assert products == ([6] if route == "product" else [])
        assert config == reference_config_series(LANE, m, 6)


@settings(max_examples=40, deadline=None)
@given(classes_on_both_routes(), st.integers(0, 12))
@example(ZERO, 0)
@example(ZERO, 12)
@example(MotivicPolynomial.one(), 0)
@example(MotivicPolynomial.one(), 1)  # the lowest order with a product route
@example(MotivicPolynomial({0: -3, 1: -(10**30)}), 12)
@example(MotivicPolynomial({0: 12, 1: -12, 2: 5}), 12)  # product route, -m takes the ghost route at order 6
def test_config_series_takes_zetas_route(m, order):
    # a class on zeta's ghost route makes its config series in one exp
    # recurrence and no series multiply; one on the product route keeps
    # zeta_m(t) * zeta_-m(t^2), whatever route zeta_-m takes to order N // 2
    ghost_calls, products = [], []
    mul = TruncatedSeries.__mul__
    with pytest.MonkeyPatch.context() as spy:
        for module in (lefschetz, power):
            spy.setattr(module, "ghost_exp", lambda ghosts: ghost_calls.append(ghosts) or ghost_exp(ghosts))
        spy.setattr(TruncatedSeries, "__mul__", lambda a, b: products.append(a.order) or mul(a, b))
        config = config_series(m, order)
    if product_route(m, order):
        assert products == [order]
    else:
        assert len(ghost_calls) == 1 and products == []
    assert config == reference_config_series(LANE, m, order)


def reference_lane_pow(coeffs, m, log=ghost_log, exp=ghost_exp, times=MotivicPolynomial.__mul__):
    # the divisor sum as chains of polynomial operations, each step a new
    # polynomial; the ghost recurrences and the product m * c_i are the
    # engine's unless given
    c = [ZERO, *log(coeffs)]
    order = len(coeffs) - 1
    scaled = [ZERO] * (order + 1)
    for i in range(1, order + 1):
        for n in range(2 * i, order + 1, i):
            c[n] = c[n] - adams(c[i], n // i)
        for n in range(i, order + 1, i):
            scaled[n] = scaled[n] + adams(times(m, c[i]), n // i)
    return exp(scaled[1:])


lane_coefficients = st.one_of(st.integers(-4, 4), st.integers(-(2**70), 2**70))


@st.composite
def unit_lanes(draw):
    # 1 + a_1 t + ... + a_N t^N, N in 0..12: zero, sparse, dense and wide
    # coefficients, and psi_r images of high L-degree
    order = draw(st.integers(0, 12))
    tail = []
    for _ in range(order):
        poly = draw(st.dictionaries(st.integers(0, 6), lane_coefficients, max_size=4).map(MotivicPolynomial))
        tail.append(adams(poly, draw(st.integers(1, 12))) if draw(st.booleans()) else poly)
    return (MotivicPolynomial.one(), *tail)


exponents = st.one_of(
    st.just(ZERO),
    st.integers(-3, 3).map(MotivicPolynomial.constant),
    st.dictionaries(st.integers(0, 4), st.integers(-3, 3), min_size=2, max_size=4).map(MotivicPolynomial),
)


@settings(max_examples=60, deadline=None)
@given(unit_lanes(), exponents)
def test_lane_pow_dict_divisor_sum_matches_polynomial_chain(coeffs, m):
    expected = reference_lane_pow(coeffs, m)
    assert _lane_pow(coeffs, m) == expected
    with lane_memo():
        first = _lane_pow(coeffs, m)
        again = _lane_pow(coeffs, m)
    assert first == expected
    assert again is first  # computed once inside the block
    assert _lane_pow(coeffs, m) is not first  # and never reused outside it


def full_divisor_sum_lane_pow(coeffs, m):
    # _lane_pow before the constant term of m scaled the ghosts: every c_i
    # is inverted and psi_r(m*c_i) is scattered for the whole exponent
    c = [{}, *(dict(g._coeffs) for g in ghost_log(coeffs))]
    order = len(coeffs) - 1
    scaled = [{} for _ in range(order + 1)]
    for i in range(1, order + 1):
        for n in range(2 * i, order + 1, i):
            r, target = n // i, c[n]
            for d, v in c[i].items():
                target[d * r] = target.get(d * r, 0) - v
        mc = (m * MotivicPolynomial(c[i])).items()
        for n in range(i, order + 1, i):
            r, target = n // i, scaled[n]
            for d, v in mc:
                target[d * r] = target.get(d * r, 0) + v
    return ghost_exp([MotivicPolynomial(g) for g in scaled[1:]])


@st.composite
def sparse_unit_lanes(draw):
    # 1 + a_1 t + ... + a_N t^N, N in 0..14: zero coefficients, sparse terms
    # up to L^200 and coefficients up to 2^100; few distinct degrees keep the
    # powers' term counts small
    order = draw(st.integers(0, 14))
    wide = st.one_of(st.integers(-4, 4), st.integers(-(2**100), 2**100))
    sparse = st.dictionaries(st.sampled_from((0, 1, 2, 3, 40, 200)), wide, max_size=2).map(MotivicPolynomial)
    tail = [draw(sparse) for _ in range(order)]
    return (MotivicPolynomial.one(), *tail)


# zero, constant, L-part only, mixed, and sparse of high degree like L^40 - 3
nonzero, l_degrees = st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 4)
lane_exponents = st.one_of(
    st.just(ZERO),
    nonzero.map(MotivicPolynomial.constant),
    st.dictionaries(l_degrees, nonzero, min_size=1, max_size=3).map(MotivicPolynomial),
    st.builds(lambda m0, tail: MotivicPolynomial({0: m0, **tail}), nonzero, st.dictionaries(l_degrees, nonzero)),
    st.builds(lambda d, m0: MotivicPolynomial({0: m0, d: 1}), st.integers(10, 60), st.integers(-5, 5)),
)
# series-deep's shape: 16 four-term coefficients of L-degree 3
SERIES_DEEP_BASE = (
    MotivicPolynomial.one(),
    *(MotivicPolynomial({0: j, 1: -2, 2: 3, 3: (-1) ** j}) for j in range(1, 17)),
)


@settings(max_examples=50, deadline=None)
@given(sparse_unit_lanes(), st.one_of(lane_exponents, st.builds(PairClass, lane_exponents, lane_exponents)))
@example(SERIES_DEEP_BASE, MotivicPolynomial({0: 2, 1: -3}))
@example(geometric_series(4, MotivicPolynomial.one()).coeffs, catalog("pn-hyp", 80, 4))
@example(SERIES_DEEP_BASE[:9], catalog("finite", 3, 3))
def test_lane_pow_scales_by_the_constant_term_as_the_full_divisor_sum_does(coeffs, exponent):
    # A pair exponent is taken lane by lane, as power_pow takes it; the
    # zero lane of finite:3,3 raises to 1
    for m in (exponent.amb, exponent.comp) if isinstance(exponent, PairClass) else (exponent,):
        assert _lane_pow(coeffs, m) == full_divisor_sum_lane_pow(coeffs, m)


def factor_exponents(coeffs):
    # c_i = i*b_i of A = prod_i zeta_{b_i}(t^i), by the divisor sum as a polynomial chain
    c = [ZERO, *ghost_log(coeffs)]
    for i in range(1, len(c)):
        for n in range(2 * i, len(c), i):
            c[n] = c[n] - adams(c[i], n // i)
    return c[1:]


@pytest.fixture
def lane_products(monkeypatch):
    # the operands of each MotivicPolynomial.__mul__ call
    calls, mul = [], MotivicPolynomial.__mul__
    monkeypatch.setattr(MotivicPolynomial, "__mul__", lambda f, g: calls.append((f, g)) or mul(f, g))
    return calls


ONE_PLUS_T = one_plus((MotivicPolynomial.one(),), 6, MotivicPolynomial.one()).coeffs


@pytest.mark.parametrize("coeffs", [SERIES_DEEP_BASE, ONE_PLUS_T], ids=["series-deep", "one-plus-t"])
def test_only_the_l_part_of_a_lane_exponent_is_multiplied(lane_products, coeffs):
    for m in (ZERO, MotivicPolynomial.constant(3), MotivicPolynomial.constant(-2)):
        lane_products.clear()
        _lane_pow(coeffs, m)
        assert lane_products == []
    for m in (MotivicPolynomial({0: 2, 1: -3}), MotivicPolynomial({1: 1}), MotivicPolynomial({0: -3, 40: 1})):
        lane_products.clear()
        _lane_pow(coeffs, m)
        l_part = m - MotivicPolynomial.constant(m.coefficient(0))
        assert lane_products == [(l_part, c) for c in factor_exponents(coeffs) if c != ZERO]
    # 1 + t = zeta_1(t) zeta_-1(t^2) has c_1 = 1 and c_2 = -2 only, so four c_i make no product
    assert factor_exponents(ONE_PLUS_T) == [MotivicPolynomial.constant(1), MotivicPolynomial.constant(-2), *[ZERO] * 4]


def test_a_degree_one_pair_exponent_still_multiplies_lanes(lane_products):
    # series-deep's exponents are pairs of degree 1 with a nonzero L
    # coefficient: their power_pow makes Z[L] products through __mul__
    one = PairClass.one()
    base = TruncatedSeries(tuple(PairClass(c, -c) if j else one for j, c in enumerate(SERIES_DEEP_BASE[:11])))
    power_pow(base, PairClass(MotivicPolynomial({0: 2, 1: -3}), MotivicPolynomial({0: -1, 1: 1})))
    assert lane_products


# -- series multiply and divide through the sum-of-products routine ---------------------------


def ref_times(x, y):
    # one coefficient product by the dict-loop reference, lane by lane for pairs
    if isinstance(x, PairClass):
        return PairClass(ref_mul(x.amb, y.amb), ref_mul(x.comp, y.comp))
    return ref_mul(x, y)


def ref_series_mul(a, b):
    # each coefficient as the chain acc + a_j * b_(k-j)
    coeffs = []
    for k in range(min(a.order, b.order) + 1):
        acc = ref_times(a.coeffs[0], b.coeffs[k])
        for j in range(1, k + 1):
            acc = acc + ref_times(a.coeffs[j], b.coeffs[k - j])
        coeffs.append(acc)
    return TruncatedSeries(tuple(coeffs))


def ref_divide(a, u):
    # long division for u_0 = 1 as the chain acc - u_j * q_(k-j)
    quot = []
    for k in range(min(a.order, u.order) + 1):
        acc = a.coeffs[k]
        for j in range(1, k + 1):
            acc = acc - ref_times(u.coeffs[j], quot[k - j])
        quot.append(acc)
    return TruncatedSeries(tuple(quot))


@RINGS
def test_series_multiply_and_divide_match_the_product_chain(ring, packed_calls):
    # coefficients on both sides of the threshold, dense, with gaps, psi_3
    # images and zeros; some above 200 bits.  A multiply packs each factor
    # once (_packed_series) or takes each coefficient by the dict loop, as a
    # division does; pair series divide lane by lane
    rng = random.Random(24 if ring is LANE else 25)

    def lane():
        kind = rng.randrange(4)
        if kind == 0:
            return ZERO
        terms = rng.choice((PACK - 3, PACK - 1, PACK, PACK + 2, 2 * PACK))
        poly = random_wide_poly(rng, terms, spread=kind, wide=rng.random() < 0.3)
        return adams(poly, 3) if kind == 3 else poly

    def coeff():
        return lane() if ring is LANE else PairClass(lane(), lane())

    packed = 0
    for order in (0, 1, 3, 6):
        a = TruncatedSeries(tuple(coeff() for _ in range(order + 1)))
        b = TruncatedSeries(tuple(coeff() for _ in range(order + 2)))
        u = TruncatedSeries((ring.one, *(coeff() for _ in range(order))))
        before = len(packed_calls)
        assert a * b == ref_series_mul(a, b)
        packed += len(packed_calls) > before
        quotient = divide(a, u)
        assert quotient == ref_divide(a, u)
        assert ref_series_mul(quotient, u) == a
    assert packed  # some multiply packed its factors


# -- series products: each factor packed once, or one sum per coefficient -----------------


def per_coefficient_product(a, b):
    # the route _packs_series turns down: coefficient k is one dict-loop sum,
    # lane by lane for pairs
    if isinstance(a[0], PairClass):
        amb, comp = (per_coefficient_product([getattr(f, lane) for f in a], [getattr(g, lane) for g in b])
                     for lane in ("amb", "comp"))
        return tuple(map(PairClass, amb, comp))
    return tuple(MotivicPolynomial.sum_of_products(zip(a, b[k::-1])) for k in range(min(len(a), len(b))))


# the factor with no nonzero partner: 2^70 + 5 L^3 meets only b_0 = 0, so no
# coefficient's _bound holds it, and a width taken only from them is 8 bits
TRAP = (
    (MotivicPolynomial.one(), MotivicPolynomial({0: 1, 1: 2}), MotivicPolynomial({0: 2**70, 3: 5})),
    (ZERO, projective_class(3), ZERO),
)

# series coefficients: zero, small dense, dense or sparse up to 2^200 (factors)
series_coefficients = st.one_of(
    factors,
    st.dictionaries(st.integers(0, 5), st.integers(-(2**66), 2**66), max_size=6).map(MotivicPolynomial),
)
windows = st.lists(series_coefficients, min_size=1, max_size=7)


@pytest.mark.parametrize("packs", [False, True], ids=["per-coefficient", "packed"])
@settings(max_examples=60, deadline=None)
@given(windows, windows, st.booleans(), st.booleans())
@example(*TRAP, False, False)
@example(*TRAP[::-1], False, False)
def test_series_product_matches_the_per_coefficient_route(packs, a, b, b0_zero, pair):
    # with the route forced either way, on one lane and on pairs of lanes
    # (the lanes of a pair route each by their own sizes: both forced here)
    b = [ZERO, *b[1:]] if b0_zero else b
    if pair:
        a = [PairClass(f, -f) for f in a]
        b = [PairClass(g, g + g) for g in b]
    expected = per_coefficient_product(a, b)
    with pytest.MonkeyPatch.context() as forced:
        forced.setattr(lefschetz, "_packs_series", lambda a, b: packs)
        made = TruncatedSeries(tuple(a)) * TruncatedSeries(tuple(b))
    assert made.coeffs == expected
    for c in made.coeffs:
        for p in (c.amb, c.comp) if pair else (c,):
            assert_canonical(p)


@pytest.fixture
def series_routes(monkeypatch):
    # the route of each lane's series product
    routes = []
    packed_series, rule = lefschetz._packed_series, lefschetz._packs_series

    def spy_rule(a, b):
        routes.append("packed" if rule(a, b) else "per-coefficient")
        return routes[-1] == "packed"

    def spy_series(a, b):
        assert routes[-1] == "packed"
        return packed_series(a, b)

    monkeypatch.setattr(lefschetz, "_packs_series", spy_rule)
    monkeypatch.setattr(lefschetz, "_packed_series", spy_series)
    return routes


def ring_axioms_shaped(seed, order=8):
    # a series of coefficients drawn as ring-axioms draws them: 4 terms up to L^3
    rng = random.Random(seed)
    return TruncatedSeries(
        tuple(MotivicPolynomial({d: rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for d in range(4)}) for _ in range(order + 1))
    )


def test_a_ring_axioms_shaped_product_packs(series_routes):
    routes = series_routes
    a, b = ring_axioms_shaped(1), ring_axioms_shaped(2)
    assert a * b == ref_series_mul(a, b)
    assert routes == ["packed"]


def test_a_constant_lane_product_keeps_one_sum_per_coefficient(series_routes):
    # power-axioms multiplies series of constants and one-term lanes: one
    # term product per coefficient pair, so packing would only add work
    routes = series_routes
    a = TruncatedSeries(tuple(MotivicPolynomial.constant(k + 1) for k in range(9)))
    b = TruncatedSeries(tuple(MotivicPolynomial({k: -1}) for k in range(9)))
    assert a * b == ref_series_mul(a, b)
    assert a * a == ref_series_mul(a, a)
    assert routes == ["per-coefficient", "per-coefficient"]
