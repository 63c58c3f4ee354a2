"""Multiplication core: Koszul signs, Weyl rewriting, policies."""

import random
import time
from fractions import Fraction
from math import comb, factorial

import pytest

from sftdga import (
    AlgebraSignature,
    Element,
    Flavor,
    OrbitRecord,
    TFormRecord,
    TruncationPolicy,
    WeylOrderError,
)
from sftdga.algebra import filtration_weight, mul_super, normalize, truncate

from oracles import (act_right, bubble_sign, has_odd_repeat,
                     saturating_polynomial, weyl_product, word_element)

LETTERS = [("q", v) for v in "abcd"] + [("p", v) for v in "abcd"] + \
          [("t", "u"), ("t", "v")]


def test_normalize_matches_transposition_oracle(sig_mixed):
    rng = random.Random(11)
    zero_cases = 0
    for _ in range(400):
        word = [rng.choice(LETTERS) for _ in range(rng.randint(0, 8))]
        got = normalize(sig_mixed, Flavor.RSFT_STAR, word)
        if has_odd_repeat(word, sig_mixed):
            assert got.is_zero
            zero_cases += 1
            continue
        sorted_word, sign = bubble_sign(word, sig_mixed)
        assert got == normalize(sig_mixed, Flavor.RSFT_STAR, sorted_word).scale(sign)
    assert zero_cases > 20  # the sample actually exercised the zero branch


def test_normalize_carries_coeff_hbar_group(sig_mixed):
    base = normalize(sig_mixed, Flavor.SFT_STAR, [("q", "a"), ("p", "b")])
    full = normalize(sig_mixed, Flavor.SFT_STAR, [("q", "a"), ("p", "b")],
                     coeff=Fraction(3, 2), hbar=2, group=(-1,))
    assert full == base.scale(Fraction(3, 2)).shift(hbar=2, group=(-1,))


def test_word_multiplication_agrees_with_normalize(sig_mixed):
    # multiplying letters one at a time must land on the same normal form
    rng = random.Random(12)
    for _ in range(120):
        word = [rng.choice(LETTERS) for _ in range(rng.randint(0, 6))]
        direct = normalize(sig_mixed, Flavor.RSFT_STAR, word)
        stepwise = word_element(sig_mixed, Flavor.RSFT_STAR, word)
        assert direct == stepwise


def test_mul_super_graded_commutative(sig_mixed):
    rng = random.Random(13)
    for _ in range(200):
        a = normalize(sig_mixed, Flavor.RSFT_STAR,
                      [rng.choice(LETTERS) for _ in range(rng.randint(0, 4))])
        b = normalize(sig_mixed, Flavor.RSFT_STAR,
                      [rng.choice(LETTERS) for _ in range(rng.randint(0, 4))])
        if a.is_zero or b.is_zero:
            continue
        sign = -1 if (a.degree() % 2) and (b.degree() % 2) else 1
        assert a * b == (b * a).scale(sign)


def test_mul_super_associative(sig_mixed):
    rng = random.Random(14)
    for _ in range(200):
        elems = []
        for _ in range(3):
            word = [rng.choice(LETTERS) for _ in range(rng.randint(0, 4))]
            elems.append(normalize(sig_mixed, Flavor.RSFT_STAR, word,
                                   coeff=Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))))
        a, b, c = elems
        assert (a * b) * c == a * (b * c)


def test_odd_generator_squares_to_zero(sig_mixed):
    qb = Element.term(sig_mixed, Flavor.CH, q={"b": 1})  # |q_b| = 3
    assert (qb * qb).is_zero
    assert Element.term(sig_mixed, Flavor.CH, q={"b": 2}).is_zero


def _one_orbit_sig(cz, kappa):
    return AlgebraSignature(n=3, orbits=(OrbitRecord("a", cz, kappa),))


def test_weyl_contraction_even_orbit():
    # cz = 2 at n = 3 makes q and p even; kappa = 2: p * q = q p - 2 hbar
    sig = _one_orbit_sig(2, 2)
    q = Element.term(sig, Flavor.SFT, q={"a": 1})
    p = Element.term(sig, Flavor.SFT, p={"a": 1})
    qp = Element.term(sig, Flavor.SFT, q={"a": 1}, p={"a": 1})
    hbar = Element.term(sig, Flavor.SFT, hbar=1)
    assert p * q == qp - hbar.scale(2)
    assert q * p == qp


def test_weyl_contraction_odd_orbit():
    # cz = 1 at n = 3 makes q and p odd; p * q = -q p + hbar
    sig = _one_orbit_sig(1, 1)
    q = Element.term(sig, Flavor.SFT, q={"a": 1})
    p = Element.term(sig, Flavor.SFT, p={"a": 1})
    qp = Element.term(sig, Flavor.SFT, q={"a": 1}, p={"a": 1})
    hbar = Element.term(sig, Flavor.SFT, hbar=1)
    assert p * q == -qp + hbar
    # the graded commutator [q, p] = q p - (-1)^{|q||p|} p q is kappa hbar
    assert q * p - (p * q).scale(-1) == hbar


def test_weyl_cross_orbit_swaps_without_contraction(sig_mixed):
    pb = Element.term(sig_mixed, Flavor.SFT, p={"b": 1})  # |p_b| = -1, odd
    qd = Element.term(sig_mixed, Flavor.SFT, q={"d": 1})  # |q_d| = 5, odd
    assert pb * qd == (qd * pb).scale(-1)


def test_weyl_order_rejected_in_normal_form(sig_mixed):
    with pytest.raises(WeylOrderError):
        normalize(sig_mixed, Flavor.SFT, [("p", "a"), ("q", "a")])
    # fine in the supercommutative flavors
    normalize(sig_mixed, Flavor.RSFT, [("p", "a"), ("q", "a")])


def test_weyl_order_check_is_linear(sig_mixed):
    # the q letter may sit anywhere to the right of its p
    with pytest.raises(WeylOrderError):
        normalize(sig_mixed, Flavor.SFT,
                  [("p", "a"), ("q", "b"), ("p", "c"), ("q", "a")])
    assert normalize(sig_mixed, Flavor.SFT, [("q", "a"), ("p", "a")]) == \
        Element.term(sig_mixed, Flavor.SFT, q={"a": 1}, p={"a": 1})
    assert normalize(sig_mixed, Flavor.SFT, [("p", "a"), ("q", "b")]) == \
        Element.term(sig_mixed, Flavor.SFT, q={"b": 1}, p={"a": 1})
    # a quadratic scan over the p letters took 0.3 s here
    start = time.perf_counter()
    got = normalize(sig_mixed, Flavor.SFT, [("p", "a")] * 4000)
    assert time.perf_counter() - start < 0.15
    assert got == Element.term(sig_mixed, Flavor.SFT, p={"a": 4000})


def _random_weyl_element(rng, sig, flavor):
    out = Element.zero(sig, flavor)
    for _ in range(rng.randint(1, 3)):
        q = {v: rng.randint(0, 2) for v in rng.sample("abcd", 2)}
        p = {v: rng.randint(0, 2) for v in rng.sample("abcd", 2)}
        t = {v: rng.randint(0, 1) for v in ("u", "v")} if flavor.starred else None
        coeff = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        out = out + Element.term(sig, flavor, coeff=coeff, q=q, p=p, t=t,
                                 hbar=rng.randint(0, 1))
    return out


def test_mul_weyl_associative(sig_mixed):
    rng = random.Random(15)
    for _ in range(80):
        a = _random_weyl_element(rng, sig_mixed, Flavor.SFT_STAR)
        b = _random_weyl_element(rng, sig_mixed, Flavor.SFT_STAR)
        c = _random_weyl_element(rng, sig_mixed, Flavor.SFT_STAR)
        assert (a * b) * c == a * (b * c)


def test_mul_weyl_distributes_and_respects_unit(sig_mixed):
    rng = random.Random(16)
    one = Element.unit(sig_mixed, Flavor.SFT)
    for _ in range(40):
        a = _random_weyl_element(rng, sig_mixed, Flavor.SFT)
        b = _random_weyl_element(rng, sig_mixed, Flavor.SFT)
        c = _random_weyl_element(rng, sig_mixed, Flavor.SFT)
        assert one * a == a and a * one == a
        assert a * (b + c) == a * b + a * c


def test_mul_weyl_degree_additive(sig_mixed):
    # contraction trades |q| + |p| for |hbar|, so products stay homogeneous
    rng = random.Random(17)
    checked = 0
    for _ in range(120):
        wa = [rng.choice(LETTERS) for _ in range(rng.randint(1, 4))]
        wb = [rng.choice(LETTERS) for _ in range(rng.randint(1, 4))]
        try:
            a = normalize(sig_mixed, Flavor.SFT_STAR, wa)
            b = normalize(sig_mixed, Flavor.SFT_STAR, wb)
        except WeylOrderError:
            continue
        if a.is_zero or b.is_zero or (a * b).is_zero:
            continue
        assert (a * b).is_homogeneous
        assert (a * b).degree() == a.degree() + b.degree()
        checked += 1
    assert checked > 40


def test_mul_weyl_reduces_to_super_without_contractions(sig_mixed):
    # a p-free left factor can never contract, so the Weyl product agrees
    # with the supercommutative one computed in the series flavor
    rng = random.Random(18)
    for _ in range(60):
        wa = [rng.choice([l for l in LETTERS if l[0] != "p"])
              for _ in range(rng.randint(0, 4))]
        wb = [rng.choice(LETTERS) for _ in range(rng.randint(0, 4))]
        a = normalize(sig_mixed, Flavor.SFT_STAR, wa)
        try:
            b = normalize(sig_mixed, Flavor.SFT_STAR, wb)
        except WeylOrderError:
            continue
        prod = a * b  # no hbar can appear, so the flavor map below is legal
        lhs = prod.map_flavor(Flavor.RSFT_STAR)
        rhs = mul_super(a.map_flavor(Flavor.RSFT_STAR),
                        b.map_flavor(Flavor.RSFT_STAR))
        assert lhs == rhs


def test_mul_weyl_matches_derivation_representation(sig_mixed):
    # p_g acting as kappa_g hbar d/dq_g on the q-polynomial module is a
    # faithful picture of the commutation relations; the normal form a * b
    # must act exactly like acting with a, then with b
    rng = random.Random(19)
    for _ in range(120):
        a = _random_weyl_element(rng, sig_mixed, Flavor.SFT)
        b = _random_weyl_element(rng, sig_mixed, Flavor.SFT)
        prod = a * b
        probes = [Element.unit(sig_mixed, Flavor.SFT),
                  saturating_polynomial(sig_mixed, Flavor.SFT, a, b)]
        probes.append(Element.term(
            sig_mixed, Flavor.SFT,
            q={v: rng.randint(0, 2) for v in ("a", "c")}))
        for f in probes:
            assert act_right(f, prod) == act_right(act_right(f, a), b)


def _random_block(rng, ids, cap):
    # letters drawn with repeats, so even orbits reach exponent cap
    out = {}
    for _ in range(rng.randint(0, cap)):
        v = rng.choice(ids)
        out[v] = out.get(v, 0) + 1
    return out


def _random_oracle_element(rng, sig):
    out = Element.zero(sig, Flavor.SFT_STAR)
    for _ in range(rng.randint(1, 2)):
        # orbit a is drawn most often, so shared exponents reach 4
        out = out + Element.term(
            sig, Flavor.SFT_STAR,
            coeff=Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)),
            q=_random_block(rng, "aaaacbd", 4), p=_random_block(rng, "aaaacbd", 4),
            t=_random_block(rng, "uv", 2), hbar=rng.randint(0, 1),
            group=(rng.randint(-1, 1),))
    return out


def test_mul_weyl_matches_rewriting_oracle(sig_mixed):
    # sig_mixed mixes parities (a, c and t_v even; b, d and t_u odd) and
    # kappa from 1 to 3
    rng = random.Random(20)
    contracting, shared_4 = 0, 0
    for _ in range(2000):
        a = _random_oracle_element(rng, sig_mixed)
        b = _random_oracle_element(rng, sig_mixed)
        shared = max((sum(min(e, dict(m2.q).get(v, 0)) for v, e in m1.p)
                      for m1 in a.terms for m2 in b.terms), default=0)
        contracting += shared > 0
        shared_4 += shared >= 4
        assert a * b == weyl_product(a, b)
    # the sample actually reached the contraction branch, up to exponent 4
    assert contracting >= 800
    assert shared_4 >= 10


def test_weyl_wick_closed_form():
    # even orbit, kappa = 2:  p^9 q^9 = sum_k k! C(9,k)^2 (-2 hbar)^k q^(9-k) p^(9-k)
    sig = _one_orbit_sig(2, 2)
    p9 = Element.term(sig, Flavor.SFT, p={"a": 9})
    q9 = Element.term(sig, Flavor.SFT, q={"a": 9})
    expected = Element.zero(sig, Flavor.SFT)
    for k in range(10):
        expected = expected + Element.term(
            sig, Flavor.SFT, coeff=factorial(k) * comb(9, k) ** 2 * (-2) ** k,
            q={"a": 9 - k}, p={"a": 9 - k}, hbar=k)
    # bubbling the rewriting rule took minutes here; the Wick kernel takes
    # well under a millisecond, and the bound leaves room for a slow machine
    start = time.perf_counter()
    got = p9 * q9
    assert time.perf_counter() - start < 1.0
    assert got == expected and len(got.terms) == 10
    # odd orbit, kappa = 3:  p q = -q p + kappa hbar
    sig = _one_orbit_sig(1, 3)
    q = Element.term(sig, Flavor.SFT, q={"a": 1})
    p = Element.term(sig, Flavor.SFT, p={"a": 1})
    qp = Element.term(sig, Flavor.SFT, q={"a": 1}, p={"a": 1})
    assert p * q == -qp + Element.term(sig, Flavor.SFT, coeff=3, hbar=1)


def test_term_builds_huge_exponent_directly(sig_mixed):
    # the monomial is built from the exponent map, never expanded into letters
    elem = Element.term(sig_mixed, Flavor.CH, q={"a": 10**6, "c": 0})
    (mono, coeff), = elem.items()
    assert mono.q == (("a", 10**6),) and coeff == 1
    assert Element.term(sig_mixed, Flavor.CH, q={"b": 10**6}).is_zero


def test_filtration_weights():
    # cz_b = 3 keeps p_b even at n = 4, so its square survives
    sig = AlgebraSignature(
        n=4, orbits=(OrbitRecord("a", 1), OrbitRecord("b", 3)),
        tforms=(TFormRecord("u", 1),))
    elem = Element.term(sig, Flavor.SFT_STAR, q={"a": 1}, p={"b": 2},
                        t={"u": 1}, hbar=1)
    (mono, _), = elem.items()
    assert filtration_weight(mono, Flavor.CH) == 0
    assert filtration_weight(mono, Flavor.RSFT) == 2
    assert filtration_weight(mono, Flavor.SFT) == 3
    assert filtration_weight(mono, Flavor.SFT_STAR) == 1


def test_truncation_policy_drops_heavy_terms(sig_mixed):
    policy = TruncationPolicy(max_p_weight=1, max_hbar_weight=1,
                              max_t_weight=0, max_word_length=3)
    light = Element.term(sig_mixed, Flavor.SFT_STAR, q={"a": 1}, p={"a": 1})
    heavy = Element.term(sig_mixed, Flavor.SFT_STAR, p={"a": 2})
    long_word = Element.term(sig_mixed, Flavor.SFT_STAR, q={"a": 2, "c": 2})
    marked = Element.term(sig_mixed, Flavor.SFT_STAR, t={"u": 1})
    total = light + heavy + long_word + marked
    assert truncate(total, policy) == light
    # the policy rides along through arithmetic on the element itself
    assert (total.with_policy(policy) + Element.zero(sig_mixed, Flavor.SFT_STAR)) == light


def test_policy_action_bound(sig_mixed):
    policy = TruncationPolicy(5, 5, 5, 10, max_action=Fraction(2))
    cheap = Element.term(sig_mixed, Flavor.CH, q={"a": 1})      # action 1
    costly = Element.term(sig_mixed, Flavor.CH, q={"c": 2})     # action 4
    assert truncate(cheap + costly, policy) == cheap


def test_equality_ignores_policy(sig_mixed):
    a = Element.term(sig_mixed, Flavor.CH, q={"a": 1})
    assert a == a.with_policy(TruncationPolicy(1, 1, 1, 5))
    assert a != a.scale(2)


def test_scale_shift_and_zero(sig_mixed):
    a = Element.term(sig_mixed, Flavor.SFT, q={"a": 1})
    assert a.scale(0).is_zero
    assert (a - a).is_zero
    assert a.shift(hbar=2) == Element.term(sig_mixed, Flavor.SFT, q={"a": 1}, hbar=2)
    assert a.shift(group=(3,)) == Element.term(sig_mixed, Flavor.SFT, q={"a": 1},
                                               group=(3,))
