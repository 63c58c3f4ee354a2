"""Differentials: Leibniz extension, d^2, structural checks, flavor maps."""

import random
import sys
from fractions import Fraction

import pytest

from sftdga import (
    AlgebraSignature,
    DifferentialSpec,
    Element,
    Flavor,
    MissingImageError,
    OrbitRecord,
    TruncationPolicy,
    generator_degree,
)
from sftdga import differential
from sftdga.corpus import hbar_quotient, random_layered_spec, spec_from_hamiltonian
from sftdga.differential import (
    apply_d,
    check_d_squared,
    embed,
    full_check,
    project,
    restrict_spec,
    validate_structure,
    verify_chain_map,
)

from oracles import apply_d_per_letter, leibniz_bad_pairs

# ---------------------------------------------------------------- toy data


def toy_hamiltonian(sig):
    """U * p_a with U = 1 - q_c p_b + hbar q_c - t_u q_c, odd p_a."""
    fl = Flavor.SFT_STAR
    U = (Element.unit(sig, fl)
         - Element.term(sig, fl, q={"c": 1}, p={"b": 1})
         + Element.term(sig, fl, q={"c": 1}, hbar=1)
         - Element.term(sig, fl, q={"c": 1}, t={"u": 1}))
    return U * Element.term(sig, fl, p={"a": 1})


def test_toy_master_is_the_bracket_of_its_hamiltonian(toy):
    sig = toy.master.sig
    rebuilt = spec_from_hamiltonian(toy_hamiltonian(sig), toy.master.policy)
    assert rebuilt.images == toy.master.images
    assert rebuilt.flavor == toy.master.flavor


def test_toy_images_frozen(toy):
    sig = toy.master.sig
    fl = toy.master.flavor
    term = lambda **kw: Element.term(sig, fl, **kw)
    expected = {
        ("q", "a"): (Element.unit(sig, fl) + term(q={"c": 1}, hbar=1)
                     - term(q={"c": 1}, t={"u": 1}) - term(q={"c": 1}, p={"b": 1})),
        ("q", "b"): term(coeff=2, q={"c": 1}, p={"a": 1}),
        ("q", "c"): Element.zero(sig, fl),
        ("p", "a"): Element.zero(sig, fl),
        ("p", "b"): Element.zero(sig, fl),
        ("p", "c"): (term(p={"a": 1}, hbar=1) - term(p={"a": 1}, t={"u": 1})
                     - term(p={"a": 1, "b": 1})),
    }
    assert set(toy.master.images) == set(expected)
    for key, want in expected.items():
        assert toy.master.images[key] == want, key


def _random_monomial(rng, sig, flavor, max_letters=4):
    orbits = [o.id for o in sig.orbits]
    q = {}
    p = {}
    for _ in range(rng.randint(0, max_letters)):
        use_p = flavor.allows_p and rng.random() >= 0.6
        (p if use_p else q)[rng.choice(orbits)] = rng.randint(1, 2)
    t = {f.id: rng.randint(0, 1) for f in sig.tforms} if flavor.starred else None
    return Element.term(sig, flavor, q=q, p=p, t=t,
                        hbar=rng.randint(0, 1) if flavor.allows_hbar else 0)


def test_apply_d_matches_bracket_oracle(toy):
    # the letterwise Leibniz extension must agree with hbar^{-1} [H, -]
    # computed straight from the Weyl product
    sig = toy.master.sig
    H = toy_hamiltonian(sig)
    dspec = toy.master.with_policy(None)
    rng = random.Random(31)
    checked = 0
    for _ in range(120):
        x = _random_monomial(rng, sig, Flavor.SFT_STAR)
        if x.is_zero:
            continue
        sign = -1 if x.degree() % 2 else 1
        comm = H * x - (x * H).scale(sign)
        assert apply_d(dspec, x) == hbar_quotient(comm)
        checked += 1
    assert checked > 60


def _random_mixed_element(rng, sig, flavor, max_terms, max_letters):
    # terms with rational coefficients, repeated letters, hbar and group
    # classes; repeated odd letters kill a term
    kinds = ["q"] + ["p"] * flavor.allows_p + ["t"] * flavor.allows_t
    out = Element.zero(sig, flavor)
    for _ in range(rng.randint(1, max_terms)):
        blocks = {"q": {}, "p": {}, "t": {}}
        for _ in range(rng.randint(0, max_letters)):
            kind = rng.choice(kinds)
            v = rng.choice("uv" if kind == "t" else "abcd")
            blocks[kind][v] = blocks[kind].get(v, 0) + 1
        out = out + Element.term(
            sig, flavor, coeff=Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)),
            hbar=rng.randint(0, 1) if flavor.allows_hbar else 0,
            group=(rng.randint(-1, 1),), **blocks)
    return out


@pytest.mark.parametrize("flavor", list(Flavor), ids=lambda f: f.value)
def test_apply_d_matches_per_letter_oracle(sig_mixed, flavor):
    # random image tables need not define a valid differential: both forms
    # expand the same sum of products, and agree by associativity alone
    rng = random.Random(41)
    # the word bound sits below the longest intermediate words, so trimming
    # before a contraction had shortened them would show
    spec_policy = TruncationPolicy(max_p_weight=2, max_hbar_weight=1, max_t_weight=1,
                                   max_word_length=3, max_action=Fraction(9))
    elem_policy = TruncationPolicy(max_p_weight=3, max_hbar_weight=2, max_t_weight=2,
                                   max_word_length=4)
    odd = {("q", "b"), ("q", "d"), ("p", "b"), ("p", "d"), ("t", "u")}
    nonzero, odd_seen = 0, 0
    for _ in range(6):
        keys = [(kind, v) for kind in "qp"[:1 + flavor.allows_p] for v in "abcd"]
        images = {key: Element.zero(sig_mixed, flavor) if rng.random() < 0.25
                  else _random_mixed_element(rng, sig_mixed, flavor, 3, 3)
                  for key in keys}
        dspec = DifferentialSpec(sig_mixed, flavor, images)
        for _ in range(8):
            x = _random_mixed_element(rng, sig_mixed, flavor, 3, 4)
            want = apply_d_per_letter(dspec, x)
            assert apply_d(dspec, x) == want
            nonzero += not want.is_zero
            odd_seen += any(letter in odd for m in x.terms for letter in m.letters())
            for spec_pol, elem_pol in ((spec_policy, None), (None, elem_policy),
                                       (spec_policy, elem_policy)):
                bounded, xb = dspec.with_policy(spec_pol), x.with_policy(elem_pol)
                got, want = apply_d(bounded, xb), apply_d_per_letter(bounded, xb)
                assert got == want and got.policy == want.policy
    # the sample is not degenerate: about half the elements have nonzero d,
    # and most carry an odd letter
    assert nonzero >= 15 and odd_seen >= 25


def test_apply_d_long_word_needs_no_recursion(toy):
    # d(q_b) = 2 q_c p_a, and q_b, q_c are even while p_a meets no q_a, so
    # d(q_b^N) = 2N q_b^(N-1) q_c p_a; the word is longer than the
    # recursion limit
    dspec = toy.master.with_policy(None)
    sig, fl = dspec.sig, dspec.flavor
    n = sys.getrecursionlimit() + 500
    got = apply_d(dspec, Element.term(sig, fl, q={"b": n}))
    assert got == Element.term(sig, fl, coeff=2 * n, q={"b": n - 1, "c": 1}, p={"a": 1})


def test_leibniz_identity_weyl(toy):
    dspec = toy.master.with_policy(None)
    sig = dspec.sig
    rng = random.Random(32)
    for _ in range(100):
        x = _random_monomial(rng, sig, Flavor.SFT_STAR, 3)
        y = _random_monomial(rng, sig, Flavor.SFT_STAR, 3)
        if x.is_zero or y.is_zero:
            continue
        sign = -1 if x.degree() % 2 else 1
        assert apply_d(dspec, x * y) == \
            apply_d(dspec, x) * y + (x * apply_d(dspec, y)).scale(sign)


def test_leibniz_identity_super(toy):
    dspec = restrict_spec(toy.master.with_policy(None), Flavor.RSFT_STAR)
    sig = dspec.sig
    rng = random.Random(33)
    for _ in range(100):
        x = _random_monomial(rng, sig, Flavor.RSFT_STAR, 3)
        y = _random_monomial(rng, sig, Flavor.RSFT_STAR, 3)
        if x.is_zero or y.is_zero:
            continue
        sign = -1 if x.degree() % 2 else 1
        assert apply_d(dspec, x * y) == \
            apply_d(dspec, x) * y + (x * apply_d(dspec, y)).scale(sign)


def test_d_squared_vanishes_beyond_generators(toy):
    dspec = toy.master.with_policy(None)
    rng = random.Random(34)
    for _ in range(60):
        x = _random_monomial(rng, dspec.sig, Flavor.SFT_STAR)
        assert apply_d(dspec, apply_d(dspec, x)).is_zero


def test_full_check_passes_on_toy(toy):
    report = full_check(toy.master)
    assert report.ok, report.summary()
    names = [item.name for item in report.items]
    for expected in ("degree-drop", "positive-end", "action-monotone",
                     "weyl-leibniz", "d-squared"):
        assert expected in names


def test_weyl_leibniz_violation_detected():
    # q_a |-> q_a cannot extend to a derivation of the Weyl relations: the
    # contraction term in d(p_a q_a) has nowhere to go
    sig = AlgebraSignature(n=3, orbits=(OrbitRecord("a", 1),))
    fl = Flavor.SFT
    images = {("q", "a"): Element.term(sig, fl, q={"a": 1}),
              ("p", "a"): Element.zero(sig, fl)}
    report = validate_structure(DifferentialSpec(sig, fl, images))
    item = report.item("weyl-leibniz")
    assert item.passed is False


def test_weyl_leibniz_detail_names_the_first_four_pairs_in_loop_order():
    # six pairs fail; the report names the first four, row by row over the
    # generators q_a, q_b, q_c, p_a, p_b, p_c
    sig = AlgebraSignature(n=3, orbits=(OrbitRecord("a", 1), OrbitRecord("b", 2),
                                        OrbitRecord("c", 2)))
    fl = Flavor.SFT
    term = lambda **kw: Element.term(sig, fl, **kw)
    images = {("q", "a"): term(q={"b": 1}), ("q", "b"): term(q={"a": 1}),
              ("q", "c"): term(q={"c": 1}), ("p", "a"): term(p={"b": 1}),
              ("p", "b"): Element.zero(sig, fl),
              ("p", "c"): term(q={"a": 1}, p={"c": 1})}
    dspec = DifferentialSpec(sig, fl, images)
    assert len(leibniz_bad_pairs(dspec)) == 6
    item = validate_structure(dspec).item("weyl-leibniz")
    assert item.passed is False
    assert item.detail == ("images break the commutation relations on pairs "
                           "(q_c, q_a), (p_a, q_b), (p_a, q_c), (p_b, q_a)")


def _leibniz_detail(bad):
    if not bad:
        return "Leibniz extension respects all commutation relations"
    return ("images break the commutation relations on pairs "
            + ", ".join("(%s_%s, %s_%s)" % (x + y) for x, y in bad[:4]))


@pytest.mark.parametrize("flavor", [Flavor.SFT, Flavor.SFT_STAR],
                         ids=lambda f: f.value)
def test_weyl_leibniz_matches_the_full_pairwise_oracle(sig_mixed, flavor):
    # validate_structure skips the pairs whose defect vanishes by algebra;
    # the oracle computes all of them.  Misgraded tables break pairs that
    # share no conjugate letter; graded ones only through conjugate letters.
    rng = random.Random(47)
    policy = TruncationPolicy(max_p_weight=1, max_hbar_weight=1, max_t_weight=1,
                              max_word_length=3)
    keys = [(kind, v) for kind in "qp" for v in "abcd"]
    specs = []
    for graded in (False, True) * 5:
        sparse = rng.random() < 0.5
        images = {}
        for key in keys:
            img = Element.zero(sig_mixed, flavor)
            if rng.random() >= (0.7 if sparse else 0.2):
                img = _random_mixed_element(rng, sig_mixed, flavor, 3, 3)
            if graded:
                opposite = 1 - (generator_degree(key, sig_mixed) & 1)
                img = Element(sig_mixed, flavor, {
                    m: c for m, c in img.terms.items()
                    if m.degree(sig_mixed) % 2 == opposite})
            images[key] = img
        specs.append(DifferentialSpec(sig_mixed, flavor, images))
    for seed in (3, 4):
        master = random_layered_spec(seed, pairs=2).master
        specs.append(restrict_spec(master, flavor))
    outcomes = []
    for dspec in specs:
        for pol in (None, policy):
            bounded = dspec.with_policy(pol)
            bad = leibniz_bad_pairs(bounded)
            item = validate_structure(bounded).item("weyl-leibniz")
            assert (item.passed, item.detail) == (not bad, _leibniz_detail(bad))
            outcomes.append(bool(bad))
    # at least a third of the cases fail, and some pass
    assert len(outcomes) <= 3 * sum(outcomes) < 3 * len(outcomes)


def test_weyl_leibniz_skips_the_pairs_that_cannot_fail(monkeypatch):
    # 9 orbits give 18 generators and 324 pairs; few of them can fail
    dspec = random_layered_spec(34, pairs=3, with_unit=False).master
    calls = []
    real = differential._leibniz_defect

    def counted(*args):
        calls.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(differential, "_leibniz_defect", counted)
    assert validate_structure(dspec).item("weyl-leibniz").passed
    assert len(dspec.generators()) ** 2 == 324
    assert 0 < len(calls) <= 324 // 10


def test_d_squared_failure_reports_residual():
    sig = AlgebraSignature(n=3, orbits=(OrbitRecord("a", 1), OrbitRecord("b", 2)))
    fl = Flavor.CH
    images = {("q", "a"): Element.unit(sig, fl),
              ("q", "b"): Element.term(sig, fl, q={"a": 1})}
    report = check_d_squared(DifferentialSpec(sig, fl, images))
    assert not report.ok
    assert "d^2" in report.item("d-squared").detail


def test_images_must_cover_all_generators():
    sig = AlgebraSignature(n=3, orbits=(OrbitRecord("a", 1),))
    with pytest.raises(MissingImageError):
        DifferentialSpec(sig, Flavor.SFT, {("q", "a"): Element.zero(sig, Flavor.SFT)})
    # p images are not part of a CH differential
    DifferentialSpec(sig, Flavor.CH, {("q", "a"): Element.zero(sig, Flavor.CH)})


def test_restriction_is_a_chain_map(toy):
    master = toy.master.with_policy(None)
    rng = random.Random(35)
    for fl in (Flavor.CH, Flavor.CH_STAR, Flavor.RSFT, Flavor.RSFT_STAR, Flavor.SFT):
        sub = restrict_spec(master, fl)
        report = verify_chain_map(master, sub)
        assert report.ok, (fl, report.summary())
        for _ in range(40):
            x = _random_monomial(rng, master.sig, Flavor.SFT_STAR)
            lhs = project(apply_d(master, x), fl)
            rhs = apply_d(sub, project(x, fl))
            assert lhs == rhs, fl


def test_projection_is_multiplicative(toy):
    # killing a variable class commutes with the product: contractions always
    # leave an hbar behind, and hbar dies whenever p does
    sig = toy.master.sig
    rng = random.Random(36)
    for fl in (Flavor.CH, Flavor.RSFT, Flavor.RSFT_STAR, Flavor.SFT):
        for _ in range(50):
            a = _random_monomial(rng, sig, Flavor.SFT_STAR, 3)
            b = _random_monomial(rng, sig, Flavor.SFT_STAR, 3)
            assert project(a * b, fl) == project(a, fl) * project(b, fl)


def test_embed_then_project_is_identity(toy):
    sig = toy.master.sig
    rng = random.Random(37)
    for _ in range(30):
        x = _random_monomial(rng, sig, Flavor.CH, 3)
        up = embed(x, Flavor.SFT_STAR)
        assert project(up, Flavor.CH) == x
