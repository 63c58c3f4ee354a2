"""Primitive search, formal inverses, lifts, and the flavor classification."""

import random
from fractions import Fraction

import pytest

from sftdga import (
    AlgebraSignature,
    BoundsError,
    DifferentialSpec,
    Element,
    Flavor,
    OrbitRecord,
    SeriesWeightError,
    TruncationPolicy,
)
from sftdga import vanishing
from sftdga.algebra import normalize
from sftdga.corpus import corpus_entry, random_layered_spec, spec_from_hamiltonian
from sftdga.differential import restrict_spec, verify_chain_map
from sftdga.vanishing import (
    SEMIDECISION_CAVEAT,
    SearchBounds,
    SearchResult,
    classify,
    find_unit_primitive,
    formal_inverse,
    lift_primitive,
    policy_weight_bound,
    project_primitive,
    search_unit_primitive,
)


def test_direct_search_two_step_example():
    # d(q_a) = 1 and d(q_b) = q_a: the solver must pick out q_a even though
    # q_b muddies the candidate space
    sig = AlgebraSignature(n=3, orbits=(OrbitRecord("a", 1), OrbitRecord("b", 2)))
    fl = Flavor.CH
    dspec = DifferentialSpec(sig, fl, {
        ("q", "a"): Element.unit(sig, fl),
        ("q", "b"): Element.term(sig, fl, q={"a": 1}),
    })
    cert = find_unit_primitive(dspec, SearchBounds(max_word_length=2))
    assert cert is not None
    assert cert.primitive == Element.term(sig, fl, q={"a": 1})
    assert cert.method == "direct-search"
    assert cert.verified and cert.verified_to_weight is None


def test_direct_search_finds_toy_primitive(toy):
    dspec = restrict_spec(toy.master, Flavor.CH)
    result = search_unit_primitive(dspec, toy.bounds)
    cert = result.certificate
    assert cert is not None
    assert cert.primitive == Element.term(dspec.sig, Flavor.CH, q={"a": 1})
    assert cert.detail == "3 candidates, 3 constraints"


def test_search_reports_absence_with_counts(tight):
    result = search_unit_primitive(tight.master, SearchBounds(max_word_length=6,
                                                              max_hbar=2))
    assert result.certificate is None
    assert result.candidates == 260
    assert "no solution" in result.note


def test_search_parity_obstruction_gives_empty_basis():
    # ellipsoid-style model: CZ in {3, 5} at n = 2 makes every q even, and
    # even letters only ever sum to even degrees, never to 1
    sig = AlgebraSignature(n=2, orbits=(OrbitRecord("a", 3), OrbitRecord("b", 5)))
    fl = Flavor.CH
    zero = Element.zero(sig, fl)
    dspec = DifferentialSpec(sig, fl, {("q", "a"): zero, ("q", "b"): zero})
    result = search_unit_primitive(dspec, SearchBounds(max_word_length=8))
    assert result.certificate is None
    assert result.candidates == 0
    assert "parity or bound obstruction" in result.note


def test_formal_inverse_identity(toy):
    sig = toy.master.sig
    fl = Flavor.RSFT
    policy = TruncationPolicy(4, 4, 4, 12)
    rng = random.Random(41)
    one = Element.unit(sig, fl)
    for _ in range(60):
        g = Element.zero(sig, fl).with_policy(policy)
        for _ in range(rng.randint(1, 3)):
            g = g + Element.term(
                sig, fl, coeff=Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)),
                q={rng.choice("abc"): rng.randint(0, 2)},
                p={rng.choice("abc"): rng.randint(1, 2)}, policy=policy)
        inv = formal_inverse(g)
        assert (one - g) * inv == one
        assert inv * (one - g) == one


def test_formal_inverse_rejects_weight_zero(toy):
    sig = toy.master.sig
    g = Element.term(sig, Flavor.RSFT, q={"a": 1},
                     policy=TruncationPolicy(2, 2, 2, 8))
    with pytest.raises(SeriesWeightError):
        formal_inverse(g)


def test_formal_inverse_needs_a_policy_or_order(toy):
    sig = toy.master.sig
    g = Element.term(sig, Flavor.RSFT, p={"a": 1})
    with pytest.raises(SeriesWeightError):
        formal_inverse(g)
    # an explicit order substitutes for a policy
    inv = formal_inverse(g, order=3)
    assert not inv.is_zero


def test_lift_primitive_round_trip(toy):
    ch = restrict_spec(toy.master, Flavor.CH)
    primitive = find_unit_primitive(ch, toy.bounds).primitive
    policy = toy.policy
    for fl in (Flavor.RSFT, Flavor.SFT):
        cert = lift_primitive(restrict_spec(toy.master, fl), primitive, policy)
        assert cert.verified, fl
        assert cert.verified_to_weight == policy_weight_bound(fl, policy)
        back = project_primitive(ch, cert.primitive)
        assert back.verified
        assert back.primitive == primitive


def test_lift_into_starred_flavor_goes_through_the_p_level(toy):
    # straight from CH the correction term still carries t-weight 0, so the
    # series in the marked-point filtration cannot converge; adding the p
    # (and hbar) classes first makes the last step weight-positive
    from sftdga import LiftError

    ch = restrict_spec(toy.master, Flavor.CH)
    primitive = find_unit_primitive(ch, toy.bounds).primitive
    with pytest.raises(LiftError):
        lift_primitive(toy.master, primitive, toy.policy)
    rsft = lift_primitive(restrict_spec(toy.master, Flavor.RSFT), primitive,
                          toy.policy)
    sft = lift_primitive(restrict_spec(toy.master, Flavor.SFT), rsft.primitive,
                         toy.policy)
    cert = lift_primitive(toy.master, sft.primitive, toy.policy)
    assert cert.verified
    assert cert.method == "lift:SFT->SFT*"
    assert cert.verified_to_weight == policy_weight_bound(Flavor.SFT_STAR,
                                                          toy.policy)


def test_lift_without_policy_is_rejected(toy):
    ch = restrict_spec(toy.master.with_policy(None), Flavor.CH)
    primitive = find_unit_primitive(ch, toy.bounds).primitive
    with pytest.raises(BoundsError):
        lift_primitive(toy.master.with_policy(None), primitive)


def test_policy_weight_bound_by_flavor():
    policy = TruncationPolicy(max_p_weight=3, max_hbar_weight=2,
                              max_t_weight=5, max_word_length=20)
    assert policy_weight_bound(Flavor.CH, policy) is None
    assert policy_weight_bound(Flavor.RSFT, policy) == 3
    assert policy_weight_bound(Flavor.SFT, policy) == 2
    assert policy_weight_bound(Flavor.RSFT_STAR, policy) == 5
    assert policy_weight_bound(Flavor.SFT_STAR, policy) == 5
    assert policy_weight_bound(Flavor.SFT, None) is None


def test_action_bound_needs_periods():
    sig = AlgebraSignature(n=3, orbits=(OrbitRecord("a", 1),))
    dspec = DifferentialSpec(sig, Flavor.CH,
                             {("q", "a"): Element.unit(sig, Flavor.CH)})
    with pytest.raises(BoundsError):
        search_unit_primitive(dspec, SearchBounds(max_word_length=2,
                                                  max_action=Fraction(5)))


def test_degenerate_hbar_degree_needs_a_cap():
    # at n = 3 the hbar degree is 0, so the degree equation cannot pin the
    # hbar power and the bounds must supply one
    sig = AlgebraSignature(n=3, orbits=(OrbitRecord("a", 1),))
    fl = Flavor.SFT
    dspec = DifferentialSpec(sig, fl, {
        ("q", "a"): Element.unit(sig, fl),
        ("p", "a"): Element.zero(sig, fl),
    })
    with pytest.raises(BoundsError):
        search_unit_primitive(dspec, SearchBounds(max_word_length=2))
    cert = find_unit_primitive(dspec, SearchBounds(max_word_length=2, max_hbar=1))
    assert cert is not None


def test_classify_toy_all_flavors(toy):
    report = classify({toy.master.flavor: toy.master}, toy.bounds, toy.policy)
    assert [e.flavor for e in report.entries] == [
        Flavor.CH, Flavor.CH_STAR, Flavor.RSFT, Flavor.RSFT_STAR,
        Flavor.SFT, Flavor.SFT_STAR]
    methods = {}
    for entry in report.entries:
        assert entry.status == "unit-exact"
        cert = entry.certificate
        assert cert is not None and cert.verified
        methods[entry.flavor.value] = cert.method
    assert methods == {
        "CH": "direct-search",
        "CH*": "lift:CH->CH*",
        "rSFT": "lift:CH->rSFT",
        "rSFT*": "lift:rSFT->rSFT*",
        "SFT": "lift:rSFT->SFT",
        "SFT*": "lift:SFT->SFT*",
    }
    assert report.caveat == SEMIDECISION_CAVEAT
    assert "verified" in report.summary()
    assert report.verdict == \
        "algebraically overtwisted: YES (certificates attached)"


def test_classify_tight_negative(tight):
    report = classify({tight.master.flavor: tight.master},
                      SearchBounds(max_word_length=6, max_hbar=2),
                      tight.policy)
    for entry in report.entries:
        assert entry.status == "no-primitive-within-bounds"
        assert entry.certificate is None
        assert "candidates" in entry.detail
    assert SEMIDECISION_CAVEAT in report.summary()
    assert report.verdict == "no primitive found within bounds"


def test_classify_flavor_subset(toy):
    report = classify({toy.master.flavor: toy.master}, toy.bounds, toy.policy,
                      flavors=[Flavor.CH, Flavor.SFT_STAR])
    assert [e.flavor for e in report.entries] == [Flavor.CH, Flavor.SFT_STAR]


def test_classify_aborts_on_invalid_spec(toy):
    sig = toy.master.sig
    fl = toy.master.flavor
    images = dict(toy.master.images)
    # break d^2 = 0: send q_c to the unit as well
    images[("q", "c")] = Element.unit(sig, fl)
    bad = DifferentialSpec(sig, fl, images, toy.master.policy)
    report = classify({fl: bad}, toy.bounds, toy.policy)
    for entry in report.entries:
        assert entry.status == "invalid-spec"
        assert entry.certificate is None
    assert not report.validation[fl].ok
    assert report.verdict.startswith("undetermined")


def test_classify_accepts_multiple_supplied_flavors(toy):
    specs = {
        Flavor.SFT_STAR: toy.master,
        Flavor.CH: restrict_spec(toy.master, Flavor.CH),
    }
    report = classify(specs, toy.bounds, toy.policy)
    assert all(e.status == "unit-exact" for e in report.entries)


def test_classify_miss_matches_direct_search_in_every_flavor(tight):
    # the slow path as oracle: a miss settled by the root search through the
    # projection chain map reports what a direct search in the flavor reports
    bounds = SearchBounds(max_word_length=3, max_hbar=2)
    cases = [(random_layered_spec(s, pairs=3, with_unit=False).master, bounds)
             for s in range(20)]
    cases += [(e.master, e.bounds)
              for e in (tight, corpus_entry("layered-7-nounit"))]
    # every letter even, so no flavor has a degree-1 candidate
    sig = AlgebraSignature(n=2, orbits=(OrbitRecord("a", 3), OrbitRecord("b", 5)))
    zero = Element.zero(sig, Flavor.SFT)
    cases.append((DifferentialSpec(sig, Flavor.SFT, {
        (kind, o): zero for kind in "qp" for o in "ab"}), bounds))
    for i, (master, b) in enumerate(cases):
        report = classify(master, b)
        for f in [e.flavor for e in report.entries]:
            r = search_unit_primitive(restrict_spec(master, f), b)
            assert r.certificate is None, (i, f)
            got = report.entry(f)
            assert got.status == "no-primitive-within-bounds", (i, f)
            assert got.detail == "%d candidates; %s" % (r.candidates, r.note), \
                (i, f)


def _count_searches(monkeypatch, result=None):
    searched = []
    real = vanishing.search_unit_primitive

    def counting(dspec, bounds):
        searched.append(dspec.flavor)
        return real(dspec, bounds) if result is None else result

    monkeypatch.setattr(vanishing, "search_unit_primitive", counting)
    return searched


def test_classify_searches_flavors_without_a_chain_map_to_the_root(tight,
                                                                   monkeypatch):
    sig = tight.master.sig
    # d(q_x) = q_w is a valid CH differential, but the restriction of the
    # zero differential does not project onto it
    ch = DifferentialSpec(sig, Flavor.CH, {
        ("q", "w"): Element.zero(sig, Flavor.CH),
        ("q", "x"): Element.term(sig, Flavor.CH, q={"w": 1}),
        ("q", "y"): Element.zero(sig, Flavor.CH),
        ("q", "z"): Element.zero(sig, Flavor.CH),
    })
    specs = {Flavor.SFT_STAR: tight.master, Flavor.CH: ch}
    searched = _count_searches(monkeypatch)
    report = classify(specs, tight.bounds, tight.policy)
    ranked = [e.flavor for e in report.entries]  # smallest flavor first
    unrelated = [f for f in ranked[1:] if not verify_chain_map(
        restrict_spec(tight.master, f).with_policy(None), ch).ok]
    assert unrelated
    assert searched == [Flavor.CH] + unrelated
    assert all(e.status == "no-primitive-within-bounds" for e in report.entries)

    searched.clear()
    classify(tight.master, tight.bounds, tight.policy)
    assert searched == [Flavor.CH]


def test_classify_searches_every_flavor_after_an_unproven_root_miss(
        tight, monkeypatch):
    # a root miss whose solution failed re-verification proves nothing
    miss = SearchResult(None, 1, 1, "solver output failed re-verification")
    searched = _count_searches(monkeypatch, miss)
    report = classify(tight.master, tight.bounds, tight.policy)
    assert searched == [e.flavor for e in report.entries]
    assert len(searched) == 6


def test_classify_keeps_the_hbar_cap_check_after_a_root_miss():
    # n = 3: hbar has degree 0; the root CH search misses and needs no cap,
    # but the SFT candidates still do
    sig = AlgebraSignature(n=3, orbits=(OrbitRecord("w", 1, 1),
                                        OrbitRecord("x", 2, 2)))
    F = Flavor.SFT
    U = (normalize(sig, F, [("q", "x"), ("p", "x")])
         + normalize(sig, F, ["hbar"], coeff=2))
    spec = spec_from_hamiltonian(U * normalize(sig, F, [("p", "w")]))
    bounds = SearchBounds(max_word_length=3)
    assert search_unit_primitive(restrict_spec(spec, Flavor.CH),
                                 bounds).certificate is None
    with pytest.raises(BoundsError, match="hbar has degree 0 here"):
        classify(spec, bounds)


def test_projected_miss_counts_what_the_candidate_list_holds(sig_mixed):
    # the count of _miss_by_projection and the list of a direct search walk
    # one enumeration; every window bound must cut both alike
    zero = DifferentialSpec(sig_mixed, Flavor.SFT_STAR, {
        (kind, o.id): Element.zero(sig_mixed, Flavor.SFT_STAR)
        for kind in "qp" for o in sig_mixed.orbits})
    cases = [(random_layered_spec(s, pairs=3, with_unit=False).master, [
        SearchBounds(max_word_length=4),
        SearchBounds(max_word_length=4, max_hbar=1, max_action=Fraction(8)),
        SearchBounds(max_word_length=3, max_hbar=2, orbits=("w", "c0", "b1", "m")),
    ]) for s in (34, 35)]
    cases.append((zero, [
        SearchBounds(max_word_length=3, max_hbar=1, groups=((0,), (1,), (-1,))),
        SearchBounds(max_word_length=3, groups=((0,), (2,)), max_action=Fraction(7)),
        SearchBounds(max_word_length=4, max_hbar=0, orbits=("a", "b")),
    ]))
    counts = []
    for master, windows in cases:
        root = restrict_spec(master, Flavor.CH)
        for bounds in windows:
            for f in Flavor:
                spec = restrict_spec(master, f)
                want = len(vanishing._candidate_monomials(spec.sig, f, bounds))
                got = vanishing._miss_by_projection(spec, root, bounds)
                assert got.candidates == want, (bounds, f)
                assert got.note == (vanishing.NO_SOLUTION_NOTE if want
                                    else vanishing.NO_CANDIDATES_NOTE)
                counts.append(want)
    assert min(counts) == 0 and max(counts) > 500


def test_projected_miss_raises_what_the_candidate_list_raises():
    sig = AlgebraSignature(n=3, orbits=(OrbitRecord("w", 1, 1),
                                        OrbitRecord("x", 2, 2)))
    spec = DifferentialSpec(sig, Flavor.SFT, {
        (kind, o): Element.zero(sig, Flavor.SFT) for kind in "qp" for o in "wx"})
    root = restrict_spec(spec, Flavor.CH)
    for bounds, match in (
            (SearchBounds(max_word_length=3), "hbar has degree 0 here"),
            (SearchBounds(max_word_length=3, max_hbar=1, orbits=("zz",)),
             "unknown orbits"),
            (SearchBounds(max_word_length=3, max_hbar=1, max_action=1),
             "has no period")):
        with pytest.raises(BoundsError, match=match) as want:
            vanishing._candidate_monomials(sig, Flavor.SFT, bounds)
        with pytest.raises(BoundsError) as got:
            vanishing._miss_by_projection(spec, root, bounds)
        assert str(got.value) == str(want.value)
