"""Serialization: canonical bytes, strict parsing, raw curve-count ingestion."""

import json

import pytest
from fractions import Fraction

from sftdga import io as sio
from sftdga.algebra import Element, Flavor, TruncationPolicy
from sftdga.corpus import toy_overtwisted
from sftdga.differential import DifferentialSpec
from sftdga.errors import ParseError
from sftdga.signature import AlgebraSignature, OrbitRecord, TFormRecord
from sftdga.vanishing import SearchBounds, find_unit_primitive, restrict_spec


def reparse(data):
    # bytes -> json -> codec, the same trip a file does
    return json.loads(sio.canonical_bytes(data).decode("utf-8"))


@pytest.fixture
def tiny_sig():
    return AlgebraSignature(
        n=3,
        orbits=(OrbitRecord("a", cz=2, kappa=1, period=Fraction(1, 2)),),
        tforms=(TFormRecord("u", form_degree=1),),
    )


def test_signature_round_trip_and_frozen_digest(tiny_sig):
    data = sio.signature_to_data(tiny_sig)
    assert sio.signature_from_data(reparse(data)) == tiny_sig
    # canonical form is sorted-key JSON, so the digest is reproducible
    assert sio.digest(data) == (
        "92e169eb1ec9bf497a1cfa3d7dc86f9aff0e6069a18d138061b631c6b4cdef05")


def test_element_round_trip(tiny_sig):
    elem = (Element.term(tiny_sig, Flavor.SFT_STAR, q={"a": 2}, hbar=1,
                         coeff=Fraction(-3, 7))
            + Element.term(tiny_sig, Flavor.SFT_STAR, t={"u": 1}, p={"a": 1}))
    data = sio.element_to_data(elem)
    back = sio.element_from_data(reparse(data))
    assert back == elem
    # context signature must agree with the embedded one
    other = AlgebraSignature(n=3, orbits=(OrbitRecord("a", cz=4),))
    with pytest.raises(ParseError):
        sio.element_from_data(data, sig=other)


def test_differential_round_trip_byte_exact():
    toy = toy_overtwisted()
    for raw in (False, True):
        data = sio.differential_to_data(toy.master, raw_counts=raw)
        blob = sio.canonical_bytes(data)
        again = sio.differential_from_data(json.loads(blob.decode("utf-8")))
        assert again.images == toy.master.images
        assert again.policy == toy.master.policy
        assert sio.canonical_bytes(
            sio.differential_to_data(again, raw_counts=raw)) == blob


def test_bounds_policy_round_trip():
    bounds = SearchBounds(max_word_length=5, max_hbar=2,
                          max_action=Fraction(7, 3),
                          groups=((0,), (1,)), orbits=("a",))
    assert sio.bounds_from_data(reparse(sio.bounds_to_data(bounds))) == bounds
    policy = TruncationPolicy(max_p_weight=3, max_hbar_weight=2,
                              max_t_weight=4, max_word_length=9)
    assert sio.policy_from_data(reparse(sio.policy_to_data(policy))) == policy


def test_certificate_round_trip():
    toy = toy_overtwisted()
    ch = restrict_spec(toy.master, Flavor.CH)
    cert = find_unit_primitive(ch, toy.bounds)
    data = sio.certificate_to_data(cert, toy.master.sig)
    back = sio.certificate_from_data(reparse(data))
    assert back.primitive == cert.primitive
    assert back.method == cert.method
    assert back.verified is True
    assert back.verified_to_weight == cert.verified_to_weight


def raw_doc(images, flavor="rSFT", mode="raw-counts"):
    sig = AlgebraSignature(
        n=3,
        orbits=(OrbitRecord("a", cz=2, kappa=1),
                OrbitRecord("b", cz=4, kappa=3),
                OrbitRecord("c", cz=2, kappa=1),
                OrbitRecord("o", cz=3, kappa=1)),
    )
    images = dict(images)
    for kind in ("q", "p"):
        for o in sig.orbits:
            images.setdefault("%s:%s" % (kind, o.id), [])
    return {
        "format": "sftdga-differential",
        "version": 1,
        "signature": sio.signature_to_data(sig),
        "flavor": flavor,
        "coefficients": mode,
        "images": images,
        "policy": None,
    }


def test_raw_count_ingestion_divides_by_combinatorial_factor():
    # C({a:2, b:1}) = 2! * 2! * 1! * 1^2 * 3^1 = 12, so a stored count of 12
    # lands on coefficient 1
    doc = raw_doc({"q:c": [{"coeff": 12, "q": {"a": 2, "b": 1}}]})
    dspec = sio.differential_from_data(doc)
    (mono, coeff), = dspec.images[("q", "c")].items()
    assert coeff == 1
    assert dict(mono.q) == {"a": 2, "b": 1}


def test_raw_count_p_image_sign():
    # |p_c| = -cz = -2 is even, so p-images flip sign on ingestion
    doc = raw_doc({"p:c": [{"coeff": 5, "p": {"a": 1}}]})
    dspec = sio.differential_from_data(doc)
    (_, coeff), = dspec.images[("p", "c")].items()
    assert coeff == -5
    # |p_o| = -3 is odd: no flip
    doc = raw_doc({"p:o": [{"coeff": 5, "p": {"a": 1}}]})
    dspec = sio.differential_from_data(doc)
    (_, coeff), = dspec.images[("p", "o")].items()
    assert coeff == 5


def test_per_term_raw_count_override():
    doc = raw_doc({"q:c": [
        {"coeff": 12, "q": {"a": 2, "b": 1}},
        {"coeff": "7/2", "q": {"a": 1}, "rawCount": False},
    ]})
    dspec = sio.differential_from_data(doc)
    img = dict(dspec.images[("q", "c")].items())
    by_q = {dict(m.q).get("a"): c for m, c in img.items()}
    assert by_q[2] == 1            # divided by C = 12
    assert by_q[1] == Fraction(7, 2)  # taken literally
    # and the reverse: a raw term inside a rational document
    doc = raw_doc({"q:c": [{"coeff": 12, "q": {"a": 2, "b": 1},
                            "rawCount": True}]}, mode="rational")
    dspec = sio.differential_from_data(doc)
    (_, coeff), = dspec.images[("q", "c")].items()
    assert coeff == 1


def test_parse_rejections(tiny_sig):
    good = sio.signature_to_data(tiny_sig)
    bad = dict(good, version=99)
    with pytest.raises(ParseError, match="version"):
        sio.signature_from_data(bad)
    bad = dict(good, format="sftdga-element")
    with pytest.raises(ParseError, match="format"):
        sio.signature_from_data(bad)
    bad = dict(good, extra=1)
    with pytest.raises(ParseError, match="unknown keys"):
        sio.signature_from_data(bad)
    bad = dict(good)
    del bad["n"]
    with pytest.raises(ParseError, match="missing keys"):
        sio.signature_from_data(bad)
    bad = dict(good, orbits=[{"id": "a", "cz": 2, "kappa": 0}])
    with pytest.raises(ParseError, match="minimum"):
        sio.signature_from_data(bad)
    bad = dict(good, orbits=[{"id": "a", "cz": 2,
                              "period": "one half"}])
    with pytest.raises(ParseError, match="rational"):
        sio.signature_from_data(bad)


def test_parse_rejections_elements(tiny_sig):
    base = {
        "format": "sftdga-element",
        "version": 1,
        "signature": sio.signature_to_data(tiny_sig),
        "flavor": "SFT",
        "terms": [{"coeff": 1, "q": {"a": 1}}],
    }
    assert not sio.element_from_data(base).is_zero
    bad = dict(base, flavor="XYZ")
    with pytest.raises(ParseError, match="flavor"):
        sio.element_from_data(bad)
    bad = dict(base, terms=[{"coeff": True}])
    with pytest.raises(ParseError, match="boolean"):
        sio.element_from_data(bad)
    bad = dict(base, terms=[{"coeff": 1, "q": {"zz": 1}}])
    with pytest.raises(Exception):
        sio.element_from_data(bad)  # unknown orbit id
    bad = dict(base, terms=[{"coeff": 1, "hbar": -1}])
    with pytest.raises(ParseError, match="minimum"):
        sio.element_from_data(bad)


def test_exponent_above_the_limit_is_rejected_before_the_term_is_built(
        tiny_sig, monkeypatch):
    doc = {
        "format": "sftdga-element",
        "version": 1,
        "signature": sio.signature_to_data(tiny_sig),
        "flavor": "SFT*",
        "terms": [{"coeff": 1, "q": {"a": sio.MAX_EXPONENT}}],
    }
    assert not sio.element_from_data(doc).is_zero

    def refuse(*args, **kwargs):
        raise AssertionError("term built")

    monkeypatch.setattr(sio.Element, "term", staticmethod(refuse))
    for kind, vid in (("q", "a"), ("p", "a"), ("t", "u")):
        bad = dict(doc, terms=[{"coeff": 1, kind: {vid: 10**9}}])
        with pytest.raises(ParseError, match="MAX_EXPONENT = %d" % sio.MAX_EXPONENT):
            sio.element_from_data(bad)


def test_differential_rejects_bad_image_keys():
    doc = raw_doc({"x:c": [{"coeff": 1}]}, mode="rational")
    with pytest.raises(ParseError, match="image key"):
        sio.differential_from_data(doc)
    doc = raw_doc({"q:c": [{"coeff": 1}]}, mode="counts")
    with pytest.raises(ParseError, match="coefficient mode"):
        sio.differential_from_data(doc)
    doc = raw_doc({"q:c": [{"coeff": 1, "rawCount": 1}]})
    with pytest.raises(ParseError, match="rawCount"):
        sio.differential_from_data(doc)


def test_save_load_document(tmp_path, tiny_sig):
    path = tmp_path / "sig.json"
    data = sio.signature_to_data(tiny_sig)
    sio.save_document(str(path), data)
    assert path.read_bytes() == sio.canonical_bytes(data)
    assert sio.load_document(str(path)) == data
