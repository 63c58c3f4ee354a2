"""End-to-end command line runs, in process via main(argv)."""

import hashlib
import json

import pytest
from fractions import Fraction

from sftdga import io as sio
from sftdga.algebra import Element, Flavor
from sftdga.cli import main
from sftdga.corpus import toy_overtwisted
from sftdga.differential import DifferentialSpec, restrict_spec
from sftdga.signature import AlgebraSignature, OrbitRecord


@pytest.fixture
def toydocs(tmp_path):
    assert main(["corpus", "toy-overtwisted", "--dir", str(tmp_path)]) == 0
    base = tmp_path / "toy-overtwisted"
    paths = {kind: "%s-%s.json" % (base, kind)
             for kind in ("signature", "differential", "bounds", "policy")}
    toy = toy_overtwisted()
    for flavor in (Flavor.CH, Flavor.RSFT, Flavor.SFT):
        sub = restrict_spec(toy.master, flavor)
        p = str(tmp_path / ("spec-%s.json" % flavor.value.replace("*", "s")))
        sio.save_document(p, sio.differential_to_data(sub))
        paths[flavor.value] = p
    return paths


def test_corpus_listing(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "toy-overtwisted" in out
    assert "toy-tight" in out


def test_corpus_unknown_name(capsys):
    assert main(["corpus", "no-such-entry", "--dir", "/tmp"]) == 2


def test_validate_passes_and_reports(toydocs, tmp_path, capsys):
    rep = str(tmp_path / "rep.json")
    assert main(["validate", toydocs["differential"], "--report", rep]) == 0
    out = capsys.readouterr().out
    assert "d-squared" in out
    doc = sio.load_document(rep)
    assert doc["format"] == "sftdga-report"
    assert doc["command"] == "validate"
    assert all(v in (True, "skipped") for v in doc["verdicts"].values())
    with open(toydocs["differential"], "rb") as fh:
        want = hashlib.sha256(fh.read()).hexdigest()
    assert doc["inputs"][toydocs["differential"]] == want
    assert "residuals" not in doc


def test_validate_with_flavor_restriction(toydocs):
    assert main(["validate", toydocs["differential"], "--flavor", "CH"]) == 0


def test_d2_failure_prints_residual(tmp_path, capsys):
    sig = AlgebraSignature(n=3, orbits=(OrbitRecord("a", cz=1),
                                        OrbitRecord("b", cz=2)))
    F = Flavor.CH
    images = {
        ("q", "a"): Element.unit(sig, F),
        ("q", "b"): Element.term(sig, F, q={"a": 1}),
    }
    bad = DifferentialSpec(sig, F, images)
    path = str(tmp_path / "bad.json")
    sio.save_document(path, sio.differential_to_data(bad))
    rep = str(tmp_path / "rep.json")
    assert main(["d2", path, "--report", rep]) == 1
    out = capsys.readouterr().out
    assert "d^2" in out
    doc = sio.load_document(rep)
    assert doc["verdicts"]["d-squared"] is False
    assert doc["residuals"]


def test_huge_exponent_exits_2_naming_the_bound(toydocs, tmp_path, capsys):
    doc = sio.load_document(toydocs["differential"])
    doc["images"]["q:a"].append({"coeff": 1, "q": {"b": 10**9}})
    path = str(tmp_path / "huge.json")
    sio.save_document(path, doc)
    assert main(["validate", path]) == 2
    assert "MAX_EXPONENT" in capsys.readouterr().err


def test_apply_writes_image(toydocs, tmp_path, capsys):
    sig = toy_overtwisted().master.sig
    elem = Element.term(sig, Flavor.SFT_STAR, q={"a": 1})
    src = str(tmp_path / "elem.json")
    sio.save_document(src, sio.element_to_data(elem))
    out = str(tmp_path / "img.json")
    assert main(["apply", toydocs["differential"], src, "--out", out]) == 0
    image = sio.element_from_data(sio.load_document(out), sig)
    assert not image.is_zero  # d(q_a) = 1 + corrections in the full flavor
    # stdout mode emits the same canonical document
    assert main(["apply", toydocs["differential"], src]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == sio.load_document(out)


def test_find_primitive_exit_codes(toydocs, tmp_path, capsys):
    # the full flavor has no primitive inside these word-length bounds
    assert main(["find-primitive", toydocs["differential"],
                 "--bounds", toydocs["bounds"]]) == 1
    assert "no primitive within bounds" in capsys.readouterr().out
    rep = str(tmp_path / "rep.json")
    assert main(["find-primitive", toydocs["differential"], "--flavor", "CH",
                 "--bounds", toydocs["bounds"], "--report", rep]) == 0
    assert "primitive found" in capsys.readouterr().out
    doc = sio.load_document(rep)
    assert doc["verdicts"]["found"] is True
    assert doc["certificate"]["verified"] is True
    assert doc["bounds"]["format"] == "sftdga-bounds"


def test_lift_project_chain(toydocs, tmp_path, capsys):
    cert = str(tmp_path / "ch-cert.json")
    assert main(["find-primitive", toydocs["differential"], "--flavor", "CH",
                 "--bounds", toydocs["bounds"], "--out", cert]) == 0
    lifted = str(tmp_path / "rsft-cert.json")
    assert main(["lift", toydocs["rSFT"], cert,
                 "--policy", toydocs["policy"], "--out", lifted]) == 0
    assert "lift:CH->rSFT" in capsys.readouterr().out
    sig = toy_overtwisted().master.sig
    up = sio.certificate_from_data(sio.load_document(lifted), sig)
    assert up.verified and up.flavor is Flavor.RSFT
    back = str(tmp_path / "back.json")
    assert main(["project", toydocs["CH"], lifted, "--out", back]) == 0
    down = sio.certificate_from_data(sio.load_document(back), sig)
    orig = sio.certificate_from_data(sio.load_document(cert), sig)
    assert down.primitive == orig.primitive


def test_lift_flavor_restriction_matches_restricted_spec(toydocs, tmp_path,
                                                         capsys):
    # one master file plus --flavor should chain the same as restricted specs
    cert = str(tmp_path / "ch-cert.json")
    assert main(["find-primitive", toydocs["differential"], "--flavor", "CH",
                 "--bounds", toydocs["bounds"], "--out", cert]) == 0
    via_flag = str(tmp_path / "via-flag.json")
    assert main(["lift", toydocs["differential"], cert, "--flavor", "rSFT",
                 "--policy", toydocs["policy"], "--out", via_flag]) == 0
    via_spec = str(tmp_path / "via-spec.json")
    assert main(["lift", toydocs["rSFT"], cert,
                 "--policy", toydocs["policy"], "--out", via_spec]) == 0
    with open(via_flag, "rb") as fh1, open(via_spec, "rb") as fh2:
        assert fh1.read() == fh2.read()
    capsys.readouterr()
    back = str(tmp_path / "back.json")
    assert main(["project", toydocs["differential"], via_flag,
                 "--flavor", "CH", "--out", back]) == 0
    sig = toy_overtwisted().master.sig
    down = sio.certificate_from_data(sio.load_document(back), sig)
    orig = sio.certificate_from_data(sio.load_document(cert), sig)
    assert down.primitive == orig.primitive


def test_classify_report(toydocs, tmp_path, capsys):
    rep = str(tmp_path / "rep.json")
    assert main(["classify", toydocs["differential"],
                 "--bounds", toydocs["bounds"],
                 "--policy", toydocs["policy"], "--report", rep]) == 0
    out = capsys.readouterr().out
    assert "unit-exact" in out
    assert "algebraically overtwisted: YES" in out
    doc = sio.load_document(rep)
    assert doc["verdicts"]["SFT*"] == "unit-exact"
    assert set(doc["verdicts"]) == {"CH", "CH*", "rSFT", "rSFT*", "SFT", "SFT*"}
    assert doc["classification"]["verdict"].startswith(
        "algebraically overtwisted: YES")


def test_classify_flavor_subset(toydocs, capsys):
    assert main(["classify", toydocs["differential"],
                 "--bounds", toydocs["bounds"],
                 "--flavors", "CH,rSFT"]) == 0
    out = capsys.readouterr().out
    assert "CH" in out and "rSFT" in out and "SFT*" not in out


def test_enumerate_lists_profiles(toydocs, capsys):
    assert main(["enumerate", toydocs["signature"], "--orbit", "a",
                 "--role", "+", "--dimension", "0",
                 "--max-punctures", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].endswith("profiles")


def test_corpus_seed_reproducible(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    d1.mkdir(), d2.mkdir()
    for d in (d1, d2):
        assert main(["corpus", "layered", "--seed", "5",
                     "--dir", str(d)]) == 0
    f1 = (d1 / "layered-5-differential.json").read_bytes()
    f2 = (d2 / "layered-5-differential.json").read_bytes()
    assert f1 == f2
    d3 = tmp_path / "three"
    d3.mkdir()
    assert main(["corpus", "layered", "--seed", "6", "--dir", str(d3)]) == 0
    assert (d3 / "layered-6-differential.json").read_bytes() != f1


def test_corpus_raw_counts_flag(tmp_path):
    assert main(["corpus", "toy-overtwisted", "--dir", str(tmp_path),
                 "--raw-counts"]) == 0
    doc = sio.load_document(str(tmp_path / "toy-overtwisted-differential.json"))
    assert doc["coefficients"] == "raw-counts"
    again = sio.differential_from_data(doc)
    assert again.images == toy_overtwisted().master.images


def test_corpus_creates_missing_directory(tmp_path):
    nested = tmp_path / "a" / "b"
    assert main(["corpus", "toy-overtwisted", "--dir", str(nested)]) == 0
    assert (nested / "toy-overtwisted-differential.json").exists()


def test_usage_errors_exit_2(toydocs, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["validate", toydocs["differential"], "--no-such-flag"])
    assert exc.value.code == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["validate", str(garbled)]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["validate", missing]) == 2
    assert main(["validate", toydocs["differential"],
                 "--flavor", "bogus"]) == 2
    # writing a report into a directory that does not exist
    assert main(["validate", toydocs["differential"], "--report",
                 str(tmp_path / "no" / "dir" / "rep.json")]) == 2
    # flavor mismatch: lifting from a certificate of the wrong signature
    other = AlgebraSignature(n=3, orbits=(OrbitRecord("z", cz=1),))
    elem = Element.term(other, Flavor.CH, q={"z": 1})
    path = str(tmp_path / "elem.json")
    sio.save_document(path, sio.element_to_data(elem))
    assert main(["lift", toydocs["rSFT"], path]) == 2


def test_negative_search_bounds_exit_2_naming_the_bound(toydocs, tmp_path,
                                                        capsys):
    assert main(["find-primitive", toydocs["differential"],
                 "--max-hbar", "-1"]) == 2
    assert "max_hbar must be nonnegative" in capsys.readouterr().err
    doc = sio.load_document(toydocs["bounds"])
    doc["max_action"] = "-1"
    path = str(tmp_path / "negative-bounds.json")
    sio.save_document(path, doc)
    assert main(["find-primitive", toydocs["differential"],
                 "--bounds", path]) == 2
    assert "max_action must be nonnegative" in capsys.readouterr().err
