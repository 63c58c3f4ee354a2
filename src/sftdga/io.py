"""Versioned JSON formats for signatures, differentials, elements, bounds,
policies, certificates, and reports.

Every document is self-describing: a ``format`` tag, a ``version`` number,
and explicit fields.  Parsing is strict (unknown keys are rejected, versions
must match) and emission is canonical (sorted keys, two-space indent, one
trailing newline), so equal objects produce byte-identical files and stable
digests.

Rationals travel as "num/den" strings (plain integers also parse).  Curve
counts may be given raw: with ``"coefficients": "raw-counts"`` (or a
per-term ``"rawCount": true`` override) the ``coeff`` field holds the bare
count, and ingestion divides by the combinatorial factors C(I-) C(I+) of the
term's puncture profile, with an extra sign (-1)^{|p_g|+1} on p-generator
images.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .algebra import Element, Flavor, Monomial, TruncationPolicy
from .differential import CheckReport, DifferentialSpec
from .errors import ParseError
from .indexcalc import combinatorial_factor
from .signature import AlgebraSignature, OrbitRecord, TFormRecord
from .vanishing import ClassifyReport, PrimitiveCertificate, SearchBounds

FORMAT_VERSION = 1


# ---------------------------------------------------------------- primitives

def canonical_bytes(data) -> bytes:
    return (json.dumps(data, sort_keys=True, indent=2) + "\n").encode("utf-8")


def digest(data) -> str:
    return hashlib.sha256(canonical_bytes(data)).hexdigest()


def _frac_out(x: Fraction):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def _frac_in(raw, where):
    if isinstance(raw, bool):
        raise ParseError("%s: expected a rational, got a boolean" % where)
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ParseError("%s: cannot parse rational %r" % (where, raw)) from None
    raise ParseError("%s: expected int or 'num/den' string, got %r" % (where, raw))


def _check_keys(data, where, required, optional=()):
    if not isinstance(data, dict):
        raise ParseError("%s: expected an object" % where)
    missing = set(required) - set(data)
    if missing:
        raise ParseError("%s: missing keys %s" % (where, sorted(missing)))
    unknown = set(data) - set(required) - set(optional)
    if unknown:
        raise ParseError("%s: unknown keys %s" % (where, sorted(unknown)))


def _check_header(data, fmt, where):
    if not isinstance(data, dict):
        raise ParseError("%s: expected an object" % where)
    if data.get("format") != fmt:
        raise ParseError(
            "%s: format tag is %r, expected %r" % (where, data.get("format"), fmt))
    if data.get("version") != FORMAT_VERSION:
        raise ParseError(
            "%s: unsupported version %r (this build reads %d)"
            % (where, data.get("version"), FORMAT_VERSION))


def _int_in(raw, where, minimum=None):
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ParseError("%s: expected an integer, got %r" % (where, raw))
    if minimum is not None and raw < minimum:
        raise ParseError("%s: %d is below the minimum %d" % (where, raw, minimum))
    return raw


# ----------------------------------------------------------------- signature

def signature_to_data(sig: AlgebraSignature) -> dict:
    return {
        "format": "sftdga-signature",
        "version": FORMAT_VERSION,
        "n": sig.n,
        "h2rank": sig.h2rank,
        "c1": list(sig.c1),
        "orbits": [
            {"id": o.id, "cz": o.cz, "kappa": o.kappa,
             "period": None if o.period is None else _frac_out(o.period)}
            for o in sig.orbits
        ],
        "tforms": [
            {"id": f.id, "form_degree": f.form_degree} for f in sig.tforms
        ],
    }


def signature_from_data(data) -> AlgebraSignature:
    where = "signature"
    _check_header(data, "sftdga-signature", where)
    _check_keys(data, where,
                ["format", "version", "n", "orbits"],
                ["h2rank", "c1", "tforms"])
    orbits = []
    for i, od in enumerate(data["orbits"]):
        w = "orbit #%d" % i
        _check_keys(od, w, ["id", "cz"], ["kappa", "period"])
        period = od.get("period")
        orbits.append(OrbitRecord(
            id=str(od["id"]),
            cz=_int_in(od["cz"], w + " cz"),
            kappa=_int_in(od.get("kappa", 1), w + " kappa", minimum=1),
            period=None if period is None else _frac_in(period, w + " period"),
        ))
    tforms = []
    for i, fd in enumerate(data.get("tforms", [])):
        w = "tform #%d" % i
        _check_keys(fd, w, ["id", "form_degree"])
        tforms.append(TFormRecord(str(fd["id"]), _int_in(fd["form_degree"], w)))
    return AlgebraSignature(
        n=_int_in(data["n"], "n", minimum=1),
        h2rank=_int_in(data.get("h2rank", 0), "h2rank", minimum=0),
        c1=tuple(_int_in(c, "c1 entry") for c in data.get("c1", [])),
        orbits=tuple(orbits),
        tforms=tuple(tforms),
    )


# ------------------------------------------------------------------ elements

def _term_to_data(mono: Monomial, coeff: Fraction) -> dict:
    return {
        "coeff": _frac_out(coeff),
        "q": {v: e for v, e in mono.q},
        "p": {v: e for v, e in mono.p},
        "t": {v: e for v, e in mono.t},
        "hbar": mono.hbar,
        "group": list(mono.group),
    }


def _term_monomial_in(sig, flavor, td, where):
    exps = {}
    for kind in ("q", "p", "t"):
        block = td.get(kind, {})
        if not isinstance(block, dict):
            raise ParseError("%s: %r exponents must be an object" % (where, kind))
        exps[kind] = {str(v): _int_in(e, "%s %s_%s" % (where, kind, v), minimum=0)
                      for v, e in block.items()}
    hbar = _int_in(td.get("hbar", 0), where + " hbar", minimum=0)
    group = td.get("group")
    if group is not None:
        if not isinstance(group, list):
            raise ParseError("%s: group must be a list" % where)
        group = tuple(_int_in(g, where + " group entry") for g in group)
    elem = Element.term(sig, flavor, q=exps["q"], p=exps["p"], t=exps["t"],
                        hbar=hbar, group=group)
    if elem.is_zero:
        raise ParseError("%s: monomial is identically zero (odd square)" % where)
    (mono,) = elem.terms
    return mono


def element_terms_to_data(elem: Element) -> list:
    return [_term_to_data(m, c) for m, c in elem.items()]


def element_terms_from_data(sig, flavor, data, where="terms"):
    if not isinstance(data, list):
        raise ParseError("%s: expected a list of terms" % where)
    terms = {}
    for i, td in enumerate(data):
        w = "%s[%d]" % (where, i)
        _check_keys(td, w, ["coeff"], ["q", "p", "t", "hbar", "group"])
        mono = _term_monomial_in(sig, flavor, td, w)
        coeff = _frac_in(td["coeff"], w + " coeff")
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Element(sig, flavor, terms)


def element_to_data(elem: Element) -> dict:
    return {
        "format": "sftdga-element",
        "version": FORMAT_VERSION,
        "signature": signature_to_data(elem.sig),
        "flavor": elem.flavor.value,
        "terms": element_terms_to_data(elem),
    }


def element_from_data(data, sig: AlgebraSignature | None = None) -> Element:
    where = "element"
    _check_header(data, "sftdga-element", where)
    _check_keys(data, where, ["format", "version", "flavor", "terms"], ["signature"])
    if sig is None:
        if "signature" not in data:
            raise ParseError("element: no signature embedded and none supplied")
        sig = signature_from_data(data["signature"])
    elif "signature" in data:
        embedded = signature_from_data(data["signature"])
        if embedded != sig:
            raise ParseError("element: embedded signature disagrees with context")
    flavor = _flavor_in(data["flavor"], where)
    return element_terms_from_data(sig, flavor, data["terms"])


def _flavor_in(raw, where) -> Flavor:
    try:
        return Flavor(raw)
    except ValueError:
        raise ParseError(
            "%s: unknown flavor %r (expected one of %s)"
            % (where, raw, ", ".join(f.value for f in Flavor))) from None


# -------------------------------------------------------------- differential

def _raw_count_factor(sig, key, mono: Monomial) -> Fraction:
    """coeff = sign * count / (C(I-) C(I+)); this returns coeff/count."""
    c_minus = combinatorial_factor(dict(mono.q), sig)
    c_plus = combinatorial_factor(dict(mono.p), sig)
    sign = 1
    if key[0] == "p":
        sign = -1 if (sig.p_degree(key[1]) + 1) % 2 else 1
    return Fraction(sign, c_minus * c_plus)


def differential_to_data(dspec: DifferentialSpec, raw_counts: bool = False) -> dict:
    images = {}
    for (kind, vid), img in dspec.images.items():
        key = "%s:%s" % (kind, vid)
        terms = []
        for mono, coeff in img.items():
            td = _term_to_data(mono, coeff)
            if raw_counts:
                # genuine curve counts are integers, but the format keeps
                # exact rationals so any spec round-trips losslessly
                factor = _raw_count_factor(dspec.sig, (kind, vid), mono)
                td["coeff"] = _frac_out(coeff / factor)
            terms.append(td)
        images[key] = terms
    return {
        "format": "sftdga-differential",
        "version": FORMAT_VERSION,
        "signature": signature_to_data(dspec.sig),
        "flavor": dspec.flavor.value,
        "coefficients": "raw-counts" if raw_counts else "rational",
        "images": images,
        "policy": None if dspec.policy is None else policy_to_data(dspec.policy),
    }


def differential_from_data(data) -> DifferentialSpec:
    where = "differential"
    _check_header(data, "sftdga-differential", where)
    _check_keys(data, where,
                ["format", "version", "signature", "flavor", "images"],
                ["coefficients", "policy"])
    sig = signature_from_data(data["signature"])
    flavor = _flavor_in(data["flavor"], where)
    mode = data.get("coefficients", "rational")
    if mode not in ("rational", "raw-counts"):
        raise ParseError("differential: unknown coefficient mode %r" % (mode,))
    if not isinstance(data["images"], dict):
        raise ParseError("differential: images must be an object")
    images = {}
    for rawkey, termlist in data["images"].items():
        parts = str(rawkey).split(":", 1)
        if len(parts) != 2 or parts[0] not in ("q", "p"):
            raise ParseError(
                "differential: image key %r is not 'q:<orbit>' or 'p:<orbit>'"
                % (rawkey,))
        key = (parts[0], parts[1])
        if not isinstance(termlist, list):
            raise ParseError("differential: image %r must be a list" % (rawkey,))
        terms = {}
        for i, td in enumerate(termlist):
            w = "image %s term %d" % (rawkey, i)
            _check_keys(td, w, ["coeff"],
                        ["q", "p", "t", "hbar", "group", "rawCount"])
            raw = td.get("rawCount", mode == "raw-counts")
            if not isinstance(raw, bool):
                raise ParseError("%s: rawCount must be a boolean" % w)
            mono = _term_monomial_in(sig, flavor, td, w)
            coeff = _frac_in(td["coeff"], w + " coeff")
            if raw:
                # stored value is the bare curve count; restore the divisor
                # C(I-) C(I+) and the p-image sign convention
                coeff = coeff * _raw_count_factor(sig, key, mono)
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        images[key] = Element(sig, flavor, terms)
    policy = None
    if data.get("policy") is not None:
        policy = policy_from_data(data["policy"])
    return DifferentialSpec(sig, flavor, images, policy)


# ----------------------------------------------------------- bounds / policy

def bounds_to_data(bounds: SearchBounds) -> dict:
    return {
        "format": "sftdga-bounds",
        "version": FORMAT_VERSION,
        "max_word_length": bounds.max_word_length,
        "max_hbar": bounds.max_hbar,
        "max_action": None if bounds.max_action is None else _frac_out(bounds.max_action),
        "groups": None if bounds.groups is None else [list(g) for g in bounds.groups],
        "orbits": None if bounds.orbits is None else list(bounds.orbits),
    }


def bounds_from_data(data) -> SearchBounds:
    where = "bounds"
    _check_header(data, "sftdga-bounds", where)
    _check_keys(data, where, ["format", "version", "max_word_length"],
                ["max_hbar", "max_action", "groups", "orbits"])
    groups = data.get("groups")
    if groups is not None:
        groups = tuple(tuple(_int_in(x, "bounds group entry") for x in g)
                       for g in groups)
    orbits = data.get("orbits")
    if orbits is not None:
        orbits = tuple(str(x) for x in orbits)
    max_hbar = data.get("max_hbar")
    return SearchBounds(
        max_word_length=_int_in(data["max_word_length"], where, minimum=0),
        max_hbar=None if max_hbar is None else _int_in(max_hbar, where, minimum=0),
        max_action=None if data.get("max_action") is None
        else _frac_in(data["max_action"], where + " max_action"),
        groups=groups,
        orbits=orbits,
    )


def policy_to_data(policy: TruncationPolicy) -> dict:
    return {
        "format": "sftdga-policy",
        "version": FORMAT_VERSION,
        "max_p_weight": policy.max_p_weight,
        "max_hbar_weight": policy.max_hbar_weight,
        "max_t_weight": policy.max_t_weight,
        "max_word_length": policy.max_word_length,
        "max_action": None if policy.max_action is None else _frac_out(policy.max_action),
    }


def policy_from_data(data) -> TruncationPolicy:
    where = "policy"
    _check_header(data, "sftdga-policy", where)
    _check_keys(data, where,
                ["format", "version", "max_p_weight", "max_hbar_weight",
                 "max_t_weight", "max_word_length"],
                ["max_action"])
    return TruncationPolicy(
        max_p_weight=_int_in(data["max_p_weight"], where, minimum=0),
        max_hbar_weight=_int_in(data["max_hbar_weight"], where, minimum=0),
        max_t_weight=_int_in(data["max_t_weight"], where, minimum=0),
        max_word_length=_int_in(data["max_word_length"], where, minimum=0),
        max_action=None if data.get("max_action") is None
        else _frac_in(data["max_action"], where + " max_action"),
    )


# -------------------------------------------------------------- certificates

def certificate_to_data(cert: PrimitiveCertificate, sig: AlgebraSignature) -> dict:
    return {
        "format": "sftdga-certificate",
        "version": FORMAT_VERSION,
        "signature": signature_to_data(sig),
        "flavor": cert.flavor.value,
        "method": cert.method,
        "verified": cert.verified,
        "verified_to_weight": cert.verified_to_weight,
        "policy": None if cert.policy is None else policy_to_data(cert.policy),
        "detail": cert.detail,
        "primitive": element_terms_to_data(cert.primitive),
    }


def certificate_from_data(data, sig: AlgebraSignature | None = None) -> PrimitiveCertificate:
    where = "certificate"
    _check_header(data, "sftdga-certificate", where)
    _check_keys(data, where,
                ["format", "version", "signature", "flavor", "method",
                 "verified", "primitive"],
                ["verified_to_weight", "policy", "detail"])
    embedded = signature_from_data(data["signature"])
    if sig is not None and embedded != sig:
        raise ParseError("certificate: embedded signature disagrees with context")
    sig = embedded
    flavor = _flavor_in(data["flavor"], where)
    policy = None
    if data.get("policy") is not None:
        policy = policy_from_data(data["policy"])
    vw = data.get("verified_to_weight")
    primitive = element_terms_from_data(sig, flavor, data["primitive"], "primitive")
    if policy is not None:
        primitive = primitive.with_policy(policy)
    return PrimitiveCertificate(
        flavor=flavor,
        primitive=primitive,
        method=str(data["method"]),
        verified=bool(data["verified"]),
        verified_to_weight=None if vw is None else _int_in(vw, where),
        policy=policy,
        detail=str(data.get("detail", "")),
    )


# ------------------------------------------------------------------- reports

def check_report_to_data(report: CheckReport) -> dict:
    return {
        "format": "sftdga-check-report",
        "version": FORMAT_VERSION,
        "ok": report.ok,
        "items": [
            {"name": it.name, "passed": it.passed, "detail": it.detail}
            for it in report.items
        ],
    }


def classify_report_to_data(report: ClassifyReport, sig: AlgebraSignature) -> dict:
    entries = []
    for e in report.entries:
        entries.append({
            "flavor": e.flavor.value,
            "status": e.status,
            "detail": e.detail,
            "certificate": None if e.certificate is None
            else certificate_to_data(e.certificate, sig),
        })
    return {
        "format": "sftdga-classify-report",
        "version": FORMAT_VERSION,
        "signature": signature_to_data(sig),
        "verdict": report.verdict,
        "entries": entries,
        "bounds": bounds_to_data(report.bounds),
        "policy": None if report.policy is None else policy_to_data(report.policy),
        "caveat": report.caveat,
        "conventions": report.conventions,
        "validation": {
            f.value: check_report_to_data(rep)
            for f, rep in report.validation.items()
        },
    }


# ----------------------------------------------------------------- file glue

def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError("cannot read %s: %s" % (path, e)) from None
    except json.JSONDecodeError as e:
        raise ParseError("%s is not valid JSON: %s" % (path, e)) from None


def save_document(path, data):
    with open(path, "wb") as fh:
        fh.write(canonical_bytes(data))
