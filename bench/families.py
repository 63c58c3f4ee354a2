"""Input families of the three benchmark workloads and the per-job gate.

A *family* is one differential the benchmark classifies, named by a key:

    toy-overtwisted        the corpus toy, unit exact in every flavor
    layered-<s>            random_layered_spec(s, pairs=2, with_unit=True)
    layered-nounit-<s>     random_layered_spec(s, pairs=3, with_unit=False)
    contract<k>-<s>        contract_family(s, k): n = 3, k orbits of even CZ

A *job* parses the family's canonical JSON with ``io.differential_from_data``,
runs ``vanishing.classify``, serializes the report with
``io.classify_report_to_data`` and ``io.canonical_bytes``, and checks the
verdicts, the certificates and the report digest against the catalog.

Functions that call the package take the imported ``sftdga`` package as
their first argument, so that set-up can time a fresh import and the traced
run sees the wrappers installed on the package's modules.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

WEIGHT = 4  # truncation weight of the lift ladders
FLAVORS = ("CH", "CH*", "rSFT", "rSFT*", "SFT", "SFT*")

WORKLOADS = ("ladder", "ladder-contract", "search-miss")


@dataclass
class Family:
    key: str
    spec_bytes: bytes       # canonical JSON of the SFT* differential
    bounds: object          # SearchBounds
    policy: object          # TruncationPolicy handed to classify
    expected: str           # status every flavor must report
    weight: int | None      # verified_to_weight of every lifted certificate
    setup_problem: str = ""  # non-empty when the family failed its own check


def weight_policy(sd, weight=WEIGHT):
    return sd.TruncationPolicy(max_p_weight=weight, max_hbar_weight=weight,
                               max_t_weight=weight, max_word_length=40)


def contract_family(sd, seed: int, orbits: int):
    """H = U * p_w at n = 3 with U = 1 + sum_x c_x q_x p_x + c_h hbar.

    Every orbit x has even CZ, so q_x p_x and hbar sit in degree 0 and the
    series lifts multiply long runs of p_x against q_x: the Weyl product
    contracts on a large share of its term pairs.  CZ(w) = 1 makes q_w a
    degree-1 primitive of kappa_w U in CH.
    """
    rng = random.Random(seed)
    recs = [sd.OrbitRecord("w", cz=1, kappa=rng.randint(1, 2))]
    for i in range(orbits):
        recs.append(sd.OrbitRecord("x%d" % i, cz=rng.choice([-2, 0, 2, 4]),
                                   kappa=rng.randint(1, 3)))
    periods = {o.id: Fraction(rng.randint(1, 6), rng.choice([1, 2, 3]))
               for o in recs[1:]}
    periods["w"] = sum(periods.values(), Fraction(1))
    recs = [sd.OrbitRecord(o.id, o.cz, o.kappa, periods[o.id]) for o in recs]
    sig = sd.AlgebraSignature(n=3, orbits=tuple(recs))
    F = sd.Flavor.SFT_STAR
    coeffs = [1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)]
    U = sd.Element.unit(sig, F)
    for o in recs[1:]:
        U = U + sd.normalize(sig, F, [("q", o.id), ("p", o.id)],
                             coeff=rng.choice(coeffs))
    U = U + sd.normalize(sig, F, ["hbar"], coeff=rng.choice(coeffs))
    H = U * sd.normalize(sig, F, [("p", "w")])
    return sd.spec_from_hamiltonian(H, weight_policy(sd))


def build_family(sd, key: str) -> Family:
    """Generate one family and serialize it to canonical JSON."""
    io = sd.io
    problem = ""
    if key == "toy-overtwisted" or key.startswith("layered-"):
        if key == "toy-overtwisted":
            entry = sd.toy_overtwisted()
        elif key.startswith("layered-nounit-"):
            entry = sd.random_layered_spec(int(key.rsplit("-", 1)[1]),
                                           pairs=3, with_unit=False)
        else:
            entry = sd.random_layered_spec(int(key.rsplit("-", 1)[1]),
                                           pairs=2, with_unit=True)
        spec = entry.master
        expected = {entry.expected[sd.Flavor(f)] for f in FLAVORS}
        (status,) = expected
        if status == "unit-exact":
            bounds, policy, weight = entry.bounds, weight_policy(sd), WEIGHT
        else:
            bounds = sd.SearchBounds(max_word_length=4, max_hbar=2)
            policy, weight = entry.policy, None
    elif key.startswith("contract"):
        head, seed = key.split("-")
        spec = contract_family(sd, int(seed), int(head[len("contract"):]))
        # the corpus does not carry this family, so check it here
        if not sd.full_check(spec).ok:
            problem = "full_check failed on the generated spec"
        status = "unit-exact"
        bounds = sd.SearchBounds(max_word_length=3, max_hbar=1)
        policy, weight = weight_policy(sd), WEIGHT
    else:
        raise KeyError("unknown family %r" % key)
    data = io.differential_to_data(spec)
    return Family(key, io.canonical_bytes(data), bounds, policy, status,
                  weight, problem)


def run_job(sd, fam: Family):
    """Classify one family the way ``sftdga classify --report`` does.

    Returns (report bytes, list of gate failures)."""
    io = sd.io
    spec = io.differential_from_data(json.loads(fam.spec_bytes))
    report = sd.vanishing.classify(spec, fam.bounds, fam.policy)
    out = io.canonical_bytes(io.classify_report_to_data(report, spec.sig))
    return out, gate(report, fam)


def gate(report, fam: Family):
    """Verdict and certificate checks; the digest is checked by the caller."""
    problems = [fam.setup_problem] if fam.setup_problem else []
    seen = sorted(e.flavor.value for e in report.entries)
    if seen != sorted(FLAVORS):
        problems.append("flavors %s" % seen)
    for e in report.entries:
        f = e.flavor.value
        if e.status != fam.expected:
            problems.append("%s status %s" % (f, e.status))
        cert = e.certificate
        if fam.expected != "unit-exact":
            if cert is not None:
                problems.append("%s has a certificate" % f)
            continue
        if cert is None or not cert.verified:
            problems.append("%s certificate missing or unverified" % f)
            continue
        # CH carries no series variable, so its certificate is exact
        want = None if f == "CH" else fam.weight
        if cert.verified_to_weight != want:
            problems.append("%s verified_to_weight %r, expected %r"
                            % (f, cert.verified_to_weight, want))
    return problems


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
