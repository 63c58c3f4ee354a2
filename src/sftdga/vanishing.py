"""Exactness of the unit, and the constructive maps between flavors.

The central question is whether 1 = d(f) has a solution f.  Three mechanisms
produce certified answers:

* direct search: enumerate every degree-1 monomial inside explicit bounds,
  apply d exactly to each, and solve the resulting rational linear system for
  the coefficient vector hitting 1.  A hit is an exact certificate; a miss
  only rules out primitives supported inside the bounds (semidecision).

* projection: a chain map onto a smaller flavor carries d(f) = 1 to
  d(Pi f) = 1, so certificates push down for free.

* lifting: if f0 is a primitive in a subflavor then u = d(f0), computed in
  the bigger flavor, differs from 1 by terms of filtration weight >= 1, so
  u is invertible as a truncated series and f = f0 * u^{-1} satisfies
  d(f) = u * u^{-1} = 1 (u is closed because d^2 = 0, hence so is u^{-1}).
  Series certificates hold up to the truncation weight and say so.

``classify`` runs the whole pipeline over a family of flavors sharing one
signature, searching the smallest flavor first: any primitive anywhere
projects to one there, so nothing is lost, and everything else is reached by
lifting one variable class at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Element,
    Flavor,
    Monomial,
    TruncationPolicy,
    as_fraction,
    filtration_weight,
)
from .differential import (
    DifferentialSpec,
    apply_d,
    check_d_squared,
    embed,
    project,
    restrict_spec,
    validate_structure,
    verify_chain_map,
)
from .errors import BoundsError, FlavorError, LiftError, SeriesWeightError
from .linsolve import solve_exact
from .signature import AlgebraSignature, generator_degree

SEMIDECISION_CAVEAT = (
    "absence of a primitive inside the stated bounds does not certify that "
    "the unit fails to be exact; enlarging the bounds may change the verdict"
)

# the two notes of a search miss that rules out every primitive in the window
NO_CANDIDATES_NOTE = ("no degree-1 monomials inside the bounds "
                      "(parity or bound obstruction)")
NO_SOLUTION_NOTE = "linear system has no solution over the candidate basis"

CONVENTIONS = {
    "q-degree": "CZ + n - 3",
    "p-degree": "-CZ + n - 3",
    "t-degree": "cycle degree - 2",
    "hbar-degree": "2(n - 3)",
    "group-degree": "-2<c1, A>",
    "differential": "degree -1, extended by the graded left Leibniz rule",
    "weyl-rule": "p_g q_g = (-1)^{|q||p|} (q_g p_g - kappa_g hbar)",
    "filtration": "rSFT: p letters; SFT: p letters + hbar power; starred: t letters",
}


def policy_weight_bound(flavor, policy: TruncationPolicy | None):
    """Largest filtration weight the policy keeps in full, or None (exact)."""
    if policy is None:
        return None
    flavor = Flavor(flavor)
    if flavor is Flavor.RSFT:
        return policy.max_p_weight
    if flavor is Flavor.SFT:
        return min(policy.max_p_weight, policy.max_hbar_weight)
    if flavor.starred:
        return policy.max_t_weight
    return None  # CH has no series variable


@dataclass(frozen=True)
class SearchBounds:
    """Finite window for the direct primitive search.

    max_word_length  longest candidate monomial, counted in q/p/t letters
    max_hbar         cap on the hbar power of candidates; optional unless
                     n = 3, where hbar sits in degree 0 and nothing else
                     caps its exponent
    max_action       optional total-period cap (needs all orbit periods)
    groups           group-ring exponents to range over (default: 0 only)
    orbits           optional restriction of q/p letters to these orbit ids
    """

    max_word_length: int = 4
    max_hbar: int | None = None
    max_action: Fraction | None = None
    groups: tuple | None = None
    orbits: tuple | None = None

    def __post_init__(self):
        if self.max_word_length < 0:
            raise BoundsError("max_word_length must be nonnegative")
        if self.max_action is not None:
            object.__setattr__(self, "max_action", as_fraction(self.max_action))

    def group_list(self, sig: AlgebraSignature):
        if self.groups is None:
            return [sig.zero_group()]
        return [sig.check_group(g) for g in self.groups]


@dataclass
class PrimitiveCertificate:
    """A checked solution of d(f) = 1 in one flavor.

    ``verified_to_weight`` is None when the identity was checked exactly
    (polynomial f, no truncation) and otherwise gives the filtration weight up
    to which it holds; ``policy`` records every bound that was in force.
    """

    flavor: Flavor
    primitive: Element
    method: str
    verified: bool
    verified_to_weight: int | None = None
    policy: TruncationPolicy | None = None
    detail: str = ""


@dataclass
class SearchResult:
    certificate: PrimitiveCertificate | None
    candidates: int
    constraints: int
    note: str = ""


def _candidate_words(sig, flavor, bounds: SearchBounds):
    """The degree-1 words inside the bounds, one ``(combo, group, hbar)`` per
    candidate monomial: ``combo`` lists the q/p/t letters in normal order,
    with repeats.  ``_candidate_monomials`` builds the monomials and
    ``_miss_by_projection`` only counts them; both run the enumeration to
    its end, so both raise the same BoundsError."""
    flavor = Flavor(flavor)
    orbit_ids = [o.id for o in sig.orbits]
    if bounds.orbits is not None:
        allowed = set(bounds.orbits)
        unknown = allowed - set(orbit_ids)
        if unknown:
            raise BoundsError("unknown orbits in search bounds: %s" % sorted(unknown))
        orbit_ids = [i for i in orbit_ids if i in allowed]
    letters = [("q", i) for i in orbit_ids]
    if flavor.allows_p:
        letters += [("p", i) for i in orbit_ids]
    if flavor.allows_t:
        letters += [("t", f.id) for f in sig.tforms]
    degree = {let: generator_degree(let, sig) for let in letters}

    def letter_action(let):
        kind, vid = let
        if kind == "t":
            return Fraction(0)
        period = sig.orbit(vid).period
        if period is None:
            raise BoundsError("max_action set but orbit %r has no period" % vid)
        return period

    hd = sig.hbar_degree()
    if flavor.allows_hbar and hd == 0 and bounds.max_hbar is None:
        raise BoundsError(
            "hbar has degree 0 here (n = 3); the search needs an explicit max_hbar"
        )

    groups = [(g, sig.group_degree(g)) for g in bounds.group_list(sig)]
    # combinations repeat a letter only in adjacent slots
    odd_squares = {(let, let) for let in letters if degree[let] & 1}
    allows_hbar = flavor.allows_hbar
    for length in range(bounds.max_word_length + 1):
        for combo in itertools.combinations_with_replacement(letters, length):
            if not odd_squares.isdisjoint(zip(combo, combo[1:])):
                continue  # odd square, identically zero
            if bounds.max_action is not None:
                total = sum((letter_action(l) for l in combo), Fraction(0))
                if total > bounds.max_action:
                    continue
            wdeg = sum(map(degree.__getitem__, combo))
            for group, gdeg in groups:
                base = wdeg + gdeg
                if allows_hbar:
                    if hd == 0:
                        hbars = range(bounds.max_hbar + 1) if base == 1 else ()
                    else:
                        num = 1 - base
                        k, rem = divmod(num, hd)
                        good = rem == 0 and k >= 0 and (
                            bounds.max_hbar is None or k <= bounds.max_hbar)
                        hbars = (k,) if good else ()
                else:
                    hbars = (0,) if base == 1 else ()
                for k in hbars:
                    yield combo, group, k


def _candidate_monomials(sig, flavor, bounds: SearchBounds):
    """Degree-1 monomials inside the bounds, in deterministic order."""
    monos = []
    for combo, group, k in _candidate_words(sig, flavor, bounds):
        exps = {"q": {}, "p": {}, "t": {}}
        for kind, vid in combo:
            exps[kind][vid] = exps[kind].get(vid, 0) + 1
        elem = Element.term(sig, flavor, q=exps["q"], p=exps["p"],
                            t=exps["t"], hbar=k, group=group)
        (mono, coeff), = elem.terms.items()
        assert coeff == 1 and mono.degree(sig) == 1
        monos.append(mono)
    monos.sort(key=lambda m: m.sort_key(sig))
    return monos


def search_unit_primitive(dspec: DifferentialSpec, bounds: SearchBounds) -> SearchResult:
    """Exhaustive primitive search over the bounded degree-1 monomial basis.

    Differentials of the candidates are computed exactly (no truncation), so a
    returned certificate is an exact identity d(f) = 1; the search decides
    precisely the question "is some rational combination of the candidate
    monomials a primitive of the unit".
    """
    sig, flavor = dspec.sig, dspec.flavor
    exact = dspec.with_policy(None)
    candidates = _candidate_monomials(sig, flavor, bounds)
    if not candidates:
        return SearchResult(None, 0, 0, NO_CANDIDATES_NOTE)
    unit_mono = Monomial(group=sig.zero_group())
    row_index = {unit_mono: 0}
    columns = []
    for mono in candidates:
        elem = Element(sig, flavor, {mono: Fraction(1)})
        image = apply_d(exact, elem)
        col = {}
        for m2, c2 in image.terms.items():
            if m2 not in row_index:
                row_index[m2] = len(row_index)
            col[row_index[m2]] = c2
        columns.append(col)
    nrows = len(row_index)
    rows = [dict() for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows[i][j] = c
    rhs = [Fraction(0)] * nrows
    rhs[0] = Fraction(1)
    x = solve_exact(rows, len(candidates), rhs)
    if x is None:
        return SearchResult(None, len(candidates), nrows, NO_SOLUTION_NOTE)
    f = Element(sig, flavor,
                {m: c for m, c in zip(candidates, x) if c != 0})
    verified = apply_d(exact, f) == Element.unit(sig, flavor)
    cert = PrimitiveCertificate(
        flavor=flavor, primitive=f, method="direct-search", verified=verified,
        verified_to_weight=None, policy=None,
        detail="%d candidates, %d constraints" % (len(candidates), nrows))
    if not verified:
        # would indicate a solver bug; never trust an unchecked solution
        return SearchResult(None, len(candidates), nrows,
                            "solver output failed re-verification")
    return SearchResult(cert, len(candidates), nrows)


def find_unit_primitive(dspec: DifferentialSpec, bounds: SearchBounds):
    """Certificate that the unit is exact, or None if no primitive is
    supported on the bounded candidate basis (see SEMIDECISION_CAVEAT)."""
    return search_unit_primitive(dspec, bounds).certificate


def formal_inverse(g: Element, order: int | None = None) -> Element:
    """(1 - g)^{-1} = sum g^k, truncated by g's policy or an explicit order.

    Every term of g must have positive filtration weight, which makes the
    series finite under truncation: g^k sits in weight >= k.
    """
    for m in g.terms:
        if filtration_weight(m, g.flavor) < 1:
            raise SeriesWeightError(
                "series term %s has filtration weight 0 in flavor %s"
                % (m, g.flavor.value))
    if order is None:
        bound = policy_weight_bound(g.flavor, g.policy)
        if bound is None:
            raise SeriesWeightError(
                "formal inverse needs a truncation policy or an explicit order")
        order = bound
    acc = Element.unit(g.sig, g.flavor, policy=g.policy)
    power = acc
    for _ in range(order):
        power = power * g
        if power.is_zero:
            break
        acc = acc + power
    return acc


def lift_primitive(target_spec: DifferentialSpec, primitive: Element,
                   policy: TruncationPolicy | None = None) -> PrimitiveCertificate:
    """Lift a primitive of the unit into a larger flavor.

    With f0 the embedded primitive and u = d(f0) in the target, 1 - u consists
    of terms carrying the new variable class, so u has a truncated series
    inverse and f = f0 * u^{-1} is a primitive there.  The result is
    re-verified by applying the target differential; the certificate records
    the truncation weight the identity was checked to.

    Verification truncates the residual d(f) - 1 to the certified filtration
    weight: terms the policy keeps but whose weight already exceeds the bound
    (mixed p/hbar junk in SFT, say) are beyond what the series order ever
    claimed, so they must not count as failures.
    """
    target = target_spec.flavor
    policy = policy if policy is not None else target_spec.policy
    if policy is None:
        raise BoundsError("lifting needs a truncation policy on the target")
    f0 = embed(primitive, target).with_policy(policy)
    spec = target_spec.with_policy(policy)
    u = apply_d(spec, f0)
    g = Element.unit(target_spec.sig, target, policy=policy) - u
    try:
        inv = formal_inverse(g)
    except SeriesWeightError as e:
        raise LiftError(
            "input is not a primitive of the unit in the subflavor "
            "(or the lift skips a variable class): %s" % e) from None
    f = f0 * inv
    residual = apply_d(spec, f) - Element.unit(target_spec.sig, target)
    bound = policy_weight_bound(target, policy)
    if bound is None:
        verified = residual.is_zero
    else:
        verified = all(filtration_weight(m, target) > bound
                       for m, _ in residual.items())
    return PrimitiveCertificate(
        flavor=target, primitive=f,
        method="lift:%s->%s" % (primitive.flavor.value, target.value),
        verified=verified,
        verified_to_weight=policy_weight_bound(target, policy),
        policy=policy,
        detail="series inverse over %d-term correction" % len(g.terms))


def project_primitive(target_spec: DifferentialSpec,
                      primitive: Element) -> PrimitiveCertificate:
    """Push a primitive down along the quotient map and re-verify there."""
    target = target_spec.flavor
    f = project(primitive, target)
    image = apply_d(target_spec, f)
    verified = image == Element.unit(target_spec.sig, target)
    return PrimitiveCertificate(
        flavor=target, primitive=f,
        method="project:%s->%s" % (primitive.flavor.value, target.value),
        verified=verified,
        verified_to_weight=policy_weight_bound(target, target_spec.policy),
        policy=target_spec.policy)


_RANK = {Flavor.CH: 0, Flavor.CH_STAR: 1, Flavor.RSFT: 2, Flavor.RSFT_STAR: 3,
         Flavor.SFT: 4, Flavor.SFT_STAR: 5}

_BY_CLASSES = {f.variable_classes(): f for f in Flavor}


def _lift_path(source: Flavor, target: Flavor):
    """Flavors from source to target adding one variable class per step,
    in the order p, hbar, t (hbar never appears without p)."""
    classes = set(source.variable_classes())
    path = [source]
    for cls in ("p", "hbar", "t"):
        if cls in target.variable_classes() and cls not in classes:
            classes.add(cls)
            path.append(_BY_CLASSES[frozenset(classes)])
    return path


@dataclass
class ClassifyEntry:
    flavor: Flavor
    status: str  # "unit-exact" | "no-primitive-within-bounds" | "invalid-spec" | "error"
    certificate: PrimitiveCertificate | None = None
    detail: str = ""


@dataclass
class ClassifyReport:
    entries: list
    validation: dict  # supplied flavor -> CheckReport
    bounds: SearchBounds
    policy: TruncationPolicy | None
    caveat: str = SEMIDECISION_CAVEAT

    @property
    def conventions(self) -> dict:
        return dict(CONVENTIONS)

    def entry(self, flavor) -> ClassifyEntry:
        flavor = Flavor(flavor)
        for e in self.entries:
            if e.flavor is flavor:
                return e
        raise KeyError(flavor)

    @property
    def verdict(self) -> str:
        """One-line outcome.  Unit-exact contact homology kills every flavor
        at once, which is what "algebraically overtwisted" asserts; within
        bounds the negative direction stays a semidecision."""
        if any(e.status == "unit-exact" for e in self.entries):
            return "algebraically overtwisted: YES (certificates attached)"
        if all(e.status == "no-primitive-within-bounds" for e in self.entries):
            return "no primitive found within bounds"
        return "undetermined: some supplied specs failed validation"

    def summary(self) -> str:
        lines = [self.verdict]
        for e in sorted(self.entries, key=lambda e: _RANK[e.flavor]):
            bits = ["%-6s %s" % (e.flavor.value, e.status)]
            if e.certificate is not None:
                c = e.certificate
                scope = ("exact" if c.verified_to_weight is None
                         else "to weight %d" % c.verified_to_weight)
                bits.append("[%s, verified %s]" % (c.method, scope))
            if e.detail:
                bits.append("(%s)" % e.detail)
            lines.append(" ".join(bits))
        lines.append("note: " + self.caveat)
        return "\n".join(lines)


def _miss_by_projection(dspec: DifferentialSpec, root_spec: DifferentialSpec,
                        bounds: SearchBounds):
    """The miss a direct search over dspec would report, given that the
    exact search over root_spec (a smaller flavor) found no primitive.

    If projection Pi onto the root flavor intertwines the exact
    differentials, a primitive f here would give d(Pi f) = Pi d(f) = 1
    there, and Pi f is a combination of root candidates: projection only
    drops monomials, and every other bound of the window ignores the
    flavor.  So the root miss rules f out and no system is built
    (``constraints`` is 0).  Returns None when the chain-map check fails,
    and the caller must search.
    """
    if not verify_chain_map(dspec.with_policy(None),
                            root_spec.with_policy(None)).ok:
        return None
    n = sum(1 for _ in _candidate_words(dspec.sig, dspec.flavor, bounds))
    return SearchResult(None, n, 0, NO_SOLUTION_NOTE if n else NO_CANDIDATES_NOTE)


def classify(specs, bounds: SearchBounds,
             policy: TruncationPolicy | None = None,
             flavors=None) -> ClassifyReport:
    """Decide (within bounds) where the unit is exact, with certificates.

    ``specs`` is a DifferentialSpec or a dict {flavor: spec} over one
    signature.  Flavors whose variable classes sit inside a supplied flavor's
    are addressable: their differentials are derived by restriction when not
    supplied.  Supplied specs are validated first (including d^2 = 0, which
    the lifting construction relies on); failures abort the classification.

    Search runs on the smallest addressable flavor (the root) first.  If it
    misses, every other flavor whose exact differential passes
    ``verify_chain_map`` onto the root's is decided by that miss without a
    search of its own (see ``_miss_by_projection``); the rest are searched
    directly, smallest first.  A found primitive is projected down to the
    root and lifted stepwise to every other addressable one.
    """
    if isinstance(specs, DifferentialSpec):
        specs = {specs.flavor: specs}
    specs = {Flavor(f): s for f, s in specs.items()}
    if not specs:
        raise FlavorError("classify needs at least one differential")
    first = next(iter(specs.values())).sig
    for s in specs.values():
        if s.sig != first:
            raise FlavorError("classify needs all specs over one signature")
    for f, s in specs.items():
        if s.flavor is not f:
            raise FlavorError("spec under key %s has flavor %s" % (f.value, s.flavor.value))

    addressable = [f for f in Flavor
                   if any(f.variable_classes() <= s.variable_classes()
                          for s in specs)]
    addressable.sort(key=lambda f: _RANK[f])
    if flavors is not None:
        wanted = [Flavor(f) for f in flavors]
        missing = [f for f in wanted if f not in addressable]
        if missing:
            raise FlavorError(
                "flavors not derivable from the supplied specs: %s"
                % [f.value for f in missing])
    else:
        wanted = list(addressable)

    spec_for = {}
    for f in addressable:
        if f in specs:
            spec_for[f] = specs[f]
            continue
        sources = sorted((s for s in specs
                          if f.variable_classes() <= s.variable_classes()),
                         key=lambda s: (len(s.variable_classes()), _RANK[s]))
        spec_for[f] = restrict_spec(specs[sources[0]], f)

    validation = {f: validate_structure(s).merged(check_d_squared(s))
                  for f, s in specs.items()}
    bad = [f for f, rep in validation.items() if not rep.ok]
    if bad:
        entries = [ClassifyEntry(f, "invalid-spec",
                                 detail="validation failed for supplied "
                                 + ", ".join(b.value for b in bad))
                   for f in wanted]
        return ClassifyReport(entries, validation, bounds, policy)

    root = addressable[0]  # CH: every flavor projects onto it
    results = {}
    found_at = None
    for f in addressable:
        if f is not root and results[root].note in (NO_CANDIDATES_NOTE,
                                                    NO_SOLUTION_NOTE):
            settled = _miss_by_projection(spec_for[f], spec_for[root], bounds)
            if settled is not None:
                results[f] = settled
                continue
        results[f] = search_unit_primitive(spec_for[f], bounds)
        if results[f].certificate is not None:
            found_at = f
            break

    entries = []
    if found_at is None:
        for f in wanted:
            res = results[f]
            entries.append(ClassifyEntry(
                f, "no-primitive-within-bounds",
                detail="%d candidates; %s" % (res.candidates, res.note)))
        return ClassifyReport(entries, validation, bounds, policy)

    base_cert = results[found_at].certificate
    certs = {found_at: base_cert}
    if root not in certs:
        certs[root] = project_primitive(spec_for[root], base_cert.primitive)

    def certificate_for(f):
        if f in certs:
            return certs[f]
        if f.variable_classes() <= found_at.variable_classes():
            certs[f] = project_primitive(spec_for[f], base_cert.primitive)
            return certs[f]
        path = _lift_path(root, f)
        cur = certs[path[0]]
        for step in path[1:]:
            if step in certs:
                cur = certs[step]
                continue
            cur = lift_primitive(spec_for[step], cur.primitive, policy)
            certs[step] = cur
        return certs[f]

    for f in wanted:
        try:
            cert = certificate_for(f)
        except (LiftError, BoundsError, SeriesWeightError) as e:
            entries.append(ClassifyEntry(f, "error", detail=str(e)))
            continue
        status = "unit-exact" if cert.verified else "error"
        detail = "" if cert.verified else "certificate failed re-verification"
        entries.append(ClassifyEntry(f, status, cert, detail))
    return ClassifyReport(entries, validation, bounds, policy)
