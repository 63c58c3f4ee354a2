"""Differentials on the graded algebras, their validation, and flavor maps.

A differential is specified by the images of the q generators (and the p
generators when the flavor has them); t variables and the central hbar and
group-ring letters are closed.  The operator extends to the whole algebra by
the graded left Leibniz rule along each normal-ordered word,

    d(x1 ... xk) = sum_i (-1)^{|x1|+...+|x_{i-1}|} x1 ... d(x_i) ... xk,

with the flavor's own product used to multiply the pieces.  ``apply_d``
evaluates it as d(x w) = d(x) w + (-1)^{|x|} x d(w), with x the first letter
and w the rest of the word; the two forms agree by associativity.  Within
one call the d of every letters-only suffix is computed once and reused by
all terms that end in it; hbar and e^A are even, central and closed, so a
term's hbar power and group class are shifted on afterwards.  The memo is
exact and lives for one call; only the final sum is truncated.  On the
supercommutative flavors any image table defines a derivation this way.  On
the Weyl flavors it does not: the extension is a derivation for the Weyl
product iff the images are compatible with the commutation relations, and
``validate_structure`` tests exactly that (pairwise Leibniz on generators,
which suffices by the usual normal-ordering induction).  It computes the
defect only on the pairs that can fail: on the others it vanishes by the
normal order or by graded commutation (see ``validate_structure``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Element,
    Flavor,
    Monomial,
    TruncationPolicy,
    _letter_parity,
    combine_policies,
    embedding_defined,
    normalize,
    projection_defined,
)
from .errors import FlavorError, MissingImageError, SignatureError, SignatureMismatchError
from .indexcalc import degree_drop_check, profile_action_defect, term_profile
from .signature import AlgebraSignature


@dataclass
class CheckItem:
    name: str
    passed: bool | None  # None means skipped (inputs lack the needed data)
    detail: str = ""

    def line(self) -> str:
        tag = "ok" if self.passed else ("skip" if self.passed is None else "FAIL")
        return "%-18s %-4s %s" % (self.name, tag, self.detail)


@dataclass
class CheckReport:
    items: list

    @property
    def ok(self) -> bool:
        return all(it.passed is not False for it in self.items)

    def item(self, name) -> CheckItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def summary(self) -> str:
        return "\n".join(it.line() for it in self.items)

    def merged(self, other: "CheckReport") -> "CheckReport":
        return CheckReport(self.items + other.items)


class DifferentialSpec:
    """Contact data plus a complete generator-image table for one flavor.

    ``images`` maps ("q", orbit_id) and, in p-flavors, ("p", orbit_id) to
    Elements of the same signature and flavor.  The table must be total:
    closed generators get explicit zero images.  An optional TruncationPolicy
    bounds every downstream computation.
    """

    __slots__ = ("sig", "flavor", "images", "policy")

    def __init__(self, sig: AlgebraSignature, flavor, images,
                 policy: TruncationPolicy | None = None):
        flavor = Flavor(flavor)
        required = [("q", o.id) for o in sig.orbits]
        if flavor.allows_p:
            required += [("p", o.id) for o in sig.orbits]
        table = {}
        for key in required:
            if key not in images:
                raise MissingImageError(
                    "no image for generator %s_%s" % key
                )
            img = images[key]
            if not isinstance(img, Element):
                raise SignatureError("image of %s_%s is not an Element" % key)
            if img.sig != sig:
                raise SignatureMismatchError(
                    "image of %s_%s built over different contact data" % key
                )
            if img.flavor is not flavor:
                raise FlavorError(
                    "image of %s_%s has flavor %s, expected %s"
                    % (key + (img.flavor.value, flavor.value))
                )
            # stored policy-free; bounds are applied once per apply_d call
            table[key] = img.with_policy(None)
        extra = set(images) - set(required)
        if extra:
            raise SignatureError(
                "images given for unknown generators: %s" % sorted(extra)
            )
        self.sig = sig
        self.flavor = flavor
        self.images = table
        self.policy = policy

    def generators(self):
        keys = [("q", o.id) for o in self.sig.orbits]
        if self.flavor.allows_p:
            keys += [("p", o.id) for o in self.sig.orbits]
        return keys

    def generator_element(self, key) -> Element:
        kind, vid = key
        return normalize(self.sig, self.flavor, [(kind, vid)])

    def with_policy(self, policy) -> "DifferentialSpec":
        return DifferentialSpec(self.sig, self.flavor, self.images, policy)


def apply_d(dspec: DifferentialSpec, elem: Element) -> Element:
    """Apply the differential to an element.

    d of a term is its coefficient times d(w) of its letters-only word w,
    shifted by the term's e^A hbar^g; ``_d_word`` computes d(w) and reuses
    every suffix already met in this call.  The memo and all intermediate
    products are exact and only the final sum is truncated: the Weyl
    contraction can shorten words, so trimming midway could silently drop
    terms that a later factor would have brought back under the bounds.
    """
    if elem.sig != dspec.sig:
        raise SignatureMismatchError("element built over different contact data")
    if elem.flavor is not dspec.flavor:
        raise FlavorError(
            "element has flavor %s, differential is for %s"
            % (elem.flavor.value, dspec.flavor.value)
        )
    sig, flavor = dspec.sig, dspec.flavor
    pol = combine_policies(dspec.policy, elem.policy)
    zero_group = sig.zero_group()
    memo = {Monomial(group=zero_group): Element.zero(sig, flavor)}
    acc = {}
    for mono, coeff in elem.terms.items():
        word = Monomial(mono.q, mono.p, mono.t, 0, zero_group)
        piece = _d_word(dspec, word, memo).shift(hbar=mono.hbar, group=mono.group)
        for m2, c2 in piece.terms.items():
            acc[m2] = acc.get(m2, 0) + coeff * c2
    return Element(sig, flavor, acc, pol)


def _split_first(word: Monomial):
    """The first letter of a nonempty normal-ordered word and the word
    after it."""
    blocks = [word.q, word.p, word.t]
    for i, kind in enumerate("qpt"):
        if blocks[i]:
            (vid, exp), rest = blocks[i][0], blocks[i][1:]
            blocks[i] = (((vid, exp - 1),) if exp > 1 else ()) + rest
            return (kind, vid), Monomial(*blocks, hbar=0, group=word.group)


def _d_word(dspec: DifferentialSpec, word: Monomial, memo: dict) -> Element:
    """d of a letters-only normal-ordered word by d(x w) = d(x) w +
    (-1)^{|x|} x d(w), with x the first letter.

    ``memo`` maps words to their exact d and must hold the empty word.  The
    letters are peeled off from the left until a known suffix turns up, then
    the suffixes are built back up from the right, one product pair each, so
    a long word needs no recursion.
    """
    sig, flavor = dspec.sig, dspec.flavor
    peeled = []
    while word not in memo:
        letter, rest = _split_first(word)
        peeled.append((word, letter, rest))
        word = rest
    d = memo[word]
    for word, letter, rest in reversed(peeled):
        terms = {}
        img = dspec.images.get(letter)
        if img is not None and not img.is_zero:
            terms.update((img * Element(sig, flavor, {rest: 1})).terms)
        if not d.is_zero:
            kind, vid = letter
            x = Element(sig, flavor, {
                Monomial(**{kind: ((vid, 1),)}, group=rest.group): 1})
            odd = _letter_parity(sig, letter)
            for m2, c2 in (x * d).terms.items():
                c2 = -c2 if odd else c2
                terms[m2] = terms[m2] + c2 if m2 in terms else c2
        d = memo[word] = Element(sig, flavor, terms)
    return d


def check_d_squared(dspec: DifferentialSpec) -> CheckReport:
    """d(d(x)) = 0 for every generator, within the spec's bounds."""
    bad = []
    for key in dspec.generators():
        sq = apply_d(dspec, apply_d(dspec, dspec.generator_element(key)))
        if not sq.is_zero:
            bad.append("d^2(%s_%s) = %s" % (key + (sq,)))
    scope = "exactly" if dspec.policy is None else "within bounds"
    item = CheckItem("d-squared", not bad,
                     "; ".join(bad) if bad else "vanishes on all generators " + scope)
    return CheckReport([item])


def _leibniz_defect(dspec, x_key, y_key, gens) -> Element:
    """d(x * y) - d(x) * y - (-1)^{|x|} x * d(y) for two generators, whose
    elements ``gens`` maps their keys to."""
    x, y = gens[x_key], gens[y_key]
    lhs = apply_d(dspec, x * y)
    sx = -1 if _letter_parity(dspec.sig, x_key) else 1
    rhs = dspec.images[x_key] * y + sx * (x * dspec.images[y_key])
    return lhs - rhs


def _leibniz_suspects(dspec):
    """The generator pairs (x, y) whose Leibniz defect is not zero by
    algebra alone, in row-major order over ``dspec.generators()``.

    The generators are listed in normal order.  A pair is kept when y comes
    before x, or x = y is odd, and when d(x) holds the letter conjugate to
    y, d(y) holds the one conjugate to x, or d(x) or d(y) has a term of its
    generator's parity.
    """
    sig = dspec.sig
    gens = dspec.generators()
    odd, letters, misgraded = {}, {}, {}
    for key in gens:
        odd[key] = _letter_parity(sig, key)
        letters[key] = set()
        misgraded[key] = False
        for m in dspec.images[key].terms:
            letters[key].update(("q", v) for v, _ in m.q)
            letters[key].update(("p", v) for v, _ in m.p)
            misgraded[key] = misgraded[key] or (m.degree(sig) & 1) == odd[key]
    conjugate = {key: ("p" if key[0] == "q" else "q", key[1]) for key in gens}
    for i, xk in enumerate(gens):
        # the pairs left out have x * y equal to the normal word x y
        for yk in gens[:i + odd[xk]]:
            if (misgraded[xk] or misgraded[yk] or conjugate[yk] in letters[xk]
                    or conjugate[xk] in letters[yk]):
                yield xk, yk


def validate_structure(dspec: DifferentialSpec) -> CheckReport:
    """Static validity checks on the image table.

    degree-drop      every image term drops degree by one (checked both by
                     grading arithmetic and by the dimension formula)
    positive-end     every term of every p image keeps at least one p letter
                     (a curve with its distinguished puncture negative still
                     needs a positive end somewhere)
    action-monotone  period bookkeeping of every image term is nonnegative;
                     skipped when some period is missing
    weyl-leibniz     Weyl flavors only: the Leibniz extension respects the
                     commutation relations (pairwise generator check)

    The weyl-leibniz defect d(x y) - d(x) y - (-1)^{|x|} x d(y) is computed
    only on the pairs ``_leibniz_suspects`` keeps; it is zero on the others
    by algebra.  If x comes before y in normal order, or x = y is even, then
    x y is the normal word x y, and ``apply_d`` evaluates it as exactly
    d(x) y + (-1)^{|x|} x d(y).  Otherwise x y = (-1)^{|x||y|} y x + [x, y],
    where [x, y] is 0 or a multiple of hbar (central and closed).  As long
    as every term of d(x) and d(y) has the parity opposite to its
    generator's, the defect is then a combination of the graded commutators
    [d(x), y] and [x, d(y)] (for x != y it is -([d(x), y] + (-1)^{|x|}
    [x, d(y)])), and a graded commutator with a letter vanishes on every
    term that lacks the conjugate letter.  The defect under a spec policy
    is the truncation of the exact one, so an exact zero stays zero; the
    pairs are visited in the order of the full loop, so the report names
    the same pairs.
    """
    sig = dspec.sig
    items = []

    drops = degree_drop_check(sig, dspec.images)
    items.append(CheckItem(
        "degree-drop", not drops,
        "; ".join("%s term %s off by %+d" % v for v in drops[:4])
        if drops else "all image terms drop degree by one (both routes)"))

    bad_p = []
    for key, img in dspec.images.items():
        if key[0] != "p":
            continue
        for mono, _ in img.items():
            if mono.p_weight == 0:
                bad_p.append("d(p_%s) term %s has no p letter" % (key[1], mono))
    items.append(CheckItem(
        "positive-end", not bad_p,
        "; ".join(bad_p[:4]) if bad_p else "every p-image term keeps a positive end"))

    action_bad = []
    action_known = True
    for key, img in dspec.images.items():
        for mono, _ in img.items():
            defect = profile_action_defect(sig, term_profile(sig, key[0], key[1], mono))
            if defect is None:
                action_known = False
            elif defect < 0:
                action_bad.append("d(%s_%s) term %s gains action" % (key + (mono,)))
    if not action_known:
        items.append(CheckItem("action-monotone", None, "some orbit periods missing"))
    else:
        items.append(CheckItem(
            "action-monotone", not action_bad,
            "; ".join(action_bad[:4]) if action_bad else "no image term gains action"))

    if dspec.flavor.weyl:
        gens = {key: dspec.generator_element(key) for key in dspec.generators()}
        bad_pairs = ["(%s_%s, %s_%s)" % (xk + yk)
                     for xk, yk in _leibniz_suspects(dspec)
                     if not _leibniz_defect(dspec, xk, yk, gens).is_zero]
        items.append(CheckItem(
            "weyl-leibniz", not bad_pairs,
            "images break the commutation relations on pairs "
            + ", ".join(bad_pairs[:4]) if bad_pairs
            else "Leibniz extension respects all commutation relations"))
    else:
        items.append(CheckItem(
            "weyl-leibniz", True, "supercommutative flavor, nothing to check"))

    return CheckReport(items)


def full_check(dspec: DifferentialSpec) -> CheckReport:
    return validate_structure(dspec).merged(check_d_squared(dspec))


def project(elem: Element, target) -> Element:
    """Quotient map onto a smaller flavor: kill monomials carrying variables
    the target lacks, keep the rest verbatim."""
    target = Flavor(target)
    if not projection_defined(elem.flavor, target):
        raise FlavorError(
            "no projection %s -> %s" % (elem.flavor.value, target.value)
        )
    kept = {}
    for m, c in elem.terms.items():
        if m.p and not target.allows_p:
            continue
        if m.hbar and not target.allows_hbar:
            continue
        if m.t and not target.allows_t:
            continue
        kept[m] = c
    return Element(elem.sig, target, kept, elem.policy)


def embed(elem: Element, target) -> Element:
    """Reinterpret in a larger flavor (CH inside rSFT, X inside X*, ...)."""
    target = Flavor(target)
    if not embedding_defined(elem.flavor, target):
        raise FlavorError(
            "no embedding %s -> %s" % (elem.flavor.value, target.value)
        )
    return elem.map_flavor(target)


def restrict_spec(dspec: DifferentialSpec, target) -> DifferentialSpec:
    """Differential induced on a smaller flavor by projecting every image.

    Sound because each discarded variable class spans a d-stable ideal: p
    images keep a p letter, hbar and t are central and closed.
    """
    target = Flavor(target)
    if not projection_defined(dspec.flavor, target):
        raise FlavorError(
            "no projection %s -> %s" % (dspec.flavor.value, target.value)
        )
    images = {}
    for key, img in dspec.images.items():
        if key[0] == "p" and not target.allows_p:
            continue
        images[key] = project(img, target)
    return DifferentialSpec(dspec.sig, target, images, dspec.policy)


def verify_chain_map(source: DifferentialSpec, target: DifferentialSpec) -> CheckReport:
    """Check projection intertwines the two differentials on all generators.

    Both maps are algebra maps and both differentials are derivations (after
    validate_structure), so agreement on generators is agreement everywhere;
    the tests exercise random products on top of this anyway.
    """
    if source.sig != target.sig:
        raise SignatureMismatchError("specs built over different contact data")
    if not projection_defined(source.flavor, target.flavor):
        raise FlavorError(
            "no projection %s -> %s" % (source.flavor.value, target.flavor.value)
        )
    bad = []
    for key in source.generators():
        gen = source.generator_element(key)
        lhs = project(apply_d(source, gen), target.flavor)
        pr = project(gen, target.flavor)
        rhs = apply_d(target, pr)
        if lhs != rhs:
            bad.append("%s_%s" % key)
    item = CheckItem(
        "chain-map", not bad,
        ("projection fails to intertwine d on " + ", ".join(bad[:6])) if bad
        else "projection intertwines the differentials on all generators")
    return CheckReport([item])
