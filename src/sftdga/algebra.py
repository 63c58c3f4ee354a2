"""Exact graded algebra underlying all six theory flavors.

Elements are finite rational combinations of normal-ordered monomials

    coeff * e^A * q_{g1}^{i1} ... * p_{h1}^{j1} ... * t_{a1}^{k1} ... * hbar^g

with the q-block first, then the p-block, then the t-block, each block sorted
by the signature's variable order.  Odd variables square to zero and are never
stored with exponent above one.  Koszul signs come from counting inversions
among odd letters during a stable sort.

Two products live here, both computed by one kernel.  ``mul_super`` is plain
supercommutative multiplication.  ``mul_weyl`` additionally obeys the
commutator  q_g p_g - (-1)^{|q||p|} p_g q_g = kappa_g hbar.  In a product
m1 * m2 of normal-ordered monomials only p_g of m1 meets q_g of m2 out of
order, so the kernel sums over k_g contractions per shared orbit (the Wick
formula).  On an even orbit

    p_g^a q_g^b  =  sum_k  k! C(a,k) C(b,k) (-kappa_g hbar)^k  q_g^(b-k) p_g^(a-k),

and on an odd orbit k is 0 or 1 and a contracted adjacent pair p_g q_g is
+kappa_g hbar.  Each term's sign is the Koszul sign of bringing the
contracted odd pairs together and sorting the remaining letters.
``mul_super`` is the case where every k_g is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from math import comb, factorial

from .errors import (
    FlavorError,
    SignatureError,
    SignatureMismatchError,
    WeylOrderError,
)
from .signature import AlgebraSignature, GroupElement, generator_degree


class Flavor(Enum):
    """The six theory flavors and which variable classes each admits."""

    CH = "CH"
    RSFT = "rSFT"
    SFT = "SFT"
    CH_STAR = "CH*"
    RSFT_STAR = "rSFT*"
    SFT_STAR = "SFT*"

    @property
    def allows_p(self) -> bool:
        return self in (Flavor.RSFT, Flavor.SFT, Flavor.RSFT_STAR, Flavor.SFT_STAR)

    @property
    def allows_hbar(self) -> bool:
        return self in (Flavor.SFT, Flavor.SFT_STAR)

    @property
    def allows_t(self) -> bool:
        return self in (Flavor.CH_STAR, Flavor.RSFT_STAR, Flavor.SFT_STAR)

    @property
    def weyl(self) -> bool:
        """Whether multiplication is the Weyl product rather than supercommutative."""
        return self.allows_hbar

    @property
    def starred(self) -> bool:
        return self.allows_t

    @property
    def base(self) -> "Flavor":
        """The unstarred flavor with the same q/p/hbar content."""
        if self in (Flavor.CH, Flavor.CH_STAR):
            return Flavor.CH
        if self in (Flavor.RSFT, Flavor.RSFT_STAR):
            return Flavor.RSFT
        return Flavor.SFT

    @property
    def star(self) -> "Flavor":
        """The marked-point variant of this flavor."""
        if self.base is Flavor.CH:
            return Flavor.CH_STAR
        if self.base is Flavor.RSFT:
            return Flavor.RSFT_STAR
        return Flavor.SFT_STAR

    def variable_classes(self) -> frozenset:
        out = {"q"}
        if self.allows_p:
            out.add("p")
        if self.allows_hbar:
            out.add("hbar")
        if self.allows_t:
            out.add("t")
        return frozenset(out)


def projection_defined(source: Flavor, target: Flavor) -> bool:
    """target is reachable from source by dropping p, hbar, or t monomials."""
    return target.variable_classes() <= source.variable_classes()


def embedding_defined(source: Flavor, target: Flavor) -> bool:
    """source sits inside target verbatim (CH in rSFT, X in X*, ...)."""
    return source.variable_classes() <= target.variable_classes()


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("coefficients must be exact rationals, got %r" % (x,))


@dataclass(frozen=True)
class Monomial:
    """One normal-ordered monomial.  Exponent lists are tuples of (id, exp),
    sorted by the signature's variable order; ``group`` is the group-ring
    exponent A."""

    q: tuple = ()
    p: tuple = ()
    t: tuple = ()
    hbar: int = 0
    group: GroupElement = ()

    @property
    def q_weight(self) -> int:
        return sum(e for _, e in self.q)

    @property
    def p_weight(self) -> int:
        return sum(e for _, e in self.p)

    @property
    def t_weight(self) -> int:
        return sum(e for _, e in self.t)

    @property
    def word_length(self) -> int:
        return self.q_weight + self.p_weight + self.t_weight

    def degree(self, sig: AlgebraSignature) -> int:
        d = sig.group_degree(self.group) + self.hbar * sig.hbar_degree()
        d += sum(e * sig.q_degree(v) for v, e in self.q)
        d += sum(e * sig.p_degree(v) for v, e in self.p)
        d += sum(e * sig.t_degree(v) for v, e in self.t)
        return d

    def action(self, sig: AlgebraSignature) -> Fraction:
        """Total period weight sum_g (q_exp + p_exp) * T(g); needs all periods."""
        total = Fraction(0)
        for vid, exp in self.q + self.p:
            period = sig.orbit(vid).period
            if period is None:
                raise SignatureError(
                    "action undefined: orbit %r has no period" % vid
                )
            total += exp * period
        return total

    def sort_key(self, sig: AlgebraSignature):
        qv = [0] * len(sig.orbits)
        pv = [0] * len(sig.orbits)
        tv = [0] * len(sig.tforms)
        for vid, exp in self.q:
            qv[sig.orbit_index(vid)] = exp
        for vid, exp in self.p:
            pv[sig.orbit_index(vid)] = exp
        for vid, exp in self.t:
            tv[sig.tform_index(vid)] = exp
        return (self.word_length, tuple(qv), tuple(pv), tuple(tv), self.hbar, self.group)

    def __str__(self):
        parts = []
        if any(self.group):
            parts.append("e(%s)" % ",".join(str(x) for x in self.group))
        for kind, block in (("q", self.q), ("p", self.p), ("t", self.t)):
            for vid, exp in block:
                parts.append("%s_%s" % (kind, vid) + ("^%d" % exp if exp > 1 else ""))
        if self.hbar:
            parts.append("hbar" + ("^%d" % self.hbar if self.hbar > 1 else ""))
        return " ".join(parts) if parts else "1"


def parity(var, sig: AlgebraSignature) -> int:
    """Parity (degree mod 2) of one generator; see generator_degree for refs."""
    return generator_degree(var, sig) & 1


def filtration_weight(m: Monomial, flavor: Flavor) -> int:
    """Weight of the filtration that makes formal inverses converge.

    rSFT counts p letters; SFT counts p letters plus the hbar power; the
    starred flavors count t letters (the marked-point lift's series variable).
    CH carries no series variable, so every monomial has weight 0.
    """
    flavor = Flavor(flavor)
    if flavor is Flavor.RSFT:
        return m.p_weight
    if flavor is Flavor.SFT:
        return m.p_weight + m.hbar
    if flavor.starred:
        return m.t_weight
    return 0


@dataclass(frozen=True)
class TruncationPolicy:
    """Bounds applied after every operation on elements that carry the policy.

    All integer bounds are finite; ``max_action`` is an optional period bound
    (requires orbit periods).  Truncation drops any monomial exceeding a bound
    and is idempotent.
    """

    max_p_weight: int
    max_hbar_weight: int
    max_t_weight: int
    max_word_length: int
    max_action: Fraction | None = None

    def __post_init__(self):
        for name in ("max_p_weight", "max_hbar_weight", "max_t_weight", "max_word_length"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise SignatureError("%s must be a nonnegative integer" % name)
        if self.max_action is not None:
            object.__setattr__(self, "max_action", as_fraction(self.max_action))

    def keeps(self, m: Monomial, sig: AlgebraSignature) -> bool:
        if m.p_weight > self.max_p_weight:
            return False
        if m.hbar > self.max_hbar_weight:
            return False
        if m.t_weight > self.max_t_weight:
            return False
        if m.word_length > self.max_word_length:
            return False
        if self.max_action is not None and m.action(sig) > self.max_action:
            return False
        return True


def combine_policies(a: TruncationPolicy | None, b: TruncationPolicy | None):
    """Componentwise tightest of two optional policies."""
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    if a.max_action is None:
        act = b.max_action
    elif b.max_action is None:
        act = a.max_action
    else:
        act = min(a.max_action, b.max_action)
    return TruncationPolicy(
        min(a.max_p_weight, b.max_p_weight),
        min(a.max_hbar_weight, b.max_hbar_weight),
        min(a.max_t_weight, b.max_t_weight),
        min(a.max_word_length, b.max_word_length),
        act,
    )


_BLOCK = {"q": 0, "p": 1, "t": 2}


def _letter_key(sig, letter):
    """Sort key of a letter in normal order: q_i is i, p_i is N + i and t_j is
    2N + j, where N is the number of orbits and i, j signature indices."""
    kind, vid = letter
    if kind == "t":
        return 2 * len(sig.orbits) + sig.tform_index(vid)
    return _BLOCK[kind] * len(sig.orbits) + sig.orbit_index(vid)


def _letter_parity(sig, letter):
    kind, vid = letter
    if kind == "q":
        return sig.q_degree(vid) & 1
    if kind == "p":
        return sig.p_degree(vid) & 1
    return sig.t_degree(vid) & 1


def _check_letter_flavor(flavor, letter):
    kind = letter[0]
    if kind == "p" and not flavor.allows_p:
        raise FlavorError("flavor %s has no p variables" % flavor.value)
    if kind == "t" and not flavor.allows_t:
        raise FlavorError("flavor %s has no t variables" % flavor.value)


def _koszul_sign(keys):
    """Koszul sign of sorting odd letters, given their target keys in word
    order: -1 to the number of inversions."""
    sign = 1
    for i, k in enumerate(keys):
        for k2 in keys[i + 1:]:
            if k > k2:
                sign = -sign
    return sign


def _monomial_from_keys(exps, ids, n_orbits, hbar, group):
    """Build a Monomial from exponents by sort key (``ids`` maps a sort key to
    its variable id); zero exponents drop out."""
    blocks = ([], [], [])
    for k in sorted(exps):
        if exps[k]:
            block = 0 if k < n_orbits else 1 if k < 2 * n_orbits else 2
            blocks[block].append((ids[k], exps[k]))
    return Monomial(*map(tuple, blocks), hbar=hbar, group=group)


class Element:
    """A finite rational combination of normal-ordered monomials of one flavor.

    Treat instances as immutable.  An optional TruncationPolicy rides along and
    is reapplied after every arithmetic operation (binary operations combine
    the two policies by taking the tightest bounds).
    """

    __slots__ = ("sig", "flavor", "terms", "policy")

    def __init__(self, sig, flavor, terms=None, policy=None):
        flavor = Flavor(flavor)
        clean = {}
        for m, c in (terms or {}).items():
            c = as_fraction(c)
            if c == 0:
                continue
            if m.p and not flavor.allows_p:
                raise FlavorError("flavor %s admits no p variables" % flavor.value)
            if m.hbar and not flavor.allows_hbar:
                raise FlavorError("flavor %s admits no hbar" % flavor.value)
            if m.t and not flavor.allows_t:
                raise FlavorError("flavor %s admits no t variables" % flavor.value)
            if policy is not None and not policy.keeps(m, sig):
                continue
            clean[m] = c
        self.sig = sig
        self.flavor = flavor
        self.terms = clean
        self.policy = policy

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(sig, flavor, policy=None) -> "Element":
        return Element(sig, flavor, {}, policy)

    @staticmethod
    def unit(sig, flavor, coeff=1, policy=None) -> "Element":
        m = Monomial(group=sig.zero_group())
        return Element(sig, flavor, {m: as_fraction(coeff)}, policy)

    @staticmethod
    def term(sig, flavor, coeff=1, q=None, p=None, t=None, hbar=0, group=None,
             policy=None) -> "Element":
        """Single term from exponent maps.  Each block is sorted by signature
        index and zero exponents drop out; an odd variable to a power above
        one gives the zero element."""
        flavor = Flavor(flavor)
        group = sig.check_group(group) if group is not None else sig.zero_group()
        exps, ids, dead = {}, {}, False
        for kind, block in (("q", q), ("p", p), ("t", t)):
            for vid, exp in (block or {}).items():
                if exp < 0:
                    raise SignatureError("negative exponent for %s_%s" % (kind, vid))
                if exp:
                    key = _letter_key(sig, (kind, vid))
                    _check_letter_flavor(flavor, (kind, vid))
                    exps[key], ids[key] = exp, vid
                    dead = dead or (exp > 1 and _letter_parity(sig, (kind, vid)))
        if dead:
            return Element.zero(sig, flavor, policy)
        m = _monomial_from_keys(exps, ids, len(sig.orbits), hbar, group)
        return Element(sig, flavor, {m: as_fraction(coeff)}, policy)

    # -- views ----------------------------------------------------------------

    def items(self):
        """Terms in deterministic monomial order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key(self.sig))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def degrees(self):
        return sorted({m.degree(self.sig) for m in self.terms})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self):
        """Degree when homogeneous and nonzero, else None."""
        ds = self.degrees()
        return ds[0] if len(ds) == 1 else None

    def with_policy(self, policy) -> "Element":
        return Element(self.sig, self.flavor, self.terms, policy)

    def map_flavor(self, flavor) -> "Element":
        """Reinterpret in another flavor; every monomial must stay legal."""
        return Element(self.sig, Flavor(flavor), self.terms, self.policy)

    def shift(self, hbar=0, group=None) -> "Element":
        """Multiply every term by the central monomial e^group * hbar^shift."""
        if hbar == 0 and (group is None or not any(group)):
            return self
        group = self.sig.check_group(group) if group is not None else self.sig.zero_group()
        out = {}
        for m, c in self.terms.items():
            g2 = tuple(a + b for a, b in zip(m.group, group))
            m2 = Monomial(m.q, m.p, m.t, m.hbar + hbar, g2)
            out[m2] = c
        return Element(self.sig, self.flavor, out, self.policy)

    # -- arithmetic -------------------------------------------------------

    def _check_compatible(self, other: "Element"):
        if self.sig != other.sig:
            raise SignatureMismatchError("operands built over different contact data")
        if self.flavor is not other.flavor:
            raise FlavorError(
                "flavor mismatch: %s vs %s" % (self.flavor.value, other.flavor.value)
            )

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Element(self.sig, self.flavor, out,
                       combine_policies(self.policy, other.policy))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Element(self.sig, self.flavor,
                       {m: -c for m, c in self.terms.items()}, self.policy)

    def scale(self, coeff) -> "Element":
        coeff = as_fraction(coeff)
        return Element(self.sig, self.flavor,
                       {m: coeff * c for m, c in self.terms.items()}, self.policy)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        if self.flavor.weyl:
            return mul_weyl(self, other)
        return mul_super(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (self.sig == other.sig and self.flavor is other.flavor
                and self.terms == other.terms)

    def __str__(self):
        if self.is_zero:
            return "0"
        bits = []
        for m, c in self.items():
            s = str(m)
            if c == 1 and s != "1":
                bits.append(s)
            elif c == -1 and s != "1":
                bits.append("-" + s)
            else:
                bits.append(("%s %s" % (c, s)) if s != "1" else str(c))
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        return "<%s element: %s>" % (self.flavor.value, self)


def normalize(sig, flavor, word, coeff=1, group=None, hbar=0, policy=None) -> Element:
    """Normal-order one word of letters into a single-term Element.

    ``word`` lists letters ``("q", id)``, ``("p", id)``, ``("t", id)`` or
    ``"hbar"`` in multiplication order.  The Koszul sign is the parity of the
    number of inversions between odd letters under the stable sort into block
    order.  Words in a Weyl flavor must not need the rewriting rule: a p
    letter standing left of a q letter of the same orbit raises WeylOrderError.
    Repeated odd letters give the zero element.
    """
    flavor = Flavor(flavor)
    group = sig.check_group(group) if group is not None else sig.zero_group()
    coeff = as_fraction(coeff)
    letters = []
    for tok in word:
        if tok == "hbar":
            if not flavor.allows_hbar:
                raise FlavorError("flavor %s admits no hbar" % flavor.value)
            hbar += 1
            continue
        kind, vid = tok
        if kind not in _BLOCK:
            raise SignatureError("unknown letter kind %r" % (kind,))
        _check_letter_flavor(flavor, (kind, vid))
        letters.append((kind, vid))

    if flavor.weyl:
        # one pass from the right: no p letter may find its orbit's q already seen
        q_right = set()
        for kind, vid in reversed(letters):
            if kind == "q":
                q_right.add(vid)
            elif kind == "p" and vid in q_right:
                raise WeylOrderError(
                    "word has p_%s left of q_%s; use mul_weyl" % (vid, vid)
                )

    keys = [_letter_key(sig, let) for let in letters]
    odd = [k for k, let in zip(keys, letters) if _letter_parity(sig, let)]
    if len(set(odd)) < len(odd):
        return Element.zero(sig, flavor, policy)
    exps, ids = {}, {}
    for k, (_, vid) in zip(keys, letters):
        exps[k] = exps.get(k, 0) + 1
        ids[k] = vid
    m = _monomial_from_keys(exps, ids, len(sig.orbits), hbar, group)
    return Element(sig, flavor, {m: coeff * _koszul_sign(odd)}, policy)


def _product(a: Element, b: Element, contract: bool) -> Element:
    """Normal-ordered product of two elements in one step per term pair.

    With ``contract`` set, p_g of the left term contracts with q_g of the
    right one by the Wick formula of the module docstring; without it the
    product is supercommutative.  Contracted odd pairs get target keys below
    every letter, p before q, so one inversion count over the odd letters
    gives the sign of bringing them together and sorting the rest.
    """
    sig = a.sig
    n = len(sig.orbits)
    # per sort key (see _letter_key): the variable id and whether it is odd
    ids = [o.id for o in sig.orbits] * 2 + [t.id for t in sig.tforms]
    odd = [sig.q_degree(o.id) & 1 for o in sig.orbits] * 2 + [
        sig.t_degree(t.id) & 1 for t in sig.tforms]

    def keyed(elem):
        out = []
        for m, c in elem.terms.items():
            exps = {}
            for base, block, index in ((0, m.q, sig.orbit_index),
                                       (n, m.p, sig.orbit_index),
                                       (2 * n, m.t, sig.tform_index)):
                for vid, e in block:
                    exps[base + index(vid)] = e
            out.append((m, c, exps, [k for k in exps if odd[k]]))
        return out

    right = keyed(b)
    out = {}
    for m1, c1, exps1, odd1 in keyed(a):
        for m2, c2, exps2, odd2 in right:
            group = tuple(x + y for x, y in zip(m1.group, m2.group))
            hbar = m1.hbar + m2.hbar
            shared = [k - n for k in exps1 if n <= k < 2 * n and k - n in exps2
                      ] if contract else ()
            c12 = c1 * c2
            for ks in product(*(range(min(exps1[n + i], exps2[i]) + 1)
                                for i in shared)):
                e1, e2, o1, o2, coeff = exps1, exps2, odd1, odd2, 1
                if any(ks):
                    e1, e2, o1, o2 = dict(exps1), dict(exps2), list(odd1), list(odd2)
                    for i, k in zip(shared, ks):
                        if not k:
                            continue
                        kappa = sig.orbits[i].kappa
                        e1[n + i] -= k
                        e2[i] -= k
                        if odd[i]:
                            coeff *= kappa
                            o1[o1.index(n + i)] = 2 * (i - n)
                            o2[o2.index(i)] = 2 * (i - n) + 1
                        else:
                            coeff *= (factorial(k) * comb(exps1[n + i], k)
                                      * comb(exps2[i], k) * (-kappa) ** k)
                if not set(o1).isdisjoint(o2):
                    continue
                exps = dict(e1)
                for k, e in e2.items():
                    exps[k] = exps.get(k, 0) + e
                m = _monomial_from_keys(exps, ids, n, hbar + sum(ks), group)
                # the integer factor is +-1 on most terms, where a Fraction
                # product would be pure overhead
                coeff *= _koszul_sign(o1 + o2)
                term = c12 if coeff == 1 else -c12 if coeff == -1 else c12 * coeff
                out[m] = out[m] + term if m in out else term
    return Element(sig, a.flavor, out, combine_policies(a.policy, b.policy))


def mul_super(a: Element, b: Element) -> Element:
    """Supercommutative product; both operands must share a non-Weyl flavor."""
    a._check_compatible(b)
    if a.flavor.weyl:
        raise FlavorError(
            "flavor %s multiplies by the Weyl product; use mul_weyl" % a.flavor.value
        )
    return _product(a, b, contract=False)


def mul_weyl(a: Element, b: Element) -> Element:
    """Weyl product: normal-ordered product with kappa*hbar contraction terms."""
    a._check_compatible(b)
    if not a.flavor.weyl:
        raise FlavorError(
            "flavor %s is supercommutative; use mul_super" % a.flavor.value
        )
    return _product(a, b, contract=True)


def truncate(e: Element, policy: TruncationPolicy | None) -> Element:
    """Drop monomials beyond the policy's bounds (idempotent); attaches policy."""
    if policy is None:
        return e
    kept = {m: c for m, c in e.terms.items() if policy.keeps(m, e.sig)}
    return Element(e.sig, e.flavor, kept, policy)
