"""Independent reference implementations used to cross-check the algebra.

Everything here is deliberately written against the *definitions* (adjacent
transpositions for signs, the rewriting rule and the derivation-operator
picture for the Weyl product) rather than against the library's normal-form
code, so agreement is meaningful.  ``apply_d_per_letter`` is the exception:
it is the earlier, slower form of ``apply_d`` and leans on ``normalize`` and
the product, but it applies the Leibniz rule at each letter where the
library peels one letter and reuses the d of the suffix.  So is
``leibniz_bad_pairs``, the full pairwise Weyl-Leibniz loop that
``validate_structure`` narrows to the pairs that can fail.
"""

from fractions import Fraction

from sftdga import Element
from sftdga.algebra import combine_policies, normalize, parity
from sftdga.differential import apply_d

_KIND_RANK = {"q": 0, "p": 1, "t": 2}


def _oracle_key(letter):
    # any fixed total order works for the sign oracle; use lexicographic ids
    # on purpose (the library sorts by signature index instead)
    kind, vid = letter
    return (_KIND_RANK[kind], str(vid))


def bubble_sign(word, sig):
    """Sort a word by adjacent transpositions, tracking the Koszul sign.

    Returns (sorted_word, sign): each swap of two adjacent odd letters flips
    the sign, swaps involving an even letter are free.  This is the textbook
    definition the fast inversion count must reproduce.
    """
    w = list(word)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if _oracle_key(w[i]) > _oracle_key(w[i + 1]):
                if parity(w[i], sig) and parity(w[i + 1], sig):
                    sign = -sign
                w[i], w[i + 1] = w[i + 1], w[i]
                changed = True
    return w, sign


def has_odd_repeat(word, sig):
    odd = [let for let in word if parity(let, sig)]
    return len(odd) != len(set(odd))


def word_element(sig, flavor, word, coeff=1):
    """Multiply out a word letter by letter (no normal-form shortcuts)."""
    out = Element.unit(sig, flavor).scale(Fraction(coeff))
    for kind, vid in word:
        out = out * Element.term(sig, flavor, **{kind: {vid: 1}})
    return out


def right_derivative(f, orbit):
    """Right super-derivation d/dq_orbit of a p-free element.

    The sign on an odd letter is the parity of everything strictly to its
    right in the stored word (higher-index odd q letters and odd t letters;
    hbar and group classes are even).
    """
    sig = f.sig
    out = Element.zero(sig, f.flavor)
    oi = sig.orbit_index(orbit)
    odd = parity(("q", orbit), sig)
    for mono, coeff in f.items():
        if mono.p:
            raise ValueError("right_derivative expects a p-free element")
        qd = dict(mono.q)
        e = qd.get(orbit, 0)
        if not e:
            continue
        if odd:
            tail = sum(ee for v, ee in mono.q
                       if sig.orbit_index(v) > oi and parity(("q", v), sig))
            tail += sum(ee for v, ee in mono.t if parity(("t", v), sig))
            factor = Fraction(-1 if tail % 2 else 1)
        else:
            factor = Fraction(e)
        qd[orbit] = e - 1
        out = out + Element.term(
            sig, f.flavor, coeff=coeff * factor,
            q={v: k for v, k in qd.items() if k},
            t={v: k for v, k in mono.t}, hbar=mono.hbar, group=mono.group)
    return out


def saturating_polynomial(sig, flavor, a, b):
    """A q-monomial large enough that no derivative of act_right(., a*b) dies.

    Per orbit, takes the worst-case p count of a term of a plus that of b
    (capped at 1 on odd orbits, where higher powers vanish anyway).
    """
    caps = {}
    for e in (a, b):
        worst = {}
        for mono, _ in e.items():
            for v, k in mono.p:
                worst[v] = max(worst.get(v, 0), k)
        for v, k in worst.items():
            caps[v] = caps.get(v, 0) + k
    for v in list(caps):
        if parity(("q", v), sig):
            caps[v] = 1
    return Element.term(sig, flavor, q=caps)


def act_right(f, a):
    """Right action of an element on the p-free polynomial module.

    q and t letters multiply on the right; p_g acts as kappa_g * hbar * d/dq_g
    (right derivation); hbar and e^A are central.  Letters of a normal-ordered
    word act left to right: f.(xy) = (f.x).y.  This is the faithful
    derivation-operator representation of the Weyl relations.
    """
    sig = f.sig
    out = Element.zero(sig, f.flavor)
    for mono, coeff in a.items():
        g = f.scale(coeff)
        for kind, vid in mono.letters():
            if g.is_zero:
                break
            if kind == "p":
                kappa = sig.orbit(vid).kappa
                g = right_derivative(g, vid).scale(Fraction(kappa)).shift(hbar=1)
            else:
                g = g * Element.term(sig, f.flavor, **{kind: {vid: 1}})
        out = out + g.shift(hbar=mono.hbar, group=mono.group)
    return out


def _letter_key(sig, letter):
    # the library's normal order: q block, p block, t block, each sorted by
    # signature index
    kind, vid = letter
    index = sig.tform_index(vid) if kind == "t" else sig.orbit_index(vid)
    return (_KIND_RANK[kind], index)


def _letter_parity(sig, letter):
    return parity(letter, sig)


def _weyl_reduce(sig, word):
    """Normal-order an arbitrary word under the Weyl rewriting rule.

    Returns a dict mapping (letters tuple in canonical order, extra hbar) to
    rational coefficients.  Each same-orbit pair p_g q_g rewrites as

        p q -> s * q p - s * kappa hbar,   s = (-1)^{|q||p|},

    all other adjacent disorders swap with the plain Koszul sign.
    """
    out = {}
    stack = [(tuple(word), Fraction(1), 0)]
    while stack:
        w, c, h = stack.pop()
        spot = -1
        for i in range(len(w) - 1):
            if _letter_key(sig, w[i]) > _letter_key(sig, w[i + 1]):
                spot = i
                break
        if spot < 0:
            dead = False
            for i in range(len(w) - 1):
                if w[i] == w[i + 1] and _letter_parity(sig, w[i]):
                    dead = True
                    break
            if not dead:
                key = (w, h)
                out[key] = out.get(key, Fraction(0)) + c
            continue
        x, y = w[spot], w[spot + 1]
        swapped = w[:spot] + (y, x) + w[spot + 2:]
        if x[0] == "p" and y[0] == "q" and x[1] == y[1]:
            rec = sig.orbit(x[1])
            s = -1 if sig.q_degree(x[1]) & 1 else 1
            stack.append((swapped, c * s, h))
            stack.append((w[:spot] + w[spot + 2:], c * (-s * rec.kappa), h + 1))
        else:
            s = -1 if _letter_parity(sig, x) and _letter_parity(sig, y) else 1
            stack.append((swapped, c * s, h))
    return out


def weyl_product(a, b):
    """The Weyl product by bubbling the concatenated words of every term pair
    with _weyl_reduce; cost is factorial in the shared exponents."""
    sig = a.sig
    out = Element.zero(sig, a.flavor)
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            g = tuple(x + y for x, y in zip(m1.group, m2.group))
            for (letters, extra), coeff in _weyl_reduce(
                sig, m1.letters() + m2.letters()
            ).items():
                exps = {"q": {}, "p": {}, "t": {}}
                for kind, vid in letters:
                    exps[kind][vid] = exps[kind].get(vid, 0) + 1
                out = out + Element.term(sig, a.flavor, coeff=coeff * c1 * c2,
                                         hbar=m1.hbar + m2.hbar + extra,
                                         group=g, **exps)
    return out


def apply_d_per_letter(dspec, elem):
    """The differential by the graded Leibniz rule at every letter,

        d(x1 ... xk) = sum_i (-1)^{|x1|+...+|x_{i-1}|} x1 ... d(x_i) ... xk,

    re-normalizing the prefix and suffix of each letter and making two full
    products per letter; only the final sum is truncated."""
    sig, flavor = dspec.sig, dspec.flavor
    pol = combine_policies(dspec.policy, elem.policy)
    acc = {}
    for mono, coeff in elem.terms.items():
        letters = mono.letters()
        sign = 1
        for i, letter in enumerate(letters):
            img = dspec.images.get(letter)
            if img is not None and not img.is_zero:
                prefix = normalize(sig, flavor, letters[:i])
                suffix = normalize(sig, flavor, letters[i + 1:])
                piece = (prefix * img * suffix).shift(hbar=mono.hbar,
                                                      group=mono.group)
                for m2, c2 in piece.terms.items():
                    acc[m2] = acc.get(m2, 0) + sign * coeff * c2
            if parity(letter, sig):
                sign = -sign
    return Element(sig, flavor, acc, pol)


def leibniz_bad_pairs(dspec):
    """Generator pairs (x, y) with d(x y) != d(x) y + (-1)^{|x|} x d(y)
    within the spec's bounds, over all (2N)^2 pairs in row-major order of
    ``dspec.generators()``."""
    sig, flavor = dspec.sig, dspec.flavor
    gens = dspec.generators()
    bad = []
    for xk in gens:
        x = normalize(sig, flavor, [xk])
        sx = -1 if parity(xk, sig) else 1
        for yk in gens:
            y = normalize(sig, flavor, [yk])
            rhs = dspec.images[xk] * y + sx * (x * dspec.images[yk])
            if not (apply_d(dspec, x * y) - rhs).is_zero:
                bad.append((xk, yk))
    return bad
