"""Koszul signs and the two products, on a small mixed-parity signature.

Run from the repo root after installing the package:

    python demos/01_signs_and_products.py
"""

from sftdga import AlgebraSignature, Element, Flavor, OrbitRecord, TFormRecord
from sftdga.algebra import generator_degree, mul_super, mul_weyl, normalize

sig = AlgebraSignature(
    n=4,
    orbits=(OrbitRecord("a", cz=2, kappa=1),
            OrbitRecord("b", cz=4, kappa=2),
            OrbitRecord("c", cz=-1, kappa=3)),
    tforms=(TFormRecord("u", form_degree=1),),
)

print("generator degrees (|q| = CZ + n - 3, |p| = -CZ + n - 3):")
for kind in ("q", "p"):
    for o in sig.orbits:
        print("  |%s_%s| = %d" % (kind, o.id, generator_degree((kind, o.id), sig)))
print("  |t_u| =", generator_degree(("t", "u"), sig))

# ---------------------------------------------------------------- sign rules

F = Flavor.RSFT_STAR  # all variable classes, graded-commutative product
qa = Element.term(sig, F, q={"a": 1})
qb = Element.term(sig, F, q={"b": 1})

print("\nq_a and q_b are both odd here, so they anticommute:")
print("  q_a q_b =", mul_super(qa, qb))
print("  q_b q_a =", mul_super(qb, qa))
print("  q_b^2   =", mul_super(qb, qb), "(odd letters square to zero)")

# a shuffled word normalizes to the same monomial up to the transport sign
word = [("p", "a"), ("q", "b"), ("q", "a"), ("t", "u")]
print("\nnormal form of p_a q_b q_a t_u:", normalize(sig, F, word))

# ---------------------------------------------------------------- Weyl layer

W = Flavor.SFT  # p and hbar, noncommutative
pa, qa_w = Element.term(sig, W, p={"a": 1}), Element.term(sig, W, q={"a": 1})
print("\nWeyl product: p_g before q_g adds kappa_g hbar contraction terms (Wick formula).")
print("odd orbit a:  p_a * q_a =", mul_weyl(pa, qa_w))
print("              q_a * p_a =", mul_weyl(qa_w, pa))
print("   anticommutator q_a p_a + p_a q_a =",
      mul_weyl(qa_w, pa) + mul_weyl(pa, qa_w))

pc, qc_w = Element.term(sig, W, p={"c": 1}), Element.term(sig, W, q={"c": 1})
print("even orbit c: p_c * q_c =", mul_weyl(pc, qc_w),
      "  (kappa_c = 3 scales the contraction)")
print("   commutator q_c p_c - p_c q_c =",
      mul_weyl(qc_w, pc) - mul_weyl(pc, qc_w))
