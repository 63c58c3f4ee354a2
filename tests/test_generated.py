"""Generated-input checks: hypothesis draws signatures and search windows.

The runs are derandomized and keep no example database, so the suite sees
the same examples every time.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from sftdga import AlgebraSignature, BoundsError, Flavor, OrbitRecord, TFormRecord
from sftdga import vanishing
from sftdga.vanishing import SearchBounds

GENERATED = settings(derandomize=True, deadline=None, database=None,
                     max_examples=150)


@st.composite
def windows(draw):
    """A signature and a search window over it.  Periods may be missing and
    orbit ids unknown, so the draws reach every BoundsError of a search."""
    n = draw(st.integers(1, 5))
    h2rank = draw(st.integers(0, 2))
    c1 = tuple(draw(st.integers(-2, 2)) for _ in range(h2rank))
    orbits = tuple(
        OrbitRecord("o%d" % i, draw(st.integers(-3, 5)), draw(st.integers(1, 3)),
                    None if draw(st.integers(0, 5)) == 0 else draw(st.fractions(
                        Fraction(1, 3), 4, max_denominator=3)))
        for i in range(draw(st.integers(1, 4))))
    tforms = tuple(TFormRecord("t%d" % j, draw(st.integers(0, 2 * n - 1)))
                   for j in range(draw(st.integers(0, 2))))
    sig = AlgebraSignature(n, h2rank, c1, orbits, tforms)
    ids = [o.id for o in orbits]
    group = st.tuples(*[st.integers(-1, 1)] * h2rank)
    bounds = SearchBounds(
        max_word_length=draw(st.integers(0, 4)),
        max_hbar=draw(st.one_of(st.none(), st.integers(0, 2))),
        max_action=draw(st.one_of(st.none(), st.fractions(
            0, 8, max_denominator=3))),
        groups=draw(st.one_of(st.none(), st.lists(group, min_size=1,
                                                   max_size=3).map(tuple))),
        orbits=draw(st.sampled_from([None, None, ("zz",), tuple(ids[1:]),
                                     tuple(ids[::2])])))
    return sig, bounds


def _outcome(count, sig, flavor, bounds):
    try:
        return count(sig, flavor, bounds)
    except BoundsError as e:
        return "BoundsError: %s" % e


# n = 3 (hbar of degree 0) with a cap, and group classes under an action cap
N3 = AlgebraSignature(3, orbits=(OrbitRecord("a", 1, 1, Fraction(1)),
                                 OrbitRecord("b", -2, 2, Fraction(1, 2))))
GROUPS = AlgebraSignature(4, 1, (1,), orbits=(
    OrbitRecord("a", 1, 1, Fraction(1)), OrbitRecord("b", 2, 2, Fraction(3, 2))),
    tforms=(TFormRecord("u", 1),))


@GENERATED
@given(windows())
@example((N3, SearchBounds(max_word_length=4, max_hbar=2)))
@example((GROUPS, SearchBounds(max_word_length=4, max_action=Fraction(7, 2),
                               groups=((0,), (1,), (-1,)))))
def test_candidate_count_equals_the_listed_candidates(window):
    sig, bounds = window
    for flavor in Flavor:
        listed = _outcome(lambda *a: len(vanishing._candidate_monomials(*a)),
                          sig, flavor, bounds)
        assert _outcome(vanishing._candidate_count, sig, flavor,
                        bounds) == listed, flavor
