"""Property tests of the exact core against sympy's rational arithmetic.

Coset labels, containment and the sublattice index are checked against a
rational solve, and the greedy independent-row scan against sympy's rank,
with entries up to 2^20 (past the int64 label range, so both the int64 and
the Python-integer paths run).
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latcoset import (IntegerLattice, NotASublattice, coset_label,  # noqa: E402
                      index_in_superlattice)
from latcoset.lattice import independent_rows, int_det  # noqa: E402

BIG = 2 ** 20


def vectors(k, bound):
    return st.lists(st.integers(-bound, bound), min_size=k, max_size=k)


def nonsingular(k, bound):
    return st.lists(vectors(k, bound), min_size=k, max_size=k).filter(
        lambda rows: int_det(rows) != 0)


def is_integral(mat) -> bool:
    return all(v.is_integer for v in mat)


@st.composite
def sub_sup_pairs(draw):
    """(sup, sub) rows; half the draws build sub = sup X, so it is contained."""
    k = draw(st.integers(1, 4))
    sup = draw(nonsingular(k, BIG))
    if draw(st.booleans()):
        sub = (sympy.Matrix(sup) * sympy.Matrix(draw(nonsingular(k, 3)))).tolist()
    else:
        sub = draw(nonsingular(k, BIG))
    return sup, [[int(v) for v in row] for row in sub]


@st.composite
def lattice_and_vectors(draw):
    """(basis rows, t1, t2); half the draws put t1 - t2 in the lattice."""
    k = draw(st.integers(1, 4))
    b = draw(nonsingular(k, BIG))
    t1 = draw(vectors(k, BIG))
    if draw(st.booleans()):
        c = draw(vectors(k, 5))
        t2 = [x + sum(b[i][j] * c[j] for j in range(k)) for i, x in enumerate(t1)]
    else:
        t2 = draw(vectors(k, BIG))
    return b, t1, t2


@settings(max_examples=150, deadline=None)
@given(sub_sup_pairs())
def test_containment_and_index_match_rational_solve(pair):
    sup, sub = pair
    x = sympy.Matrix(sup).inv() * sympy.Matrix(sub)  # sup x = sub
    lat_sub, lat_sup = IntegerLattice(np.array(sub)), IntegerLattice(np.array(sup))
    if is_integral(x):
        assert index_in_superlattice(lat_sub, lat_sup) == abs(x.det())
    else:
        with pytest.raises(NotASublattice):
            index_in_superlattice(lat_sub, lat_sup)


@settings(max_examples=150, deadline=None)
@given(lattice_and_vectors())
def test_equal_labels_iff_difference_in_lattice(case):
    b, t1, t2 = case
    lat = IntegerLattice(np.array(b))
    diff = sympy.Matrix([x - y for x, y in zip(t1, t2)])
    member = is_integral(sympy.Matrix(b).inv() * diff)
    l1, l2 = coset_label(t1, lat), coset_label(t2, lat)
    assert (l1 == l2) == member
    assert all(0 <= v < d for v, d in zip(l1, lat.smith.diagonal))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda k: st.lists(vectors(k, 4), min_size=1, max_size=8)))
def test_independent_rows_match_rank(rows):
    # the greedy scan keeps row i exactly when it raises the rank of rows[:i]
    ranks = [0] + [sympy.Matrix(rows[:i + 1]).rank() for i in range(len(rows))]
    expected = [i for i in range(len(rows)) if ranks[i + 1] > ranks[i]]
    assert independent_rows(rows) == expected
