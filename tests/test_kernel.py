import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import count_lattice_points_in_parallelepiped, mat_mul, primitive_part

from tropint.kernel import (
    QQ,
    LatticeBasis,
    dot,
    hermite_normal_form,
    hnf_basis,
    identity_matrix,
    integer_solve,
    kernel_lattice,
    lattice_index,
    mat_det,
    mat_rank,
    mat_vec,
    quotient_generator,
    smith_normal_form,
    subspace_lattice,
    vec_gcd,
)


def test_primitive_part():
    assert primitive_part((4, -6, 2)) == (2, -3, 1)
    assert primitive_part((1, 0)) == (1, 0)
    assert primitive_part((0, -5, 0)) == (0, -1, 0)
    with pytest.raises(ValueError):
        primitive_part((0, 0))


def test_hnf_identity_and_diagonal():
    eye = identity_matrix(3)
    h, u = hermite_normal_form(eye)
    assert h == eye and u == eye
    h, u = hermite_normal_form(((2, 0), (0, 3)))
    assert h == ((2, 0), (0, 3))
    assert mat_mul(u, ((2, 0), (0, 3))) == h


def test_hnf_lattice_index_oracle():
    m = ((6, 4), (4, 6))
    h, u = hermite_normal_form(m)
    assert mat_mul(u, m) == h
    assert abs(int(mat_det(h))) == 20
    assert count_lattice_points_in_parallelepiped(m) == 20


def test_hnf_row_span_preserved():
    rng = random.Random(7)
    for _ in range(25):
        rows = tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3))
        h, u = hermite_normal_form(rows)
        assert mat_mul(u, rows) == h
        assert abs(int(mat_det(u))) == 1
        # Mutual membership: every row of h is an integer combination of the
        # rows of m and vice versa.
        for v in h:
            assert integer_solve(list(zip(*rows)), v) is not None
        for v in rows:
            assert integer_solve(list(zip(*h)), v) is not None


@st.composite
def hnf_shaped(draw):
    """Rows of Hermite normal form shape: positive leading entries in
    strictly increasing columns, entries above them in [0, leading)."""
    ncols = draw(st.integers(1, 4))
    cols = sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=1)))
    rows = []
    for col in cols:
        pivot = draw(st.integers(1, 4))
        # Earlier rows were drawn freely in this column; bring them into range.
        for above in rows:
            above[col] = draw(st.integers(0, pivot - 1))
        rows.append([0] * col + [pivot] + [draw(st.integers(-4, 4))
                                           for _ in range(ncols - col - 1)])
    return rows, cols


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hnf_shaped(), st.sampled_from(("hnf", "above", "negative", "zero", "dependent",
                                      "random")), st.data())
def test_hnf_basis_matches_full_elimination(shape, kind, data):
    rows, cols = shape
    ncols = len(rows[0])
    i = data.draw(st.integers(0, len(rows) - 1))
    if kind == "above" and i > 0:
        rows[data.draw(st.integers(0, i - 1))][cols[i]] = rows[i][cols[i]]
    elif kind == "negative":
        rows[i] = [-x for x in rows[i]]
    elif kind == "zero":
        rows.insert(i, [0] * ncols)
    elif kind == "dependent":
        k = data.draw(st.integers(-2, 2))
        rows.append([a + k * b for a, b in zip(rows[i], rows[-1])])
    elif kind == "random":
        rows = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=ncols,
                                           max_size=ncols), min_size=1, max_size=4))
    h, _ = hermite_normal_form(rows)
    assert hnf_basis(rows) == tuple(row for row in h if any(row))


def test_hnf_basis_of_an_hnf_basis_runs_no_elimination(monkeypatch):
    import tropint.kernel as kernel

    def fail(m):
        raise AssertionError("hermite_normal_form called on an HNF basis")

    monkeypatch.setattr(kernel, "hermite_normal_form", fail)
    assert hnf_basis([(2, 1, 5), (0, 3, -1)]) == ((2, 1, 5), (0, 3, -1))
    assert hnf_basis(identity_matrix(3)) == identity_matrix(3)


def test_primitive_part_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        primitive_part((QQ(1, 2), 1))
    assert primitive_part((QQ(4), 6)) == (2, 3)
    # vec_gcd takes ints only; it no longer truncates a rational to one.
    with pytest.raises(TypeError):
        vec_gcd((QQ(1, 2), 2))


def test_non_integer_entries_are_rejected_not_truncated():
    half = QQ(1, 2)
    with pytest.raises(ValueError):
        LatticeBasis(2, ((half, 1),))
    for elimination in (hnf_basis, hermite_normal_form, smith_normal_form):
        with pytest.raises(ValueError):
            elimination([(half, 1)])
    # Integers written as rationals pass, as plain ints.
    basis = LatticeBasis(2, ((QQ(2), 1),))
    assert basis.vectors == ((2, 1),) and type(basis.vectors[0][0]) is int


def test_smith_examples():
    s, u, v = smith_normal_form(((2, 0), (0, 2)))
    assert s == ((2, 0), (0, 2))
    s, u, v = smith_normal_form(((1, 0), (0, 6)))
    assert s == ((1, 0), (0, 6))
    m = ((2, 4), (6, 8))
    s, u, v = smith_normal_form(m)
    assert s == ((2, 0), (0, 4))
    assert mat_mul(mat_mul(u, m), v) == s


def test_smith_divisibility_chain_random():
    rng = random.Random(11)
    for _ in range(40):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(nc)) for _ in range(nr))
        s, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == s
        assert abs(int(mat_det(u))) == 1
        assert abs(int(mat_det(v))) == 1
        diag = [s[i][i] for i in range(min(nr, nc))]
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0) or (a == 0 and b == 0)
        for i in range(nr):
            for j in range(nc):
                if i != j:
                    assert s[i][j] == 0


def test_subspace_lattice_examples():
    b = subspace_lattice([(QQ(1, 2), QQ(1, 2))], 2)
    assert b.vectors == ((1, 1),)
    b = subspace_lattice([(1, 0, 0), (0, 1, 0)], 3)
    assert b.vectors == hnf_basis(((1, 0, 0), (0, 1, 0)))
    b = subspace_lattice([(2, 2, 0), (0, 3, 3)], 3)
    assert b.rank == 2
    assert b.vectors == hnf_basis(((1, 1, 0), (0, 1, 1)))


def test_subspace_lattice_saturation_oracle():
    # Enumerate small integer points of the plane spanned by (2,2,0),(0,3,3)
    # and check each is an integer combination of the computed basis.
    b = subspace_lattice([(2, 2, 0), (0, 3, 3)], 3)
    normal = (1, -1, 1)
    for x in range(-3, 4):
        for y in range(-3, 4):
            for z in range(-3, 4):
                if dot(normal, (x, y, z)) == 0:
                    assert b.coordinates((x, y, z)) is not None


def test_quotient_generator():
    z2 = LatticeBasis(2, ((1, 0), (0, 1)))
    sub = LatticeBasis(2, ((1, 0),))
    u = quotient_generator(sub, z2)
    assert abs(int(mat_det((sub.vectors[0], u)))) == 1
    sub = LatticeBasis(2, ((1, 1),))
    u = quotient_generator(sub, z2)
    assert abs(int(mat_det(((1, 1), u)))) == 1
    rank1 = LatticeBasis(2, ((1, 2),))
    empty = LatticeBasis(2, ())
    assert quotient_generator(empty, rank1) in ((1, 2), (-1, -2))


def test_quotient_generator_hnf_property():
    rng = random.Random(3)
    for _ in range(30):
        v1 = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        v2 = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        if mat_rank([v1, v2]) != 2:
            continue
        sup = subspace_lattice([v1, v2], 3)
        sub = subspace_lattice([v1], 3)
        u = quotient_generator(sub, sup)
        assert hnf_basis(sub.vectors + (u,)) == sup.vectors


def test_quotient_generator_torsion_rejected():
    sup = LatticeBasis(2, ((1, 0), (0, 1)))
    sub = LatticeBasis(2, ((2, 0),))
    with pytest.raises(ValueError, match="torsion"):
        quotient_generator(sub, sup)


def test_lattice_index_basic():
    z1 = LatticeBasis(1, ((1,),))
    assert lattice_index(((1,),), z1, z1) == 1
    assert lattice_index(((3,),), z1, z1) == 3
    z2 = LatticeBasis(2, ((1, 0), (0, 1)))
    assert lattice_index(((1, 0), (0, 1)), z2, z2) == 1
    with pytest.raises(ValueError, match="injective"):
        lattice_index(((0,),), z1, z1)


def test_lattice_index_fundamental_domain_oracle():
    rng = random.Random(2026)
    done = 0
    while done < 200:
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        r = rng.randint(1, min(2, n))
        vecs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(r)]
        if mat_rank(vecs) != r:
            continue
        f = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m))
        imgs = [mat_vec(f, v) for v in vecs]
        if mat_rank(imgs) != r:
            continue
        source = subspace_lattice(vecs, n)
        target = subspace_lattice(imgs, m)
        idx = lattice_index(f, source, target)
        coords = [target.coordinates(mat_vec(f, b)) for b in source.vectors]
        assert all(c is not None for c in coords)
        assert count_lattice_points_in_parallelepiped(coords) == idx
        done += 1


def test_integer_solve():
    assert integer_solve([(2, 0), (0, 3)], (4, 9)) == (2, 3)
    assert integer_solve([(2,)], (3,)) is None
    sol = integer_solve([(1, 1, 1), (-1, 0, 0)], (1, 0))
    assert sol is not None and dot((1, 1, 1), sol) == 1 and sol[0] == 0


def test_kernel_lattice():
    k = kernel_lattice([(1, -1, 1)], 3)
    assert len(k) == 2
    for v in k:
        assert dot((1, -1, 1), v) == 0
    assert kernel_lattice([(1, 0), (0, 1)], 2) == ()
