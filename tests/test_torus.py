import math

import numpy as np
import pytest

from phlab.errors import NotHyperbolicError, TooManyPointsError
from phlab.torus import (
    CAT_MAP,
    IntegerMatrix,
    ToralAutomorphism,
    cat_power_product,
    eigen_split,
    enumerate_periodic,
    fixed_point_count,
    identity_matrix,
    periodic_order,
    reduce_torus,
    smith_normal_form,
    torus_displacement,
    torus_distance,
)

D = IntegerMatrix(CAT_MAP)
GOLDEN_PLUS = (3.0 + math.sqrt(5.0)) / 2.0
GOLDEN_MINUS = (3.0 - math.sqrt(5.0)) / 2.0


def test_power_identity_cases():
    assert D.power(1) == D
    assert D.power(2) == IntegerMatrix([[5, 3], [3, 2]])
    assert D.power(0) == identity_matrix(2)


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        D.power(-1)


def test_unimodular_under_power_and_inverse():
    for n in range(0, 9):
        assert abs(D.power(n).determinant()) == 1
    assert abs(D.inverse().determinant()) == 1
    assert D @ D.inverse() == identity_matrix(2)


def test_non_unimodular_rejected():
    with pytest.raises(ValueError):
        IntegerMatrix([[2, 0], [0, 2]])


def test_eigen_split_cat_map():
    s = eigen_split(D)
    # roots of lambda^2 - 3 lambda + 1
    assert abs(s.eigenvalues[0] - GOLDEN_PLUS) < 1e-12
    assert abs(s.eigenvalues[1] - GOLDEN_MINUS) < 1e-12
    residual = D.to_float() @ s.eigenvectors - s.eigenvectors * s.eigenvalues
    assert np.max(np.linalg.norm(residual, axis=0)) < 1e-12
    assert np.allclose(np.linalg.norm(s.eigenvectors, axis=0), 1.0)


def test_eigen_split_square():
    s = eigen_split(D.power(2))
    assert abs(s.eigenvalues[0] - GOLDEN_PLUS**2) < 1e-10


def test_eigen_split_not_hyperbolic():
    with pytest.raises(NotHyperbolicError):
        eigen_split(IntegerMatrix([[0, 1], [1, 0]]))


def test_block_product_ordering():
    for n, m in [(2, 1), (3, 1), (4, 2)]:
        auto = cat_power_product(n, m)
        lams = auto.splitting.eigenvalues
        luu, lu, ls, lss = lams
        assert lss < ls < 1.0 < lu < luu
        assert abs(luu * lss - 1.0) < 1e-12
        assert abs(lu * ls - 1.0) < 1e-12


def test_apply_basic():
    auto = ToralAutomorphism(CAT_MAP)
    assert np.allclose(auto.apply([0.0, 0.0]), [0.0, 0.0])
    assert np.allclose(auto.apply([0.5, 0.5]), [0.5, 0.0])


def test_apply_inverse_round_trip(rng):
    auto = ToralAutomorphism(CAT_MAP)
    x = rng.random((1000, 2))
    err = torus_distance(auto.apply_inverse(auto.apply(x)), x)
    assert np.max(err) < 1e-14


def test_reduce_torus_canonical():
    out = reduce_torus(np.array([1.0, -0.0, 2.5, -0.25]))
    assert np.allclose(out, [0.0, 0.0, 0.5, 0.75])
    assert np.all(reduce_torus(out) == out)


def test_reduce_torus_bitwise_equals_np_mod(rng):
    """x - floor(x) rounds the same value once as np.mod(x, 1.0)."""
    edges = np.array([-1e-17, 0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e300, -1e300])
    x = np.concatenate([
        edges,
        rng.normal(size=100_000),
        rng.normal(size=100_000) * 1e-300,  # tiny, subnormal included
        (rng.random((100_000)) - 0.5) * 40.0,  # image-sized, as x @ A.T before reduction
    ])
    want = np.mod(x, 1.0)
    assert want[0] == 1.0  # the case the canonical-rep guard exists for
    want[want >= 1.0] = 0.0
    assert np.array_equal(reduce_torus(x).view(np.int64), want.view(np.int64))


def brute_force_count(matrix, n):
    """Independent oracle: scan the rational lattice with denominator |det|."""
    p = matrix.power(n)
    b = np.array(
        [[p.entries[i][j] - (1 if i == j else 0) for j in range(2)] for i in range(2)],
        dtype=np.int64,
    )
    q = abs(round(float(np.linalg.det(b))))
    count = 0
    for i in range(q):
        for j in range(q):
            v = b @ np.array([i, j])
            if v[0] % q == 0 and v[1] % q == 0:
                count += 1
    return count


def test_fixed_point_counts():
    expected = [1, 5, 16, 45, 121]
    got = [fixed_point_count(D, n) for n in range(1, 6)]
    assert got == expected
    # brute-force lattice oracle for the first few periods
    for n in range(1, 5):
        assert brute_force_count(D, n) == expected[n - 1]


def test_enumerate_matches_count():
    for n in range(1, 9):
        pts = enumerate_periodic(D, n)
        assert len(pts) == fixed_point_count(D, n)


def test_enumerate_points_are_periodic():
    p = D.power(4)
    b = np.array(
        [[p.entries[i][j] - (1 if i == j else 0) for j in range(2)] for i in range(2)]
    )
    for x in enumerate_periodic(D, 4):
        v = b @ x
        assert np.max(np.abs(v - np.round(v))) < 1e-9


def test_enumerate_degenerate_period():
    with pytest.raises(ValueError):
        enumerate_periodic(D, 0)


def test_enumerate_cap():
    with pytest.raises(TooManyPointsError):
        enumerate_periodic(D, 5, cap=10)


def test_periodic_order_is_enumeration_order():
    for matrix, n in ((D, 5), (cat_power_product(3, 1).matrix, 1),
                      (cat_power_product(4, 2).matrix, 1), (cat_power_product(2, 1).matrix, 2)):
        keys = [periodic_order(matrix, n, x) for x in enumerate_periodic(matrix, n)]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)


def test_apply_permutes_periodic_lattice():
    auto = ToralAutomorphism(CAT_MAP)
    for n in range(1, 6):
        pts = np.array(enumerate_periodic(D, n))
        images = auto.apply(pts)
        # each image must coincide with exactly one lattice point
        for img in images:
            dists = torus_distance(pts, img)
            assert np.sum(dists < 1e-9) == 1


def test_smith_normal_form_properties(rng):
    for _ in range(25):
        mat = rng.integers(-5, 6, size=(3, 3))
        if round(float(np.linalg.det(mat))) == 0:
            continue
        u, s, v = smith_normal_form(mat.tolist())
        u = np.array(u)
        v = np.array(v)
        s = np.array(s)
        assert abs(round(float(np.linalg.det(u)))) == 1
        assert abs(round(float(np.linalg.det(v)))) == 1
        assert np.array_equal(u @ mat @ v, s)
        assert np.array_equal(s, np.diag(np.diag(s)))


def test_block_4x4_requires_block_structure():
    with pytest.raises(ValueError):
        eigen_split(IntegerMatrix([
            [2, 1, 1, 0],
            [1, 1, 0, 0],
            [0, 0, 2, 1],
            [0, 0, 1, 1],
        ]))


def test_torus_displacement_matches_np_round_bitwise():
    """rint against the former np.round(d): ties, signed zero, large values."""
    big = [2.0**52, 2.0**52 + 1, 2.0**53, -(2.0**52) - 0.5, 1e300, -1e300,
           4503599627370495.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)]
    d = np.array([0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.0, -0.0, 0.49999999999999994] + big)
    zero = np.zeros_like(d)
    want = d - np.round(d)
    got = torus_displacement(d, zero)
    assert got.tobytes() == want.tobytes()
    # batches and single points, with the subtraction inside
    rng = np.random.default_rng(5)
    x, y = rng.random((1000, 4)) * 10 - 5, rng.random(4)
    assert torus_displacement(x, y).tobytes() == ((x - y) - np.round(x - y)).tobytes()
    assert torus_displacement(x[0], y).tobytes() == ((x[0] - y) - np.round(x[0] - y)).tobytes()
    # ties round to even, so a half-period displacement keeps either sign
    assert float(torus_displacement(0.75, 0.25)) == 0.5
    assert float(torus_displacement(1.75, 0.25)) == -0.5
    assert float(torus_displacement(-0.0, 0.0)) == 0.0
