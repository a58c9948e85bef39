"""Exact and floating-point machinery for hyperbolic linear toral automorphisms.

Integer matrices are kept in arbitrary-precision Python ints, so matrix powers
and periodic-point counts never overflow.  Spectral data is computed in closed
form from the 2x2 characteristic polynomial; 4x4 matrices must be block
diagonal (two 2x2 blocks), which covers every automorphism used here.

Torus points are plain float ndarrays with coordinates reduced to [0, 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHyperbolicError, TooManyPointsError

#: classical cat-map generator D
CAT_MAP = ((2, 1), (1, 1))

HYPERBOLICITY_TOL = 1e-9
ENUMERATION_CAP = 10**6


def reduce_torus(x):
    """Reduce coordinates modulo 1 into [0, 1); maps exact 1.0 to 0.0."""
    x = np.asarray(x, dtype=float)
    # x - floor(x) rounds the same real value once as np.mod(x, 1.0), so it is
    # bitwise equal for finite x, and much cheaper; subtract in place to keep
    # one output array
    out = np.floor(x)
    np.subtract(x, out, out=out)
    # a tiny negative x like -1e-17 rounds up to 1.0; force the canonical rep
    out[out >= 1.0] = 0.0
    return out


def reduce_point(x):
    """reduce_torus on one point, a sequence of Python floats, as a list of
    floats: the same x - floor(x) and 1.0 -> 0.0, so the same bits.  A zero
    difference is +0.0 there, also from x = -0.0, where the int floor would
    leave -0.0.  A NaN or an infinity, which math.floor refuses, goes through
    reduce_torus itself, so it gives NaN (or raises) as numpy's error state
    says."""
    out = []
    try:
        for v in x:
            v -= math.floor(v)
            out.append(v if 0.0 < v < 1.0 else 0.0)
    except (ValueError, OverflowError):
        return reduce_torus(np.array(x, dtype=float)).tolist()
    return out


def torus_displacement(x, y):
    """Shortest displacement vector from y to x on the torus, in [-1/2, 1/2]."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    d -= np.rint(d)  # np.round at 0 decimals, without its dispatch
    return d


def torus_distance(x, y):
    """Euclidean length of the shortest torus displacement."""
    return np.linalg.norm(torus_displacement(x, y), axis=-1)


class IntegerMatrix:
    """A d x d unimodular integer matrix with exact arithmetic."""

    def __init__(self, entries):
        rows = tuple(tuple(int(v) for v in row) for row in entries)
        d = len(rows)
        if d == 0 or any(len(r) != d for r in rows):
            raise ValueError("entries must form a square matrix")
        self.entries = rows
        self.dim = d
        if abs(self.determinant()) != 1:
            raise ValueError("matrix must be unimodular (|det| = 1)")

    def determinant(self):
        return _int_det([list(r) for r in self.entries])

    def __matmul__(self, other):
        return IntegerMatrix(_int_matmul(self.entries, other.entries))

    def __eq__(self, other):
        return isinstance(other, IntegerMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntegerMatrix({list(map(list, self.entries))})"

    def power(self, n):
        """Exact n-th power, n >= 0; power(0) is the identity."""
        if n < 0:
            raise ValueError("power requires n >= 0; use inverse() first")
        result = identity_matrix(self.dim)
        base = self
        k = n
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def inverse(self):
        """Exact inverse via the adjugate; stays integer because |det| = 1."""
        d = self.dim
        det = self.determinant()
        adj = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                minor = [
                    [self.entries[r][c] for c in range(d) if c != j]
                    for r in range(d)
                    if r != i
                ]
                adj[j][i] = (-1) ** (i + j) * _int_det(minor)
        return IntegerMatrix([[v * det for v in row] for row in adj])

    def to_float(self):
        return np.array(self.entries, dtype=float)


def identity_matrix(d):
    return IntegerMatrix([[1 if i == j else 0 for j in range(d)] for i in range(d)])


def _int_matmul(a, b):
    d = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)]
        for i in range(d)
    ]


def _int_det(m):
    """Exact determinant by cofactor expansion (matrices here are tiny)."""
    d = len(m)
    if d == 1:
        return m[0][0]
    if d == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(d):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _int_det(minor)
    return total


@dataclass(frozen=True)
class SpectralSplitting:
    """Eigenvalues sorted by decreasing modulus with unit eigenvectors.

    ``eigenvalues[i]`` belongs to ``eigenvectors[:, i]``.  All data is real:
    the supported matrices (2x2 hyperbolic and their block-diagonal sums)
    always have real spectra.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


#: eigen-index, in a 4x4 splitting's modulus order (uu, u, s, ss), of each
#: chart axis (uu, ss, u, s)
CHART_ORDER = [0, 3, 1, 2]


def _eigen_2x2(entries):
    """Closed-form eigenpairs of a 2x2 integer matrix, sorted by |lambda| desc."""
    (a, b), (c, d) = entries
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4 * det
    if disc < 0:
        raise NotHyperbolicError("complex spectrum: matrix is not hyperbolic")
    root = math.sqrt(disc)
    lams = [(tr + root) / 2.0, (tr - root) / 2.0]
    pairs = []
    for lam in lams:
        if b != 0:
            v = np.array([b, lam - a], dtype=float)
        elif c != 0:
            v = np.array([lam - d, c], dtype=float)
        else:
            v = np.array([1.0, 0.0]) if abs(lam - a) < abs(lam - d) else np.array([0.0, 1.0])
        v = v / np.linalg.norm(v)
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        pairs.append((lam, v))
    pairs.sort(key=lambda p: -abs(p[0]))
    return pairs


def eigen_split(matrix: IntegerMatrix) -> SpectralSplitting:
    """Spectral splitting of a 2x2 matrix or a block-diagonal 4x4 (2+2) matrix.

    Raises NotHyperbolicError if any eigenvalue has modulus within 1e-9 of 1.
    """
    d = matrix.dim
    if d == 2:
        pairs = _eigen_2x2(matrix.entries)
        vecs = [np.array(v) for _, v in pairs]
    elif d == 4:
        e = matrix.entries
        off = [e[i][j] for i in (0, 1) for j in (2, 3)] + [
            e[i][j] for i in (2, 3) for j in (0, 1)
        ]
        if any(v != 0 for v in off):
            raise ValueError("4x4 matrices must be block diagonal (2+2)")
        top = _eigen_2x2(tuple(tuple(e[i][j] for j in (0, 1)) for i in (0, 1)))
        bot = _eigen_2x2(tuple(tuple(e[i][j] for j in (2, 3)) for i in (2, 3)))
        pairs = [(lam, np.concatenate([v, np.zeros(2)])) for lam, v in top]
        pairs += [(lam, np.concatenate([np.zeros(2), v])) for lam, v in bot]
        pairs.sort(key=lambda p: -abs(p[0]))
        vecs = [v for _, v in pairs]
    else:
        raise ValueError("only 2x2 and block-diagonal 4x4 matrices are supported")
    lams = np.array([lam for lam, _ in pairs])
    if np.any(np.abs(np.abs(lams) - 1.0) < HYPERBOLICITY_TOL):
        raise NotHyperbolicError(f"eigenvalue of modulus ~1 found: {lams}")
    return SpectralSplitting(lams, np.column_stack(vecs))


class ToralAutomorphism:
    """A hyperbolic unimodular integer matrix acting on T^d, with its splitting."""

    def __init__(self, matrix):
        if not isinstance(matrix, IntegerMatrix):
            matrix = IntegerMatrix(matrix)
        self.matrix = matrix
        self.dim = matrix.dim
        self.splitting = eigen_split(matrix)
        self._m = matrix.to_float()
        self._m_inv = matrix.inverse().to_float()

    def apply(self, x):
        """(A x) mod 1; accepts a single point or an (N, d) batch."""
        x = np.asarray(x, dtype=float)
        return reduce_torus(x @ self._m.T)

    def apply_inverse(self, x):
        x = np.asarray(x, dtype=float)
        return reduce_torus(x @ self._m_inv.T)

    def apply_point(self, x, inverse=False):
        """apply (or apply_inverse) on one point, a sequence of floats, as a
        list of floats: the same one-row matmul, reduced by reduce_point."""
        m = self._m_inv if inverse else self._m
        return reduce_point((np.array(x) @ m.T).tolist())

    def __repr__(self):
        return f"ToralAutomorphism({list(map(list, self.matrix.entries))})"


def cat_power_product(n, m):
    """The block automorphism D^n x D^m on T^4 (n > m >= 1 for the usual order)."""
    dn = IntegerMatrix(CAT_MAP).power(n).entries
    dm = IntegerMatrix(CAT_MAP).power(m).entries
    block = [
        [dn[0][0], dn[0][1], 0, 0],
        [dn[1][0], dn[1][1], 0, 0],
        [0, 0, dm[0][0], dm[0][1]],
        [0, 0, dm[1][0], dm[1][1]],
    ]
    return ToralAutomorphism(block)


def _power_minus_identity(matrix: IntegerMatrix, n: int):
    """The integer rows of A^n - I."""
    p = matrix.power(n).entries
    return [[p[i][j] - (1 if i == j else 0) for j in range(matrix.dim)]
            for i in range(matrix.dim)]


def fixed_point_count(matrix: IntegerMatrix, n: int) -> int:
    """|det(A^n - I)| in exact integer arithmetic (Lefschetz fixed-point count)."""
    if n < 1:
        raise ValueError("period n must be >= 1")
    det = _int_det(_power_minus_identity(matrix, n))
    if det == 0:
        raise NotHyperbolicError(f"A^{n} has eigenvalue 1; count undefined")
    return abs(det)


def smith_normal_form(mat):
    """Return (U, S, V) with S = U @ mat @ V diagonal and U, V unimodular.

    Elementary integer row/column operations only; entries stay exact.
    """
    a = [list(map(int, row)) for row in mat]
    d = len(a)
    u = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    v = [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    for t in range(d):
        while True:
            pivot = None
            best = None
            for i in range(t, d):
                for j in range(t, d):
                    val = abs(a[i][j])
                    if val and (best is None or val < best):
                        best = val
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot != (t, t):
                if pivot[0] != t:
                    swap_rows(t, pivot[0])
                if pivot[1] != t:
                    swap_cols(t, pivot[1])
            clean = True
            for i in range(t + 1, d):
                q = a[i][t] // a[t][t]
                if q:
                    add_row(i, t, q)
                if a[i][t]:
                    clean = False
            for j in range(t + 1, d):
                q = a[t][j] // a[t][t]
                if q:
                    add_col(j, t, q)
                if a[t][j]:
                    clean = False
            if clean:
                break
    return u, a, v


def _periodic_lattice(matrix: IntegerMatrix, n: int):
    """Smith data (v, diag, lcm) of A^n - I: the period-n points are
    v (combo * lcm / diag) / lcm mod 1 for combo in the box range(diag)."""
    d = matrix.dim
    _, s, v = smith_normal_form(_power_minus_identity(matrix, n))
    diag = [abs(s[i][i]) for i in range(d)]
    return v, diag, math.lcm(*diag)


def enumerate_periodic(matrix: IntegerMatrix, n: int, cap: int = ENUMERATION_CAP):
    """All period-n points of A on the torus: solutions of (A^n - I)x in Z^d.

    Uses the Smith normal form of A^n - I, so every point is an exact rational
    reduced to [0, 1).  Raises TooManyPointsError above ``cap`` points.  The
    points come in the order of periodic_order.
    """
    count = fixed_point_count(matrix, n)
    if count > cap:
        raise TooManyPointsError(f"{count} period-{n} points exceed cap {cap}")
    d = matrix.dim
    v, diag, lcm = _periodic_lattice(matrix, n)
    scale = [lcm // di for di in diag]
    points = []
    for combo in itertools.product(*(range(di) for di in diag)):
        nums = [
            sum(v[j][k] * combo[k] * scale[k] for k in range(d)) % lcm
            for j in range(d)
        ]
        points.append(np.array([num / lcm for num in nums]))
    assert len(points) == count
    return points


def periodic_order(matrix: IntegerMatrix, n: int, x) -> tuple:
    """Sort key of the period-n point x in enumerate_periodic's order, found
    without listing the points: the combo that maps to x."""
    v, diag, lcm = _periodic_lattice(matrix, n)
    v_inv = IntegerMatrix(v).inverse().entries
    nums = [round(float(xi) * lcm) % lcm for xi in x]
    return tuple(
        sum(v_inv[k][j] * nums[j] for j in range(matrix.dim)) % lcm // (lcm // diag[k])
        for k in range(matrix.dim)
    )
