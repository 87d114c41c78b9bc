"""Mod-2 homology of the 3-fold cyclic branched cover, from a Seifert matrix.

For a Seifert matrix V of a link, the first homology of the 3-fold cover
branched over the link is presented by the block matrix

    M = [ V + V^T   V     ]
        [ V^T       V + V^T ]

and the Z2-dimension we need is the nullity of M mod 2.  This is the exponent
appearing in the magnitude of the closed-braid invariant, computed here by an
entirely independent route (integer matrices and F2 elimination, no braid or
algebra arithmetic).  Everything here is integer plus F2: the two Seifert
determinants (double cover order, symplectic check) use the package's one
determinant, the integer `intspan.exact_determinant`.

`burau_nullity` reads the braid instead: nu, the F4-nullity of B(w) - I for
the reduced Burau matrix B at a primitive cube root of unity w in
F4 = F2[w]/(w^2 + w + 1).  On every bundled link 2 nu is the dimension above,
and `braids.closed_form` builds the invariant's sign and magnitude from it;
both are findings the tests pin, not theorems.  Conventions: row vectors,
letter matrices multiplied left to right, -t = t in characteristic 2, and
sigma_i^-1 the inverse over F4.  When 3 | n the braid is stabilized once first
(letter n on n + 1 strands): det(I - B(t)) = [n]_t Delta(t) (Birman 1974), and
[n]_w = 0 when 3 | n, so without that step B(w) - I gains kernel the link
does not account for.
"""

from __future__ import annotations

from quatbraid import gf2
from quatbraid.intspan import exact_determinant


def check_matrix(v: list[list[int]]):
    """Raise ValueError unless v is a square list of integer rows."""
    if not isinstance(v, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in v
    ):
        raise ValueError("Seifert matrix must be a list of integer rows")
    if any(len(row) != len(v) for row in v):
        raise ValueError("Seifert matrix must be square")


def triple_cover_presentation(v: list[list[int]]) -> list[list[int]]:
    """The 2m x 2m block presentation matrix [[V+Vt, V], [Vt, V+Vt]]."""
    check_matrix(v)
    m = len(v)
    big = [[0] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        for j in range(m):
            s = v[i][j] + v[j][i]
            big[i][j] = s
            big[i][m + j] = v[i][j]
            big[m + i][j] = v[j][i]
            big[m + i][m + j] = s
    return big


def triple_cover_dim(v: list[list[int]]) -> int:
    """dim of the mod-2 first homology of the 3-fold branched cover."""
    big = triple_cover_presentation(v)
    size = len(big)
    rows = [sum(((x & 1) << j) for j, x in enumerate(row)) for row in big]
    return gf2.nullity(rows, size)


def _sym_determinant(v: list[list[int]], sign: int) -> int:
    """det(V + sign * V^T) over the integers."""
    check_matrix(v)
    m = len(v)
    return exact_determinant([[v[i][j] + sign * v[j][i] for j in range(m)] for i in range(m)])


def double_cover_determinant(v: list[list[int]]) -> int:
    """det(V + V^T): the order of the double branched cover homology, up to sign."""
    return _sym_determinant(v, 1)


def symplectic_check(v: list[list[int]]) -> bool:
    """det(V - V^T) = +/-1; holds for any knot Seifert matrix (advisory for links)."""
    return abs(_sym_determinant(v, -1)) == 1


# --- the reduced Burau matrix at a cube root of unity, over F4 ---------------
# Row i of the matrix of sigma_i at columns i-1, i, i+1 (t = w, and -t = t in
# characteristic 2), then of sigma_i^-1, its inverse over F4; every other row is
# the identity's.  Scalars are gf2's bit pairs: (1, 0) = 1, (0, 1) = w, (1, 1) = w^2.
_LETTER_ROWS = {1: ((0, 1), (0, 1), (1, 0)), -1: ((1, 0), (1, 1), (1, 1))}


def burau_minus_identity(n: int, letters) -> list[tuple[int, int]]:
    """The columns of B(w) - I over F4, each an F4 vector of length n - 1 in gf2's
    (a, b) form, for the reduced Burau matrix B(w) of the word on n strands.

    B is the product of the letter matrices from left to right and acts on row
    vectors.  The matrix M of a letter differs from I only in row i, so B M
    adds M[i, j] times column i of B to column j != i and multiplies column i by M[i, i].
    """
    cols = [(1 << j, 0) for j in range(n - 1)]
    for a in letters:
        i = abs(a) - 1
        before, diag, after = _LETTER_ROWS[1 if a > 0 else -1]
        for j, c in ((i - 1, before), (i + 1, after)):
            if 0 <= j < n - 1:
                cols[j] = gf2.f4_add_times(cols[j], c, cols[i])
        cols[i] = gf2.f4_times(cols[i], diag)
    return [gf2.f4_add_times(col, (1, 0), (1 << j, 0)) for j, col in enumerate(cols)]


def burau_nullity(beta) -> int:
    """nu = nullity over F4 of B(w) - I for the braid word beta (a `braids.BraidWord`).

    det(I - B(t)) = [n]_t Delta(t) (Birman 1974), and [n]_w = 0 when 3 | n, so
    in that case beta is first stabilized once (`BraidWord.stabilize`).
    """
    if beta.strands % 3 == 0:
        beta = beta.stabilize(1)
    return gf2.f4_nullity(burau_minus_identity(beta.strands, beta.letters), beta.strands - 1)
