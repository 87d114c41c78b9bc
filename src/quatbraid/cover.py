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
    check_matrix(v)
    if not v:
        return 0
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
