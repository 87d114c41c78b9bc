"""Admissible Young diagrams, Bratteli levels, path-count dimensions, eta.

A diagram is a tuple of weakly decreasing positive row lengths.  It is
(k,l)-admissible when it has at most k rows and the first row exceeds the k-th
by at most l-k.  Path counts through the admissible diagrams give the
dimensions of the quotient algebras level by level; squaring and summing at a
level gives the algebra dimension there.

"Reduced" labels identify a diagram with the one obtained by deleting all full
height-k columns, which makes the level node sets eventually periodic and
matches the usual six-object labeling of the associated category.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from quatbraid.scalar import ONE, Scalar, qpow

Diagram = tuple[int, ...]


def is_admissible(rows: Diagram, k: int, l: int) -> bool:
    if len(rows) > k:
        return False
    lam_k = rows[k - 1] if len(rows) == k else 0
    return (rows[0] if rows else 0) - lam_k <= l - k


def add_box(rows: Diagram) -> list[Diagram]:
    """All diagrams obtained by adding a single box."""
    out = []
    for i in range(len(rows)):
        if i == 0 or rows[i - 1] > rows[i]:
            out.append(rows[:i] + (rows[i] + 1,) + rows[i + 1:])
    out.append(rows + (1,))
    return out


def admissible_diagrams(k: int, l: int, n: int) -> list[Diagram]:
    """All (k,l)-admissible diagrams of size n, reachable through admissible ones."""
    return sorted(path_counts(k, l, n))


def path_counts(k: int, l: int, n: int) -> dict[Diagram, int]:
    """Number of admissible single-box paths from (1) to each level-n diagram."""
    return bratteli_levels(k, l, n)[-1].path_counts


def hecke_dimension(k: int, l: int, n: int) -> int:
    """Sum over level-n admissible diagrams of (path count)^2."""
    return sum(c * c for c in path_counts(k, l, n).values())


def eta(k: int, l: int) -> Scalar:
    """(1 - q^(1-k)) / ((1+q)(1-q^k)) at q = e^(2 pi i / l); exact for l = 6."""
    if l != 6:
        raise ValueError("only l = 6 is representable in the scalar field")
    num = ONE - qpow(1 - k)
    den = (ONE + qpow(1)) * (ONE - qpow(k))
    return num / den


def reduce_label(rows: Diagram, k: int) -> Diagram:
    """Delete all full height-k columns (subtract the k-th row from every row)."""
    while len(rows) == k:
        c = rows[-1]
        rows = tuple(r - c for r in rows if r - c > 0)
    return rows


@dataclass
class BratteliLevel:
    n: int
    nodes: list[Diagram]                      # unreduced diagrams, sorted
    labels: dict[Diagram, Diagram]            # node -> reduced label
    path_counts: dict[Diagram, int]
    edges_to_next: list[tuple[Diagram, Diagram]] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return sum(c * c for c in self.path_counts.values())


def bratteli_levels(k: int, l: int, levels: int, reduced: bool = False) -> list[BratteliLevel]:
    """Levels 1..levels of the admissible-diagram Bratteli structure.

    Reduction only changes the node labels; nodes, edges and path counts are
    those of the admissible diagrams themselves (the reduction map is
    injective on each level).  This is the only box-adding loop: the path
    counts and admissible diagrams of a single level are read off it.
    """
    if not 1 <= k < l or levels < 1:
        raise ValueError("need 1 <= k < l and at least one level")
    out = []
    counts: dict[Diagram, int] = {(1,): 1}
    for n in range(1, levels + 1):
        nodes = sorted(counts)
        labels = {d: (reduce_label(d, k) if reduced else d) for d in nodes}
        level = BratteliLevel(n=n, nodes=nodes, labels=labels, path_counts=dict(counts))
        out.append(level)
        nxt: dict[Diagram, int] = {}
        edges = []
        for d, c in counts.items():
            for d2 in add_box(d):
                if is_admissible(d2, k, l):
                    nxt[d2] = nxt.get(d2, 0) + c
                    edges.append((d, d2))
        level.edges_to_next = sorted(edges)
        counts = nxt
    return out


def principal_graph_cut(k: int, l: int, cut: tuple[int, int], reduced: bool = True):
    """Bipartite graph between two consecutive levels: (nodes, edges), by `level_cut`."""
    lo, hi = cut
    if hi != lo + 1:
        raise ValueError("cut must be two consecutive levels")
    levels = bratteli_levels(k, l, hi, reduced=reduced)
    return level_cut(levels[lo - 1], levels[hi - 1])


def level_cut(lo_level: BratteliLevel, hi_level: BratteliLevel):
    """Bipartite graph between a level and the next one: (nodes, edges).

    Nodes are ("lo", label) / ("hi", label); edges come from box addition.
    """
    nodes = [("lo", lo_level.labels[d]) for d in lo_level.nodes] + [
        ("hi", hi_level.labels[d]) for d in hi_level.nodes
    ]
    edges = [
        (("lo", lo_level.labels[a]), ("hi", hi_level.labels[b]))
        for a, b in lo_level.edges_to_next
    ]
    return nodes, edges


def tree_canonical_arms(nodes: list, edges: list) -> tuple[tuple[int, ...], ...] | None:
    """Canonical form for starlike trees: sorted arm lengths from each branch node.

    Returns None if the graph is not a connected tree or is not starlike
    (more than one node of degree >= 3).  A path is canonicalized as a single
    "branch point" at one end.
    """
    if len(edges) != len(nodes) - 1:
        return None
    adj: dict = {v: [] for v in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    # connectivity
    seen = set()
    stack = [nodes[0]]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v])
    if len(seen) != len(nodes):
        return None
    branch = [v for v in nodes if len(adj[v]) >= 3]
    if len(branch) > 1:
        return None
    root = branch[0] if branch else nodes[0]
    arms = []
    for start in adj[root]:
        length = 1
        prev, cur = root, start
        while len(adj[cur]) == 2:
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    return (tuple(sorted(arms)),)


def is_affine_e6(nodes: list, edges: list) -> bool:
    """Star with three arms of length 2 (7 nodes, 6 edges)."""
    return len(nodes) == 7 and tree_canonical_arms(nodes, edges) == ((2, 2, 2),)


def to_dot(nodes: list, edges: list) -> str:
    def fmt(v):
        side, label = v
        return f'"{side}:{"".join(map(str, label)) or "empty"}"'

    lines = ["graph bratteli {"]
    for v in nodes:
        lines.append(f"  {fmt(v)};")
    for a, b in edges:
        lines.append(f"  {fmt(a)} -- {fmt(b)};")
    lines.append("}")
    return "\n".join(lines)
