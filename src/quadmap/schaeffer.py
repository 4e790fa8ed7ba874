"""The corner-predecessor construction turning well-labeled trees into
rooted quadrangulations, and its inverse.

Forward direction: read the label process along the clockwise contour,
draw one chord from every corner to its predecessor corner (the latest
earlier corner labeled one less, the extra origin corner acting as label
0), and keep only the chords.  The same picture factors through two
auxiliary trees: a "doddering" tree carrying each chord once, and a
"gluer" tree (the underlying plane tree) telling which doddering nodes
get identified; :func:`assemble` performs that identification directly.

Inverse direction: label the quadrangulation's vertices by distance to
the root vertex, select one edge or diagonal per face by the local label
pattern, and read off the plane tree those selections form.
"""
from __future__ import annotations

from dataclasses import dataclass

from .labeled import LabeledTree, encode, is_well_labeled
from .planar_map import (
    HalfEdgeMap,
    PointedQuadrangulation,
    RootedQuadrangulation,
    bfs_distances,
    rooted_code,
)
from .trees import PlaneTree, Walk, contour_nodes, dfw

__all__ = [
    "PredecessorTable",
    "predecessor_table",
    "DodderingTree",
    "doddering",
    "GluerTree",
    "gluer",
    "GluingAssignment",
    "canonical_gluing",
    "quad_of_tree",
    "tree_of_quad",
    "assemble",
    "point",
    "fiber",
]


@dataclass(frozen=True)
class PredecessorTable:
    """Predecessor corner per corner: values[i] is the latest k < i with
    label one below label(i); -1 stands for the origin corner (label 0)."""

    values: tuple[int, ...]


def _check_label_process(labels) -> tuple[int, ...]:
    labs = tuple(int(x) for x in labels)
    if not labs or labs[0] != 1:
        raise ValueError("label process must start at 1")
    if min(labs) < 1:
        raise ValueError("label process must stay >= 1")
    for a, b in zip(labs, labs[1:]):
        if b - a > 1:
            raise ValueError("label process may increase by at most 1 per step")
    return labs


def predecessor_table(labels) -> PredecessorTable:
    """Predecessor table of a positive label process on [0, N]."""
    labs = _check_label_process(labels)
    last_seen: dict[int, int] = {0: -1}
    out = []
    for i, v in enumerate(labs):
        out.append(last_seen[v - 1])
        last_seen[v] = i
    return PredecessorTable(tuple(out))


@dataclass(frozen=True)
class DodderingTree:
    """Chord tree of a positive label process on [0, N].

    One node per abscissa in [-1, N] (the root carries -1); the parent of
    the node tagged i is the node tagged P(i).  Among siblings, larger
    abscissas come earlier in clockwise order, so the reverse traversal
    enumerates abscissas increasingly and the reverse height process is
    (0, labels[0], ..., labels[N]).  The root edge of the encoded
    quadrangulation runs from tag -1 to tag 0.
    """

    tree: PlaneTree
    tags: tuple[int, ...]


def doddering(labels) -> DodderingTree:
    """Build the doddering tree of a positive label process."""
    pred = predecessor_table(labels).values
    children: dict[int, list[int]] = {}
    for i, p in enumerate(pred):
        children.setdefault(p, []).append(i)
    for kids in children.values():
        kids.sort(reverse=True)
    # clockwise preorder assigns node ids; record the abscissa per id
    kids_by_id: list[list[int]] = []
    tags: list[int] = []
    stack = [-1]
    id_of_tag: dict[int, int] = {}
    while stack:
        tag = stack.pop()
        id_of_tag[tag] = len(tags)
        tags.append(tag)
        kids_by_id.append([])
        for c in reversed(children.get(tag, [])):
            stack.append(c)
    # second pass: children ids in clockwise order
    for uid, tag in enumerate(tags):
        kids_by_id[uid] = [id_of_tag[c] for c in children.get(tag, [])]
    tree = PlaneTree(tuple(tuple(cs) for cs in kids_by_id))
    return DodderingTree(tree, tuple(tags))


@dataclass(frozen=True)
class GluerTree:
    """Underlying plane tree of a well-labeled tree, with its 2n contour
    corners; corner k belongs to the node under the walker at time k."""

    tree: PlaneTree

    @property
    def walk(self) -> Walk:
        return dfw(self.tree)


def gluer(tree: LabeledTree | PlaneTree) -> GluerTree:
    if isinstance(tree, LabeledTree):
        tree = tree.tree
    return GluerTree(tree)


@dataclass(frozen=True)
class GluingAssignment:
    """Strictly increasing injection from the non-root doddering nodes, in
    reverse order, to gluer corners in clockwise order.  ``targets[k]`` is
    the corner receiving the node tagged k."""

    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        t = tuple(int(x) for x in self.targets)
        object.__setattr__(self, "targets", t)
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError("gluing assignment must be strictly increasing")
        if t and t[0] < 0:
            raise ValueError("gluing targets must be nonnegative corners")


def canonical_gluing(d: DodderingTree, g: GluerTree) -> GluingAssignment:
    """The assignment sending the (k+1)-th reverse-order doddering node to
    the k-th clockwise gluer corner; discretely this is the identity."""
    n_nonroot = d.tree.n_nodes - 1
    if n_nonroot != 2 * g.tree.n:
        raise ValueError("doddering and gluer sizes do not match")
    return GluingAssignment(tuple(range(n_nonroot)))


# -- forward construction -------------------------------------------------


def _chord_rotations(labels_body, walk: Walk):
    """Vertex rotation lists for the chord map of a well-labeled encoding.

    Chord i runs from corner i to its predecessor corner; its darts are
    2i (at corner i) and 2i+1 (at the predecessor).  Vertex 0 is the added
    origin; vertex u+1 is tree node u.  In the stored (clockwise) rotation
    a vertex enumerates its corners in contour order, each corner holding
    its outgoing chord then its incoming chords by decreasing source; the
    origin sees its incoming chords by decreasing source.
    """
    pred = predecessor_table(labels_body).values
    two_n = len(labels_body)
    incoming: list[list[int]] = [[] for _ in range(two_n)]
    origin_in: list[int] = []
    for i, p in enumerate(pred):
        if p < 0:
            origin_in.append(i)
        else:
            incoming[p].append(i)
    nodes = contour_nodes(walk)
    n_nodes = walk.n + 1
    rotations: list[list[int]] = [[] for _ in range(n_nodes + 1)]
    rotations[0] = [2 * i + 1 for i in reversed(origin_in)]
    for c in range(two_n):
        rot = rotations[nodes[c] + 1]
        rot.append(2 * c)
        rot.extend(2 * i + 1 for i in reversed(incoming[c]))
    return rotations


def quad_of_tree(tree: LabeledTree) -> RootedQuadrangulation:
    """Rooted quadrangulation encoded by a well-labeled tree.

    The result has vertex 0 as the added origin and vertex u+1 for tree
    node u, so vertex distances to the origin equal the tree labels.  The
    root dart points from the origin to the tree's root vertex.
    """
    if not is_well_labeled(tree):
        raise ValueError("tree must be well-labeled")
    enc = encode(tree)
    body = enc.labels[:-1]  # the closing corner 2n is excluded
    rotations = _chord_rotations(body, enc.walk)
    quad = HalfEdgeMap.from_rotations(rotations)
    return RootedQuadrangulation(quad, 1)


def assemble(
    d: DodderingTree, g: GluerTree, b: GluingAssignment
) -> RootedQuadrangulation:
    """Glue the doddering tree along the gluer tree.

    Non-root doddering nodes whose assigned corners belong to the same
    gluer node are identified.  Around a glued vertex, the member nodes
    appear by increasing assigned corner and each contributes its parent
    dart followed by its child darts by decreasing abscissa (the
    doddering clockwise order).  The root dart is the doddering root edge
    (tag -1 to tag 0).
    """
    n_nonroot = d.tree.n_nodes - 1
    walk = g.walk
    if len(b.targets) != n_nonroot:
        raise ValueError("assignment size does not match the doddering tree")
    if n_nonroot != walk.n * 2:
        raise ValueError("gluer corner count does not match the doddering tree")
    if b.targets and b.targets[-1] >= 2 * walk.n:
        raise ValueError("gluing target out of corner range")
    # label of the node tagged k is its depth in the doddering tree
    depth_of_tag = {d.tags[u]: d.tree.depth[u] for u in range(d.tree.n_nodes)}
    corner_class = contour_nodes(walk)
    members: list[list[int]] = [[] for _ in range(walk.n + 1)]
    for k, corner in enumerate(b.targets):
        members[corner_class[corner]].append(k)
    for group in members:
        depths = {depth_of_tag[k] for k in group}
        if len(depths) > 1:
            raise ValueError("gluing identifies nodes at different depths")
    children_tags: dict[int, list[int]] = {t: [] for t in d.tags}
    for u in range(1, d.tree.n_nodes):
        children_tags[d.tags[d.tree.parent[u]]].append(d.tags[u])
    for kids in children_tags.values():
        kids.sort(reverse=True)
    # chord k has darts 2k (at node tagged k) and 2k+1 (at its parent)
    rotations: list[list[int]] = [[2 * t + 1 for t in children_tags[-1]]]
    for group in members:
        rot: list[int] = []
        for k in group:
            rot.append(2 * k)
            rot.extend(2 * t + 1 for t in children_tags[k])
        rotations.append(rot)
    quad = HalfEdgeMap.from_rotations(rotations)
    return RootedQuadrangulation(quad, 1)


# -- inverse construction -------------------------------------------------


def tree_of_quad(q: RootedQuadrangulation) -> LabeledTree:
    """Well-labeled tree encoding a rooted quadrangulation.

    Vertices are labeled by distance to the root vertex; each face
    contributes one selected edge (for faces seeing three distinct labels,
    the side leaving the maximum-label corner away from the minimum; for
    the others, the diagonal between the two maximum corners).  The
    selections form a plane tree on the non-root vertices, rooted at the
    first selection after the root edge around its endpoint.
    """
    he = q.map
    origin = he.tail[q.root]
    dist = bfs_distances(he, origin)
    n_darts = he.n_darts
    twin = list(he.twin)
    nxt = list(he.nxt)
    tail = list(he.tail)
    blue = [False] * n_darts
    # insertion bookkeeping: diagonal darts live in the face corner just
    # before their host dart in rotation order
    prev = [0] * n_darts
    for d_ in range(n_darts):
        prev[nxt[d_]] = d_
    for face in he.faces:
        labels = [dist[he.tail[d_]] for d_ in face]
        lo = min(labels)
        if max(labels) - lo == 2:
            # pattern (m, m+1, m+2, m+1): keep the edge from the m+2 corner
            # to the second m+1 corner (the face side opposite the minimum)
            p = labels.index(lo)
            sel = face[(p + 2) % 4]
            blue[sel] = True
            blue[twin[sel]] = True
        else:
            # pattern (m, m+1, m, m+1): diagonal between the two m+1 corners
            p = labels.index(lo + 1)
            hosts = (face[p], face[(p + 2) % 4])
            d1, d2 = len(twin), len(twin) + 1
            for new, host in ((d1, hosts[0]), (d2, hosts[1])):
                twin.append(0)
                nxt.append(0)
                prev.append(0)
                tail.append(tail[host])
                blue.append(True)
                # splice: prev(host) -> new -> host
                p_ = prev[host]
                nxt[p_] = new
                nxt[new] = host
                prev[new] = p_
                prev[host] = new
            twin[d1], twin[d2] = d2, d1
    # root of the selection tree: first blue dart after the reversed root
    w = tail[twin[q.root]]
    d_ = nxt[twin[q.root]]
    while not blue[d_]:
        d_ = nxt[d_]
    root_dart = d_
    # read the plane tree out of the blue rotation system
    children: list[list[int]] = []
    labels_out: list[int] = []

    def blue_children(arrival: int) -> list[int]:
        out = []
        e = nxt[arrival]
        while e != arrival:
            if blue[e]:
                out.append(e)
            e = nxt[e]
        return out

    # the root vertex enumerates all its blue darts starting at root_dart
    first_darts: list[int] = [root_dart]
    e = nxt[root_dart]
    while e != root_dart:
        if blue[e]:
            first_darts.append(e)
        e = nxt[e]
    stack: list[tuple[int, list[int]]] = []
    children.append([])
    labels_out.append(dist[w])
    stack.append((0, first_darts))
    counter = 1
    while stack:
        uid, darts = stack.pop()
        for out_dart in darts:
            cid = counter
            counter += 1
            children[uid].append(cid)
            children.append([])
            labels_out.append(dist[tail[twin[out_dart]]])
            stack.append((cid, blue_children(twin[out_dart])))
    # ids above follow the work stack, not the traversal; renumber in preorder
    return _relabel_preorder(children, labels_out)


def _relabel_preorder(children: list[list[int]], labels: list[int]) -> LabeledTree:
    order = []
    stack = [0]
    new_id = {}
    while stack:
        u = stack.pop()
        new_id[u] = len(order)
        order.append(u)
        for c in reversed(children[u]):
            stack.append(c)
    new_children = tuple(tuple(new_id[c] for c in children[u]) for u in order)
    new_labels = tuple(labels[u] for u in order)
    return LabeledTree(PlaneTree(new_children), new_labels)


# -- pointing and fibers ---------------------------------------------------


def point(q: RootedQuadrangulation) -> PointedQuadrangulation:
    """Forget the root edge, keep its start vertex as the origin."""
    return PointedQuadrangulation(q.map, q.map.tail[q.root])


def fiber(pq: PointedQuadrangulation) -> list[RootedQuadrangulation]:
    """Distinct rooted quadrangulations pointing to ``pq``.

    Rooting at each dart leaving the origin and deduplicating by canonical
    code; this matches restarting the chord construction at each minimal
    corner of the label process.
    """
    seen = {}
    for d in pq.map.vertex_cycles[pq.origin]:
        code = rooted_code(pq.map, d)
        if code not in seen:
            seen[code] = RootedQuadrangulation(pq.map, d)
    return [seen[c] for c in sorted(seen)]
