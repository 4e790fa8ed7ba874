"""The corner-predecessor construction turning well-labeled trees into
rooted quadrangulations, and its inverse.

Forward direction: read the label process along the clockwise contour,
draw one chord from every corner to its predecessor corner (the latest
earlier corner labeled one less, the extra origin corner acting as label
0), and keep only the chords.  The same picture factors through two
auxiliary trees: a "doddering" tree carrying each chord once, and the
underlying plane tree (the "gluer" tree), whose corners tell which
doddering nodes get identified: :func:`assemble` glues the non-root
doddering nodes, in reverse order, onto the plane tree's corners in
clockwise order.  Both run as numpy kernels on stacks of objects
(``_chord_arrays`` and ``_glued_arrays``), so ``quadmap verify`` checks
one against the other on every small tree at once.

Inverse direction: label the quadrangulation's vertices by distance to
the root vertex, select one edge or diagonal per face by the local label
pattern, and read off the plane tree those selections form.

The kernels take only stacks with a leading batch axis; a public function
over one object is their batch of one (``[None]`` in, row ``[0]`` out).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labeled import LabeledTree, encode, is_well_labeled
from .paths import (
    _check_label_process,
    _contour_node_array,
    _stable_order,
    _steps_to_end,
    doddering_rdfw,
)
from .planar_map import (
    HalfEdgeMap,
    PointedQuadrangulation,
    RootedQuadrangulation,
    _array_map,
    _csr_rotation_arrays,
    _origin_rounds,
    _quad_faces,
    _union,
    bfs_distances,
)
from .trees import PlaneTree, Walk, _ArrayValue, _int64, _trusted, visit_order, walk_to_tree

__all__ = [
    "PredecessorTable",
    "predecessor_table",
    "DodderingTree",
    "doddering",
    "quad_of_tree",
    "tree_of_quad",
    "assemble",
    "point",
    "fiber",
]


@dataclass(frozen=True, eq=False)
class PredecessorTable(_ArrayValue):
    """Predecessor corner per corner: values[i] is the latest k < i with
    label one below label(i); -1 stands for the origin corner (label 0)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _int64(self.values, "values"))


def predecessor_table(labels) -> PredecessorTable:
    """Predecessor table of a positive label process on [0, N]."""
    labs = _check_label_process(labels)
    return _trusted(PredecessorTable, values=_predecessor_array(labs[None])[0])


def _predecessor_array(labs: np.ndarray) -> np.ndarray:
    """Predecessor tables of a (B, N) stack of positive label processes,
    each row on its own, with -1 for the origin corner, by a monotone
    merge.  The sorted int64 keys ``group << b | time`` (group row * span
    + label, b the bit length of N) less ``1 << b`` are the increasing
    needles (group - 1, time), and the key before each needle's place
    answers it if its group is group - 1.  Labels are at least 1, so group
    - 1 never reaches into the previous row; the first needle reads the
    last key, never of a smaller group."""
    count, size = labs.shape
    shift, span = size.bit_length(), labs.max() + 1
    group = labs + span * np.arange(count)[:, None]
    keys = np.sort((group << shift | np.arange(size)).ravel())
    cand = keys[np.searchsorted(keys, keys - (1 << shift)) - 1]
    high, mask = keys >> shift, (1 << shift) - 1
    pred = np.empty(labs.shape, dtype=np.int64)
    pred[high // span, keys & mask] = np.where(cand >> shift == high - 1, cand & mask, -1)
    return pred


@dataclass(frozen=True, eq=False)
class DodderingTree(_ArrayValue):
    """Chord tree of a positive label process on [0, N].

    One node per abscissa in [-1, N] (the root carries -1); the parent of
    the node tagged i is the node tagged P(i).  Among siblings, larger
    abscissas come earlier in clockwise order, so the reverse traversal
    enumerates abscissas increasingly and the reverse height process is
    (0, labels[0], ..., labels[N]).  The root edge of the encoded
    quadrangulation runs from tag -1 to tag 0.
    """

    tree: PlaneTree
    tags: np.ndarray

    def __post_init__(self) -> None:
        tags = _int64(self.tags, "tags")
        object.__setattr__(self, "tags", tags)
        if tags.size != self.tree.n_nodes:
            raise ValueError(f"{tags.size} doddering tags for {self.tree.n_nodes} nodes")
        if tags[0] != -1:
            raise ValueError("the doddering root must carry the tag -1")
        if not np.array_equal(np.sort(tags), np.arange(-1, tags.size - 1)):
            raise ValueError(f"doddering tags must be a permutation of -1..{tags.size - 2}")


def doddering(labels) -> DodderingTree:
    """Build the doddering tree of a positive label process.  Its reverse
    traversal visits the tags -1, 0, 1, ... at depths (0, *labels), so its
    contour is :func:`~quadmap.paths.doddering_rdfw` read backwards."""
    tree = walk_to_tree(_trusted(Walk, steps=doddering_rdfw(labels)[::-1]))
    tags = np.empty(tree.n_nodes, dtype=np.int64)
    tags[visit_order(tree, "reverse")] = np.arange(-1, tree.n_nodes - 1)
    return _trusted(DodderingTree, tree=tree, tags=tags)


# -- forward construction -------------------------------------------------


def _chord_arrays(bodies: np.ndarray, walks: np.ndarray):
    """(twin, nxt, tail) of the chord maps of (B, 2n) well-labeled label
    bodies and their (B, 2n+1) walks, as (B, 4n) stacks in each map's own
    darts and vertices.

    Chord i runs from corner i to its predecessor corner; its darts are 2i
    (at corner i) and 2i+1 (at the predecessor).  Vertex 0 is the added
    origin; vertex u+1 is tree node u.  In the stored (clockwise) rotation
    a vertex enumerates its corners in contour order, each corner holding
    its outgoing chord then its incoming chords by decreasing source; the
    origin sees its incoming chords by decreasing source.  One sort orders
    the darts of all maps by (map, vertex, corner, outgoing first,
    decreasing source), with the corners of each vertex ranked in contour
    order.  The labels come from valid well-labeled trees, so they are not
    checked again."""
    count, size = bodies.shape  # 2n corners, 4n darts per map
    row = np.arange(count)[:, None]
    pred = _predecessor_array(bodies)
    nodes = _contour_node_array(walks)[:, :size]
    rank = np.empty(count * size, dtype=np.int64)  # 1 + position in (node, time) order
    by_node = _stable_order((nodes + size * row).ravel())
    rank[by_node] = np.arange(count * size) % size + 1
    rank = rank.reshape(count, size)
    at_origin = pred < 0
    source = np.maximum(pred, 0)
    key = np.empty((count, 2 * size), dtype=np.int64)
    key[:, 0::2] = 2 * rank
    key[:, 1::2] = 2 * np.where(at_origin, 0, np.take_along_axis(rank, source, 1)) + 1
    key += (2 * size + 2) * row
    tail = np.empty((count, 2 * size), dtype=np.int64)
    tail[:, 0::2] = nodes + 1
    tail[:, 1::2] = np.where(at_origin, 0, np.take_along_axis(nodes, source, 1) + 1)
    # a corner's incoming chords tie; the reversed stable order takes them
    # by decreasing dart, that is by decreasing source
    order = key.size - 1 - _stable_order(key.ravel()[::-1])
    vertex = _union(tail, size // 2 + 2)[order]
    first = np.flatnonzero(np.concatenate(([True], vertex[1:] != vertex[:-1])))
    nxt = np.empty(order.size, dtype=np.int64)
    nxt[order[:-1]] = order[1:]
    nxt[order[np.append(first[1:] - 1, order.size - 1)]] = order[first]
    nxt = nxt.reshape(count, 2 * size)
    nxt -= 2 * size * row
    twin = np.tile(np.arange(2 * size) ^ 1, (count, 1))
    return twin, nxt, tail


def _quad_of_arrays(labels: np.ndarray, walk: np.ndarray) -> RootedQuadrangulation:
    """:func:`quad_of_tree` of the well-labeled encoding (labels, walk)."""
    quad = _array_map(*(a[0] for a in _chord_arrays(labels[None, :-1], walk[None])))
    return _trusted(RootedQuadrangulation, map=quad, root=1)


def quad_of_tree(tree: LabeledTree) -> RootedQuadrangulation:
    """Rooted quadrangulation encoded by a well-labeled tree.

    The result has vertex 0 as the added origin and vertex u+1 for tree
    node u, so vertex distances to the origin equal the tree labels.  The
    root dart points from the origin to the tree's root vertex.
    """
    if not is_well_labeled(tree):
        raise ValueError("tree must be well-labeled")
    enc = encode(tree)
    return _quad_of_arrays(enc.labels, enc.walk.steps)


def assemble(d: DodderingTree, tree: PlaneTree) -> RootedQuadrangulation:
    """Glue the doddering tree along the plane tree's walk.

    The doddering tree of a label process on [0, 2n - 1] has 2n non-root
    nodes and the plane tree 2n corners; the node tagged k is sent to
    corner k, and nodes sent to corners of the same plane-tree node are
    identified.  Around a glued vertex, the member nodes appear by
    increasing corner and each contributes its parent dart followed by its
    child darts by decreasing abscissa (the doddering clockwise order).
    The root dart is the doddering root edge (tag -1 to tag 0).  For the
    doddering tree of a well-labeled tree's label process and that tree's
    shape, the result is :func:`quad_of_tree`'s map dart for dart and
    vertex for vertex; a gluing that identifies nodes at different depths
    is a ``ValueError``.
    """
    if d.tree.n_nodes - 1 != 2 * tree.n:
        raise ValueError("plane tree corner count does not match the doddering tree")
    parent = d.tags[d.tree.parent][np.argsort(d.tags)[1:]]  # each tag's parent tag
    flat, sizes, _, _ = _glued_arrays(parent[None], tree.walk.steps[None])
    twin = np.arange(flat.size) ^ 1
    return RootedQuadrangulation(HalfEdgeMap(twin, *_csr_rotation_arrays(flat, sizes)), 1)


def _glued_arrays(parent: np.ndarray, walk: np.ndarray):
    """:func:`assemble` for (B, 2n) stacks of each doddering tag's parent
    tag (-1: the root) and (B, 2n+1) plane-tree walks, run as their
    disjoint union.  Returns its rotation lists as a flat dart array and
    one size per vertex (object b's darts offset by
    b·4n, its vertices by b·(n + 2)), the (B, 2n) tag depths, and whether
    in each object every tag's parent is an ancestor-or-self of the
    previous tag: whether the reverse traversal lists the tags in order.
    Each node's block, its parent dart then its child darts, is placed by
    a cumulative sum of the block sizes taken vertex after vertex."""
    count, size = parent.shape
    root_first = ((0, 0), (1, 0))  # object b's tag k is node b(size + 1) + k + 1
    up = _union(np.pad(parent + 1, root_first), size + 1)
    nonroot = np.arange(up.size) % (size + 1) > 0
    depth = _steps_to_end(up, ~nonroot)
    child = np.flatnonzero(nonroot)
    # lift each tag's previous tag (node child - 1) to its parent's depth
    steps = depth[child - 1] - depth[up[child]]
    at, jump = child - 1, up
    for bit in range(int(steps.max()).bit_length()):
        at = np.where(steps >> bit & 1, jump[at], at)
        jump = jump[jump]
    nested = ((steps >= 0) & (at == up[child])).reshape(count, size).all(axis=1)
    vertex = _union(np.pad(_contour_node_array(walk)[:, :size] + 1, root_first), size // 2 + 2)
    order = _stable_order(vertex)
    glued = vertex[order][1:] == vertex[order][:-1]
    if np.any(glued & (depth[order][1:] != depth[order][:-1])):
        raise ValueError("gluing identifies nodes at different depths")
    kids = np.bincount(up[child], minlength=up.size)
    block = kids + nonroot
    start = np.empty(up.size, dtype=np.int64)
    start[order] = np.cumsum(block[order]) - block[order]
    # children grouped by parent, each group by decreasing tag
    by_parent = child[::-1][_stable_order(up[child][::-1])]
    rank = np.arange(child.size) - (np.cumsum(kids) - kids)[up[by_parent]]
    flat = np.empty(2 * child.size, dtype=np.int64)
    flat[start[child]] = 2 * np.arange(child.size)  # object b's tag k is b·size + k
    flat[(start + nonroot)[up[by_parent]] + rank] = 2 * (by_parent - by_parent // (size + 1)) - 1
    sizes = np.bincount(vertex, weights=block).astype(np.int64)
    return flat, sizes, depth.reshape(count, size + 1)[:, 1:], nested


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
    twin, nxt, tail = he.twin[None], he.nxt[None], he.tail[None]
    dist = bfs_distances(he, q.origin)[None]
    walks, node_labels = _tree_of_quad_arrays(twin, nxt, tail, dist, [q.root])
    return _labeled_tree_of_arrays(walks[0], node_labels[0])


def _tree_of_quad_arrays(twin, nxt, tail, dist, root):
    """:func:`tree_of_quad` on (B, m) stacks of quadrangulations with F
    faces each, their (B, F+2) distances and one root per map, run as
    their disjoint union: the face patterns are read over the union's
    ``_quad_faces``, the diagonals are spliced into ``nxt`` in one scatter,
    and the blue tree's contour is the cycle of d -> next blue dart after
    twin(d), ranked by pointer jumping from the root's first blue dart once
    only the blue darts' twins and tails are kept.  The next
    blue darts are found by walks along ``nxt``, and by pointer jumping
    over the rotations whose walks outlast log2 of the dart count.  Faulty
    distances raise ``RuntimeError`` when a rotation holds no blue dart or
    the blue darts do not form one contour per map.  Returns the trees'
    (B, 2F+1) contour walks and (B, F+1) node labels in first-visit order.
    """
    count, m = twin.shape
    n_vertices = dist.shape[1]
    twin, nxt, root = (_union(a, m) for a in (twin, nxt, np.asarray(root)))
    tail, dist = _union(tail, n_vertices), dist.ravel()
    m = twin.size
    faces = _quad_faces(nxt[twin])
    lab = dist[tail[faces]]
    lo = lab.min(axis=1)
    three = lab.max(axis=1) - lo == 2
    rows = np.arange(faces.shape[0])
    # pattern (m, m+1, m+2, m+1): the side leaving the m+2 corner
    p = lab.argmin(axis=1)
    side = faces[rows, (p + 2) % 4][three]
    # pattern (m, m+1, m, m+1): the k-th such face gets darts m + 2k (at its
    # first m+1 corner) and m + 2k + 1, each just before its host dart, that
    # is after twin(f^3(host)) in the rotation
    p = (lab == lo[:, None] + 1).argmax(axis=1)[~three, None]
    rows = rows[~three, None]
    hosts = faces[rows, (p + (0, 2)) % 4].ravel()
    before = twin[faces[rows, (p + (3, 1)) % 4].ravel()]
    del faces, lab
    new = np.arange(m, m + hosts.size)
    nxt = np.concatenate((nxt, hosts))
    nxt[before] = new
    blue = np.zeros(nxt.size, dtype=bool)
    blue[side] = True
    blue[twin[side]] = True
    blue[m:] = True
    darts = np.flatnonzero(blue)
    # the twin and the tail of each blue dart, the new ones read off their hosts
    old = darts[: darts.size - new.size]
    mates = np.concatenate((twin[old], new ^ 1))
    owner = np.concatenate((tail[old], tail[hosts]))
    # the first blue dart at or after nxt(twin(d)) in rotation order, for
    # every blue dart d and the roots: a step moves only the walks short of
    # one, for as many steps as pointer jumping takes passes
    at = nxt[np.concatenate((mates, twin[root]))]
    short = np.flatnonzero(~blue[at])
    for _ in range(nxt.size.bit_length()):
        if not short.size:
            break
        at[short] = nxt[at[short]]
        short = short[~blue[at[short]]]
    if short.size:  # long gaps, as at a vertex of high degree: pointer
        live = np.zeros(count * n_vertices, dtype=bool)  # jumping over their rotations
        live[tail[at[short]]] = True
        sub = np.flatnonzero(live[tail])  # the new darts are blue: fixed points
        jump = np.where(blue, np.arange(nxt.size), nxt)
        for _ in range(sub.size.bit_length()):
            jump[sub] = jump[jump[sub]]
        at[short] = jump[at[short]]
        if not blue[at[short]].all():
            raise RuntimeError("tree_of_quad: a rotation holds no selected dart")
    # from here on a blue dart goes by its place in darts
    index = np.empty(nxt.size, dtype=np.int64)
    del nxt, blue
    index[darts] = np.arange(darts.size)
    succ = index[at[:-count]]
    start = np.zeros(darts.size, dtype=bool)
    start[index[at[-count:]]] = True
    mates = index[mates]
    del index, at
    per = darts.size // count  # 2F blue darts per map
    steps = _steps_to_end(succ, start[succ])
    position = (owner // n_vertices + 1) * per - 1 - steps
    if steps.max() >= per or np.any(np.bincount(position, minlength=darts.size) != 1):
        raise RuntimeError("tree_of_quad: the distances are not the map's BFS distances")
    contour = np.empty(darts.size, dtype=np.int64)
    contour[position] = np.arange(darts.size)
    down = np.arange(darts.size) < position[mates[contour]]
    walk = np.zeros((count, per + 1), dtype=np.int64)
    np.cumsum(np.where(down, 1, -1).reshape(count, per), axis=1, out=walk[:, 1:])
    node_labels = np.empty((count, per // 2 + 1), dtype=np.int64)
    node_labels[:, 0] = dist[tail[twin[root]]]
    node_labels[:, 1:] = dist[owner[mates[contour[down]]]].reshape(count, -1)
    return walk, node_labels


def _labeled_tree_of_arrays(walk: np.ndarray, node_labels: np.ndarray) -> LabeledTree:
    """The labeled tree with contour walk ``walk`` and ``node_labels`` in
    first-visit order, both new arrays."""
    tree = _trusted(PlaneTree, walk=_trusted(Walk, steps=walk))
    return _trusted(LabeledTree, tree=tree, labels=node_labels)


# -- pointing and fibers ---------------------------------------------------


def point(q: RootedQuadrangulation) -> PointedQuadrangulation:
    """Forget the root edge, keep its start vertex as the origin."""
    return _trusted(PointedQuadrangulation, map=q.map, origin=q.origin)


def fiber(pq: PointedQuadrangulation) -> list[RootedQuadrangulation]:
    """Distinct rooted quadrangulations pointing to ``pq``.

    Rooting at each dart leaving the origin and deduplicating by canonical
    code; this matches restarting the chord construction at each minimal
    corner of the label process.
    """
    he = pq.map
    rounds = _origin_rounds(he.nxt[None], he.twin[None], he.tail[None], pq.origin)
    code_of = {int(darts[0]): codes[0] for _, darts, codes in rounds}
    at_origin = np.flatnonzero(he.tail == pq.origin)
    succ = np.searchsorted(at_origin, he.nxt[at_origin])  # nxt restricted to them
    seen = {}
    # in rotation order from the least dart: list ranking along succ
    for d in at_origin[np.argsort(-_steps_to_end(succ, succ == 0))].tolist():
        seen.setdefault(code_of[d], d)
    return [_trusted(RootedQuadrangulation, map=he, root=seen[c]) for c in sorted(seen)]
