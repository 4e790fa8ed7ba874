"""Per-dart and per-node Python loops for the map and tree layers, kept
as references.

The library runs every map layer and the tree layer as numpy kernels;
these loops compute the same values one dart or node at a time over lists,
and ``test_array_kernels.py`` and ``test_tree_arrays.py`` compare each
kernel and public function with them.  They read maps through their arrays
only, so no reference calls a kernel, and they raise the constructor's
messages in its order.  The contour kernels' earlier array forms (rotation
by a modular index array, branch sums through edge ids, the snake's
rerooting slices) are kept the same way, for ``test_paths.py``, and so is
the recursive Dyck-walk listing.
"""
import struct
from collections import deque

import numpy as np

from quadmap.labeled import Encoding, LabeledTree, first_min_corner, minima_set
from quadmap.paths import _balanced_bits, contour_edges, doddering_rdfw, uniform_encoding_arrays
from quadmap.planar_map import (
    PointedMap,
    PointedQuadrangulation,
    RootedMap,
    RootedQuadrangulation,
    _array_map,
)
from quadmap.schaeffer import point
from quadmap.trees import PlaneTree, Walk, _trusted


def orbits(perm) -> list[tuple[int, ...]]:
    """Cycles of ``perm`` in order of their smallest dart, each starting there."""
    seen = [False] * len(perm)
    found = []
    for d in range(len(perm)):
        if seen[d]:
            continue
        cyc = []
        e = d
        while not seen[e]:
            seen[e] = True
            cyc.append(e)
            e = perm[e]
        found.append(tuple(cyc))
    return found


def check_map(twin, nxt, tail) -> None:
    """``HalfEdgeMap``'s checks on lists, raising its messages in its order."""
    m = len(twin)
    if m == 0 or m % 2 or len(nxt) != m or len(tail) != m:
        raise ValueError("twin, nxt and tail must have equal positive even length")
    if sorted(nxt) != list(range(m)):
        raise ValueError("nxt is not a permutation of the darts")
    for d in range(m):
        t = twin[d]
        if not 0 <= t < m or t == d or twin[t] != d:
            raise ValueError("twin is not a fixed-point-free involution")
    for d in range(m):
        if tail[nxt[d]] != tail[d]:
            raise ValueError("nxt mixes darts of different vertices")
    # rotation cycles must cover each vertex exactly once
    vertices = set()
    for cyc in orbits(nxt):
        if tail[cyc[0]] in vertices:
            raise ValueError("vertex split across several rotation cycles")
        vertices.add(tail[cyc[0]])
    if vertices != set(range(len(vertices))):
        raise ValueError("vertex ids must be 0..V-1")
    # connectivity under <nxt, twin>
    reach = [False] * m
    stack = [0]
    reach[0] = True
    while stack:
        d = stack.pop()
        for e in (nxt[d], twin[d]):
            if not reach[e]:
                reach[e] = True
                stack.append(e)
    if not all(reach):
        raise ValueError("map is not connected")
    if len(vertices) - m // 2 + len(orbits([nxt[t] for t in twin])) != 2:
        raise ValueError("map is not of genus 0")


def faces(he) -> tuple[tuple[int, ...], ...]:
    nxt = he.nxt.tolist()
    return tuple(orbits([nxt[t] for t in he.twin.tolist()]))


def vertex_cycles(he) -> tuple[tuple[int, ...], ...]:
    tail = he.tail.tolist()
    by_vertex = {tail[cyc[0]]: cyc for cyc in orbits(he.nxt.tolist())}
    return tuple(by_vertex[v] for v in range(len(by_vertex)))


def rotation_arrays(rotations) -> tuple[np.ndarray, np.ndarray]:
    """(nxt, tail) of per-vertex dart lists in rotation order."""
    m = sum(len(cyc) for cyc in rotations)
    nxt = [0] * m
    tail = [0] * m
    for v, cyc in enumerate(rotations):
        for i, d in enumerate(cyc):
            nxt[d] = cyc[(i + 1) % len(cyc)]
            tail[d] = v
    return np.array(nxt, dtype=np.int64), np.array(tail, dtype=np.int64)


def bfs_distances(he, origin: int) -> tuple[int, ...]:
    twin, tail = he.twin.tolist(), he.tail.tolist()
    cycles = vertex_cycles(he)
    dist = [-1] * len(cycles)
    dist[origin] = 0
    queue = deque([origin])
    while queue:
        v = queue.popleft()
        for d in cycles[v]:
            w = tail[twin[d]]
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return tuple(dist)


def rooted_code(he, root: int) -> bytes:
    """Darts relabeled breadth-first from the root along nxt and twin, each
    dart's two labels packed in that order as big-endian unsigned 32-bit."""
    nxt, twin = he.nxt.tolist(), he.twin.tolist()
    label = [-1] * len(nxt)
    label[root] = 0
    order = [root]
    i = 0
    while i < len(order):
        d = order[i]
        i += 1
        for e in (nxt[d], twin[d]):
            if label[e] < 0:
                label[e] = len(order)
                order.append(e)
    parts = []
    for d in order:
        parts.append(label[nxt[d]])
        parts.append(label[twin[d]])
    return struct.pack(f">{len(parts)}I", *parts)


def pointed_code(he, origin: int) -> bytes:
    return min(rooted_code(he, d) for d in vertex_cycles(he)[origin])


def fiber(pq) -> list:
    seen = {}
    for d in vertex_cycles(pq.map)[pq.origin]:
        code = rooted_code(pq.map, d)
        if code not in seen:
            seen[code] = _trusted(RootedQuadrangulation, map=pq.map, root=d)
    return [seen[c] for c in sorted(seen)]


def renumbered(obj):
    """``obj`` with its vertices renumbered by the smallest darts of their
    rotation cycles, as the map text stores them."""
    he = obj.map
    tail = [0] * he.n_darts
    cycles = orbits(he.nxt.tolist())
    for v, cyc in enumerate(cycles):
        for d in cyc:
            tail[d] = v
    fields = dict(vars(obj), map=_array_map(he.twin.copy(), he.nxt.copy(), np.array(tail)))
    if "origin" in fields:
        fields["origin"] = tail[vertex_cycles(he)[obj.origin][0]]
    return _trusted(type(obj), **fields)


def save_map(obj) -> str:
    """The map text: edge count, twin and rotation lines, root or origin."""
    he = obj.map
    if "root" in vars(obj):
        mark = str(obj.root)
    else:
        mark = f"origin={renumbered(obj).origin}"
    lines = [f"n={he.n_darts // 2}", *(",".join(map(str, a.tolist())) for a in (he.twin, he.nxt))]
    return "\n".join(lines + [mark]) + "\n"


# -- maps <-> quadrangulations -------------------------------------------------


def _rotation_map(rotations):
    nxt, tail = rotation_arrays(rotations)
    return _array_map(np.arange(nxt.size) ^ 1, nxt, tail)


def quad_of_map(m):
    """A new vertex in each face joined to its corners: the old darts 2d
    around the old vertices, then each face's darts 2d+1 reversed."""
    he = m.map
    rotations = [[2 * d for d in cyc] for cyc in vertex_cycles(he)]
    for face in faces(he):
        rotations.append([2 * d + 1 for d in reversed(face)])
    quad = _rotation_map(rotations)
    if "root" in vars(m):
        return _trusted(RootedQuadrangulation, map=quad, root=2 * m.root)
    return _trusted(PointedQuadrangulation, map=quad, origin=m.origin)


def map_of_quad(q):
    """The diagonals between each face's two even corners, attached face by
    face through a dict and listed around each even vertex in rotation order."""
    he = q.map
    dist = bfs_distances(he, q.origin)
    tail = he.tail.tolist()
    attach = {}  # host dart -> new dart id
    for f, face in enumerate(faces(he)):
        evens = [d for d in face if dist[tail[d]] % 2 == 0]
        attach[evens[0]] = 2 * f
        attach[evens[1]] = 2 * f + 1
    old_vertices = [v for v in range(len(dist)) if dist[v] % 2 == 0]
    new_id = {v: i for i, v in enumerate(old_vertices)}
    cycles = vertex_cycles(he)
    out = _rotation_map([[attach[d] for d in cycles[v] if d in attach] for v in old_vertices])
    if "root" in vars(q):
        return _trusted(RootedMap, map=out, root=attach[int(he.nxt[q.root])])
    return _trusted(PointedMap, map=out, origin=new_id[q.origin])


def walks(n: int) -> list[tuple[int, ...]]:
    """The Dyck walks with n up-steps by recursion, up-steps tried first."""
    out = []

    def extend(prefix, ups, downs):
        if ups == n and downs == n:
            out.append(tuple(prefix))
            return
        if ups < n:
            prefix.append(prefix[-1] + 1)
            extend(prefix, ups + 1, downs)
            prefix.pop()
        if downs < ups:
            prefix.append(prefix[-1] - 1)
            extend(prefix, ups, downs + 1)
            prefix.pop()

    extend([0], 0, 0)
    return out


# -- the chord construction and its inverse ---------------------------------


def predecessors(labs) -> tuple[int, ...]:
    last_seen = {0: -1}
    out = []
    for i, v in enumerate(labs):
        out.append(last_seen[v - 1])
        last_seen[v] = i
    return tuple(out)


def chord_rotations(labels_body, walk):
    """Vertex rotation lists of the chord map of a well-labeled encoding:
    vertex 0 the origin, vertex u+1 tree node u; a vertex lists its corners
    in contour order, each with its outgoing chord then its incoming chords
    by decreasing source."""
    pred = predecessors(labels_body)
    two_n = len(labels_body)
    incoming = [[] for _ in range(two_n)]
    origin_in = []
    for i, p in enumerate(pred):
        if p < 0:
            origin_in.append(i)
        else:
            incoming[p].append(i)
    nodes = read_walk(walk)[1]
    rotations = [[] for _ in range(len(walk) // 2 + 2)]
    rotations[0] = [2 * i + 1 for i in reversed(origin_in)]
    for c in range(two_n):
        rot = rotations[nodes[c] + 1]
        rot.append(2 * c)
        rot.extend(2 * i + 1 for i in reversed(incoming[c]))
    return rotations


def quad_of_tree(tree) -> RootedQuadrangulation:
    labels, walk = encode(tree.tree.children, tree.labels.tolist())
    nxt, tail = rotation_arrays(chord_rotations(labels[:-1], walk))
    quad = _array_map(np.arange(nxt.size) ^ 1, nxt, tail)
    return _trusted(RootedQuadrangulation, map=quad, root=1)


def tree_of_quad(q) -> LabeledTree:
    """Face selections spliced into the rotation lists one at a time, and
    the blue tree read off by a depth-first walk."""
    he = q.map
    dist = bfs_distances(he, q.origin)
    n_darts = he.n_darts
    twin = he.twin.tolist()
    nxt = he.nxt.tolist()
    tail = he.tail.tolist()
    blue = [False] * n_darts
    # diagonal darts live in the face corner just before their host dart
    prev = [0] * n_darts
    for d_ in range(n_darts):
        prev[nxt[d_]] = d_
    for face in faces(he):
        labels = [dist[tail[d_]] for d_ in face]
        lo = min(labels)
        if max(labels) - lo == 2:
            # pattern (m, m+1, m+2, m+1): the side opposite the minimum
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
                p_ = prev[host]  # splice: prev(host) -> new -> host
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
    children = []
    labels_out = []

    def blue_children(arrival):
        out = []
        e = nxt[arrival]
        while e != arrival:
            if blue[e]:
                out.append(e)
            e = nxt[e]
        return out

    stack = [(0, [root_dart] + blue_children(root_dart))]
    children.append([])
    labels_out.append(dist[w])
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
    order = []
    stack = [0]
    new_id = {}
    while stack:
        u = stack.pop()
        new_id[u] = len(order)
        order.append(u)
        stack.extend(reversed(children[u]))
    kids = tuple(tuple(new_id[c] for c in children[u]) for u in order)
    return labeled_tree(kids, [labels_out[u] for u in order])


# -- the doddering/gluer gluing ----------------------------------------------


def glued_rotations(d, tree) -> list[list[int]]:
    """``assemble``'s vertex rotation lists, after its checks that the sizes
    match and that no glued vertex mixes depths: the origin (the doddering
    root) first, then one list per plane-tree node."""
    n_nonroot = d.tree.n_nodes - 1
    if n_nonroot != tree.n * 2:
        raise ValueError("plane tree corner count does not match the doddering tree")
    tags = d.tags.tolist()
    # label of the node tagged k is its depth in the doddering tree
    depth_of_tag = dict(zip(tags, traverse(d.tree.children)[2]))
    corner_class = read_walk(tree.walk.steps.tolist())[1]
    members = [[] for _ in range(tree.n + 1)]
    for k in range(n_nonroot):  # the node tagged k goes to corner k
        members[corner_class[k]].append(k)
    # chord k has darts 2k (at node tagged k) and 2k+1 (at its parent), so
    # decreasing child darts list the children by decreasing abscissa
    child_darts = {
        tag: sorted([2 * tags[c] + 1 for c in kids], reverse=True)
        for tag, kids in zip(tags, d.tree.children)
    }
    rotations = [child_darts[-1]]
    for group in members:
        if len({depth_of_tag[k] for k in group}) > 1:
            raise ValueError("gluing identifies nodes at different depths")
        rot = []
        for k in group:
            rot.append(2 * k)
            rot += child_darts[k]
        rotations.append(rot)
    return rotations


# -- contour kernels -----------------------------------------------------------


def dyck_walk_batch(n: int, count: int, rng) -> np.ndarray:
    """``paths.dyck_walk_batch`` on the same balanced rows, as int64 steps,
    rotating each row at its cycle-lemma cut through a modular index
    array and summing the rotated steps."""
    steps = 2 * _balanced_bits(n, count, rng).astype(np.int64) - 1
    cut = np.argmin(np.cumsum(steps, axis=1), axis=1) + 1
    idx = (cut[:, None] + np.arange(2 * n)) % (2 * n + 1)
    rotated = np.take_along_axis(steps, idx, axis=1)
    walks = np.zeros((count, 2 * n + 1), dtype=np.int64)
    np.cumsum(rotated, axis=1, out=walks[:, 1:])
    return walks


def contour_accumulate(walks: np.ndarray, edge_values: np.ndarray, start=0) -> np.ndarray:
    """``paths.contour_accumulate`` reading each step's edge value through
    ``contour_edges`` and negating it on the down-steps."""
    steps = np.diff(walks, axis=1)
    edges = contour_edges(walks)
    contrib = np.where(steps > 0, edge_values[edges], -edge_values[edges])
    out = np.empty(walks.shape, dtype=contrib.dtype)
    out[:, 0] = start
    np.cumsum(contrib, axis=1, out=out[:, 1:])
    out[:, 1:] += np.asarray(start, dtype=contrib.dtype)
    return out


# -- rerooting ----------------------------------------------------------------


def reroot(enc, theta: int):
    """``labeled.reroot``: labels rotated to corner theta and shifted to 1,
    and the walk as tree distances from the node at corner theta, read with
    running minima forward to the end and backward to corner 0."""
    two_n = enc.labels.size - 1
    if not 0 <= theta <= two_n:
        raise ValueError(f"theta must lie in [0, {two_n}]")
    th = theta % two_n
    if th == 0:
        return enc
    labs, w = enc.labels.tolist(), enc.walk.steps.tolist()
    base = labs[th]
    new_labels = [labs[(th + i) % two_n] - base + 1 for i in range(two_n)]
    new_labels.append(1)
    new_walk = [0] * (two_n + 1)
    run_min = w[th]
    for j in range(th, two_n + 1):
        if w[j] < run_min:
            run_min = w[j]
        new_walk[j - th] = w[j] + w[th] - 2 * run_min
    run_min = w[th]
    for j in range(th, -1, -1):
        if w[j] < run_min:
            run_min = w[j]
        new_walk[j + two_n - th] = w[j] + w[th] - 2 * run_min
    walk = _trusted(Walk, steps=np.array(new_walk))
    return _trusted(Encoding, labels=np.array(new_labels), walk=walk)


def reroot_path(f: np.ndarray, z: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``snake.reroot_path``'s (head, contour) at grid point k in [0, m),
    by the slices it took before it called ``paths._reroot``: the new
    contour is z + z[k] - 2 * (the minimum of z between k and each time),
    forward from k up to m, then backward from k down to 0 (ending at m);
    the minima go to the new head, which is filled only after that."""
    m = len(z) - 1
    z2, f2 = np.empty(m + 1), np.empty(m + 1)
    fwd, ahead = f2[: m - k + 1], z2[: m - k + 1]
    np.minimum.accumulate(z[k:], out=fwd)
    np.add(z[k:], z[k], out=ahead)
    fwd *= 2.0
    ahead -= fwd
    bwd, behind = f2[: k + 1], z2[m - k :]
    np.minimum.accumulate(z[k::-1], out=bwd)
    np.add(z[: k + 1], z[k], out=behind)
    bwd *= 2.0
    behind -= bwd[::-1]
    np.subtract(f[k:], f[k], out=f2[: m - k + 1])
    np.subtract(f[1 : k + 1], f[k], out=f2[m - k + 1 :])
    return f2, z2


# -- samplers -----------------------------------------------------------------


def sample_rooted_pd(n: int, rng):
    labels, walks = uniform_encoding_arrays(n, rng)
    enc = Encoding(labels[0], Walk(walks[0]))
    minima = minima_set(enc.labels)
    enc = reroot(enc, int(minima[int(rng.integers(len(minima)))]))
    tree = labeled_tree(*decode(enc.labels.tolist(), enc.walk.steps.tolist()))
    return tree, quad_of_tree(tree)


def sample_pointed_ps(n: int, rng):
    labels, walks = uniform_encoding_arrays(n, rng)
    enc = Encoding(labels[0], Walk(walks[0]))
    enc = reroot(enc, first_min_corner(enc.labels))
    tree = labeled_tree(*decode(enc.labels.tolist(), enc.walk.steps.tolist()))
    return point(quad_of_tree(tree))


# -- the tree layer -----------------------------------------------------------


def traverse(children, direction: str = "clockwise"):
    """(walk, first-visit order, height process) of the depth-first
    traversal that lists every child list clockwise or reversed."""
    step = 1 if direction == "clockwise" else -1
    walk, order, heights = [0], [0], [0]
    stack = [iter(children[0][::step])]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(iter(children[child][::step]))
            order.append(child)
            heights.append(len(stack) - 1)
        if stack:
            walk.append(len(stack) - 1)
    return tuple(walk), tuple(order), tuple(heights)


def read_walk(steps):
    """(children lists, node under the walker at each time, first-visit
    times) of the tree whose clockwise walk is ``steps``."""
    children, nodes, firsts, stack = [[]], [0], [0], [0]
    for t in range(1, len(steps)):
        if steps[t] > steps[t - 1]:
            children[stack[-1]].append(len(children))
            stack.append(len(children))
            children.append([])
            firsts.append(t)
        else:
            stack.pop()
        nodes.append(stack[-1])
    return tuple(map(tuple, children)), tuple(nodes), tuple(firsts)


def labeled_tree(children, labels) -> LabeledTree:
    """The ``LabeledTree`` of children lists and node labels."""
    tree = _trusted(PlaneTree, walk=_trusted(Walk, steps=np.array(traverse(children)[0])))
    return _trusted(LabeledTree, tree=tree, labels=np.array(labels, dtype=np.int64))


def encode(children, labels):
    """(label process, walk) of a labeled tree."""
    walk = traverse(children)[0]
    return tuple(labels[u] for u in read_walk(walk)[1]), walk


def decode(process, steps):
    """(children lists, node labels) of an encoding."""
    children, _, firsts = read_walk(steps)
    return children, tuple(process[t] for t in firsts)


def parents(children) -> list[int]:
    par = [-1] * len(children)
    for u, kids in enumerate(children):
        for c in kids:
            par[c] = u
    return par


def to_marked(children, labels) -> tuple[int, ...]:
    par = parents(children)
    return tuple(labels[u] - labels[par[u]] for u in range(1, len(children)))


def from_marked(children, marks) -> tuple[int, ...]:
    par, labels = parents(children), [1] * len(children)
    for u in range(1, len(children)):
        labels[u] = labels[par[u]] + marks[u - 1]
    return tuple(labels)


def doddering(labels):
    """(children lists, tags) of the doddering tree: the tree whose walk is
    ``doddering_rdfw`` read backwards, tagged -1, 0, 1, ... in reverse
    first-visit order."""
    children = read_walk(doddering_rdfw(labels)[::-1].tolist())[0]
    tags = [0] * len(children)
    for tag, u in enumerate(traverse(children, "reverse")[1], start=-1):
        tags[u] = tag
    return children, tuple(tags)
