"""Fundamental groups of glued curve configurations.

A GluingComplex stores the 1-skeleton of a nodal configuration (labelled
vertices and oriented edges) together with the boundary words of its
2-cells.  Its deterministic breadth-first spanning tree, built with it,
gives the generators (the non-tree edges); 2-cell boundaries rewrite to the
relators.  A GluingMap, checked once by check_map, induces a homomorphism
edge by edge: induced_hom(m, dbar, d) pushes each generator loop of D-bar,
read off its tree, into D.  Every catalogue normalisation is simply
connected, so the scenario runner glues with ``fpgroup.amalgamated_product``
over a trivial normalisation side: pi_1(D) modulo the normal closure of the
image words of pi_1(D-bar), which needs no presentation of D-bar.
"""

from __future__ import annotations

from collections import namedtuple

from .fpgroup import Presentation, reduce_word


class DisconnectedComplex(ValueError):
    """The 1-skeleton is not connected."""


class IncompatibleMap(ValueError):
    """Edge images do not run between the images of their endpoints, or the
    map names a vertex or edge its source lacks."""


class GluingComplex:
    """1-skeleton with 2-cells: edges are (label, source, target), cells are
    closed paths as tuples of (edge label, +1/-1).  Compared by identity."""

    # tree is the BFS spanning tree, computed once: vertex -> None (basepoint)
    # or the tree edge into it as (label, +1/-1, tail vertex); generators are
    # the non-tree edge labels in declared order, edge_generator label -> index
    __slots__ = ("vertices", "edges", "two_cells", "basepoint", "tree", "generators", "edge_generator")

    def __init__(self, vertices, edges, two_cells, basepoint: str):
        vertices = tuple(str(v) for v in vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("vertex labels must be distinct")
        vset = set(vertices)
        edges = tuple((str(l), str(s), str(t)) for (l, s, t) in edges)
        labels = [l for (l, _s, _t) in edges]
        if len(set(labels)) != len(labels):
            raise ValueError("edge labels must be distinct")
        for label, s, t in edges:
            if s not in vset or t not in vset:
                raise ValueError(f"edge {label} has a dangling endpoint")
        if basepoint not in vset:
            raise ValueError("basepoint is not a vertex")
        by_label = {l: (s, t) for (l, s, t) in edges}
        cells = []
        for cell in two_cells:
            cell = tuple((str(l), int(sg)) for (l, sg) in cell)
            if not cell:
                raise ValueError("empty 2-cell boundary")
            for l, sg in cell:
                if l not in by_label:
                    raise ValueError(f"2-cell uses unknown edge {l}")
                if sg not in (1, -1):
                    raise ValueError("edge orientation must be +1 or -1")
            start = by_label[cell[0][0]][0 if cell[0][1] == 1 else 1]
            at = start
            for l, sg in cell:
                s, t = by_label[l]
                tail, head = (s, t) if sg == 1 else (t, s)
                if tail != at:
                    raise ValueError("2-cell boundary is not an edge path")
                at = head
            if at != start:
                raise ValueError("2-cell boundary is not a closed path")
            cells.append(cell)
        self.vertices = vertices
        self.edges = edges
        self.two_cells = tuple(cells)
        self.basepoint = basepoint
        self.tree = self._spanning_tree()
        if len(self.tree) != len(vertices):
            raise DisconnectedComplex("1-skeleton is not connected")
        tree_edges = {edge[0] for edge in self.tree.values() if edge is not None}
        self.generators = tuple(l for l in labels if l not in tree_edges)
        self.edge_generator = {l: i for i, l in enumerate(self.generators)}

    def _spanning_tree(self):
        """BFS from the basepoint, each vertex's edges taken in declared
        order from its incidence list, so the tree costs O(V + E)."""
        incident = {v: [] for v in self.vertices}
        for label, s, t in self.edges:
            incident[s].append((label, s, t))
            if t != s:
                incident[t].append((label, s, t))
        parent = {self.basepoint: None}
        order = [self.basepoint]
        for u in order:  # grows while it is walked
            for label, s, t in incident[u]:
                if s == u and t not in parent:
                    parent[t] = (label, 1, s)
                    order.append(t)
                elif t == u and s not in parent:
                    parent[s] = (label, -1, t)
                    order.append(s)
        return parent


def _path_from_base(c: GluingComplex, v):
    """The tree path from the basepoint of c to v, as (edge label, +1/-1)."""
    steps = []
    while c.tree[v] is not None:
        label, sign, v = c.tree[v]
        steps.append((label, sign))
    steps.reverse()
    return steps


# Cellular map: vertex -> vertex and edge -> (edge, +1/-1).
GluingMap = namedtuple("GluingMap", "vertex_map edge_map")


def check_map(m: GluingMap, src: GluingComplex, tgt: GluingComplex):
    """Raise IncompatibleMap unless m is incidence compatible src -> tgt and
    names no vertex or edge that src lacks."""
    tgt_edges = {l: (s, t) for (l, s, t) in tgt.edges}
    tgt_vertices = set(tgt.vertices)
    for v in src.vertices:
        if m.vertex_map.get(v) not in tgt_vertices:
            raise IncompatibleMap(f"vertex {v} has no valid image")
    for label, s, t in src.edges:
        if label not in m.edge_map:
            raise IncompatibleMap(f"edge {label} has no image")
        image, sign = m.edge_map[label]
        if image not in tgt_edges or sign not in (1, -1):
            raise IncompatibleMap(f"edge {label} maps to an invalid edge")
        s2, t2 = tgt_edges[image]
        tail, head = (s2, t2) if sign == 1 else (t2, s2)
        if (m.vertex_map[s], m.vertex_map[t]) != (tail, head):
            raise IncompatibleMap(f"edge {label} image disagrees with its endpoints")
    extra = sorted(m.vertex_map.keys() - set(src.vertices))
    if extra:
        raise IncompatibleMap(f"vertex {extra[0]} is not in the source complex")
    extra = sorted(m.edge_map.keys() - {l for (l, _s, _t) in src.edges})
    if extra:
        raise IncompatibleMap(f"edge {extra[0]} is not in the source complex")


def pi1_presentation(c: GluingComplex) -> Presentation:
    """Spanning-tree presentation of pi_1 of the complex: its generators,
    and each 2-cell word rewritten over them as a relator."""
    return Presentation(c.generators, tuple(path_word(c, cell) for cell in c.two_cells))


def path_word(c: GluingComplex, path):
    """Class of a closed edge path as a word in the pi1 generators of c."""
    word = []
    for label, sign in path:
        g = c.edge_generator.get(label)
        if g is not None:
            word.append(sign * (g + 1))
    return reduce_word(word)


def induced_hom(m: GluingMap, dbar: GluingComplex, d: GluingComplex) -> tuple:
    """The image word in d of each generator of dbar: its loop, the tree
    path to the edge's tail, the edge and the tree path back from its head,
    pushed through the map and rewritten in d's generators.  m must have
    passed check_map."""
    edge_map = m.edge_map
    images = []
    for label, s, t in dbar.edges:
        if label not in dbar.edge_generator:
            continue
        back = [(l, -sg) for (l, sg) in reversed(_path_from_base(dbar, t))]
        loop = _path_from_base(dbar, s) + [(label, 1)] + back
        images.append(path_word(d, [(edge_map[l][0], sg * edge_map[l][1]) for (l, sg) in loop]))
    return tuple(images)
