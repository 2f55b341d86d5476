"""Fundamental groups of glued curve configurations.

A GluingComplex stores the 1-skeleton of a nodal configuration (labelled
vertices and oriented edges) together with the boundary words of its
2-cells.  The fundamental group comes from a deterministic breadth-first
spanning tree: non-tree edges are the generators, 2-cell boundaries rewrite
to the relators.  A GluingMap between complexes induces a homomorphism edge
by edge, and the group of the glued surface is the amalgamated product of
the two sides over the double curve.  Every catalogue scenario has a simply
connected normalisation, so the scenario runner builds that amalgam with
``fpgroup.amalgamated_product`` from a trivial normalisation side and the
image words: pi_1(D) modulo the normal closure of the image of pi_1(D-bar).
"""

from __future__ import annotations

from .fpgroup import Presentation, reduce_word


class DisconnectedComplex(ValueError):
    """The 1-skeleton is not connected."""


class IncompatibleMap(ValueError):
    """Edge images do not run between the images of their endpoints."""


class GluingComplex:
    """1-skeleton with 2-cells: edges are (label, source, target), cells are
    closed paths as tuples of (edge label, +1/-1).  Compared by identity."""

    # tree is the BFS spanning tree, computed once: vertex -> None (basepoint)
    # or the tree edge into it as (label, +1/-1, tail vertex)
    __slots__ = ("vertices", "edges", "two_cells", "basepoint", "tree")

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

    def _spanning_tree(self):
        """BFS from the basepoint, edges scanned in declared order."""
        parent = {self.basepoint: None}
        order = [self.basepoint]
        for u in order:  # grows while it is walked
            for label, s, t in self.edges:
                if s == u and t not in parent:
                    parent[t] = (label, 1, s)
                    order.append(t)
                elif t == u and s not in parent:
                    parent[s] = (label, -1, t)
                    order.append(s)
        return parent


class GluingMap:
    """Cellular map: vertex -> vertex and edge -> (edge, +1/-1)."""

    __slots__ = ("vertex_map", "edge_map")

    def __init__(self, vertex_map: dict, edge_map: dict):
        self.vertex_map = vertex_map
        self.edge_map = edge_map


def check_map(m: GluingMap, src: GluingComplex, tgt: GluingComplex):
    """Raise IncompatibleMap unless m is incidence compatible src -> tgt."""
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


class Pi1Data:
    """Presentation plus the combinatorics needed to push loops around:
    one closed edge path per generator, and the non-tree edge -> generator
    index map used to rewrite arbitrary closed paths."""

    __slots__ = ("presentation", "loop_basis", "edge_generator", "complex")

    def __init__(self, presentation, loop_basis, edge_generator, complex):
        self.presentation = presentation
        self.loop_basis = loop_basis
        self.edge_generator = edge_generator
        self.complex = complex

    @property
    def graph_rank(self):
        return len(self.loop_basis)


def pi1_presentation(c: GluingComplex) -> Pi1Data:
    """Spanning-tree presentation of pi_1 of the complex.

    Generators are the non-tree edges in declared order; each 2-cell word,
    rewritten over non-tree edges, is a relator.  The loop basis records the
    tree-path conjugated loop of every generator for use by induced_hom.
    """
    parent = c.tree
    tree_edges = {edge[0] for edge in parent.values() if edge is not None}

    def path_from_base(v):
        steps = []
        while parent[v] is not None:
            label, sign, v = parent[v]
            steps.append((label, sign))
        steps.reverse()
        return steps

    generators = [e for e in c.edges if e[0] not in tree_edges]
    names = tuple(e[0] for e in generators)
    edge_generator = {label: i for i, (label, _s, _t) in enumerate(generators)}
    loops = []
    for label, s, t in generators:
        back = [(l, -sg) for (l, sg) in reversed(path_from_base(t))]
        loops.append(tuple(path_from_base(s) + [(label, 1)] + back))
    pi1 = Pi1Data(None, tuple(loops), edge_generator, c)  # path_word reads only edge_generator
    pi1.presentation = Presentation(names, tuple(path_word(pi1, cell) for cell in c.two_cells))
    return pi1


def path_word(pi1: Pi1Data, path):
    """Class of a closed edge path as a word in the pi1 generators."""
    word = []
    for label, sign in path:
        g = pi1.edge_generator.get(label)
        if g is not None:
            word.append(sign * (g + 1))
    return reduce_word(word)


def induced_hom(m: GluingMap, src: Pi1Data, tgt: Pi1Data) -> tuple:
    """The image word of each source generator: push its basis loop through
    the map and rewrite it in the target generators."""
    check_map(m, src.complex, tgt.complex)
    images = []
    for loop in src.loop_basis:
        mapped = []
        for label, sign in loop:
            image, esign = m.edge_map[label]
            mapped.append((image, sign * esign))
        images.append(path_word(tgt, mapped))
    return tuple(images)
