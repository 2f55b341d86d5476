"""Spanning-tree fundamental groups and induced maps of glued skeletons."""

import random
import sys

import pytest

from stablepi1 import fpgroup
from stablepi1.scenarios import load_catalogue, run_scenario
from stablepi1.vankampen import (
    DisconnectedComplex,
    GluingComplex,
    GluingMap,
    IncompatibleMap,
    check_map,
    induced_hom,
    path_word,
    pi1_presentation,
)


def two_conics_complex():
    """Two spheres meeting in four points, one 4-gon cell per sphere."""
    return GluingComplex(
        vertices=("Q1", "Q2", "Q3", "Q4"),
        edges=(
            ("a1", "Q1", "Q2"),
            ("b1", "Q2", "Q3"),
            ("f1", "Q3", "Q4"),
            ("g1", "Q4", "Q1"),
            ("a2", "Q2", "Q3"),
            ("b2", "Q3", "Q4"),
            ("f2", "Q4", "Q1"),
            ("g2", "Q1", "Q2"),
        ),
        two_cells=(
            (("a1", 1), ("b1", 1), ("f1", 1), ("g1", 1)),
            (("a2", 1), ("b2", 1), ("f2", 1), ("g2", 1)),
        ),
        basepoint="Q2",
    )


def wedge_complex():
    return GluingComplex(
        vertices=("Q",),
        edges=(("A", "Q", "Q"), ("B", "Q", "Q"), ("F", "Q", "Q"), ("G", "Q", "Q")),
        two_cells=((("A", 1), ("B", 1), ("F", 1), ("G", 1)),),
        basepoint="Q",
    )


def folding_map():
    return GluingMap(
        vertex_map={v: "Q" for v in ("Q1", "Q2", "Q3", "Q4")},
        edge_map={
            "a1": ("A", 1),
            "a2": ("A", 1),
            "b1": ("B", 1),
            "b2": ("B", 1),
            "f1": ("F", 1),
            "f2": ("F", 1),
            "g1": ("G", 1),
            "g2": ("G", 1),
        },
    )


class TestComplexValidation:
    def test_dangling_endpoint(self):
        with pytest.raises(ValueError, match="dangling"):
            GluingComplex(("P",), (("e", "P", "X"),), (), "P")

    def test_disconnected(self):
        with pytest.raises(DisconnectedComplex):
            GluingComplex(("P", "R"), (), (), "P")

    def test_cell_must_close(self):
        with pytest.raises(ValueError, match="closed"):
            GluingComplex(
                ("P", "R"), (("e", "P", "R"),), ((("e", 1),),), "P"
            )

    def test_cell_must_be_a_path(self):
        with pytest.raises(ValueError, match="path"):
            GluingComplex(
                ("P", "R"),
                (("e", "P", "R"), ("f", "P", "R")),
                ((("e", 1), ("f", 1)),),
                "P",
            )

    def test_duplicate_edge_labels(self):
        with pytest.raises(ValueError, match="distinct"):
            GluingComplex(("P",), (("e", "P", "P"), ("e", "P", "P")), (), "P")


class TestPi1:
    def test_tree_is_trivial(self):
        c = GluingComplex(
            ("u", "v", "w"), (("e", "u", "v"), ("f", "v", "w")), (), "u"
        )
        pres = pi1_presentation(c)
        assert pres.ngens == 0
        assert fpgroup.todd_coxeter_order(pres) == 1

    def test_graph_rank_formula(self):
        for complex_ in (two_conics_complex(), wedge_complex()):
            expected = len(complex_.edges) - len(complex_.vertices) + 1
            assert len(complex_.generators) == expected

    def test_two_conics_group_is_free_rank_three(self):
        pres = pi1_presentation(two_conics_complex())
        inv = fpgroup.abelianization(pres)
        assert inv.free_rank == 3 and inv.torsion == ()
        assert pres.ngens - len(pres.relators) == 3

    def test_wedge_with_cell(self):
        pres = pi1_presentation(wedge_complex())
        inv = fpgroup.abelianization(pres)
        assert inv.free_rank == 3 and inv.torsion == ()
        assert pres.ngens == 4
        assert len(pres.relators) == 1


class TestInducedHom:
    def test_identity_map_is_identity_hom(self):
        c = two_conics_complex()
        ident = GluingMap(
            vertex_map={v: v for v in c.vertices},
            edge_map={label: (label, 1) for (label, _s, _t) in c.edges},
        )
        images = induced_hom(ident, c, c)
        assert images == tuple((i + 1,) for i in range(pi1_presentation(c).ngens))

    def test_two_conics_loop_image(self):
        # the path a2 then b1^-1 is a loop at the basepoint; folding the two
        # conics together sends it to A B^-1 in the wedge
        tgt = wedge_complex()
        gmap = folding_map()
        path = [("a2", 1), ("b1", -1)]
        mapped = [(gmap.edge_map[l][0], s * gmap.edge_map[l][1]) for (l, s) in path]
        word = path_word(tgt, mapped)
        assert [pi1_presentation(tgt).names[abs(x) - 1] for x in word] == ["A", "B"]
        assert [1 if x > 0 else -1 for x in word] == [1, -1]

    def test_incidence_checked(self):
        c = two_conics_complex()
        w = wedge_complex()
        bad = GluingMap(
            vertex_map={v: "Q" for v in c.vertices},
            edge_map={label: ("A", 1) for (label, _s, _t) in c.edges},
        )
        # edges map fine for loops, but a vertex missing an image must fail
        incomplete = GluingMap(vertex_map={}, edge_map=bad.edge_map)
        with pytest.raises(IncompatibleMap):
            check_map(incomplete, c, w)

    def test_interleaved_lines_loop_image(self):
        # closed path around two components maps to the word A B G B
        dbar = GluingComplex(
            vertices=("Q1", "Q2", "Q3", "R1", "R2", "R3"),
            edges=(
                ("a1", "R1", "Q1"),
                ("b1", "Q1", "R2"),
                ("a2", "R3", "Q3"),
                ("b2", "Q3", "R1"),
                ("f3", "Q1", "R3"),
                ("g3", "R3", "Q2"),
                ("f4", "Q2", "R2"),
                ("g4", "R2", "Q3"),
            ),
            two_cells=(),
            basepoint="Q1",
        )
        d = GluingComplex(
            vertices=("Q", "R"),
            edges=(("B", "Q", "R"), ("A", "R", "Q"), ("F", "Q", "R"), ("G", "R", "Q")),
            two_cells=(),
            basepoint="Q",
        )
        gmap = GluingMap(
            vertex_map={"Q1": "Q", "Q2": "Q", "Q3": "Q", "R1": "R", "R2": "R", "R3": "R"},
            edge_map={
                "a1": ("A", 1),
                "a2": ("A", 1),
                "b1": ("B", 1),
                "b2": ("B", 1),
                "f3": ("F", 1),
                "f4": ("F", 1),
                "g3": ("G", 1),
                "g4": ("G", 1),
            },
        )
        # loop b1 g4 b2 a1 visits Q1 -> R2 -> Q3 -> R1 -> Q1; its image is
        # the edge path B G B A, re-expressed in the engine's generators
        path = [("b1", 1), ("g4", 1), ("b2", 1), ("a1", 1)]
        mapped = [(gmap.edge_map[l][0], s * gmap.edge_map[l][1]) for (l, s) in path]
        word = path_word(d, mapped)

        edge_index = {label: i + 1 for i, (label, _s, _t) in enumerate(d.edges)}

        def edge_letters(p):
            return tuple(sign * edge_index[label] for (label, sign) in p)

        def from_base(v):
            steps = []
            while d.tree[v] is not None:
                label, sign, v = d.tree[v]
                steps.append((label, sign))
            return steps[::-1]

        def generator_loop(label):
            # tree path to the edge's tail, the edge, tree path back from its head
            _l, s, t = next(e for e in d.edges if e[0] == label)
            return from_base(s) + [(label, 1)] + [(l, -sg) for (l, sg) in reversed(from_base(t))]

        expanded = []
        for letter in word:
            loop = generator_loop(d.generators[abs(letter) - 1])
            if letter < 0:
                loop = [(l, -s) for (l, s) in reversed(loop)]
            expanded.extend(edge_letters(loop))
        assert fpgroup.reduce_word(tuple(expanded)) == edge_letters(mapped)


def glue(dbar, d, gmap):
    """The runner's route: the amalgam over a simply connected normalisation."""
    images = induced_hom(gmap, dbar, d)
    return fpgroup.amalgamated_product(
        fpgroup.trivial_presentation(), pi1_presentation(d), [((), w) for w in images]
    )


class TestGlue:
    def test_two_conics_gives_order_four(self):
        glued = glue(two_conics_complex(), wedge_complex(), folding_map())
        assert fpgroup.todd_coxeter_order(glued) == 4
        assert fpgroup.cyclic_given_order(4, fpgroup.abelianization(glued))

    def test_word_outside_its_side_rejected(self):
        tgt = pi1_presentation(wedge_complex())
        trivial = fpgroup.trivial_presentation()
        # u must be a word in the trivial side, v one in pi_1 of the wedge
        with pytest.raises(ValueError):
            fpgroup.amalgamated_product(trivial, tgt, [((1,), ())])
        with pytest.raises(ValueError):
            fpgroup.amalgamated_product(trivial, tgt, [((), (tgt.ngens + 1,))])


def test_invariants_stable_under_edge_permutation():
    # reversing the declaration order changes tree and generators but not
    # the glued group
    base = two_conics_complex()
    permuted = GluingComplex(
        base.vertices, tuple(reversed(base.edges)), base.two_cells, "Q3"
    )
    wedge = wedge_complex()
    gmap = folding_map()

    def invariants(dbar):
        glued = glue(dbar, wedge, gmap)
        return fpgroup.todd_coxeter_order(glued), fpgroup.abelianization(glued)

    assert invariants(base) == invariants(permuted)


# Reversing an edge keeps the space: swap its ends and negate its sign in
# every 2-cell and wherever a gluing map names it.  Every bundled map sends
# each edge to an edge with sign +1, so only reversed copies reach the
# orientation signs in induced_hom.
VANKAMPEN = {s.id: s for s in load_catalogue() if s.kind == "vankampen"}


def reversed_complex(c, labels):
    edges = tuple((l, t, s) if l in labels else (l, s, t) for (l, s, t) in c.edges)
    cells = tuple(tuple((l, -sg if l in labels else sg) for (l, sg) in cell) for cell in c.two_cells)
    return GluingComplex(c.vertices, edges, cells, c.basepoint)


def with_reversed_edges(scenario, d_labels=(), dbar_labels=()):
    """The scenario with the D-edges ``d_labels`` and the D-bar-edges
    ``dbar_labels`` reversed, its map's images and signs following."""
    dbar, d, m = scenario.payload
    edge_map = {}
    for label, (image, sign) in m.edge_map.items():
        flip = (image in d_labels) != (label in dbar_labels)
        edge_map[label] = (image, -sign if flip else sign)
    gluing = GluingMap(m.vertex_map, edge_map)
    dbar, d = reversed_complex(dbar, dbar_labels), reversed_complex(d, d_labels)
    check_map(gluing, dbar, d)
    return scenario._replace(payload=scenario.payload._replace(dbar=dbar, d=d, gluing=gluing))


def verdict(scenario):
    r = run_scenario(scenario)
    return r.verdict, r.error, r.order, r.cyclic, r.abelianization


def test_the_catalogue_has_eight_van_kampen_scenarios():
    assert sorted(VANKAMPEN) == ["P1", "P2", "P3", "X1.1", "X1.2", "X1.3", "X1.4", "X1.5"]


@pytest.mark.parametrize("sid", sorted(VANKAMPEN))
def test_reversing_one_d_edge_keeps_the_verdict(sid):
    s = VANKAMPEN[sid]
    want = verdict(s)
    assert want[0] == "pass"
    for label, _s, _t in s.payload.d.edges:
        assert verdict(with_reversed_edges(s, d_labels={label})) == want, label


@pytest.mark.parametrize("sid", sorted(VANKAMPEN))
def test_reversing_one_dbar_edge_keeps_the_verdict(sid):
    s = VANKAMPEN[sid]
    want = verdict(s)
    for label, _s, _t in s.payload.dbar.edges:
        assert verdict(with_reversed_edges(s, dbar_labels={label})) == want, label


@pytest.mark.parametrize("sid", sorted(VANKAMPEN))
def test_reversing_several_edges_at_once_keeps_the_verdict(sid):
    s = VANKAMPEN[sid]
    want = verdict(s)
    rng = random.Random(sid)
    d_labels = [l for l, _s, _t in s.payload.d.edges]
    dbar_labels = [l for l, _s, _t in s.payload.dbar.edges]
    for _ in range(6):
        d_some = set(rng.sample(d_labels, rng.randint(1, len(d_labels))))
        dbar_some = set(rng.sample(dbar_labels, rng.randint(1, len(dbar_labels))))
        assert verdict(with_reversed_edges(s, d_some, dbar_some)) == want, (d_some, dbar_some)


def scan_spanning_tree(c):
    """The spanning tree by the first rule: BFS from the basepoint, every
    edge scanned in declared order for every vertex; O(V*E), the reference
    for the incidence-list BFS."""
    parent = {c.basepoint: None}
    order = [c.basepoint]
    for u in order:
        for label, s, t in c.edges:
            if s == u and t not in parent:
                parent[t] = (label, 1, s)
                order.append(t)
            elif t == u and s not in parent:
                parent[s] = (label, -1, t)
                order.append(s)
    return parent


def random_connected_complex(rng):
    """A seeded connected complex: a random tree, then extra edges that
    include loops and parallel edges, all in shuffled order with random
    orientations, and a random basepoint."""
    n = rng.randint(1, 12)
    vertices = [f"v{i}" for i in range(n)]
    ends = [(vertices[i], rng.choice(vertices[:i])) for i in range(1, n)]
    for _ in range(rng.randint(0, 15)):
        u = rng.choice(vertices)
        ends.append((u, u) if rng.random() < 0.2 else (u, rng.choice(vertices)))
    ends += rng.sample(ends, min(len(ends), rng.randint(0, 3)))  # parallel edges
    rng.shuffle(ends)
    edges = [(f"e{i}", s, t) if rng.random() < 0.5 else (f"e{i}", t, s) for i, (s, t) in enumerate(ends)]
    return GluingComplex(vertices, edges, (), rng.choice(vertices))


def test_the_spanning_tree_is_the_scanned_tree_on_the_catalogue():
    complexes = [c for s in VANKAMPEN.values() for c in (s.payload.dbar, s.payload.d)]
    assert len(complexes) == 16
    for c in complexes:
        assert list(c.tree.items()) == list(scan_spanning_tree(c).items())


def test_the_spanning_tree_is_the_scanned_tree_on_seeded_complexes():
    rng = random.Random(18)
    loops = parallel = 0
    for _ in range(1200):
        c = random_connected_complex(rng)
        assert list(c.tree.items()) == list(scan_spanning_tree(c).items()), c.edges
        loops += any(s == t for _l, s, t in c.edges)
        parallel += len({frozenset((s, t)) for _l, s, t in c.edges}) < len(c.edges)
    assert loops > 100 and parallel > 100


# traced lines per vertex and edge: 7.25 on a path under Python 3.10 to 3.13
LINES_PER_VERTEX_AND_EDGE = 10


def path(n):
    """The vertices and edges of a path of n vertices: edge ei joins vi and
    vi+1, pointing up for odd i and down for even i."""
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n - 1):
        low, high = vertices[i], vertices[i + 1]
        edges.append((f"e{i}", low, high) if i % 2 else (f"e{i}", high, low))
    return vertices, edges


def test_a_path_of_50000_vertices_loads():
    # the edge scan visited every edge for every vertex, 2.5e9 steps here
    n = 50000
    vertices, edges = path(n)
    c = GluingComplex(vertices, edges, (), vertices[n // 2])
    assert len(c.tree) == n and c.generators == ()
    assert c.tree["v0"] == ("e0", 1, "v1")
    assert c.tree["v49999"] == ("e49998", -1, "v49998")


def test_the_spanning_tree_does_linear_work_on_a_path():
    """The lines run inside ``GluingComplex._spanning_tree`` (with the
    comprehensions it holds), counted by a trace function on a path of 5000
    vertices: at most a small constant times V + E.  A scan of every edge
    for every vertex runs about V * E of them; the trace stops it at the
    bound."""
    n = 5000
    vertices, edges = path(n)
    code = GluingComplex._spanning_tree.__code__
    codes = {code} | {c for c in code.co_consts if isinstance(c, type(code))}
    bound = LINES_PER_VERTEX_AND_EDGE * (len(vertices) + len(edges))
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if lines > bound:
                raise AssertionError(f"the spanning tree ran more than {bound} lines")
        return count

    def enter(frame, event, arg):
        return count if frame.f_code in codes else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        c = GluingComplex(vertices, edges, (), vertices[n // 2])
    finally:
        sys.settrace(previous)
    assert len(c.tree) == n and c.generators == ()
    # the trace saw the walk: at least one line per vertex
    assert lines >= n
