"""Finitely presented groups.

Words in a free group are tuples of nonzero ints: letter ``k > 0`` is
generator ``k - 1`` and ``-k`` its inverse.  Relators are kept freely and
cyclically reduced.  Group order is certified by Todd-Coxeter coset
enumeration (HLT strategy with a lookahead pass and table compaction) over
the trivial subgroup; abelian invariants come from the Smith form of the
relator exponent matrix.  Coset numbering is deterministic: rows are
processed lowest first and columns in declared generator order, so coset
tables are reproducible.

The coset table is stored by column, one flat ``list[int]`` per generator
and per inverse, indexed by coset number; cosets are numbered from 1 and 0
marks an undefined entry.  Coincidence processing leaves no live entry
pointing at a dead coset, so everything outside it follows entries
directly, without union-find.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .intlin import AbelianInvariants, IntMatrix, cokernel_invariants

DEFAULT_MAX_COSETS = 10**6


class CosetLimitExceeded(RuntimeError):
    """Coset enumeration did not close within the allowed live cosets."""


# -- words ------------------------------------------------------------


def reduce_word(word):
    """Freely reduce: cancel adjacent x x^-1 pairs.  Idempotent."""
    out = []
    for letter in word:
        if not isinstance(letter, int) or letter == 0:
            raise ValueError("word letters must be nonzero ints")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inverse_word(word):
    return tuple(-letter for letter in reversed(word))


def cyclically_reduce(word):
    """Strip conjugating prefixes: u w u^-1 -> w.  Input must be reduced."""
    w = list(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def power_word(letter, exponent):
    """letter^exponent as a word (letter is a 1-based generator index)."""
    if exponent >= 0:
        return (letter,) * exponent
    return (-letter,) * (-exponent)


def _validate_word(word, ngens):
    for letter in word:
        if abs(letter) > ngens:
            raise ValueError(f"letter {letter} outside generator range 1..{ngens}")


def word_str(word, names):
    if not word:
        return "1"
    parts = []
    for letter in word:
        name = names[abs(letter) - 1]
        parts.append(name if letter > 0 else name + "^-1")
    return " ".join(parts)


# -- presentations -----------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """Generators (by name) and relators; relators are stored freely and
    cyclically reduced, with trivial relators dropped."""

    names: tuple
    relators: tuple

    def __post_init__(self):
        names = tuple(str(n) for n in self.names)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        rels = []
        for w in self.relators:
            w = cyclically_reduce(reduce_word(tuple(w)))
            _validate_word(w, len(names))
            if w:
                rels.append(w)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "relators", tuple(rels))

    @property
    def ngens(self):
        return len(self.names)

    def describe(self):
        gens = ", ".join(self.names) if self.names else ""
        rels = ", ".join(word_str(w, self.names) for w in self.relators)
        return f"< {gens} | {rels} >"


def trivial_presentation():
    return Presentation((), ())


def cyclic_presentation(n, name="t"):
    """The standard presentation of Z/n (n >= 1)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return Presentation((name,), ((1,) * n,))


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism given by one target word per source generator.

    Constructing the object only validates shapes; that relators map to the
    identity is not checked.
    """

    source: Presentation
    target: Presentation
    images: tuple

    def __post_init__(self):
        imgs = tuple(reduce_word(tuple(w)) for w in self.images)
        if len(imgs) != self.source.ngens:
            raise ValueError("need exactly one image per source generator")
        for w in imgs:
            _validate_word(w, self.target.ngens)
        object.__setattr__(self, "images", imgs)


# -- abelianization ----------------------------------------------------


def _exponent_vector(word, ngens):
    v = [0] * ngens
    for letter in word:
        v[abs(letter) - 1] += 1 if letter > 0 else -1
    return v


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariants of the abelianised group, via the relator exponent matrix."""
    rows = [_exponent_vector(w, p.ngens) for w in p.relators]
    return cokernel_invariants(IntMatrix.from_rows(rows, cols=p.ngens), p.ngens)


# -- quotients and products ---------------------------------------------


def quotient_by_normal_closure(p: Presentation, words) -> Presentation:
    """p / <<words>>: append the words as relators."""
    extra = []
    for w in words:
        w = tuple(w)
        _validate_word(w, p.ngens)
        extra.append(w)
    return Presentation(p.names, p.relators + tuple(extra))


def _shift_word(word, offset):
    return tuple(
        (abs(letter) + offset) * (1 if letter > 0 else -1) for letter in word
    )


def amalgamated_product(pa, pb, pc, f: GroupHom, g: GroupHom) -> Presentation:
    """Pushout presentation of pa *_{pc} pb along f: C->A and g: C->B.

    Generators are those of pa followed by those of pb; relators are both
    relator sets plus f(c) g(c)^-1 for every generator c of pc.
    """
    if f.source != pc or g.source != pc:
        raise ValueError("f and g must share source pc")
    if f.target != pa or g.target != pb:
        raise ValueError("f must land in pa and g in pb")
    offset = pa.ngens
    used = set(pa.names)
    bnames = []
    for name in pb.names:
        candidate = name
        while candidate in used:
            candidate += "'"
        used.add(candidate)
        bnames.append(candidate)
    relators = list(pa.relators)
    relators.extend(_shift_word(w, offset) for w in pb.relators)
    for i in range(pc.ngens):
        relators.append(f.images[i] + inverse_word(_shift_word(g.images[i], offset)))
    return Presentation(pa.names + tuple(bnames), tuple(relators))


# -- Todd-Coxeter -------------------------------------------------------


def _column(letter):
    idx = abs(letter) - 1
    return 2 * idx + (0 if letter > 0 else 1)


_INITIAL_ROWS = 16


class _CosetTable:
    """HLT coset table over the trivial subgroup (Handbook of CGT, ch. 5).

    Cosets are numbered from 1 (the subgroup itself) and 0 means undefined.
    The table is stored by column: ``cols[c][k]`` is the image of coset k
    under column c, where column 2i is generator i and 2i + 1 its inverse.
    Columns grow by doubling and are only ever changed in place, so the
    column lists bound to each relator at construction stay valid.

    Invariant between public calls: no live entry points at a dead coset.
    ``_coincidence`` restores it before it returns and a scan returns right
    after a coincidence, so scans and compaction follow entries
    directly; union-find (``p``) is consulted only inside ``_coincidence``.
    """

    def __init__(self, ngens, relators, max_cosets):
        self.max = max_cosets
        self.cols = []
        self.pairs = []  # (column, inverse column) in column order
        column = {}  # letter -> its column
        for g in range(1, ngens + 1):
            c, c_inv = [0] * _INITIAL_ROWS, [0] * _INITIAL_ROWS
            self.cols += (c, c_inv)
            self.pairs += ((c, c_inv), (c_inv, c))
            column[g], column[-g] = c, c_inv
        # per relator: the column of each letter, and of its inverse
        self.rels = [
            ([column[x] for x in w], [column[-x] for x in w]) for w in relators
        ]
        self.p = [0, 1]
        self.top = 1  # highest coset number in use
        self.nlive = 1

    # union-find; merges always keep the smaller index, so representatives
    # are minimal and numbering stays deterministic
    def _rep(self, k):
        p = self.p
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def _coincidence(self, a, b):
        """Merge live cosets a and b and every coincidence they imply.

        The merge step and the common case of ``_rep`` are inlined: this is
        the hot loop of enumerations with many coincidences.
        """
        p, rep = self.p, self._rep
        if a == b:
            return
        if a > b:
            a, b = b, a
        p[b] = a
        queue = [b]  # grows while it is walked
        for gamma in queue:
            for col, inv in self.pairs:
                delta = col[gamma]
                if not delta:
                    continue
                col[gamma] = 0
                inv[delta] = 0
                mu = p[gamma]
                if p[mu] != mu:
                    mu = rep(mu)
                nu = delta if p[delta] == delta else rep(delta)
                x = col[mu]
                if x:
                    k = nu
                elif inv[nu]:
                    k, x = mu, inv[nu]
                else:
                    col[mu] = nu
                    inv[nu] = mu
                    continue
                if p[x] != x:
                    x = rep(x)
                if k != x:
                    if k > x:
                        k, x = x, k
                    p[x] = k
                    queue.append(x)
        self.nlive -= len(queue)

    def _define(self, alpha, col, inv):
        if self.nlive >= self.max:
            raise CosetLimitExceeded(
                f"enumeration needs more than {self.max} live cosets"
            )
        new = self.top + 1
        if new == len(col):
            for c in self.cols:
                c.extend([0] * new)
        self.p.append(new)
        self.top = new
        self.nlive += 1
        col[alpha] = new
        inv[new] = alpha

    def _scan(self, alpha, fwd, bwd, fill):
        f = b = alpha
        i, j = 0, len(fwd) - 1
        while True:
            for i in range(i, j + 1):
                x = fwd[i][f]
                if not x:
                    break
                f = x
            else:
                if f != b:
                    self._coincidence(f, b)
                return
            for j in range(j, i - 1, -1):
                x = bwd[j][b]
                if not x:
                    break
                b = x
            else:
                self._coincidence(f, b)
                return
            if j == i:
                fwd[i][f] = b
                bwd[i][b] = f
                return
            if not fill:
                return
            self._define(f, fwd[i], bwd[i])

    def _lookahead(self):
        """Deduction/coincidence pass over the whole table; returns cosets freed."""
        before = self.nlive
        p = self.p
        alpha = 1
        while alpha <= self.top:
            if p[alpha] == alpha:
                for fwd, bwd in self.rels:
                    self._scan(alpha, fwd, bwd, False)
                    if p[alpha] != alpha:
                        break
            alpha += 1
        return before - self.nlive

    def _compact(self, alpha):
        """Drop dead rows, renumber live cosets in order; returns new alpha."""
        p, top = self.p, self.top
        live = [k for k in range(1, top + 1) if p[k] == k]
        mapping = [0] * (top + 1)
        for new, old in enumerate(live, 1):
            mapping[old] = new
        pad = [0] * (top - len(live))
        for col in self.cols:
            col[1 : top + 1] = [mapping[col[k]] for k in live] + pad
        self.top = len(live)
        p[:] = range(self.top + 1)
        return bisect_left(live, alpha) + 1

    def enumerate(self):
        p = self.p
        alpha = 1
        while alpha <= self.top:
            if p[alpha] != alpha:
                alpha += 1
                continue
            if self.top > 2 * self.nlive + 64:
                alpha = self._compact(alpha)
            try:
                for fwd, bwd in self.rels:
                    self._scan(alpha, fwd, bwd, True)
                    if p[alpha] != alpha:
                        break
                else:
                    for col, inv in self.pairs:
                        if not col[alpha]:
                            self._define(alpha, col, inv)
            except CosetLimitExceeded:
                if self._lookahead() == 0:
                    raise
                alpha = self._compact(alpha)
                continue
            alpha += 1
        return self.nlive


def todd_coxeter_order(p: Presentation, max_cosets=DEFAULT_MAX_COSETS) -> int:
    """Group order by coset enumeration over the trivial subgroup.

    Raises CosetLimitExceeded when the enumeration does not close within
    ``max_cosets`` live cosets (infinite group, or limit too low).
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    if p.ngens == 0:
        return 1
    return _CosetTable(p.ngens, p.relators, max_cosets).enumerate()


def cyclic_given_order(n: int, inv: AbelianInvariants) -> bool:
    """Whether a group of order n with abelianization ``inv`` is cyclic.

    A group of order n with abelianisation Z/n is cyclic (and a cyclic
    group is its own abelianisation), so this is a proof, not a heuristic.
    """
    if n == 1:
        return inv.is_trivial
    return inv.free_rank == 0 and inv.torsion == (n,)
