"""Finitely presented groups.

Words in a free group are tuples of nonzero ints: letter ``k > 0`` is
generator ``k - 1`` and ``-k`` its inverse.  Relators are kept freely and
cyclically reduced.  Group order is certified by Todd-Coxeter coset
enumeration (HLT strategy with a lookahead pass and table compaction);
abelian invariants come from the Smith form of the relator exponent
matrix.  Coset numbering is deterministic: rows are processed lowest first
and columns in declared generator order, so coset tables are reproducible.

With two or more generators and a relator (x y)^m, m >= 3, read modulo
g^2 = 1, whose root x y splits into two conjugates w g w^-1 of involutions
g, the cosets of H = <x, y> are enumerated instead of those of the trivial
subgroup (Neubüser 1982; Handbook of CGT, ch. 5).  H is a quotient of the
dihedral group D_m, so |H| <= 2m; the relator with the largest m is taken,
the first on ties.  x and y permute the n cosets of H as involutions or the
identity, since x^2 = y^2 = 1, and the order k of their product divides m.
When k = m >= 3 neither is the identity, and together they generate a
dihedral group of order 2m, an image of H: |H| = 2m and |G| = n * 2m.
Otherwise, when k < m, index n = 1 included, the trivial subgroup is
enumerated after all, on a fresh table.  ``max_cosets`` bounds the live
cosets of whichever enumeration runs: the one over H usually needs fewer,
so it can close where the trivial one would not, and a limit it hits is
final.

The coset table is stored by column, one flat ``list[int]`` per generator
and per inverse, indexed by coset number; cosets are numbered from 1 and 0
marks an undefined entry.  An involution, a generator g with a relator g^2,
has one column for g and g^-1 alike, and the relators are rewritten over g
modulo g^2 = 1, as ACE does: HLT then defines about half the cosets on the
Coxeter and (2,3,7;k) groups.  Coincidence processing leaves no live entry
pointing at a dead coset, so everything outside it follows entries
directly, without union-find.

A scan defines the cosets of a gap in one pass (chain fill), and a relator
x^m (m >= 3) keeps closure flags so that its scan is skipped where it is
known to close: one scan of <t | t^n> defines and flags all n cosets.  The
enumeration and lookahead loops walk a relator's columns themselves and
call the scan only where the trace does not close, so a closed trace, the
common case, costs no call.  None of these changes the HLT tables: the same
cosets are defined and merged as by one scan of every relator at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from math import lcm

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


class Presentation:
    """Generators (by name) and relators; relators are stored freely and
    cyclically reduced, with trivial relators dropped."""

    __slots__ = ("names", "relators")

    def __init__(self, names, relators):
        names = tuple(str(n) for n in names)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        rels = []
        for w in relators:
            w = cyclically_reduce(reduce_word(tuple(w)))
            _validate_word(w, len(names))
            if w:
                rels.append(w)
        self.names = names
        self.relators = tuple(rels)

    def __eq__(self, other):
        if other.__class__ is not Presentation:
            return NotImplemented
        return (self.names, self.relators) == (other.names, other.relators)

    def __hash__(self):
        return hash((self.names, self.relators))

    def __repr__(self):
        return f"Presentation(names={self.names!r}, relators={self.relators!r})"

    @property
    def ngens(self):
        return len(self.names)

    def describe(self):
        gens = ", ".join(self.names) if self.names else ""
        rels = ", ".join(word_str(w, self.names) for w in self.relators)
        return f"< {gens} | {rels} >"


def trivial_presentation():
    return Presentation((), ())


def cyclic_presentation(n):
    """The standard presentation of Z/n (n >= 1)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return Presentation(("t",), ((1,) * n,))


# -- abelianization ----------------------------------------------------


def _exponent_vector(word, ngens):
    v = [0] * ngens
    for letter in word:
        v[abs(letter) - 1] += 1 if letter > 0 else -1
    return v


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariants of the abelianised group, via the relator exponent matrix."""
    rows = [_exponent_vector(w, p.ngens) for w in p.relators]
    return cokernel_invariants(IntMatrix._of_rows(rows, p.ngens), p.ngens)


# -- amalgamated products -----------------------------------------------


def _shift_word(word, offset):
    return tuple(
        (abs(letter) + offset) * (1 if letter > 0 else -1) for letter in word
    )


def amalgamated_product(pa, pb, identifications) -> Presentation:
    """Pushout presentation of pa and pb glued along ``identifications``.

    Each identification is a pair (u, v): the images, as a word u in pa and
    a word v in pb, of one generator of the group C that pa and pb are glued
    over; C's relators play no part.  A word outside its side's generators
    raises ValueError.  Generators are those of pa followed by those of pb,
    primed where a name is taken; relators are pa's, pb's shifted past pa's
    generators, and u v^-1 for every pair.  A trivial pa gives
    pb / <<v^-1>>: the amalgam over a simply connected normalisation.
    """
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
    for u, v in identifications:
        u, v = reduce_word(u), reduce_word(v)
        _validate_word(u, pa.ngens)
        _validate_word(v, pb.ngens)
        relators.append(u + inverse_word(_shift_word(v, offset)))
    return Presentation(pa.names + tuple(bnames), relators)


# -- Todd-Coxeter -------------------------------------------------------


def _reduce_mod_involutions(word, involutions):
    """``word`` with g^-1 written g for every involution g, then freely and
    cyclically reduced modulo g^2 = 1: g g cancels, as x x^-1 does."""
    out = []
    for x in word:
        if -x in involutions:
            x = -x
        if out and out[-1] == (x if x in involutions else -x):
            out.pop()
        else:
            out.append(x)
    while len(out) >= 2 and out[0] == (out[-1] if out[-1] in involutions else -out[-1]):
        out = out[1:-1]
    return out


def _root(word):
    """(u, m) with ``word`` = u^m and m as large as it gets."""
    n = len(word)
    if n > 1 and word.count(word[0]) > 1:  # else u's first letter recurs nowhere
        for d in range(1, n // 2 + 1):
            if n % d == 0 and word[d] == word[0] and word == word[:d] * (n // d):
                return word[:d], n // d
    return word, 1


def _dihedral_split(u, involutions):
    """(x, y) with u = x y and x, y each w g w^-1 for an involution g, with
    g^-1 written g as in the rewritten relators; None when u has no split."""

    def conjugates_involution(w):  # w of odd length
        h = len(w) // 2
        return w[h] in involutions and all(
            w[-1 - i] == (x if x in involutions else -x) for i, x in enumerate(w[:h])
        )

    if len(u) % 2 == 0:
        for i in range(1, len(u), 2):
            if conjugates_involution(u[:i]) and conjugates_involution(u[i:]):
                return u[:i], u[i:]
    return None


def _dihedral_subgroup(words, involutions):
    """((x, y), m) for a relator (x y)^m, m >= 3, whose root splits into
    conjugates of involutions: the largest m wins, the first on ties; None
    when no relator has such a root."""
    best, top = None, 2
    for w in words:
        u, m = _root(w)
        if m > top and (xy := _dihedral_split(u, involutions)):
            best, top = (xy, m), m
    return best


_INITIAL_ROWS = 16


class _CosetTable:
    """HLT coset table over the trivial subgroup, or over the subgroup that
    the words of a tuple ``subgroup`` generate, such as a dihedral <x, y>
    (Handbook of CGT, ch. 5).

    Cosets are numbered from 1 (the subgroup itself) and 0 means undefined.
    The words must be reduced as the relators are, freely and cyclically,
    modulo g^2 = 1 over every involution g; each in turn is scanned and
    filled at coset 1 before the first relator.  ``subgroup_period`` reads
    the permutation of their product in that order, u = x y.  The table is
    stored by column: ``cols[c][k]`` is the image of coset k under column
    c.  Each generator has a column, followed by one for its inverse,
    except an involution: a generator g with a relator g^2 (or g^-2).  g
    and g^-1 share its one column, which is its own inverse in ``pairs``;
    g^2 is dropped and the other relators are rewritten over g alone,
    freely and cyclically reduced modulo g^2 = 1, and dropped when that
    empties them (Havas and Ramsay, ACE 3, 1999).  Defining a coset
    through that column defines its inverse entry too, so the enumeration
    skips the cosets the g^2 scans would define and then merge.  Every
    write sets an entry and its inverse entry through a pair, so a shared
    column stays its own inverse and nothing else needs to know of it.
    Columns grow by half and are only ever changed in place, so the column
    lists bound to each relator at construction stay valid.

    Invariant between public calls: no live entry points at a dead coset.
    ``_coincidence`` restores it before it returns and a scan returns right
    after a coincidence, so scans and compaction follow entries
    directly; union-find (``p``) is consulted only inside ``_coincidence``.
    Chain fill needs relators freely reduced, as ``Presentation`` keeps them,
    and modulo g^2 = 1: over a shared column, g g reads as g g^-1.
    ``flags``: a ``bytearray`` per relator x^m, m >= 3.  Invariant: a flag on
    a live coset means that relator closes there.  Flags go on the live
    cosets of a closed trace, which stays closed under coincidences (edges
    map to edges between representatives); ``_compact`` remaps them like the
    columns.  For (xy)^m and the like they would cost more than they save:
    most of the cosets they mark die in coincidences.
    """

    def __init__(self, ngens, relators, max_cosets, subgroup=()):
        self.max = max_cosets
        self.involutions = involutions = {
            abs(w[0]) for w in relators if len(w) == 2 and w[0] == w[1]
        }
        # the relators as the table reads them, in their order.  Only those
        # with a letter of an involution are rewritten: the others are
        # reduced already, and re-walking them would cost for nothing.
        if involutions:
            words, relators = relators, []
            for w in words:
                if not involutions.isdisjoint(map(abs, w)):
                    w = tuple(_reduce_mod_involutions(w, involutions))
                if w:  # g^2, and any relator that reduces to 1, goes
                    relators.append(w)
        self.words = relators
        self.cols = []
        self.pairs = []  # (column, inverse column) in column order
        self.column = column = {}  # letter -> its column
        for g in range(1, ngens + 1):
            c = [0] * _INITIAL_ROWS
            if g in involutions:
                self.cols.append(c)
                self.pairs.append((c, c))
                column[g] = column[-g] = c
            else:
                c_inv = [0] * _INITIAL_ROWS
                self.cols += (c, c_inv)
                self.pairs += ((c, c_inv), (c_inv, c))
                column[g], column[-g] = c, c_inv
        # per relator: the column of each letter, of its inverse, and flags
        self.rels, self.flags = [], []
        for w in relators:
            flags = None
            if len(w) >= 3 and len(set(w)) == 1:  # x^m, m >= 3
                self.flags.append(flags := bytearray(_INITIAL_ROWS))
            self.rels.append(([column[x] for x in w], [column[-x] for x in w], flags))
        self._start(subgroup)

    def _start(self, subgroup):
        """Set up an enumeration over the subgroup the words ``subgroup``
        generate on an empty table."""
        col = self.column
        # per word: the columns of its letters and of their inverses
        self.subgroup = [([col[x] for x in w], [col[-x] for x in w]) for w in subgroup]
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

    def _grow(self, top):
        """Grow every column and flag array by half until index ``top`` fits."""
        size = len(self.cols[0])
        while size <= top:
            size += size // 2
        for c in self.cols + self.flags:
            c.extend(bytes(size - len(c)))

    def _define(self, alpha, col, inv):
        if self.nlive >= self.max:
            raise CosetLimitExceeded(f"enumeration needs more than {self.max} live cosets")
        new = self.top + 1
        if new == len(col):
            self._grow(new)
        self.p.append(new)
        self.top, self.nlive = new, self.nlive + 1
        col[alpha] = new
        inv[new] = alpha

    def _scan(self, alpha, fwd, bwd, fill, f):
        """Scan a relator at alpha, filling its gap if ``fill``; True when it
        then closes there without a coincidence.

        The caller walks the relator's columns from alpha and passes ``f``,
        the coset they take alpha to (0 past a gap, as entry 0 of every
        column is 0), and calls only when ``f != alpha``.  A closed trace
        costs no call, and as a scan of it would change nothing, the HLT
        tables are those of scanning every relator."""
        if f:
            self._coincidence(f, alpha)
            return False
        f = b = alpha
        i, j = 0, len(fwd) - 1
        while fwd[i][f]:  # stops at the gap
            f = fwd[i][f]
            i += 1
        while True:
            for j in range(j, i - 1, -1):
                x = bwd[j][b]
                if not x:
                    break
                b = x
            else:
                self._coincidence(f, b)
                return False
            if j == i or not fill or f != b or bwd[j] is not fwd[i]:
                break
            self._define(f, fwd[i], bwd[i])  # moves the backward end
            f = fwd[i][f]
            i += 1
        if j > i:
            if not fill:
                return False
            # Chain fill, same definitions and limit test as one at a time:
            # each new coset stops the forward end, and no new entry reaches b.
            n = min(j - i, self.max - self.nlive)
            top = self.top
            if top + n >= len(fwd[i]):
                self._grow(top + n)
            new = list(range(top + 1, top + n + 1))  # shared by p and columns
            self.p += new
            self.top, self.nlive = top + n, self.nlive + n
            for k, c in enumerate(new, i):
                fwd[k][f] = c
                bwd[k][c] = f
                f = c
            if n < j - i:
                self._define(f, fwd[i + n], bwd[i + n])  # raises: no room left
        fwd[j][f] = b
        bwd[j][b] = f
        return True

    def _lookahead(self, alpha):
        """Deduction/coincidence pass from coset ``alpha`` on; returns cosets
        freed.  Every live coset below the one being processed closes every
        relator already, so a pass from coset 1 would find nothing more.
        Like ``enumerate`` it walks each relator's columns itself and calls
        ``_scan`` only where the trace does not close, which leaves the
        tables unchanged; with no relators there is nothing to deduce, and
        it returns 0 at once."""
        rels = self.rels
        if not rels:
            return 0
        before = self.nlive
        p, top, scan = self.p, self.top, self._scan  # no definitions: top stays
        while alpha <= top:
            if p[alpha] == alpha:
                for fwd, bwd, flags in rels:
                    if flags is None or not flags[alpha]:
                        f = alpha
                        for col in fwd:
                            f = col[f]
                        if f != alpha:
                            scan(alpha, fwd, bwd, False, f)
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
        for flags in self.flags:
            flags[1 : top + 1] = bytes([flags[k] for k in live] + pad)
        self.top = len(live)
        p[:] = range(self.top + 1)
        return bisect_left(live, alpha) + 1

    def enumerate(self):
        """HLT: scan and fill the subgroup words at coset 1, then every
        relator at each live coset in turn, lowest first, and define the
        coset's missing entries; returns the number of live cosets.

        Each relator's (and subgroup word's) columns are walked here, and
        ``_scan`` runs only when the trace does not close, so a closed trace
        costs no call; the HLT tables are those of scanning every relator.
        On the coset limit a lookahead pass that frees cosets lets the
        enumeration go on."""
        p, rels, scan = self.p, self.rels, self._scan
        for fwd, bwd in self.subgroup:
            f = 1
            for col in fwd:
                f = col[f]
            if f != 1:
                scan(1, fwd, bwd, True, f)
        alpha = 1
        while alpha <= self.top:
            if p[alpha] != alpha:
                alpha += 1
                continue
            if self.top > 2 * self.nlive + 64:
                alpha = self._compact(alpha)
            try:
                for fwd, bwd, flags in rels:
                    if flags is not None and flags[alpha]:
                        continue
                    f = alpha
                    for col in fwd:
                        f = col[f]
                    if f != alpha and not scan(alpha, fwd, bwd, True, f):
                        if p[alpha] != alpha:
                            break
                    elif flags is not None:
                        # x^m closes at alpha, so at every alpha.x^k as well
                        k = alpha
                        for col in fwd:
                            k = col[k]
                            flags[k] = 1
                else:
                    for col, inv in self.pairs:
                        if not col[alpha]:
                            self._define(alpha, col, inv)
            except CosetLimitExceeded:
                if self._lookahead(alpha) == 0:
                    raise
                alpha = self._compact(alpha)
                continue
            alpha += 1
        return self.nlive

    def subgroup_period(self):
        """Order of the permutation that the product of the subgroup words,
        in their order, induces on the live cosets of a closed table: the
        lcm of its cycle lengths."""
        p = self.p
        cols = [col for fwd, _bwd in self.subgroup for col in fwd]
        seen = bytearray(self.top + 1)
        order = 1
        for k in range(1, self.top + 1):
            if p[k] != k or seen[k]:
                continue
            length = 0
            while not seen[k]:
                seen[k] = 1
                for col in cols:
                    k = col[k]
                length += 1
            order = lcm(order, length)
        return order


def todd_coxeter_order(p: Presentation, max_cosets=DEFAULT_MAX_COSETS) -> int:
    """Group order by coset enumeration over the dihedral H = <x, y> of the
    relator (x y)^m with the largest m >= 3 whose root splits into
    conjugates of involutions.  |H| = 2m holds when x y permutes the cosets
    with order m; otherwise, or with no such relator, the trivial subgroup
    is enumerated (see the module docstring for the proof).

    Raises CosetLimitExceeded when the enumeration does not close within
    ``max_cosets`` live cosets (infinite group, or limit too low).
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    table = _CosetTable(p.ngens, p.relators, max_cosets)
    dihedral = _dihedral_subgroup(table.words, table.involutions) if p.ngens >= 2 else None
    if dihedral is not None:
        xy, m = dihedral
        table._start(xy)  # the table is still empty
        index = table.enumerate()
        if table.subgroup_period() == m:
            return index * 2 * m
        table = _CosetTable(p.ngens, p.relators, max_cosets)
    return table.enumerate()


def cyclic_given_order(n: int, inv: AbelianInvariants) -> bool:
    """Whether a group of order n with abelianization ``inv`` is cyclic.

    A group of order n with abelianisation Z/n is cyclic (and a cyclic
    group is its own abelianisation), so this is a proof, not a heuristic.
    """
    if n == 1:
        return inv.is_trivial
    return inv.free_rank == 0 and inv.torsion == (n,)
