"""Reference coset table for differential tests: the row-of-lists HLT
enumerator that the column-layout ``fpgroup._CosetTable`` replaced.  Rows are
numbered from 0, ``None`` marks an undefined entry, and every lookup goes
through union-find.

With ``involutions=True`` it follows the shared-column rule on its own
code: a generator g with a relator g^2 or g^-2 keeps only its column 2i,
which is its own inverse, column 2i + 1 is never defined, g^2 is dropped
and the other relators are rewritten over g and reduced modulo g^2 = 1.
Otherwise it is the replaced enumerator verbatim, with ``col ^ 1`` read
from the ``inverse`` list.

With a nonempty tuple ``subgroup`` of words it enumerates the cosets of the
subgroup they generate: before the first relator it scans each word in turn
at coset 0 and fills its gaps, one definition at a time.  In involution mode
the words' letters g^-1 are read as g.
"""

from collections import deque

from stablepi1.fpgroup import CosetLimitExceeded


def _column(letter):
    idx = abs(letter) - 1
    return 2 * idx + (0 if letter > 0 else 1)


def involutions_of(relators):
    """Generators g with a relator g^2 or g^-2."""
    return sorted({abs(w[0]) for w in relators if len(w) == 2 and w[0] == w[1]})


def reduce_mod_involutions(word, involutions):
    """Write g^-1 as g for every involution g, cancel adjacent x x^-1 and
    g g until none is left, then strip cancelling end pairs."""
    w = [abs(x) if abs(x) in involutions else x for x in word]

    def cancels(x, y):
        return x == -y or (x == y and x in involutions)

    k = 0
    while k + 1 < len(w):
        if cancels(w[k], w[k + 1]):
            del w[k : k + 2]
            k = max(k - 1, 0)
        else:
            k += 1
    while len(w) >= 2 and cancels(w[0], w[-1]):
        w = w[1:-1]
    return tuple(w)


class ReferenceCosetTable:
    """HLT coset table over the trivial subgroup or over the subgroup the
    words ``subgroup`` generate (Handbook of CGT, ch. 5)."""

    def __init__(self, ngens, relators, max_cosets, involutions=False, subgroup=()):
        self.ncols = 2 * ngens
        self.inverse = [col ^ 1 for col in range(self.ncols)]
        self.unused = set()  # the inverse columns of involutions
        if involutions:
            gens = involutions_of(relators)
            for g in gens:
                self.inverse[_column(g)] = _column(g)
                self.unused.add(_column(-g))
            rewritten = (reduce_mod_involutions(w, gens) for w in relators)
            relators = [w for w in rewritten if w]
            subgroup = [[abs(x) if abs(x) in gens else x for x in w] for w in subgroup]
        self.rels = [[_column(letter) for letter in w] for w in relators]
        self.subgroup = [[_column(letter) for letter in w] for w in subgroup]
        self.max = max_cosets
        self.table = [[None] * self.ncols]
        self.p = [0]
        self.nlive = 1

    # union-find; merges always keep the smaller index, so representatives
    # are minimal and numbering stays deterministic
    def rep(self, k):
        r = k
        while self.p[r] != r:
            r = self.p[r]
        while self.p[k] != r:
            self.p[k], k = r, self.p[k]
        return r

    def _merge(self, k, lam, queue):
        k, lam = self.rep(k), self.rep(lam)
        if k != lam:
            mu, nu = (k, lam) if k < lam else (lam, k)
            self.p[nu] = mu
            self.nlive -= 1
            queue.append(nu)

    def _coincidence(self, a, b):
        queue = deque()
        self._merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            row = self.table[gamma]
            for col in range(self.ncols):
                delta = row[col]
                if delta is None:
                    continue
                self.table[delta][self.inverse[col]] = None
                mu = self.rep(gamma)
                nu = self.rep(delta)
                if self.table[mu][col] is not None:
                    self._merge(nu, self.table[mu][col], queue)
                elif self.table[nu][self.inverse[col]] is not None:
                    self._merge(mu, self.table[nu][self.inverse[col]], queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][self.inverse[col]] = mu
                row[col] = None

    def _define(self, alpha, col):
        if self.nlive >= self.max:
            raise CosetLimitExceeded(
                f"enumeration needs more than {self.max} live cosets"
            )
        new = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(new)
        self.nlive += 1
        self.table[alpha][col] = new
        self.table[new][self.inverse[col]] = alpha

    def _scan(self, alpha, rel, fill):
        f, i = alpha, 0
        b, j = alpha, len(rel) - 1
        while True:
            while i <= j and self.table[f][rel[i]] is not None:
                f = self.rep(self.table[f][rel[i]])
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i and self.table[b][self.inverse[rel[j]]] is not None:
                b = self.rep(self.table[b][self.inverse[rel[j]]])
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if j == i:
                self.table[f][rel[i]] = b
                self.table[b][self.inverse[rel[i]]] = f
                return
            if not fill:
                return
            self._define(f, rel[i])

    def _lookahead(self):
        """Deduction/coincidence pass over the whole table; returns cosets freed."""
        before = self.nlive
        alpha = 0
        while alpha < len(self.table):
            if self.p[alpha] == alpha:
                for rel in self.rels:
                    self._scan(alpha, rel, fill=False)
                    if self.p[alpha] != alpha:
                        break
            alpha += 1
        return before - self.nlive

    def _compact(self, alpha):
        """Drop dead rows, renumber live cosets in order; returns new alpha."""
        mapping = {}
        new_table = []
        for i, row in enumerate(self.table):
            if self.p[i] == i:
                mapping[i] = len(new_table)
                new_table.append(row)
        for row in new_table:
            for col in range(self.ncols):
                if row[col] is not None:
                    row[col] = mapping[self.rep(row[col])]
        new_alpha = sum(1 for k in mapping if k < alpha)
        self.table = new_table
        self.p = list(range(len(new_table)))
        return new_alpha

    def enumerate(self):
        for word in self.subgroup:
            self._scan(0, word, fill=True)
        alpha = 0
        while alpha < len(self.table):
            if self.p[alpha] != alpha:
                alpha += 1
                continue
            if len(self.table) > 2 * self.nlive + 64:
                alpha = self._compact(alpha)
            try:
                dead = False
                for rel in self.rels:
                    self._scan(alpha, rel, fill=True)
                    if self.p[alpha] != alpha:
                        dead = True
                        break
                if not dead:
                    for col in range(self.ncols):
                        if col not in self.unused and self.table[alpha][col] is None:
                            self._define(alpha, col)
            except CosetLimitExceeded:
                if self._lookahead() == 0:
                    raise
                alpha = self._compact(alpha)
                continue
            alpha += 1
        return self.nlive
