"""Rooted trees, free trees (root-shift classes), and tableau conditions.

A rooted tree is stored canonically as a sorted tuple of canonical
subtrees, so isomorphic trees compare equal.  Free trees collect every
distinct rooting reachable by shifting the root across an edge, together
with the parity (-1)^kappa of the shift count; the alternating sum of
elementary weights over a class is the energy-preservation condition for
the corresponding elementary Hamiltonian.

A rule's tableau A = c b^T gives each condition exactly from the rule's
moments.  Only a tableau's mpf entries and the weights of an arbitrary
tableau import mpmath, when they are first formed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence

from .quadrature import QuadRule

__all__ = [
    "RootedTree",
    "Forest",
    "FreeTree",
    "ButcherTableau",
    "leaf",
    "enumerate_rooted",
    "enumerate_free",
    "butcher_product",
    "free_class",
    "rk_weight",
    "energy_condition_residual",
    "conditions_up_to",
    "parse_tree",
]


class RootedTree:
    """Canonical rooted tree: a sorted tuple of canonical subtrees."""

    __slots__ = ("children", "order", "key", "_sigma", "_maxdeg")

    def __init__(self, children: Iterable["RootedTree"] = ()):
        kids = sorted(children, key=lambda t: t.key)
        object.__setattr__(self, "children", tuple(kids))
        object.__setattr__(self, "order", 1 + sum(k.order for k in kids))
        object.__setattr__(self, "key", (self.order, tuple(k.key for k in kids)))
        object.__setattr__(self, "_sigma", None)
        object.__setattr__(self, "_maxdeg", None)

    def __setattr__(self, *a):
        raise AttributeError("RootedTree is immutable")

    def __eq__(self, other):
        return isinstance(other, RootedTree) and self.key == other.key

    def __lt__(self, other):
        return self.key < other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"RootedTree({self.bracket()})"

    def bracket(self) -> str:
        """Nested-bracket text form, '*' for leaves, e.g. '[[*],*,*]'."""
        if not self.children:
            return "*"
        return "[" + ",".join(k.bracket() for k in self.children) + "]"

    @property
    def sigma(self) -> int:
        """Symmetry coefficient: product of r_i! sigma(t_i)^r_i over child runs."""
        if self._sigma is None:
            val = 1
            i = 0
            kids = self.children
            while i < len(kids):
                j = i
                while j < len(kids) and kids[j] == kids[i]:
                    j += 1
                r = j - i
                fact = 1
                for f in range(2, r + 1):
                    fact *= f
                val *= fact * kids[i].sigma**r
                i = j
            object.__setattr__(self, "_sigma", val)
        return self._sigma

    @property
    def max_branching(self) -> int:
        """Max number of branches at any vertex, counted as graph degree."""
        if self._maxdeg is None:
            best = len(self.children)
            for k in self.children:
                best = max(best, k._max_branch_nonroot())
            object.__setattr__(self, "_maxdeg", best)
        return self._maxdeg

    def _max_branch_nonroot(self) -> int:
        best = len(self.children) + 1  # parent edge counts
        for k in self.children:
            best = max(best, k._max_branch_nonroot())
        return best


leaf = RootedTree()


def butcher_product(u: RootedTree, v: RootedTree) -> RootedTree:
    """u o v: graft v as an extra child of the root of u."""
    return RootedTree(u.children + (v,))


def parse_tree(text: str) -> RootedTree:
    """Inverse of RootedTree.bracket."""
    pos = 0

    def peek() -> str:
        if pos >= len(text):
            raise ValueError("unexpected end of tree text")
        return text[pos]

    def parse() -> RootedTree:
        nonlocal pos
        if peek() == "*":
            pos += 1
            return leaf
        if peek() != "[":
            raise ValueError(f"unexpected character at {pos}: {text[pos]!r}")
        pos += 1
        kids = []
        while peek() != "]":
            kids.append(parse())
            if peek() == ",":
                pos += 1
            elif peek() != "]":
                raise ValueError(f"expected ',' or ']' at {pos}: {text[pos]!r}")
        pos += 1
        return RootedTree(kids)

    t = parse()
    if pos != len(text):
        raise ValueError("trailing characters in tree text")
    return t


@lru_cache(maxsize=None)
def enumerate_rooted(n: int) -> tuple:
    """All canonical rooted trees with exactly n vertices."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > 10:
        raise ValueError("n > 10 not supported")
    if n == 1:
        return (leaf,)
    # pool of all smaller trees, indexed; choose a non-increasing sequence of
    # indices whose orders sum to n-1, so each multiset appears exactly once
    pool = [t for k in range(1, n) for t in enumerate_rooted(k)]
    out = []

    def extend(budget: int, max_idx: int, acc: list):
        if budget == 0:
            out.append(RootedTree(acc))
            return
        for idx in range(max_idx, -1, -1):
            t = pool[idx]
            if t.order <= budget:
                acc.append(t)
                extend(budget - t.order, idx, acc)
                acc.pop()

    extend(n - 1, len(pool) - 1, [])
    return tuple(sorted(out, key=lambda t: t.key))


def _root_shifts(t: RootedTree):
    """Trees obtained by shifting the root across one edge at the root."""
    seen = set()
    for i, child in enumerate(t.children):
        if child in seen:
            continue
        seen.add(child)
        rest = RootedTree(t.children[:i] + t.children[i + 1 :])
        yield RootedTree(child.children + (rest,))


def _is_uu(t: RootedTree) -> bool:
    # t = u o u means removing one child occurrence leaves that same child
    for i, child in enumerate(t.children):
        rest = RootedTree(t.children[:i] + t.children[i + 1 :])
        if rest == child:
            return True
    return False


class FreeTree:
    """Root-shift equivalence class with parities relative to a representative."""

    __slots__ = ("members", "representative", "parity", "superfluous")

    def __init__(self, members, representative, parity, superfluous):
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "superfluous", superfluous)

    def __setattr__(self, *a):
        raise AttributeError("FreeTree is immutable")

    @property
    def order(self) -> int:
        return self.representative.order

    @property
    def max_branching(self) -> int:
        return self.representative.max_branching

    def __eq__(self, other):
        return isinstance(other, FreeTree) and self.representative == other.representative

    def __hash__(self):
        return hash(self.representative)

    def __repr__(self):
        tag = ", superfluous" if self.superfluous else ""
        return f"FreeTree({self.representative.bracket()}, {len(self.members)} members{tag})"


def free_class(t: RootedTree) -> FreeTree:
    """BFS closure of t under single root shifts, with parity bookkeeping.

    Parity conflicts occur exactly when the class contains a u o u member
    (an edge-inverting symmetry); that is the superfluous case.  Any other
    conflict is an implementation bug and raises.
    """
    parity = {t: 1}
    frontier = [t]
    conflict = False
    while frontier:
        nxt = []
        for u in frontier:
            for v in _root_shifts(u):
                if v in parity:
                    if parity[v] != -parity[u]:
                        conflict = True
                else:
                    parity[v] = -parity[u]
                    nxt.append(v)
        frontier = nxt
    superfluous = any(_is_uu(u) for u in parity)
    if conflict and not superfluous:
        raise RuntimeError(f"parity inconsistency in non-superfluous class of {t.bracket()}")
    members = tuple(sorted(parity, key=lambda u: u.key))
    rep = members[0]
    flip = parity[rep]
    relative = {u: p * flip for u, p in parity.items()}
    return FreeTree(members, rep, relative, superfluous)


@lru_cache(maxsize=None)
def enumerate_free(n: int) -> tuple:
    """All free trees on n vertices (including superfluous ones)."""
    seen = {}
    members = set()  # every rooted tree of a class found so far
    for t in enumerate_rooted(n):
        if t not in members:
            ft = free_class(t)
            seen[ft.representative] = ft
            members.update(ft.members)
    return tuple(seen[k] for k in sorted(seen, key=lambda r: r.key))


class Forest(tuple):
    """Unordered multiset of rooted trees."""

    def __new__(cls, trees: Iterable[RootedTree] = ()):
        return super().__new__(cls, sorted(trees, key=lambda t: t.key))

    @property
    def order(self) -> int:
        return sum(t.order for t in self)


class ButcherTableau:
    """Runge-Kutta coefficients (A, b, c) in high-precision floats.

    `rule` is the QuadRule whose nodes and weights make A = c b^T, set by
    the constructors of rank-one tableaux (rank_one); None for any other
    tableau.  A rank-one tableau forms its mpf A, b and c from the rule's
    correctly rounded mpf nodes and weights on first access: the stepper
    reads only the rule's float nodes and energy_condition_residual only its
    exact moments.  The
    tableau memoises each subtree's stage vector Psi(t) and elementary
    weight a(t), both computed at precision_digits + 10, for rk_weight.
    """

    __slots__ = ("s", "_coeffs", "precision_digits", "rule", "_psi", "_weight")

    def __init__(
        self, A: Sequence[Sequence], b: Sequence, c: Sequence, precision_digits: int = 50, rule=None
    ):
        import mpmath as mp

        s = len(b)
        if s == 0:
            raise ValueError("a tableau needs at least one stage")
        if len(c) != s or len(A) != s or any(len(row) != s for row in A):
            raise ValueError("inconsistent tableau dimensions")
        conv = lambda x: x if isinstance(x, mp.mpf) else mp.mpf(x)
        A = tuple(tuple(conv(x) for x in row) for row in A)
        self._init(s, (A, tuple(map(conv, b)), tuple(map(conv, c))), precision_digits, rule)

    def _init(self, s, coeffs, precision_digits, rule):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "precision_digits", precision_digits)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "_psi", {})
        object.__setattr__(self, "_weight", {})

    @classmethod
    def rank_one(cls, rule: QuadRule, precision_digits: int) -> "ButcherTableau":
        """A = c b^T for the rule, its mpf entries formed at precision_digits + 10 on first access."""
        tab = object.__new__(cls)
        tab._init(rule.s, None, precision_digits, rule)
        return tab

    def _entries(self) -> tuple:
        if self._coeffs is None:
            import mpmath as mp

            c, b = self.rule.c, self.rule.b
            with mp.workdps(self.precision_digits + 10):
                A = tuple(tuple(ci * bj for bj in b) for ci in c)
            object.__setattr__(self, "_coeffs", (A, b, c))
        return self._coeffs

    A = property(lambda self: self._entries()[0], doc="The s x s matrix, a tuple of mpf rows.")
    b = property(lambda self: self._entries()[1], doc="The weights, a tuple of mpf.")
    c = property(lambda self: self._entries()[2], doc="The nodes, a tuple of mpf.")

    def __setattr__(self, *a):
        raise AttributeError("ButcherTableau is immutable")

    def row_sum_defect(self):
        """Max |sum_j A_ij - c_i|; zero when Eq-rowsum compliance is claimed."""
        import mpmath as mp

        with mp.workdps(self.precision_digits + 10):
            return max(abs(mp.fsum(row) - ci) for row, ci in zip(self.A, self.c))

    def __repr__(self):
        return f"ButcherTableau(s={self.s})"


def _children_product(t: RootedTree, tab: ButcherTableau) -> list:
    """Psi(t_1) o ... o Psi(t_q) over the children of t, componentwise."""
    import mpmath as mp

    prod = [mp.mpf(1)] * tab.s
    for k in t.children:
        prod = [a * b for a, b in zip(prod, _elementary(k, tab))]
    return prod


def _elementary(t: RootedTree, tab: ButcherTableau) -> list:
    """Stage vector Psi(t), memoised on tab: leaves give c, internal nodes apply A.

    The caller holds the working precision precision_digits + 10.
    """
    out = tab._psi.get(t)
    if out is None:
        if not t.children:
            out = list(tab.c)
        else:
            import mpmath as mp

            prod = _children_product(t, tab)
            out = [mp.fsum(aij * vj for aij, vj in zip(row, prod)) for row in tab.A]
        tab._psi[t] = out
    return out


def _elementary_weight(t: RootedTree, tab: ButcherTableau):
    """Elementary weight a(t) = b^T (Psi(t_1) o ... o Psi(t_q)), memoised on tab."""
    out = tab._weight.get(t)
    if out is None:
        import mpmath as mp

        out = mp.fsum(bi * pi for bi, pi in zip(tab.b, _children_product(t, tab)))
        tab._weight[t] = out
    return out


def rk_weight(forest: Forest | RootedTree, tab: ButcherTableau):
    """Product of elementary weights a(t) over the forest.

    a(t) for t = [t_1..t_q] is b^T (Psi(t_1) o ... o Psi(t_q)) with
    Psi(*) = c and Psi([u_1..u_p]) = A (Psi(u_1) o ... o Psi(u_p)),
    the componentwise-product convention, valid for arbitrary A.
    """
    import mpmath as mp

    if isinstance(forest, RootedTree):
        forest = Forest([forest])
    with mp.workdps(tab.precision_digits + 10):
        total = mp.mpf(1)
        for t in forest:
            total *= _elementary_weight(t, tab)
        return total


def _moment_product(t: RootedTree, m) -> int:
    """The product of m[number of children] over the vertices of t."""
    w = m[len(t.children)]
    for k in t.children:
        w *= _moment_product(k, m)
    return w


def energy_condition_residual(ft: FreeTree, tab: ButcherTableau | QuadRule):
    """Alternating sum over the class: sum (-1)^kappa / sigma(u) * a(B_-(u)).

    A rule, standing for its tableau A = c b^T, or a tableau that carries
    its rule gives the exact Fraction, each weight a product of the rule's
    exact moments, and never forms the nodes; any other tableau gives an
    mpf at precision_digits + 10.  Superfluous classes impose no condition
    and return 0.
    """
    rule = tab if isinstance(tab, QuadRule) else tab.rule
    if rule is not None:
        if ft.superfluous:
            return Fraction(0)
        # every non-leaf stage vector is Psi(t) = a(t) c, so a(t) is the product of
        # mu_(number of children) over the vertices of t; with the rule's integer
        # moments mu = m / d, the weight of each member's n - 1 non-root vertices is over d^(n-1)
        m, d = rule._moment_ints(ft.order)
        sig = lcm(*[u.sigma for u in ft.members])
        total = 0
        for u in ft.members:
            w = ft.parity[u] * (sig // u.sigma)
            for t in u.children:
                w *= _moment_product(t, m)
            total += w
        return Fraction(total, sig * d ** (ft.order - 1))
    import mpmath as mp

    if ft.superfluous:
        return mp.mpf(0)
    with mp.workdps(tab.precision_digits + 10):
        total = mp.mpf(0)
        for u in ft.members:
            w = rk_weight(Forest(u.children), tab)
            total += ft.parity[u] * w / u.sigma
        return total


def conditions_up_to(n: int, m: int) -> tuple:
    """Non-superfluous free trees with <= n+1 vertices and branching <= m.

    This is the condition set for energy preservation up to order n for
    polynomial Hamiltonians of degree m.
    """
    if n > 9:
        raise ValueError("n > 9 not supported")
    out = []
    for k in range(2, n + 2):
        for ft in enumerate_free(k):
            if not ft.superfluous and ft.max_branching <= m:
                out.append(ft)
    return tuple(out)
