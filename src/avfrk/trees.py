"""Rooted trees, free trees (root-shift classes), and tableau conditions.

A rooted tree is stored canonically as a sorted tuple of canonical
subtrees, so isomorphic trees compare equal.  Free trees collect every
distinct rooting reachable by shifting the root across an edge, together
with the parity (-1)^kappa of the shift count; the alternating sum of
elementary weights over a class is the energy-preservation condition for
the corresponding elementary Hamiltonian.

A tableau holds exact rational entries, and every elementary weight and
condition residual is an exact Fraction.  A rule's tableau A = c b^T gives
each condition from the rule's moments, without forming a node; any other
tableau runs the Psi(t) recursion on stage vectors of integers over one
denominator (quadrature._NodeVector).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Iterable, Sequence

from .quadrature import QuadRule, _exact_fraction, _NodeVector, _scaled, _scaled_matrix

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


class ButcherTableau:
    """Runge-Kutta coefficients (A, b, c) as exact rationals.

    The entries may be given as ints, Fractions, floats, decimal or
    "num/den" strings, or mpf values, each converted exactly; one that is
    not finite raises ValueError.  `rule` is the QuadRule whose nodes and
    weights make A = c b^T, set by rank_one; None for any other tableau.  A
    rank-one tableau forms its A, b and c from the rule's correctly rounded
    nodes and weights on first access: the stepper reads only the rule's
    float nodes and energy_condition_residual only its exact moments.  The
    tableau memoises each subtree's stage vector Psi(t) and elementary
    weight a(t) for rk_weight.
    """

    __slots__ = ("s", "_coeffs", "rule", "_ints", "_psi", "_weight")

    def __init__(self, A: Sequence[Sequence], b: Sequence, c: Sequence):
        s = len(b)
        if s == 0:
            raise ValueError("a tableau needs at least one stage")
        if len(c) != s or len(A) != s or any(len(row) != s for row in A):
            raise ValueError("inconsistent tableau dimensions")
        exact = lambda xs: tuple(map(_exact_fraction, xs))
        self._init(s, (tuple(map(exact, A)), exact(b), exact(c)), None)

    def _init(self, s, coeffs, rule):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "_ints", None)
        object.__setattr__(self, "_psi", {})
        object.__setattr__(self, "_weight", {})

    @classmethod
    def rank_one(cls, rule: QuadRule) -> "ButcherTableau":
        """A = c b^T for the rule, its exact entries c_i b_j formed on first access."""
        tab = object.__new__(cls)
        tab._init(rule.s, None, rule)
        return tab

    def _entries(self) -> tuple:
        if self._coeffs is None:
            c, b = self.rule.c, self.rule.b
            object.__setattr__(self, "_coeffs", (tuple(tuple(ci * bj for bj in b) for ci in c), b, c))
        return self._coeffs

    A = property(lambda self: self._entries()[0], doc="The s x s matrix, a tuple of rows of Fractions.")
    b = property(lambda self: self._entries()[1], doc="The weights, a tuple of Fractions.")
    c = property(lambda self: self._entries()[2], doc="The nodes, a tuple of Fractions.")

    def _stage_form(self) -> tuple:
        """(A, b, c) in integers over common denominators: ((rows, d), (ints, d), c as a _NodeVector)."""
        if self._ints is None:
            A, b, c = self._entries()
            object.__setattr__(self, "_ints", (_scaled_matrix(A), _scaled(b), _NodeVector(*_scaled(c))))
        return self._ints

    def __setattr__(self, *a):
        raise AttributeError("ButcherTableau is immutable")

    def row_sum_defect(self) -> Fraction:
        """Max |sum_j A_ij - c_i|; zero when Eq-rowsum compliance is claimed."""
        return max(abs(sum(row) - ci) for row, ci in zip(self.A, self.c))

    def __repr__(self):
        return f"ButcherTableau(s={self.s})"


def _children_product(t: RootedTree, tab: ButcherTableau) -> _NodeVector:
    """Psi(t_1) o ... o Psi(t_q) over the children of t, componentwise."""
    return prod((_elementary(k, tab) for k in t.children), start=_NodeVector([1] * tab.s, 1))


def _elementary(t: RootedTree, tab: ButcherTableau) -> _NodeVector:
    """Stage vector Psi(t), memoised on tab: leaves give c, internal nodes apply A."""
    out = tab._psi.get(t)
    if out is None:
        A, _, c = tab._stage_form()
        out = _children_product(t, tab).apply(A) if t.children else c
        tab._psi[t] = out
    return out


def _elementary_weight(t: RootedTree, tab: ButcherTableau) -> Fraction:
    """Elementary weight a(t) = b^T (Psi(t_1) o ... o Psi(t_q)), memoised on tab."""
    out = tab._weight.get(t)
    if out is None:
        out = _children_product(t, tab).dot(tab._stage_form()[1])
        tab._weight[t] = out
    return out


def rk_weight(forest: Forest | RootedTree, tab: ButcherTableau) -> Fraction:
    """Product of elementary weights a(t) over the forest, an exact Fraction.

    a(t) for t = [t_1..t_q] is b^T (Psi(t_1) o ... o Psi(t_q)) with
    Psi(*) = c and Psi([u_1..u_p]) = A (Psi(u_1) o ... o Psi(u_p)),
    the componentwise-product convention, valid for arbitrary A.
    """
    if isinstance(forest, RootedTree):
        forest = Forest([forest])
    return prod((_elementary_weight(t, tab) for t in forest), start=Fraction(1))


def _moment_product(t: RootedTree, m) -> int:
    """The product of m[number of children] over the vertices of t."""
    w = m[len(t.children)]
    for k in t.children:
        w *= _moment_product(k, m)
    return w


def energy_condition_residual(ft: FreeTree, tab: ButcherTableau | QuadRule) -> Fraction:
    """Alternating sum over the class: sum (-1)^kappa / sigma(u) * a(B_-(u)), an exact Fraction.

    A rule, standing for its tableau A = c b^T, or a tableau that carries
    its rule gives each weight as a product of the rule's exact moments and
    never forms the nodes: the true value, not that of the rounded nodes.
    Any other tableau sums its elementary weights (rk_weight).  Superfluous
    classes impose no condition and return 0.
    """
    if ft.superfluous:
        return Fraction(0)
    rule = tab if isinstance(tab, QuadRule) else tab.rule
    if rule is None:
        return sum((ft.parity[u] * rk_weight(Forest(u.children), tab) / u.sigma for u in ft.members), Fraction(0))
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
