import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from avfrk import quadrature
from avfrk.quadrature import quad_rule
from avfrk.trees import (
    ButcherTableau,
    Forest,
    FreeTree,
    RootedTree,
    butcher_product,
    conditions_up_to,
    energy_condition_residual,
    enumerate_free,
    enumerate_rooted,
    free_class,
    leaf,
    parse_tree,
    rk_weight,
)
from avfrk.integrators import avf_tableau
from _util import (
    memo_free_residual,
    memo_free_rk_weight,
    random_A_tableau,
    refuse_nodes,
    sigma_multiset,
    t_pq,
)

# independently tabulated counts of trees on n vertices
ROOTED_COUNTS = [1, 1, 2, 4, 9, 20, 48]
FREE_COUNTS = [1, 1, 1, 2, 3, 6, 11]


def rooted_counts_recurrence(n_max):
    """Rooted-tree counts by the Euler-transform recurrence.

    r(n+1) = (1/n) sum_{k=1..n} (sum_{d | k} d r(d)) r(n-k+1), an oracle
    independent of the canonical-form enumerator.
    """
    r = [0, 1]
    for n in range(1, n_max):
        total = 0
        for k in range(1, n + 1):
            dsum = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += dsum * r[n - k + 1]
        r.append(total // n)
    return r[1:]


class TestEnumeration:
    def test_rooted_counts(self):
        for n, want in enumerate(ROOTED_COUNTS, start=1):
            assert len(enumerate_rooted(n)) == want

    def test_rooted_counts_vs_recurrence(self):
        assert rooted_counts_recurrence(7) == ROOTED_COUNTS
        assert [len(enumerate_rooted(n)) for n in range(1, 8)] == rooted_counts_recurrence(7)

    def test_free_counts(self):
        for n, want in enumerate(FREE_COUNTS, start=1):
            assert len(enumerate_free(n)) == want

    def test_no_duplicates(self):
        for n in range(1, 7):
            trees = enumerate_rooted(n)
            assert len(set(trees)) == len(trees)
            assert all(t.order == n for t in trees)

    def test_three_vertex_trees(self):
        assert {t.bracket() for t in enumerate_rooted(3)} == {"[*,*]", "[[*]]"}

    def test_practical_bound(self):
        with pytest.raises(ValueError):
            conditions_up_to(10, 4)


class TestRootedTree:
    def test_canonical_child_order(self):
        a = RootedTree([RootedTree([leaf]), leaf])
        b = RootedTree([leaf, RootedTree([leaf])])
        assert a == b
        assert hash(a) == hash(b)

    def test_bracket_roundtrip(self):
        for n in range(1, 7):
            for t in enumerate_rooted(n):
                assert parse_tree(t.bracket()) == t

    def test_parse_rejects_garbage(self):
        for text in ("", "[", "[*", "*]", "[**]", "x"):
            with pytest.raises(ValueError):
                parse_tree(text)

    def test_sigma_tall_bushes(self):
        for k in range(1, 6):
            assert RootedTree([leaf] * k).sigma == math.factorial(k)

    def test_sigma_multiplicative(self):
        t1 = RootedTree([leaf])
        t2 = RootedTree([leaf, leaf])
        t = RootedTree([t1, t1, t2])
        assert t.sigma == 2 * t1.sigma**2 * t2.sigma

    def test_max_branching_counts_graph_degree(self):
        # interior vertices count the parent edge as a branch
        chain = parse_tree("[[[*]]]")
        assert chain.max_branching == 2
        assert parse_tree("[*,*,*]").max_branching == 3
        assert parse_tree("[[*,*,*]]").max_branching == 4

    def test_immutable(self):
        with pytest.raises(AttributeError):
            leaf.children = ()


class TestButcherProduct:
    def test_smallest(self):
        assert butcher_product(leaf, leaf) == RootedTree([leaf])

    def test_noncommutative(self):
        cherry = RootedTree([leaf])
        assert butcher_product(cherry, leaf) == parse_tree("[*,*]")
        assert butcher_product(leaf, cherry) == parse_tree("[[*]]")
        assert butcher_product(cherry, leaf) != butcher_product(leaf, cherry)

    def test_order_additive(self):
        for n in range(1, 7):
            for u in enumerate_rooted(n):
                for m in range(1, 8 - n):
                    for v in enumerate_rooted(m):
                        assert butcher_product(u, v).order == n + m


class TestFreeClass:
    def test_two_vertex_class_superfluous(self):
        cherry = RootedTree([leaf])
        ft = free_class(cherry)
        assert ft.members == (cherry,)
        assert ft.superfluous  # [*] = leaf o leaf

    def test_double_bush_classes(self):
        for p, q in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]:
            ft = free_class(t_pq(p, q))
            assert len(ft.members) == 4
            assert not ft.superfluous
            assert sorted(u.sigma for u in ft.members) == sigma_multiset(p, q)
            # parities alternate along the 4-chain: two of each sign
            signs = sorted(ft.parity[u] for u in ft.members)
            assert signs == [-1, -1, 1, 1]

    def test_t_pp_superfluous(self):
        for p in (1, 2, 3):
            assert free_class(t_pq(p, p)).superfluous

    def test_superfluous_classes_have_even_order(self):
        for n in range(1, 8):
            for ft in enumerate_free(n):
                if ft.superfluous:
                    assert ft.order % 2 == 0

    def test_class_is_closed(self):
        # every member generates the same class
        for n in range(2, 7):
            for ft in enumerate_free(n):
                for u in ft.members:
                    assert free_class(u) == ft

    def test_representative_is_member_with_unit_parity(self):
        for n in range(2, 7):
            for ft in enumerate_free(n):
                assert ft.representative in ft.members
                assert ft.parity[ft.representative] == 1

    def test_equal_vertex_counts(self):
        for n in range(2, 8):
            for ft in enumerate_free(n):
                assert {u.order for u in ft.members} == {n}

    def test_classes_partition_rooted_trees(self):
        # reference: a linear scan over the classes found so far
        for n in range(1, 11):
            seen = {}
            for t in enumerate_rooted(n):
                if all(t not in ft.parity for ft in seen.values()):
                    ft = free_class(t)
                    seen[ft.representative] = ft
            want = tuple(seen[k] for k in sorted(seen, key=lambda r: r.key))
            got = enumerate_free(n)
            assert got == want
            members = [u for ft in got for u in ft.members]
            assert sorted(members, key=lambda u: u.key) == sorted(enumerate_rooted(n), key=lambda u: u.key)


class TestRkWeight:
    def setup_method(self):
        self.rng = random.Random(31)
        self.rule = quad_rule(3, Fraction(1, 2))
        self.tab = random_A_tableau(self.rng, self.rule)

    def test_no_stages_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            ButcherTableau([], [], [])

    def test_single_vertex(self):
        assert abs(rk_weight(leaf, self.tab) - 1) < Fraction(1, 10**45)

    def test_bushy_trees_give_moments(self):
        for k in range(1, 6):
            t = RootedTree([leaf] * (k - 1)) if k > 1 else leaf
            want = sum(b * c ** (k - 1) for b, c in zip(self.tab.b, self.tab.c))
            assert rk_weight(t, self.tab) == want

    def test_double_bush_weight_vs_matrix_expression(self):
        for p, q in [(1, 2), (2, 3), (3, 4), (1, 4)]:
            t = t_pq(p, q)  # root: p leaves and one [leaf^q] child
            # b^T C^p A c^q assembled directly
            want = Fraction(0)
            for i in range(self.tab.s):
                inner = sum(self.tab.A[i][j] * self.tab.c[j] ** q for j in range(self.tab.s))
                want += self.tab.b[i] * self.tab.c[i] ** p * inner
            assert rk_weight(t, self.tab) == want

    def test_forest_multiplicativity(self):
        t1 = parse_tree("[*,*]")
        t2 = parse_tree("[[*]]")
        lhs = rk_weight(Forest([t1, t2]), self.tab)
        rhs = rk_weight(t1, self.tab) * rk_weight(t2, self.tab)
        assert lhs == rhs

    def test_entries_are_exact(self):
        # every accepted kind of entry is held as the Fraction of its exact value
        third = mp.mpf(1) / 3
        tab = ButcherTableau([[1, Fraction(1, 3)], ["0.1", "2/7"]], [0.1, third], [0, 1])
        assert tab.A == ((1, Fraction(1, 3)), (Fraction(1, 10), Fraction(2, 7)))
        assert tab.b == (Fraction(0.1), Fraction(third.man) * Fraction(2) ** third.exp)
        assert all(isinstance(x, Fraction) for x in tab.A[0] + tab.b + tab.c)

    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), float("-inf"), "nan", "1/0", mp.inf, mp.nan])
    def test_non_finite_entry_rejected(self, entry):
        with pytest.raises(ValueError, match="not a finite rational"):
            ButcherTableau([[0, entry], [0, 0]], [0.5, 0.5], [0, 1])
        with pytest.raises(ValueError, match="not a finite rational"):
            ButcherTableau([[0, 0], [0, 0]], [0.5, entry], [0, 1])


class TestMemo:
    """rk_weight's memo on the tableau gives the plain recursion's values exactly."""

    TABLEAUX = [
        ("avf", 3, Fraction(1, 2)),
        ("avf", 4, Fraction(0)),
        ("avf", 2, Fraction(-1)),
        ("random", 3, Fraction(1, 2)),
        ("random", 4, Fraction(2, 3)),
    ]

    @staticmethod
    def _tableau(kind, s, zeta, seed=41):
        rule = quad_rule(s, zeta)
        return avf_tableau(rule) if kind == "avf" else random_A_tableau(random.Random(seed), rule)

    @pytest.mark.parametrize("kind,s,zeta", TABLEAUX)
    def test_weights_match_memo_free_recursion(self, kind, s, zeta):
        tab = self._tableau(kind, s, zeta)
        trees = [t for n in range(1, 8) for t in enumerate_rooted(n)]
        for t in trees + trees:  # the second round reads the memo
            assert rk_weight(t, tab) == memo_free_rk_weight(t, tab)
        forest = Forest([parse_tree("[*,[*]]"), parse_tree("[[*,*]]"), leaf])
        assert rk_weight(forest, tab) == memo_free_rk_weight(forest, tab)

    @pytest.mark.parametrize("kind,s,zeta", TABLEAUX)
    def test_residuals_match_memo_free_recursion(self, kind, s, zeta):
        # a random A keeps the memo exactly; a rule tableau's residual, from the moments,
        # is zero while every moment it reads is exact, and the recursion at the rounded
        # nodes lies within 10^-dps of it
        tab = self._tableau(kind, s, zeta)
        for ft in conditions_up_to(2 * s, 2 * s):
            r = energy_condition_residual(ft, tab)
            assert isinstance(r, Fraction)
            if kind == "random":
                assert r == memo_free_residual(ft, tab)
                continue
            if ft.max_branching <= tab.rule.order:
                assert r == 0, ft
            assert abs(memo_free_residual(ft, tab) - r) < Fraction(1, 10**tab.rule.precision_digits)

    def test_tableaux_never_share_entries(self):
        # same rule and precision, different A; one after the other and in a
        # fresh tableau built after the first is gone
        rule = quad_rule(3, Fraction(1, 2))
        t = parse_tree("[[*,*],[*]]")
        a, b = avf_tableau(rule), random_A_tableau(random.Random(7), rule)
        wa, wb = rk_weight(t, a), rk_weight(t, b)
        assert wa != wb
        assert wa == memo_free_rk_weight(t, a)
        assert wb == memo_free_rk_weight(t, b)
        assert a._psi is not b._psi and a._weight is not b._weight
        assert not set(map(id, a._psi.values())) & set(map(id, b._psi.values()))
        del a
        for seed in range(8):
            c = random_A_tableau(random.Random(100 + seed), rule)
            assert rk_weight(t, c) == memo_free_rk_weight(t, c)
        assert rk_weight(t, b) == wb

    def test_memo_is_per_precision(self):
        # the rule's tableau at another working precision, whose rounded entries differ,
        # keeps its own entries
        low = avf_tableau(quad_rule(3, Fraction(1, 2), 20))
        high = avf_tableau(quad_rule(3, Fraction(1, 2)))
        t = parse_tree("[[*],*]")
        assert rk_weight(t, low) == memo_free_rk_weight(t, low)
        assert rk_weight(t, high) == memo_free_rk_weight(t, high)
        assert rk_weight(t, low) != rk_weight(t, high)


class TestEnergyConditions:
    def setup_method(self):
        self.rule = quad_rule(2, 0)
        self.avf = avf_tableau(self.rule)

    def test_low_order_classes_vanish(self):
        for t in (parse_tree("[*,*]"), t_pq(1, 2), t_pq(1, 3), t_pq(2, 3)):
            ft = free_class(t)
            assert energy_condition_residual(ft, self.avf) == 0
            assert abs(memo_free_residual(ft, self.avf)) < Fraction(1, 10**self.rule.precision_digits)

    def test_rule_stands_for_its_tableau(self, monkeypatch):
        # a rule gives its c b^T tableau's exact residuals without forming a node
        classes = conditions_up_to(6, 6)
        rule = quad_rule(3, Fraction(1, 2))
        want = [energy_condition_residual(ft, avf_tableau(rule)) for ft in classes]
        assert any(want) and all(isinstance(r, Fraction) for r in want)
        monkeypatch.setattr(quadrature, "_rounded_rule", refuse_nodes)
        fresh = quad_rule(3, Fraction(1, 2))
        assert [energy_condition_residual(ft, fresh) for ft in classes] == want

    @pytest.mark.parametrize(
        "zeta, c, b",
        [
            (Fraction(1), (Fraction(1, 3), Fraction(1)), (Fraction(3, 4), Fraction(1, 4))),
            (Fraction(-1), (Fraction(0), Fraction(2, 3)), (Fraction(1, 4), Fraction(3, 4))),
        ],
    )
    def test_fraction_tableau_equals_moment_path(self, zeta, c, b):
        # a rule with rational nodes: its c b^T given as Fractions takes the Psi(t) recursion,
        # and equals the rule's moment path exactly on every class, the nonzero ones included
        tab = ButcherTableau([[ci * bj for bj in b] for ci in c], b, c)
        rule = quad_rule(2, zeta)
        assert tab.rule is None and all(rule.node_poly()(x) == 0 for x in c)
        got = [energy_condition_residual(ft, tab) for ft in conditions_up_to(6, 6)]
        assert got == [energy_condition_residual(ft, rule) for ft in conditions_up_to(6, 6)]
        assert any(got) and all(isinstance(r, Fraction) for r in got)

    def test_superfluous_returns_zero(self):
        rng = random.Random(32)
        tab = random_A_tableau(rng, self.rule)
        assert energy_condition_residual(free_class(t_pq(2, 2)), tab) == 0

    def test_t14_exceeds_quadrature_order(self):
        # degree-5 moments are beyond the order-4 rule; the defect is 1/1728
        ft = free_class(t_pq(1, 4))
        assert energy_condition_residual(ft, self.avf) == Fraction(1, 1728)
        r = memo_free_residual(ft, self.avf)
        assert abs(r - Fraction(1, 1728)) < Fraction(1, 10**self.rule.precision_digits)

    def test_conditions_filter_by_branching(self):
        for ft in conditions_up_to(2, 2):
            assert ft.max_branching <= 2
            assert ft.order <= 3
            assert not ft.superfluous

    def test_t_pq_present_iff_degree_allows(self):
        # t_pq needs branching q+1, so it appears exactly when q <= m-1
        for m in range(2, 6):
            have = set(conditions_up_to(7, m))
            for p in range(1, 4):
                for q in range(p + 1, 6):
                    if p + q + 2 > 8:
                        continue
                    ft = free_class(t_pq(p, q))
                    assert (ft in have) == (q <= m - 1), (p, q, m)

    def test_monotonicity(self):
        for n, m in [(3, 3), (4, 3), (4, 4)]:
            base = set(conditions_up_to(n, m))
            assert base <= set(conditions_up_to(n + 1, m))
            assert base <= set(conditions_up_to(n, m + 1))


class TestButcherTableau:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ButcherTableau([[1, 2]], [1], [0])
        with pytest.raises(ValueError):
            ButcherTableau([[1]], [1, 0], [0])

    def test_row_sum_defect(self):
        tab = avf_tableau(quad_rule(2, 0))
        assert tab.row_sum_defect() < Fraction(1, 10**45)
        skew = ButcherTableau([[0, 1], [0, 0]], [0.5, 0.5], [0.0, 0.5])
        assert skew.row_sum_defect() > 0.4

    def test_immutable(self):
        tab = avf_tableau(quad_rule(2, 0))
        with pytest.raises(AttributeError):
            tab.b = ()
