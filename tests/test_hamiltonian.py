import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from avfrk.hamiltonian import (
    ZERO_DEGREE,
    HamiltonianSystem,
    MultiPoly,
    RationalVec,
    evaluate,
    gradient,
    hamiltonian_from_json,
    line_average,
)
from _util import random_multipoly, rational_point

# H(q, p) = p^2/2 + q^3, variable order (q, p)
H_CUBIC = MultiPoly(2, {(0, 2): Fraction(1, 2), (3, 0): Fraction(1)})
H_HARMONIC = MultiPoly(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)


class TestMultiPoly:
    def test_zero_coefficients_dropped(self):
        p = MultiPoly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert (1, 0) not in p.terms
        assert p.terms == {(0, 1): Fraction(2)}

    def test_duplicate_exponents_merge(self):
        p = MultiPoly(1, [((2,), Fraction(1, 3)), ((2,), Fraction(2, 3))])
        assert p.terms == {(2,): Fraction(1)}

    def test_cancellation_gives_zero(self):
        p = MultiPoly(1, [((1,), 1), ((1,), -1)])
        assert p.is_zero()
        assert p.degree() == ZERO_DEGREE

    def test_degree_bookkeeping(self):
        assert MultiPoly.constant(3, 7).degree() == 0
        assert MultiPoly.zero(2).degree() == -1
        assert H_CUBIC.degree() == 3

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MultiPoly(0, {})
        with pytest.raises(ValueError):
            MultiPoly(2, {(1,): Fraction(1)})
        with pytest.raises(ValueError):
            MultiPoly(1, {(-1,): Fraction(1)})

    def test_immutable(self):
        with pytest.raises(AttributeError):
            H_CUBIC.terms = {}

    def test_arithmetic(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = (x + y) * (x - y)
        assert p == MultiPoly(2, {(2, 0): 1, (0, 2): -1})
        assert 3 * x == MultiPoly(2, {(1, 0): 3})
        with pytest.raises(ValueError):
            x + MultiPoly.variable(3, 0)

    def test_partial(self):
        # d/dq (q^3) = 3 q^2, d/dp (p^2/2) = p
        assert H_CUBIC.partial(0) == MultiPoly(2, {(2, 0): 3})
        assert H_CUBIC.partial(1) == MultiPoly(2, {(0, 1): 1})


class TestEvaluate:
    def test_zero_polynomial(self):
        assert evaluate(MultiPoly.zero(3), (1, 2, 3)) == 0

    def test_cubic_at_point(self):
        assert evaluate(H_CUBIC, (1, 2)) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(H_CUBIC, (1, 2, 3))

    def test_float_input_rejected(self):
        # exact-arithmetic boundary: floats must not sneak in silently
        with pytest.raises(TypeError):
            evaluate(H_CUBIC, (0.5, 1.0))

    def test_against_term_sum_oracle(self):
        rng = random.Random(404)
        for _ in range(20):
            p = random_multipoly(rng, 4, 4)
            x = rational_point(rng, 4)
            want = Fraction(0)
            for e, c in p.terms.items():
                want += c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2] * x[3] ** e[3]
            assert evaluate(p, x) == want


class TestGradient:
    def test_constant(self):
        g = gradient(MultiPoly.constant(2, 5))
        assert all(c.is_zero() for c in g)

    def test_cubic(self):
        gq, gp = gradient(H_CUBIC)
        assert gq == MultiPoly(2, {(2, 0): 3})
        assert gp == MultiPoly(2, {(0, 1): 1})

    def test_degree_drop(self):
        rng = random.Random(405)
        for _ in range(10):
            p = random_multipoly(rng, 3, 5)
            for c in gradient(p):
                if not c.is_zero():
                    assert c.degree() <= p.degree() - 1

    def test_finite_difference(self):
        rng = random.Random(406)
        h = Fraction(1, 10**6)
        for _ in range(5):
            p = random_multipoly(rng, 3, 4)
            x = rational_point(rng, 3, span=3)
            for i, gi in enumerate(gradient(p)):
                xp = list(x)
                xm = list(x)
                xp[i] += h
                xm[i] -= h
                fd = float((evaluate(p, xp) - evaluate(p, xm)) / (2 * h))
                gv = float(evaluate(gi, x))
                assert abs(fd - gv) <= 1e-6 * max(1.0, abs(gv))


class TestVectorField:
    def test_harmonic(self):
        sys = HamiltonianSystem(1, H_HARMONIC)
        fq, fp = sys.vector_field()
        assert fq == MultiPoly(2, {(0, 1): 1})  # q' = p
        assert fp == MultiPoly(2, {(1, 0): -1})  # p' = -q

    def test_cubic(self):
        fq, fp = HamiltonianSystem(1, H_CUBIC).vector_field()
        assert fq == MultiPoly(2, {(0, 1): 1})
        assert fp == MultiPoly(2, {(2, 0): -3})

    def test_energy_orthogonality(self):
        """grad H . f vanishes identically: the exact flow conserves H."""
        rng = random.Random(407)
        for half_dim in (1, 2):
            nv = 2 * half_dim
            sys = HamiltonianSystem(half_dim, random_multipoly(rng, nv, 4))
            g = gradient(sys.H)
            f = sys.vector_field()
            for _ in range(50):
                x = rational_point(rng, nv)
                dot = sum(
                    (evaluate(gi, x) * evaluate(fi, x) for gi, fi in zip(g, f)),
                    Fraction(0),
                )
                assert dot == 0

    def test_component_degrees(self):
        sys = HamiltonianSystem(1, H_CUBIC)
        for c in sys.vector_field():
            assert c.degree() <= sys.H.degree() - 1

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            HamiltonianSystem(2, H_CUBIC)  # needs 4 variables
        with pytest.raises(ValueError):
            HamiltonianSystem(0, H_CUBIC)


class TestLineAverage:
    def test_constant_field(self):
        f = (MultiPoly.constant(2, 3), MultiPoly.constant(2, Fraction(-1, 2)))
        out = line_average(f, (0, 0), (5, 7))
        assert out == (3, Fraction(-1, 2))

    def test_linear_field_midpoint(self):
        f = (MultiPoly.variable(2, 0), MultiPoly.variable(2, 1))
        y0 = (Fraction(1, 3), Fraction(2))
        y1 = (Fraction(1), Fraction(-4))
        out = line_average(f, y0, y1)
        assert out == tuple((a + b) / 2 for a, b in zip(y0, y1))

    def test_quadratic_vs_simpson(self):
        # Simpson is exact through cubics, so it reproduces the average of
        # quadratic components along the segment.
        rng = random.Random(408)
        for _ in range(10):
            f = tuple(random_multipoly(rng, 2, 2) for _ in range(2))
            y0 = rational_point(rng, 2)
            y1 = rational_point(rng, 2)
            mid = tuple((a + b) / 2 for a, b in zip(y0, y1))
            out = line_average(f, y0, y1)
            for k in range(2):
                simpson = (
                    evaluate(f[k], y0) + 4 * evaluate(f[k], mid) + evaluate(f[k], y1)
                ) / 6
                assert out[k] == simpson

    @given(
        ys=st.lists(rationals, min_size=2, max_size=2),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_degenerate_segment(self, ys, seed):
        f = tuple(random_multipoly(random.Random(seed), 2, 3) for _ in range(2))
        y = tuple(ys)
        assert line_average(f, y, y) == tuple(evaluate(c, y) for c in f)

    def test_dimension_mismatch(self):
        f = (MultiPoly.variable(2, 0), MultiPoly.variable(2, 1))
        with pytest.raises(ValueError):
            line_average(f, (1, 2, 3), (1, 2, 3))
        with pytest.raises(ValueError):
            line_average((), (1,), (1,))


class TestJsonIngestion:
    DOC = {
        "half_dim": 1,
        "terms": [
            {"exponents": [0, 2], "coeff": "1/2"},
            {"exponents": [3, 0], "coeff": 1},
        ],
    }

    def test_parse(self):
        sys = hamiltonian_from_json(self.DOC)
        assert sys.half_dim == 1
        assert sys.H == H_CUBIC

    def test_energy_evaluation(self):
        sys = hamiltonian_from_json(self.DOC)
        assert sys.energy((1, 2)) == 3

    def test_malformed_documents(self):
        with pytest.raises((KeyError, TypeError, ValueError)):
            hamiltonian_from_json({"half_dim": 1})
        with pytest.raises((KeyError, TypeError, ValueError)):
            hamiltonian_from_json(
                {"half_dim": 1, "terms": [{"exponents": [1], "coeff": 1}]}
            )
        with pytest.raises((KeyError, TypeError, ValueError)):
            hamiltonian_from_json(
                {"half_dim": 1, "terms": [{"exponents": [1, 0], "coeff": "0.5x"}]}
            )


    @pytest.mark.parametrize("bad", [1.9, 1.0, True, "1", None])
    def test_half_dim_must_be_an_integer(self, bad):
        # int() would truncate 1.9 and accept True as 1
        with pytest.raises(ValueError, match=r"^half_dim: .* is not a JSON integer$"):
            hamiltonian_from_json({**self.DOC, "half_dim": bad})

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, False, "2"])
    def test_exponents_must_be_integers(self, bad):
        doc = {"half_dim": 1, "terms": [{"exponents": [0, bad], "coeff": "1/2"}]}
        with pytest.raises(ValueError, match=r"^exponents: .* is not a JSON integer$"):
            hamiltonian_from_json(doc)


@pytest.mark.parametrize("bad", [True, False])
def test_boolean_rationals_rejected(bad):
    # a bool is an int to Python, but no exact rational: JSON true must not read as 1
    for build in (
        lambda: hamiltonian_from_json({"half_dim": 1, "terms": [{"exponents": [0, 2], "coeff": bad}]}),
        lambda: MultiPoly(2, {(0, 2): bad}),
        lambda: MultiPoly.constant(2, bad),
        lambda: RationalVec([1, bad]),
        lambda: evaluate(H_CUBIC, (bad, 1)),
        lambda: line_average(HamiltonianSystem(1, H_CUBIC).vector_field(), (0, 0), (1, bad)),
    ):
        with pytest.raises(TypeError, match="not an exact rational"):
            build()


@pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "2", Fraction(2)])
def test_multipoly_exponents_must_be_integers(bad):
    # int() would read 1.5 as 1 and True as 1; operator.index takes only integers
    with pytest.raises(TypeError):
        MultiPoly(2, {(bad, 2): 1})


def test_multipoly_takes_integer_like_exponents():
    class Two:
        def __index__(self):
            return 2

    assert MultiPoly(2, {(Two(), 1): 1}) == MultiPoly(2, {(2, 1): 1})


def test_rational_vec_roundtrip():
    v = RationalVec([Fraction(1, 2), 3])
    assert len(v) == 2
    assert v[0] == Fraction(1, 2)
    assert isinstance(v, tuple)
