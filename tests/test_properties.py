"""Randomized property suites over the geometric and analytic core.

Each suite runs fifty seeded cases.  Random systems come from a family
of perturbed delay chains whose flatness is known by construction, so
verdict properties are checked against ground truth rather than against
the implementation itself.
"""

import random

import pytest
import sympy as sp

from flatcheck import analysis, construction, geometry, model, symbolic, verification
from flatcheck.model import DiscreteTimeSystem

SEEDS = list(range(50))

x1, x2, x3 = sp.symbols("x1 x2 x3")
COORDS3 = (x1, x2, x3)


def random_polynomial(rng, coords, max_terms=3, max_degree=2, constant=True):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        monomial = sp.Integer(1)
        degree = rng.randint(0 if constant else 1, max_degree)
        for _ in range(degree):
            monomial *= rng.choice(coords)
        terms.append(coeff * monomial)
    return sp.Add(*terms)


def random_field(rng, coords):
    return _field(coords, [random_polynomial(rng, coords) for _ in coords])


def _field(coords, components):
    """A vector field from sympy expressions, read over QQ(coords)."""
    return geometry.VectorField(coords, tuple(symbolic.to_elements(components, coords)[1]))


def unimodular_matrix(rng, size):
    """Random integer matrix with determinant 1, built from shears."""
    M = sp.eye(size)
    for _ in range(3 * size):
        i = rng.randrange(size)
        j = rng.randrange(size)
        if i == j:
            continue
        shear = sp.eye(size)
        shear[i, j] = rng.choice([-2, -1, 1, 2])
        M = M * shear
    return M


class TestBracketAlgebra:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_antisymmetry(self, seed):
        rng = random.Random(seed)
        a = random_field(rng, COORDS3)
        b = random_field(rng, COORDS3)
        ab = geometry.lie_bracket(a, b)
        ba = geometry.lie_bracket(b, a)
        for p, q in zip(ab.components, ba.components):
            assert sp.expand(p.as_expr() + q.as_expr()) == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_jacobi_identity(self, seed):
        rng = random.Random(seed + 1000)
        a = random_field(rng, COORDS3)
        b = random_field(rng, COORDS3)
        c = random_field(rng, COORDS3)
        cyclic = [
            geometry.lie_bracket(a, geometry.lie_bracket(b, c)),
            geometry.lie_bracket(b, geometry.lie_bracket(c, a)),
            geometry.lie_bracket(c, geometry.lie_bracket(a, b)),
        ]
        for i in range(3):
            total = sum(f.components[i].as_expr() for f in cyclic)
            assert sp.expand(total) == 0


class TestPushforwardCommutesWithBracket:
    """For a polynomial diffeomorphism phi, phi_*[X, Y] = [phi_*X, phi_*Y].

    The diffeomorphisms are unipotent triangular maps, so their inverses
    are again polynomial and exact."""

    @staticmethod
    def _unipotent_diffeo(rng, coords):
        forward = []
        for i in range(len(coords)):
            e = coords[i]
            if i > 0:
                e = e + random_polynomial(
                    rng, coords[:i], max_terms=2, max_degree=2, constant=False
                )
            forward.append(sp.expand(e))
        inverse = {}
        for i, c in enumerate(coords):
            e = 2 * c - forward[i]
            inverse[c] = sp.expand(e.subs(inverse, simultaneous=False))
        return forward, inverse

    @staticmethod
    def _pushforward(field, forward, inverse, coords):
        jac = sp.Matrix(
            [[sp.diff(fi, c) for c in coords] for fi in forward]
        )
        comps = jac * sp.Matrix(len(coords), 1, [c.as_expr() for c in field.components])
        pushed = [
            sp.expand(sp.cancel(comp.subs(inverse, simultaneous=True)))
            for comp in comps
        ]
        return _field(coords, pushed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_commutation(self, seed):
        rng = random.Random(seed + 2000)
        forward, inverse = self._unipotent_diffeo(rng, COORDS3)
        for c, e in inverse.items():
            assert sp.expand(
                forward[COORDS3.index(c)].subs(inverse, simultaneous=True) - c
            ) == 0
        a = random_field(rng, COORDS3)
        b = random_field(rng, COORDS3)
        lhs = self._pushforward(
            geometry.lie_bracket(a, b), forward, inverse, COORDS3
        )
        rhs = geometry.lie_bracket(
            self._pushforward(a, forward, inverse, COORDS3),
            self._pushforward(b, forward, inverse, COORDS3),
        )
        for p, q in zip(lhs.components, rhs.components):
            assert sp.expand(sp.cancel(p.as_expr() - q.as_expr())) == 0


def _span_equal(a, b):
    return (
        a.dim == b.dim
        and geometry.contains_distribution(a, b)
        and geometry.contains_distribution(b, a)
    )


def _mixed_rows(rng, dist, K):
    """Rows spanning the same distribution over the function field, as
    elements of K."""
    M = sp.Matrix([[c.as_expr() for c in f.components] for f in dist.fields])
    U = unimodular_matrix(rng, M.rows)
    mixed = U * M
    if M.rows > 1:
        i = rng.randrange(M.rows)
        j = rng.randrange(M.rows)
        if i != j:
            f = random_polynomial(rng, dist.coords[:2], max_terms=2, max_degree=1)
            for c in range(M.cols):
                mixed[i, c] = sp.expand(mixed[i, c] + f * mixed[j, c])
    return [symbolic.to_elements(list(mixed[i, :]), K.symbols)[1] for i in range(M.rows)]


def _lps_cases():
    cases = []
    for seed in SEEDS:
        if seed % 10 == 3:
            cases.append((seed, "flat4", 2))
        elif seed % 10 == 7:
            cases.append((seed, "flat4", 0))
        elif seed % 2 == 0:
            cases.append((seed, "chain2", 1))
        else:
            cases.append((seed, "sfl_quadratic", 1))
    return cases


@pytest.fixture(scope="module")
def lps_context(flat4, flat4_report, chain2, chain2_report, sfl_quadratic):
    sfl_report = analysis.run_algorithm1(sfl_quadratic)
    return {
        "flat4": (flat4, flat4_report),
        "chain2": (chain2, chain2_report),
        "sfl_quadratic": (sfl_quadratic, sfl_report),
    }


class TestLargestProjectableSubdistribution:
    @pytest.mark.parametrize("seed, name, k", _lps_cases())
    def test_unique_under_basis_mixing(self, lps_context, seed, name, k):
        system, report = lps_context[name]
        rng = random.Random(seed + 3000)
        step = report.steps[k]
        mixed = geometry.make_distribution(
            step.E.coords, _mixed_rows(rng, step.E, report.chart.function_field)
        )
        assert _span_equal(mixed, step.E)
        recomputed = geometry.largest_projectable_subdistribution(
            mixed, system, report.chart
        )
        assert _span_equal(recomputed, step.D)

    @pytest.mark.parametrize("seed, name, k", _lps_cases())
    def test_idempotent_on_projectable_spans(self, lps_context, seed, name, k):
        system, report = lps_context[name]
        rng = random.Random(seed + 4000)
        step = report.steps[k]
        if step.D.dim == 0:
            pytest.skip("zero distribution is trivially fixed")
        mixed = geometry.make_distribution(
            step.D.coords, _mixed_rows(rng, step.D, report.chart.function_field)
        )
        again = geometry.largest_projectable_subdistribution(
            mixed, system, report.chart
        )
        assert _span_equal(again, step.D)


def _linear_state_change(system, T):
    """Conjugate the dynamics by the linear state map w = T x."""
    n = len(system.states)
    Tinv = T.inv()
    xs = sp.Matrix(n, 1, list(system.states))
    old_in_new = Tinv * xs
    subs = {s: old_in_new[i] for i, s in enumerate(system.states)}
    f = sp.Matrix(n, 1, [e.subs(subs, simultaneous=True) for e in system.update])
    new_f = sp.expand(T * f)
    return DiscreteTimeSystem(
        name=system.name + "T",
        states=system.states,
        inputs=system.inputs,
        update=tuple(sp.cancel(new_f[i]) for i in range(n)),
        equilibrium=dict(system.equilibrium),
        source_digest=None,
    )


def _random_flat_chain(rng):
    """Perturbed delay chain, difference flat with y = x1 by construction."""
    u = sp.Symbol("u")
    p = random_polynomial(rng, (x1,), max_terms=2, max_degree=2, constant=False)
    q = random_polynomial(rng, (x1, x2), max_terms=2, max_degree=2, constant=False)
    update = (x2 + p, u + q)
    return DiscreteTimeSystem(
        name="chainR%d" % rng.randrange(10**6),
        states=(x1, x2),
        inputs=(u,),
        update=update,
        equilibrium={x1: 0, x2: 0, u: 0},
        source_digest=None,
    )


class TestInvarianceUnderLinearStateChanges:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_verdict_and_dimensions(self, seed, chain2, sfl_quadratic,
                                    nonflat_bilinear, chain2_report):
        rng = random.Random(seed + 5000)
        base = rng.choice(
            [(chain2, chain2_report), (sfl_quadratic, None), (nonflat_bilinear, None)]
        )
        system, cached = base
        report = cached if cached is not None else analysis.run_algorithm1(system)
        T = unimodular_matrix(rng, len(system.states))
        transformed = _linear_state_change(system, T)
        new_report = analysis.run_algorithm1(transformed)
        assert new_report.verdict == report.verdict
        assert new_report.kbar == report.kbar
        assert new_report.sfl == report.sfl
        assert [s.dim_delta for s in new_report.steps] == [
            s.dim_delta for s in report.steps
        ]
        assert [s.dim_D for s in new_report.steps] == [
            s.dim_D for s in report.steps
        ]


class TestIntegratorExtensionPreservesFlatness:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_input_delay_extension(self, seed):
        rng = random.Random(seed + 6000)
        base = _random_flat_chain(rng)
        base_report = analysis.run_algorithm1(base)
        assert base_report.verdict == "FLAT"
        w = sp.Symbol("w")
        v = sp.Symbol("v")
        u = base.inputs[0]
        extended = DiscreteTimeSystem(
            name=base.name + "Ext",
            states=base.states + (w,),
            inputs=(v,),
            update=tuple(e.subs(u, w) for e in base.update) + (v,),
            equilibrium={x1: 0, x2: 0, w: 0, v: 0},
            source_digest=None,
        )
        report = analysis.run_algorithm1(extended)
        assert report.verdict == "FLAT"


class TestRedundantInputExtension:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_removed_input_becomes_component(self, seed):
        rng = random.Random(seed + 7000)
        base = _random_flat_chain(rng)
        u = base.inputs[0]
        u1s, u2s = sp.symbols("ua ub")
        a = rng.choice([1, 2, 3])
        combined = u1s + a * u2s
        redundant = DiscreteTimeSystem(
            name=base.name + "Dup",
            states=base.states,
            inputs=(u1s, u2s),
            update=tuple(e.subs(u, combined) for e in base.update),
            equilibrium={x1: 0, x2: 0, u1s: 0, u2s: 0},
            source_digest=None,
        )
        validation = model.validate_system(redundant)
        assert validation.redundant_inputs
        reduction = model.eliminate_redundant_inputs(redundant)
        assert len(reduction.removed_coordinates) == 1
        removed = reduction.removed_coordinates[0]
        assert removed in redundant.inputs

        report = analysis.run_algorithm1(reduction.reduced)
        assert report.verdict == "FLAT"
        flat_output, _ = construction.extract_flat_output(
            reduction.reduced, report
        )
        back = {
            un: e.as_expr()
            for un, e in zip(reduction.reduced.inputs, reduction.kept_functions)
        }
        presented = [
            sp.cancel(c.as_expr().subs(back, simultaneous=True))
            for c in flat_output.components
        ]
        presented.extend(reduction.removed_coordinates)
        assert len(presented) == redundant.m
        assert any(sp.simplify(c - removed) == 0 for c in presented)

    @pytest.mark.parametrize("seed", list(range(10)))
    def test_extended_output_verifies_on_original(self, seed):
        """Appending the removed coordinate yields a flat output of the
        unreduced system; checked symbolically on a subset for cost."""
        rng = random.Random(seed + 8000)
        base = _random_flat_chain(rng)
        u = base.inputs[0]
        u1s, u2s = sp.symbols("ua ub")
        combined = u1s + rng.choice([1, 2]) * u2s
        redundant = DiscreteTimeSystem(
            name=base.name + "Dup",
            states=base.states,
            inputs=(u1s, u2s),
            update=tuple(e.subs(u, combined) for e in base.update),
            equilibrium={x1: 0, x2: 0, u1s: 0, u2s: 0},
            source_digest=None,
        )
        reduction = model.eliminate_redundant_inputs(redundant)
        report = analysis.run_algorithm1(reduction.reduced)
        flat_output, _ = construction.extract_flat_output(reduction.reduced, report)
        back = {
            un: e.as_expr()
            for un, e in zip(reduction.reduced.inputs, reduction.kept_functions)
        }
        candidate = tuple(
            sp.cancel(c.as_expr().subs(back, simultaneous=True))
            for c in flat_output.components
        ) + tuple(reduction.removed_coordinates)
        _, candidate = symbolic.to_elements(candidate, redundant.variables)
        p, sym_report = verification.verify_flat_output_symbolic(
            redundant, candidate
        )
        assert sym_report.status == "PASS"
        assert p is not None
