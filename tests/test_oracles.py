import ast
import functools
import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hypergconv as hg
from hypergconv import oracles
from hypergconv import (
    DomainError,
    HalfSpace,
    base_point,
    dist,
    exp,
    frame_at_base,
    log,
    mink_inner,
    zeta,
)
from hypergconv.interpolation import InterpData, construct_sufficient
from hypergconv.oracles import (
    BRACKET_TOL,
    GCONVEX_SLACK,
    LIPSCHITZ_ALLOWANCE,
    SCALAR_TOL,
    TIE_TOL,
    MoreauParams,
    FnOracle,
    OracleSample,
    ShiftedMax,
    _StackedPieces,
    _prox_max_pieces,
    fn_dist_point,
    fn_dist_sub,
    fn_moreau,
    fn_pseudo_affine,
    fn_shifted_max,
    fn_sqdist_point,
    gconvex_holds,
    lipschitz_holds,
    midpoint_convexity_gap,
    scalar_bounds_hold,
    subgradient_gap,
    taper,
)
from hypergconv.resisting import nonsmooth_new, play, smooth_new
from hypergconv.sampling import make_rng, random_point_in_ball

from conftest import rand_point, rand_tangent, rand_unit

FD_STEP = 1e-5          # central differences for gradient checks
SECOND_DIFF_STEP = 1e-3  # second differences trade truncation vs cancellation


def fd_grad_along(o, x, u, h=FD_STEP):
    return (o.value(exp(x, u.scaled(h))) - o.value(exp(x, u.scaled(-h)))) / (2 * h)


def second_diff(o, x, u, h=SECOND_DIFF_STEP):
    return (o.value(exp(x, u.scaled(h))) - 2 * o.value(x)
            + o.value(exp(x, u.scaled(-h)))) / (h * h)


class TestDistPoint:
    def test_minimizer_has_zero_subgradient(self, rng):
        z = rand_point(rng, 3)
        F, g = fn_dist_point(z).eval(z)
        assert F == pytest.approx(0.0, abs=1e-12)
        assert g.norm == 0.0

    def test_unit_speed_values_and_gradient(self, rng):
        z = rand_point(rng, 3, 1.0)
        o = fn_dist_point(z)
        u = rand_unit(rng, z)
        for t in (0.4, 1.7):
            x = exp(z, u.scaled(t))
            F, g = o.eval(x)
            assert F == pytest.approx(t, abs=1e-10)
            assert g.norm == pytest.approx(1.0, abs=1e-10)
            # gradient points away from z
            assert mink_inner(g.vec, log(x, z).vec) == pytest.approx(-t, abs=1e-9)

    def test_subgradient_inequality_sampled(self, rng):
        z = rand_point(rng, 4, 1.0)
        o = fn_dist_point(z)
        for _ in range(1000):
            a, b = rand_point(rng, 4, 2.5), rand_point(rng, 4, 2.5)
            assert gconvex_holds(subgradient_gap(o, a, b))


class TestSqDistPoint:
    def test_minimizer(self, rng):
        z = rand_point(rng, 3)
        F, g = fn_sqdist_point(z).eval(z)
        assert F == 0.0 and g.norm == 0.0

    def test_finite_difference_gradient(self, rng):
        z = rand_point(rng, 4, 1.0)
        o = fn_sqdist_point(z)
        for _ in range(100):
            x = rand_point(rng, 4, 2.0)
            u = rand_unit(rng, x)
            an = mink_inner(o.grad(x).vec, u.vec)
            assert fd_grad_along(o, x, u) == pytest.approx(an, rel=1e-5, abs=1e-7)

    def test_hessian_quadratic_form_range(self, rng):
        z = rand_point(rng, 3, 1.0)
        o = fn_sqdist_point(z)
        for _ in range(100):
            x = rand_point(rng, 3, 2.0)
            u = rand_unit(rng, x)
            q = second_diff(o, x, u)
            assert 1.0 - 1e-4 <= q <= zeta(dist(x, z)) + 1e-4


class TestDistSub:
    def make_sub(self, rng, d=3):
        anchor = rand_point(rng, d, 1.0)
        return HalfSpace(anchor, rand_unit(rng, anchor)).boundary

    def test_on_sub_returns_shift_and_zero(self, rng):
        S = self.make_sub(rng)
        o = fn_dist_sub(S, shift=0.7)
        x = S.base()
        F, g = o.eval(x)
        assert F == pytest.approx(-0.7, abs=1e-12)
        assert g.norm == 0.0

    def test_unit_gradient_off_sub(self, rng):
        S = self.make_sub(rng)
        o = fn_dist_sub(S)
        for _ in range(50):
            x = rand_point(rng, 3, 2.0)
            if o.value(x) < 1e-6:
                continue
            assert o.grad(x).norm == pytest.approx(1.0, abs=1e-9)

    def test_gconvex_along_geodesics(self, rng):
        S = self.make_sub(rng)
        o = fn_dist_sub(S, shift=0.2)
        for _ in range(100):
            a, b = rand_point(rng, 3, 2.0), rand_point(rng, 3, 2.0)
            assert midpoint_convexity_gap(o, a, b) >= -1e-9


class TestMetadata:
    def test_minimum_stated_by_the_class(self, rng):
        z = rand_point(rng, 3, 1.0)
        S = HalfSpace(z, rand_unit(rng, z)).boundary
        for c in (0.0, 0.3, -1.5):
            assert fn_dist_sub(S, c).fmin == -c
            assert oracles.fn_constant(c).fmin == c
        assert fn_dist_point(z).fmin == 0.0
        assert fn_sqdist_point(z).fmin == 0.0

    def test_no_metadata_written_after_construction(self):
        # each fact is stated once, in the oracle's own __init__ or class body;
        # minimizer and strong_convexity are read by no check and are gone
        facts = {"fmin", "lipschitz", "smoothness", "gconvex"}
        bad = []
        for path in sorted(Path(oracles.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            in_init = {id(n) for f in ast.walk(tree)
                       if isinstance(f, ast.FunctionDef) and f.name == "__init__"
                       for n in ast.walk(f)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr in facts \
                        and isinstance(node.ctx, ast.Store):
                    on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
                    if not (on_self and id(node) in in_init):
                        bad.append((path.name, node.lineno, node.attr))
                elif isinstance(node, ast.Call) and getattr(
                        node.func, "id", getattr(node.func, "attr", "")) in (
                        "setattr", "__setattr__") and any(
                        isinstance(a, ast.Constant) and a.value in facts for a in node.args):
                    bad.append((path.name, node.lineno, "setattr"))
                elif getattr(node, "attr", getattr(node, "id", None)) in (
                        "minimizer", "strong_convexity"):
                    bad.append((path.name, node.lineno, "deleted fact"))
        assert bad == []


class TestShiftedMax:
    def test_single_part_identical(self, rng):
        z = rand_point(rng, 3)
        o, m = fn_dist_point(z), fn_shifted_max([(fn_dist_point(z), 0.25)])
        for _ in range(20):
            x = rand_point(rng, 3, 2.0)
            assert m.value(x) == pytest.approx(o.value(x) - 0.25, abs=1e-14)

    def test_dominant_part_wins(self, rng):
        z = rand_point(rng, 3, 0.5)
        m = fn_shifted_max([(fn_dist_point(z), 0.0), (fn_dist_point(z), 5.0)])
        for _ in range(20):
            x = rand_point(rng, 3, 2.0)
            info = m.eval_detailed(x)
            assert info.argmax == 0
            assert not info.ties

    def test_tie_reported(self, rng, caplog):
        z = rand_point(rng, 3, 0.5)
        m = fn_shifted_max([(fn_dist_point(z), 0.0), (fn_dist_point(z), 0.0)])
        with caplog.at_level(logging.WARNING, logger="hypergconv.oracles"):
            info = m.eval_detailed(rand_point(rng, 3, 1.0))
        assert info.ties == (1,)
        assert any("tie" in rec.message for rec in caplog.records)

    def test_subgradient_inequality(self, rng):
        parts = [(fn_dist_point(rand_point(rng, 3, 1.5)), 0.3 * k) for k in range(3)]
        m = fn_shifted_max(parts)
        for _ in range(1000):
            a, b = rand_point(rng, 3, 2.0), rand_point(rng, 3, 2.0)
            assert gconvex_holds(subgradient_gap(m, a, b))


def eager_detailed(m, x):
    """The eager ShiftedMax evaluation, kept as the reference for the lazy one:
    every part forms its value and subgradient, nested maxes included."""
    evals = [eager_detailed(o, x)[:2] if isinstance(o, ShiftedMax) else o.eval(x)
             for o, _ in m.parts]
    vals = np.array([F - c for (F, _), (_, c) in zip(evals, m.parts)])
    best = int(np.argmax(vals))
    ties = tuple(i for i, v in enumerate(vals)
                 if v >= vals[best] - TIE_TOL and i != best)
    return float(vals[best]), evals[best][1], best, ties


def _max_cases(rng):
    """(max, query points): a game max, a mixed point/hyperplane max, a max of
    maxes with an exact tie, and the interpolant of construct_sufficient."""
    game = nonsmooth_new(16, 2.0)
    play(game, "polyak", 0)
    queries = [s.x for s in game.history] + [rand_point(rng, 16, 2.0) for _ in range(5)]
    yield game.running_max(7), queries
    yield game.finalize()[0], queries
    x0 = base_point(4)
    parts = []
    for k in range(6):
        anchor = exp(x0, rand_unit(rng, x0).scaled(0.5 * rng.uniform()))
        o = (fn_dist_point(anchor) if k % 2 else
             fn_dist_sub(HalfSpace(anchor, rand_unit(rng, anchor)).boundary, 0.1))
        parts.append((o, 0.03 * k))
    mixed = fn_shifted_max(parts)
    queries = [rand_point(rng, 4, 1.5) for _ in range(20)] + [x0]
    yield mixed, queries
    yield fn_shifted_max([(fn_shifted_max(parts[:3]), 0.0), (mixed, 0.0),
                          (parts[4][0], -0.2)]), queries
    src = fn_sqdist_point(rand_point(rng, 3, 1.0))
    items = []
    for _ in range(5):
        p = random_point_in_ball(rng, src.z, 0.45)
        F, g = src.eval(p)
        items.append(OracleSample(F, p, g))
    f = construct_sufficient(InterpData(items, mu=1.0))
    yield f, [s.x for s in items] + [rand_point(rng, 3, 1.5) for _ in range(10)]


class TestLazyMax:
    def test_lazy_equals_eager(self, rng):
        n_ties = 0
        for m, queries in _max_cases(rng):
            for x in queries:
                F, g, best, ties = eager_detailed(m, x)
                info = m.eval_detailed(x)
                assert (info.value, info.argmax, info.ties) == (F, best, ties)
                assert info.grad.vec.tobytes() == g.vec.tobytes()
                assert m.value(x) == F
                n_ties += bool(ties)
        assert n_ties > 0

    def test_value_forms_no_gradient(self, rng, monkeypatch):
        cases = list(_max_cases(rng))[:-1]  # the interpolant's sums form theirs
        monkeypatch.setattr(oracles, "log", None)
        for m, queries in cases:
            for x in queries:
                m.value(x)


class TestPseudoAffine:
    def test_value_and_gradient_at_anchor(self, rng):
        y = rand_point(rng, 3, 1.0)
        g = rand_tangent(rng, y, 2.0)
        F, gr = fn_pseudo_affine(y, g).eval(y)
        assert F == 0.0
        assert np.allclose(gr.vec, g.vec, atol=1e-12)

    def test_matches_inner_product(self, rng):
        y = rand_point(rng, 3, 1.0)
        g = rand_tangent(rng, y, 2.0)
        o = fn_pseudo_affine(y, g)
        for _ in range(50):
            x = rand_point(rng, 3, 2.0)
            assert o.value(x) == pytest.approx(
                mink_inner(g.vec, log(y, x).vec), abs=1e-10)

    def test_finite_difference_gradient(self, rng):
        y = rand_point(rng, 4, 1.0)
        g = rand_tangent(rng, y, 1.5)
        o = fn_pseudo_affine(y, g)
        for _ in range(100):
            x = rand_point(rng, 4, 2.0)
            u = rand_unit(rng, x)
            an = mink_inner(o.grad(x).vec, u.vec)
            assert fd_grad_along(o, x, u) == pytest.approx(an, rel=1e-5, abs=1e-7)

    def test_smoothness_bound_on_second_differences(self, rng):
        y = rand_point(rng, 3, 1.0)
        g = rand_tangent(rng, y, 1.5)
        o = fn_pseudo_affine(y, g)
        gn = g.norm
        for _ in range(1000):
            x = rand_point(rng, 3, 2.0)
            u = rand_unit(rng, x)
            assert abs(second_diff(o, x, u)) <= gn + 1e-3

    def test_flagged_nonconvex(self, rng):
        y = rand_point(rng, 2, 0.5)
        assert not fn_pseudo_affine(y, rand_unit(rng, y)).gconvex

    def test_lipschitz_metadata_respected(self, rng):
        y = rand_point(rng, 3, 1.0)
        g = rand_tangent(rng, y, 2.0)
        o = fn_pseudo_affine(y, g)
        for _ in range(200):
            x = rand_point(rng, 3, 2.5)
            assert lipschitz_holds(o.grad(x).norm, o.lipschitz)


class TestMoreau:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            MoreauParams(0.0)
        with pytest.raises(DomainError):
            MoreauParams(31.0)

    def test_requires_lipschitz_metadata(self, rng):
        z = rand_point(rng, 3)
        o = fn_sqdist_point(z)  # not globally Lipschitz
        with pytest.raises(DomainError):
            fn_moreau(o, MoreauParams(0.1))

    def test_dist_point_closed_form_and_grid_search(self, rng):
        z = rand_point(rng, 3, 1.0)
        lam = 0.3
        env = fn_moreau(fn_dist_point(z), MoreauParams(lam))
        for _ in range(10):
            x = rand_point(rng, 3, 2.5)
            D = dist(x, z)
            if D < lam:
                continue
            v = env.value(x)
            assert v == pytest.approx(D - lam / 2.0, abs=1e-12)
            # independent grid search along the connecting geodesic
            ts = np.linspace(0.0, min(lam, D), 4001)
            grid = np.min((D - ts) + ts * ts / (2 * lam))
            assert v == pytest.approx(grid, abs=1e-7)

    def test_sandwich(self, rng):
        z = rand_point(rng, 4, 1.0)
        lam = 0.2
        f = fn_dist_point(z)
        env = fn_moreau(f, MoreauParams(lam))
        for _ in range(1000):
            x = rand_point(rng, 4, 2.0)
            fv, ev = f.value(x), env.value(x)
            assert ev <= fv + 1e-12
            assert ev >= fv - lam - 1e-12

    def test_gradient_matches_prox_point(self, rng):
        z = rand_point(rng, 3, 1.0)
        lam = 0.4
        env = fn_moreau(fn_dist_point(z), MoreauParams(lam))
        for _ in range(20):
            x = rand_point(rng, 3, 2.0)
            y = env.prox_point(x)
            _, g = env.eval(x)
            assert np.allclose(g.vec, log(x, y).scaled(-1.0 / lam).vec, atol=1e-9)

    def _pieces_instance(self, rng, kind, n=4, d=6):
        # "hyperplanes": a flat max of hyperplane distances; "nested": every
        # other part is itself a max of two hyperplane distances
        x0 = base_point(d)

        def part():
            anchor = exp(x0, rand_unit(rng, x0).scaled(0.4 * rng.uniform()))
            S = HalfSpace(anchor, rand_unit(rng, anchor)).boundary
            return fn_dist_sub(S, 0.1 * rng.uniform())

        parts = []
        for k in range(n):
            if kind == "nested" and k % 2 == 0:
                parts.append((fn_shifted_max([(part(), 0.0), (part(), 0.03)]), 0.02 * k))
            else:
                parts.append((part(), 0.02 * k))
        return x0, fn_shifted_max(parts)

    @pytest.mark.parametrize("kind", ["hyperplanes", "nested"])
    def test_max_pieces_prox_beats_brute_force(self, rng, kind):
        x0, m = self._pieces_instance(rng, kind)
        lam = 2e-3
        env = fn_moreau(m, MoreauParams(lam))
        for _ in range(5):
            x = exp(x0, rand_unit(rng, x0).scaled(0.2 * rng.uniform()))
            v = env.value(x)
            best = np.inf
            for _ in range(40):
                u = rand_unit(rng, x).scaled(lam * rng.uniform())
                y = exp(x, u)
                best = min(best, m.value(y) + dist(x, y) ** 2 / (2 * lam))
            assert v <= best + 1e-12
            assert v >= m.value(x) - lam - 1e-12

    @pytest.mark.parametrize("kind", ["hyperplanes", "nested"])
    def test_stacked_values_match_per_piece_loop(self, rng, kind):
        # the stacked product rounds differently from a per-piece one; the
        # hyperplane form arcsinh|q| keeps the bits of arcsinh(sqrt(q**2))
        x0, m = self._pieces_instance(rng, kind)
        pieces = m.max_sub_pieces()
        stacked = _StackedPieces(pieces)
        J = np.ones(x0.coords.size)
        J[0] = -1.0
        for _ in range(50):
            y = exp(x0, rand_tangent(rng, x0, 1.0)).coords
            ref = np.array([np.arcsinh(np.linalg.norm((S.normals * J) @ y)) - c
                            for S, c in pieces])
            got = stacked.values(y)
            assert np.array_equal(
                got, np.arcsinh(np.sqrt((stacked.N @ y) ** 2)) - stacked.cs)
            assert np.allclose(got, ref, rtol=0.0, atol=8 * np.finfo(float).eps)

    @pytest.mark.parametrize("kind", ["hyperplanes", "nested"])
    def test_chord_gradient_lipschitz(self, rng, kind):
        x0, m = self._pieces_instance(rng, kind)
        lam = 2e-3
        env = fn_moreau(m, MoreauParams(lam))
        L = 1.0 / np.tanh(lam)
        for _ in range(60):
            x = exp(x0, rand_unit(rng, x0).scaled(0.25 * rng.uniform()))
            u = rand_unit(rng, x)
            h = lam * (1.0 + 3.0 * rng.uniform())
            yq = exp(x, u.scaled(h))
            gx = env.grad(x)
            gy = env.grad(yq)
            diff = hg.ptransport(x, yq, gx).vec - gy.vec
            slope = np.sqrt(max(mink_inner(diff, diff), 0.0)) / h
            assert slope <= L + oracles.CHORD_ALLOWANCE

    def test_locality_part_removal(self, rng):
        # envelope values near a point depend only on the parts active in a
        # lam + delta/4 neighborhood
        x0 = base_point(4)
        e = frame_at_base(4)
        near = fn_dist_sub(HalfSpace(x0, e[0]).boundary, 0.0)
        far_anchor = exp(x0, e[1].scaled(3.0))
        far = fn_dist_sub(HalfSpace(far_anchor, rand_unit(rng, far_anchor)).boundary, 3.0)
        lam = 0.01
        with_far = fn_moreau(fn_shifted_max([(near, 0.0), (far, 0.3)]), MoreauParams(lam))
        without = fn_moreau(fn_shifted_max([(near, 0.0)]), MoreauParams(lam))
        for _ in range(25):
            p = exp(x0, rand_tangent(rng, x0, 0.05))
            assert with_far.value(p) == pytest.approx(without.value(p), abs=1e-10)

    def test_envelope_preserves_minimum(self, rng):
        z = rand_point(rng, 3, 1.0)
        env = fn_moreau(fn_dist_point(z), MoreauParams(0.2))
        assert env.value(z) == pytest.approx(0.0, abs=1e-12)
        assert env.fmin == 0.0

    def test_refuses_oracle_without_pieces(self, rng):
        # an oracle with no structure hooks has no prox solver
        inner = fn_dist_point(rand_point(rng, 3, 0.8))

        class Opaque(FnOracle):
            lipschitz = 1.0

            def eval(self, x):
                return inner.eval(x)

        with pytest.raises(DomainError):
            fn_moreau(Opaque(), MoreauParams(0.3))

    def test_max_of_maxes_matches_flat_max(self, rng):
        # a max of maxes of shifted distances is itself one: its envelope
        # equals that of the flat max over the same pieces
        H1, H2, H3 = (HalfSpace(a, rand_unit(rng, a)).boundary
                      for a in (rand_point(rng, 3, 0.8) for _ in range(3)))
        inner = fn_shifted_max([(fn_dist_sub(H1), 0.1), (fn_dist_sub(H2), 0.2)])
        nested = fn_shifted_max([(inner, 0.3), (fn_dist_sub(H3), 0.05)])
        flat = fn_shifted_max([(fn_dist_sub(H1), 0.1 + 0.3),
                               (fn_dist_sub(H2), 0.2 + 0.3),
                               (fn_dist_sub(H3), 0.05)])
        env_nested = fn_moreau(nested, MoreauParams(0.3))
        env_flat = fn_moreau(flat, MoreauParams(0.3))
        for _ in range(10):
            x = rand_point(rng, 3, 1.5)
            (Fn, gn), (Ff, gf) = env_nested.eval(x), env_flat.eval(x)
            assert Fn == Ff
            assert np.array_equal(gn.vec, gf.vec)


@functools.lru_cache(maxsize=None)
def _played_smooth_game(T, r):
    game = smooth_new(T, r)
    play(game, "polyak", seed=0)
    return game


def _count_minimize(monkeypatch):
    calls = []
    real = oracles.optimize.minimize

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracles.optimize, "minimize", spy)
    return calls


class TestMoreauBracket:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from([4, 8, 16]), st.sampled_from([1.0, 2.0, 5.0]),
           st.integers(0, 15), st.integers(0, 2**32 - 1))
    def test_bracket_holds_the_solved_value(self, T, r, k, seed):
        game = _played_smooth_game(T, r)
        k %= T
        env = game._smooth(game.running_max(k))
        x = random_point_in_ball(make_rng(seed), game.history[k].x, game.delta / 2.0)
        lo, hi = env._pieces.bracket(x.coords, env.lam)
        solved = _prox_max_pieces(x, env.lam, env._pieces, polish=False)[1]
        assert lo <= solved + 1e-15 <= hi + 2e-15
        v = env.value(x)
        if hi - lo <= BRACKET_TOL:
            assert v == hi and abs(v - solved) <= 1e-12
        else:
            assert v == solved

    def test_two_active_pieces_reach_slsqp(self, monkeypatch):
        # at equal distance from two hyperplanes through x0 neither
        # single-piece prox is a good candidate for the max: the bracket is
        # wide and the solve runs; near one hyperplane only, it is tight
        x0 = base_point(3)
        e = frame_at_base(3)
        S1, S2 = (HalfSpace(x0, v).boundary for v in e[:2])
        env = fn_moreau(fn_shifted_max([(fn_dist_sub(S1), 0.0), (fn_dist_sub(S2), 0.0)]),
                        MoreauParams(0.05))
        calls = _count_minimize(monkeypatch)
        x = exp(x0, hg.HTangent(x0, e[0].vec + e[1].vec).scaled(0.02))
        lo, hi = env._pieces.bracket(x.coords, env.lam)
        assert hi - lo > BRACKET_TOL
        assert env.value(x) == _prox_max_pieces(x, env.lam, env._pieces, polish=False)[1]
        assert len(calls) == 2
        y = exp(x0, hg.HTangent(x0, 0.3 * e[0].vec + e[2].vec).scaled(0.2))
        lo, hi = env._pieces.bracket(y.coords, env.lam)
        assert hi - lo <= BRACKET_TOL and env.value(y) == hi
        assert len(calls) == 2

    def test_sandwich_never_solves(self, monkeypatch):
        game = _played_smooth_game(16, 2.0)
        calls = _count_minimize(monkeypatch)
        assert game.worst_sandwich(make_rng(1), 20) <= 1e-12
        assert len(calls) == 0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from([4, 8, 16]), st.sampled_from([1.0, 2.0, 5.0]),
           st.integers(0, 15), st.integers(0, 2**32 - 1))
    def test_bracket_inside_the_sandwich(self, T, r, k, seed):
        # the piece attaining f(p) gives lo >= f(p) - lam/2, and p is a
        # candidate, so hi <= f(p): the bracket certifies the sandwich at any width
        game = _played_smooth_game(T, r)
        k %= T
        fk = game.running_max(k)
        env = game._smooth(fk)
        p = random_point_in_ball(make_rng(seed), game.history[k].x, game.delta / 2.0)
        lo, hi = env.bracket(p)
        fv = fk.value(p)
        assert lo >= fv - env.lam / 2.0 - 1e-15
        assert hi <= fv + 1e-15

    def test_refuses_multi_normal_pieces(self, rng):
        # a point inside a max, flat or nested, has d normals and no closed-form
        # bracket: the envelope refuses it when built; alone it has an exact prox
        a = rand_point(rng, 3, 0.5)
        plane = fn_dist_sub(HalfSpace(a, rand_unit(rng, a)).boundary)
        point = fn_dist_point(rand_point(rng, 3, 0.5))
        for m in (fn_shifted_max([(plane, 0.0), (point, 0.1)]),
                  fn_shifted_max([(plane, 0.0), (fn_shifted_max([(point, 0.1)]), 0.0)]),
                  fn_shifted_max([(point, 0.0)])):
            with pytest.raises(DomainError):
                fn_moreau(m, MoreauParams(0.2))
        env = fn_moreau(point, MoreauParams(0.2))
        x = rand_point(rng, 3, 1.0)
        lo, hi = env.bracket(x)
        assert lo == hi == env.value(x)

    @pytest.mark.parametrize("T,r", [(8, 2.0), (8, 5.0), (16, 2.0), (16, 5.0)])
    def test_values_keep_the_square_root_form(self, T, r):
        # on normal-range doubles sqrt(fl(q*q)) == |q|, so arcsinh|q| has the
        # bits of arcsinh(sqrt(q**2)) at every iterate and a point sampled
        # near each, as the sandwich samples
        game = _played_smooth_game(T, r)
        sp = game._smooth(game.running_max(T - 1))._pieces
        rng = make_rng(1)
        ys = [s.x.coords for s in game.history] + [
            random_point_in_ball(rng, s.x, game.delta / 2.0).coords for s in game.history]
        for y in ys:
            old = np.arcsinh(np.sqrt((sp.N @ y) ** 2)) - sp.cs
            assert sp.values(y).tobytes() == old.tobytes()

    def test_values_exact_where_the_square_underflows(self):
        # below 2**-511 the square is subnormal and loses bits (and is 0 below
        # about 2**-537); |q| does not, and arcsinh of a tiny q is q itself
        x0 = base_point(3)
        sp = _StackedPieces([(HalfSpace(x0, frame_at_base(3)[0]).boundary, 0.0)])
        for q in (1.2345e-158, 1e-170):
            y = np.array([1.0, q, 0.0, 0.0])
            assert sp.values(y)[0] == q
            assert np.arcsinh(np.sqrt((sp.N @ y) ** 2))[0] != q


class TestTaper:
    def test_flat_region(self):
        assert taper(0.3, 1.0) == (1.0, 0.0, 0.0)
        assert taper(0.5, 1.0) == (1.0, 0.0, 0.0)

    def test_continuity_at_knee(self):
        R = 1.0
        u, du, d2u = taper(0.5 * R * R * (1 + 1e-6), R)
        assert u == pytest.approx(1.0, abs=1e-9)
        assert du == pytest.approx(0.0, abs=1e-9)
        assert d2u == pytest.approx(0.0, abs=1e-9)

    def test_derivatives_match_finite_differences(self):
        R = 2.0
        for D in np.geomspace(0.51 * R * R * 2, 50.0, 40):
            h = D * 1e-6
            u0, du, d2u = taper(D, R)
            up, _, _ = taper(D + h, R)
            um, _, _ = taper(D - h, R)
            assert (up - um) / (2 * h) == pytest.approx(du, rel=1e-4, abs=1e-12)
            assert (up - 2 * u0 + um) / (h * h) == pytest.approx(
                d2u, rel=2e-2, abs=1e-9)

    @pytest.mark.parametrize("R", [1.0, 10.0])
    def test_scalar_inequalities(self, R):
        D = np.geomspace(0.500001 * R * R, 1e6 * R * R, 1000)
        u, du, d2u = taper(D, R)
        # zeta(t) <= 1 + t on the same grid, growth keeps sign, taper concavity
        assert scalar_bounds_hold(np.max(zeta(D) - (1.0 + D)), np.min(u + D * du),
                                  np.max(2 * du + D * d2u))
        assert np.all((u + D * du) + (2 * du + D * d2u) * 2 * D > 0.0)
        assert np.all((u + D * du) * 2 * np.sqrt(2 * D) <= 4 * R + 1e-12)


class TestCheckEdges:
    # each zoo-validate rule is read from `oracles`: a value at its
    # tolerance passes, the next double past it fails, and a NaN fails
    def test_tolerances(self):
        assert (GCONVEX_SLACK, LIPSCHITZ_ALLOWANCE, SCALAR_TOL) == (-1e-8, 1e-9, 1e-12)

    @pytest.mark.parametrize("verdict,at,past", [
        (gconvex_holds, GCONVEX_SLACK, -np.inf),
        (lambda v: lipschitz_holds(v, 1.0), 1.0 + LIPSCHITZ_ALLOWANCE, np.inf),
        (lambda v: scalar_bounds_hold(v, 0.0, 0.0), SCALAR_TOL, np.inf),
        (lambda v: scalar_bounds_hold(0.0, v, 0.0), -SCALAR_TOL, -np.inf),
        (lambda v: scalar_bounds_hold(0.0, 0.0, v), SCALAR_TOL, np.inf),
    ], ids=["gconvex", "lipschitz", "zeta", "taper-growth", "taper-bend"])
    def test_edge(self, verdict, at, past):
        assert verdict(at)
        assert not verdict(np.nextafter(at, past))
        assert not verdict(np.nan)
