"""Tests for root finding and interval unions."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine
from repro.core.parameters import SwapParameters
from repro.obs.metrics import Registry, use_registry
from repro.stochastic.law import parse_law
from repro.stochastic.lognormal import LognormalLaw
from repro.stochastic.rootfind import (
    IntervalUnion,
    bisect_roots,
    bracketed_root,
    grid_sign_change_brackets,
    regions_between_roots,
)


def _scan(f, lo, hi, n_scan=400):
    """One log-spaced scan of ``f`` as a ``(1, n_scan)`` batch."""
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), n_scan))[None, :]
    return grid, np.vectorize(f, otypes=[float])(grid)


def _all_roots(f, lo, hi):
    """Every root of ``f`` on ``(lo, hi)`` the scan resolves: batched
    brackets, then one batched refinement."""
    _, bracket_lo, bracket_hi = grid_sign_change_brackets(*_scan(f, lo, hi))
    return bisect_roots(np.vectorize(f, otypes=[float]), bracket_lo, bracket_hi).tolist()


class TestSignChangeBrackets:
    def test_single_root(self):
        rows, lo, hi = grid_sign_change_brackets(*_scan(lambda x: x - 2.0, 0.1, 10.0))
        assert rows.tolist() == [0]
        assert lo[0] < 2.0 < hi[0]

    def test_no_root(self):
        rows, _, _ = grid_sign_change_brackets(*_scan(lambda x: x + 1.0, 0.1, 10.0))
        assert rows.size == 0

    def test_three_roots(self):
        f = lambda x: (x - 1.0) * (x - 2.0) * (x - 4.0)
        rows, _, _ = grid_sign_change_brackets(*_scan(f, 0.1, 10.0))
        assert rows.size == 3

    def test_grid_point_zero_goes_to_the_bracket_on_its_left(self):
        grid = np.array([[1.0, 2.0, 3.0, 4.0]])
        rows, lo, hi = grid_sign_change_brackets(grid, np.array([[-1.0, 0.0, 1.0, 2.0]]))
        assert (rows.tolist(), lo.tolist(), hi.tolist()) == ([0], [1.0], [2.0])

    def test_only_signs_matter(self):
        grid = np.tile(np.arange(1.0, 7.0), (2, 1))
        values = np.array([[3.0, -1e-300, -5.0, 2.0, 1e300, -1.0], [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]])
        rows, lo, hi = grid_sign_change_brackets(grid, values)
        signs = grid_sign_change_brackets(grid, np.sign(values))
        assert rows.tolist() == [0, 0, 0]
        assert lo.tolist() == [1.0, 3.0, 5.0]
        for got, want in zip((rows, lo, hi), signs):
            assert np.array_equal(got, want)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            grid_sign_change_brackets(np.ones((2, 4)), np.ones((2, 3)))

    def test_rejects_unbatched_scan(self):
        with pytest.raises(ValueError):
            grid_sign_change_brackets(np.ones(4), np.ones(4))


class TestFindAllRoots:
    def test_polynomial_roots(self):
        f = lambda x: (x - 1.0) * (x - 2.0) * (x - 4.0)
        roots = _all_roots(f, 0.1, 10.0)
        assert roots == pytest.approx([1.0, 2.0, 4.0], abs=1e-9)

    def test_roots_sorted(self):
        f = lambda x: math.sin(x)
        roots = _all_roots(f, 1.0, 10.0)
        assert roots == sorted(roots)
        assert roots == pytest.approx([math.pi, 2 * math.pi, 3 * math.pi], abs=1e-9)

    def test_bracketed_root_precision(self):
        root = bracketed_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)


class _Calls:
    """An objective that counts its calls and the points it saw."""

    def __init__(self, f):
        self.f = f
        self.calls = 0
        self.points = 0

    def __call__(self, x):
        self.calls += 1
        self.points += np.size(x)
        return self.f(x)


class TestBisectRoots:
    def test_roots_lie_inside_their_brackets(self):
        rng = np.random.default_rng(3)
        roots = np.exp(rng.uniform(-8.0, 8.0, 200))
        lo = roots * np.exp(-rng.uniform(1e-9, 3.0, 200))
        hi = roots * np.exp(rng.uniform(1e-9, 3.0, 200))
        # steep on one side, flat on the other: a hard shape for interpolation
        f = lambda x: np.where(x < roots, np.expm1(5.0 * (x / roots - 1.0)), np.log(x / roots))
        found = bisect_roots(f, lo, hi)
        assert np.all((lo <= found) & (found <= hi))
        assert np.all(np.abs(found - roots) <= 1e-13 * roots)

    def test_exact_zero_at_an_end_is_returned_exactly(self):
        lo = np.array([1.0, 0.5, 3.0])
        hi = np.array([2.0, 1.5, 4.0])
        zeros = np.array([2.0, 0.5, 3.7])
        found = bisect_roots(lambda x: x - zeros, lo, hi)
        assert found[0] == 2.0
        assert found[1] == 0.5
        assert found[2] == pytest.approx(3.7, rel=1e-13)

    def test_exact_zero_at_an_iterate_is_returned_exactly(self):
        # the first step is the midpoint, where f is exactly zero
        f = _Calls(lambda x: x - 1.5)
        assert bisect_roots(f, [1.0], [2.0])[0] == 1.5
        assert f.calls == 3

    def test_mixed_width_and_scale_brackets_each_converge(self):
        scales = 10.0 ** np.arange(-6, 7)
        widths = np.geomspace(1e-10, 2.0, scales.size)
        roots = scales * math.sqrt(2.0)
        lo = roots * (1.0 - 0.3 * widths)
        hi = roots * (1.0 + widths)
        found = bisect_roots(lambda x: (x / roots) ** 3 - 1.0, lo, hi)
        assert np.all(np.abs(found - roots) <= 1e-13 * roots)

    def test_empty_input_returns_empty_array(self):
        f = _Calls(lambda x: x)
        found = bisect_roots(f, [], [])
        assert isinstance(found, np.ndarray) and found.shape == (0,)
        assert f.calls == 0

    def test_rejects_mismatched_brackets(self):
        with pytest.raises(ValueError):
            bisect_roots(lambda x: x, [1.0, 2.0], [3.0])

    def test_objective_always_sees_the_whole_batch(self):
        roots = np.array([1.0, 3.0, 7.0])
        seen = []

        def f(x):
            seen.append(x.shape)
            return x - roots

        bisect_roots(f, roots - 0.5, roots + 0.25)
        assert set(seen) == {(3,)}

    def test_counters_match_one_solve_grids_objective(self, params):
        calls = []
        real = engine.bisect_roots

        def counting(f, lo, hi, *args, **kwargs):
            objective = _Calls(f)
            calls.append(objective)
            return real(objective, lo, hi, *args, **kwargs)

        registry = Registry()
        with use_registry(registry), mock.patch.object(engine, "bisect_roots", counting):
            engine.solve_grid(params, [1.4, 2.0, 2.6])
        (objective,) = calls
        total = lambda name: registry.counter(name).value()
        assert total("repro_rootfind_function_calls_total") == objective.points
        assert 0 < total("repro_rootfind_iterations_total") <= objective.points
        assert total("repro_rootfind_calls_total") == objective.points / objective.calls


_ADVERSARIAL_LAWS = (
    "lognormal",
    "merton:jump_intensity=0.5,jump_mean=-0.3,jump_std=0.4",
    "regime:sigma_calm=0.01,sigma_turbulent=0.6",
)


class TestRegionsBetweenRoots:
    """The root-to-region rule every solver shares."""

    @staticmethod
    def _rule(lo, hi, rows, roots, advantage):
        calls = []

        def recorded(piece_rows, mids):
            calls.append((piece_rows.copy(), mids.copy()))
            return advantage(piece_rows, mids)

        out = regions_between_roots(lo, hi, rows, roots, recorded)
        assert len(calls) == 1
        return out, calls[0]

    def test_rows_with_zero_one_and_three_roots(self):
        # row 0: no root, positive; row 1: one root at 2, positive above;
        # row 2: roots at 1, 2 and 4 of (x - 1)(x - 2)(x - 4)
        def advantage(piece_rows, x):
            return np.select(
                [piece_rows == 0, piece_rows == 1],
                [np.ones_like(x), x - 2.0],
                (x - 1.0) * (x - 2.0) * (x - 4.0),
            )

        (rows, lo, hi), (piece_rows, mids) = self._rule(
            [0.5, 0.5, 0.5], [8.0, 8.0, 8.0], [2, 1, 2, 2], [4.0, 2.0, 1.0, 2.0], advantage
        )
        assert piece_rows.tolist() == [0, 1, 1, 2, 2, 2, 2]
        assert mids.tolist() == pytest.approx(
            [2.0, 1.0, 4.0, math.sqrt(0.5), math.sqrt(2.0), math.sqrt(8.0), math.sqrt(32.0)]
        )
        assert rows.tolist() == [0, 1, 2, 2]
        assert list(zip(lo.tolist(), hi.tolist())) == [
            (0.5, 8.0), (2.0, 8.0), (1.0, 2.0), (4.0, 8.0)
        ]

    def test_zero_width_pieces_are_skipped(self):
        # a root on the window's low end and a doubled root leave pieces
        # of zero width, which are never evaluated
        (rows, lo, hi), (piece_rows, mids) = self._rule(
            [1.0], [9.0], [0, 0, 0], [1.0, 3.0, 3.0], lambda _rows, x: 3.0 - x
        )
        assert mids.tolist() == pytest.approx([math.sqrt(3.0), math.sqrt(27.0)])
        assert (rows.tolist(), lo.tolist(), hi.tolist()) == ([0], [1.0], [3.0])

    def test_negative_midpoints_are_dropped(self):
        (rows, lo, hi), _ = self._rule(
            [1.0, 1.0], [4.0, 4.0], [0], [2.0], lambda _rows, x: -np.ones_like(x)
        )
        assert rows.size == lo.size == hi.size == 0

    def test_matches_the_scalar_region(self, params):
        from repro.core.backward_induction import BackwardInduction

        solver = BackwardInduction(params, 2.0)
        region = solver.bob_t2_region()
        rows, lo, hi = regions_between_roots(
            [1e-3], [1e3], [0, 0], list(region.bounds()),
            lambda _rows, x: solver.bob_t2_advantage(x),
        )
        assert (rows.tolist(), lo.tolist(), hi.tolist()) == (
            [0], [region.bounds()[0]], [region.bounds()[1]]
        )


def _adversarial_draw(rng):
    r_b = float(rng.uniform(0.001, 0.05))
    params = SwapParameters.default().replace(
        sigma=float(np.exp(rng.uniform(math.log(0.005), math.log(0.8)))),
        mu=float(r_b + rng.uniform(-0.03, 0.03)),
        alpha_a=float(rng.uniform(0.0, 1.0)),
        alpha_b=float(rng.uniform(0.0, 1.0)),
        r_a=float(rng.uniform(0.001, 0.05)),
        r_b=r_b,
        law=parse_law(_ADVERSARIAL_LAWS[int(rng.integers(len(_ADVERSARIAL_LAWS)))]),
    )
    pstars = np.sort(np.exp(rng.uniform(math.log(0.05), math.log(40.0), 12)))
    return params, float(rng.choice([0.0, 0.3, 1.0, 5.0])), pstars


def test_refiner_converges_quickly_on_adversarial_engine_draws():
    """No engine call runs its refiner to ``max_iter``; none needs more
    than 20 vectorised steps (12 was the most on 300 such draws)."""
    rng = np.random.default_rng(17)
    real = engine.bisect_roots
    steps = []

    def counting(f, lo, hi, *args, **kwargs):
        objective = _Calls(f)
        roots = real(objective, lo, hi, *args, **kwargs)
        if np.size(lo):
            steps.append(objective.calls - 2)  # both bracket ends, then one call a step
        return roots

    with mock.patch.object(engine, "bisect_roots", counting):
        for _ in range(60):
            params, collateral, pstars = _adversarial_draw(rng)
            engine.solve_grid(params, pstars, collateral=collateral)
    assert len(steps) >= 50
    assert max(steps) <= 20


class TestIntervalUnionConstruction:
    def test_empty(self):
        region = IntervalUnion.empty()
        assert region.is_empty
        assert region.total_length() == 0.0

    def test_single(self):
        region = IntervalUnion.single(1.0, 2.0)
        assert len(region) == 1
        assert region.bounds() == (1.0, 2.0)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            IntervalUnion(((2.0, 2.0),))

    def test_rejects_overlapping(self):
        with pytest.raises(ValueError, match="disjoint"):
            IntervalUnion(((1.0, 3.0), (2.0, 4.0)))

    def test_from_intervals_merges_overlaps(self):
        region = IntervalUnion.from_intervals([(1.0, 3.0), (2.0, 4.0), (5.0, 6.0)])
        assert region.intervals == ((1.0, 4.0), (5.0, 6.0))

    def test_from_intervals_drops_degenerate(self):
        region = IntervalUnion.from_intervals([(1.0, 1.0), (2.0, 3.0)])
        assert region.intervals == ((2.0, 3.0),)

    def test_empty_bounds_raises(self):
        with pytest.raises(ValueError):
            IntervalUnion.empty().bounds()


class TestIntervalUnionQueries:
    REGION = IntervalUnion(((1.0, 2.0), (3.0, 4.0)))

    def test_membership(self):
        assert 1.5 in self.REGION
        assert 2.5 not in self.REGION
        assert 3.5 in self.REGION
        # half-open convention: (lo, hi]
        assert 1.0 not in self.REGION
        assert 2.0 in self.REGION

    def test_total_length(self):
        assert self.REGION.total_length() == pytest.approx(2.0)

    def test_probability_under_law(self):
        law = LognormalLaw(spot=2.0, mu=0.0, sigma=0.3, tau=1.0)
        expected = float(
            law.cdf(2.0) - law.cdf(1.0) + law.cdf(4.0) - law.cdf(3.0)
        )
        assert self.REGION.probability(law) == pytest.approx(expected)


class TestIntervalUnionAlgebra:
    A = IntervalUnion(((1.0, 3.0), (5.0, 7.0)))
    B = IntervalUnion(((2.0, 6.0),))

    def test_intersect(self):
        assert self.A.intersect(self.B).intervals == ((2.0, 3.0), (5.0, 6.0))

    def test_intersect_with_empty(self):
        assert self.A.intersect(IntervalUnion.empty()).is_empty

    def test_union(self):
        assert self.A.union(self.B).intervals == ((1.0, 7.0),)

    def test_union_with_empty(self):
        assert self.A.union(IntervalUnion.empty()).intervals == self.A.intervals

    def test_complement_within(self):
        gaps = self.A.complement_within(0.0, 8.0)
        assert gaps.intervals == ((0.0, 1.0), (3.0, 5.0), (7.0, 8.0))

    def test_complement_of_empty_is_window(self):
        gaps = IntervalUnion.empty().complement_within(1.0, 2.0)
        assert gaps.intervals == ((1.0, 2.0),)

    def test_complement_rejects_bad_window(self):
        with pytest.raises(ValueError):
            self.A.complement_within(5.0, 1.0)


interval_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
    ),
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(pairs=interval_lists)
def test_property_from_intervals_normalises(pairs):
    region = IntervalUnion.from_intervals(pairs)
    # disjoint and sorted by construction; validation would raise otherwise
    total = region.total_length()
    raw = sum(max(hi - lo, 0.0) for lo, hi in pairs)
    assert 0.0 <= total <= raw + 1e-9


@settings(max_examples=80, deadline=None)
@given(pairs_a=interval_lists, pairs_b=interval_lists)
def test_property_intersection_is_subset(pairs_a, pairs_b):
    a = IntervalUnion.from_intervals(pairs_a)
    b = IntervalUnion.from_intervals(pairs_b)
    inter = a.intersect(b)
    assert inter.total_length() <= min(a.total_length(), b.total_length()) + 1e-9
    union = a.union(b)
    # inclusion-exclusion
    assert union.total_length() == pytest.approx(
        a.total_length() + b.total_length() - inter.total_length(), abs=1e-6
    )
