import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incontext as ic
from incontext.errors import (
    EmptyMeasure,
    EmptySequence,
    LengthMismatch,
    MapUndefinedAtAtom,
    NonpositiveWeight,
    NotRationalGrid,
    PointOutsideBox,
    SupportTooLarge,
)
from incontext.measures import relocate

from helpers import gap_oracle_literal, gap_oracle_signed, random_measure, random_stack, reference_canonicalize


# tie-heavy weights: shared values whose sums collide, plus arbitrary ones
WEIGHT = st.one_of(st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0]), st.floats(1e-3, 2.0))


def box1():
    return ic.default_box(1)


class TestNewDiscrete:
    def test_single_atom(self):
        mu = ic.new_discrete([[0.0]], [1.0], box1())
        assert mu.n == 1
        assert mu.total_mass == 1.0
        assert np.array_equal(mu.points, [[0.0]])

    def test_uniform_pair(self):
        mu = ic.new_discrete([[0.0], [2.0]], [0.5, 0.5], box1())
        assert mu.n == 2
        assert mu.total_mass == 1.0

    def test_rejects_negative_weight(self):
        with pytest.raises(NonpositiveWeight):
            ic.new_discrete([[1.0]], [-1.0], box1())

    def test_rejects_zero_weight(self):
        with pytest.raises(NonpositiveWeight):
            ic.new_discrete([[1.0]], [0.0], box1())

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ic.new_discrete([[1.0], [2.0]], [1.0], box1())

    def test_rejects_point_outside_box(self):
        with pytest.raises(PointOutsideBox):
            ic.new_discrete([[4.0]], [1.0], box1())

    def test_rejects_empty(self):
        with pytest.raises(EmptyMeasure):
            ic.new_discrete(np.zeros((0, 1)), [], box1())

    def test_rejects_empty_lists(self):
        with pytest.raises(EmptyMeasure):
            ic.new_discrete([], [])

    def test_arrays_are_read_only(self):
        mu = ic.new_discrete([[0.0]], [1.0], box1())
        with pytest.raises(ValueError):
            mu.points[0, 0] = 5.0


class TestCanonicalize:
    def test_merges_duplicates(self):
        mu = ic.new_discrete([[0.0], [0.0]], [0.5, 0.5], box1())
        c = ic.canonicalize(mu)
        assert c.n == 1
        assert c.weights[0] == 1.0

    def test_sorts_lexicographically(self):
        mu = ic.new_discrete([[2.0], [1.0]], [1.0 / 3.0, 2.0 / 3.0], box1())
        c = ic.canonicalize(mu)
        assert np.array_equal(c.points.ravel(), [1.0, 2.0])
        assert np.array_equal(c.weights, [2.0 / 3.0, 1.0 / 3.0])

    def test_idempotent_on_canonical_input(self):
        mu = ic.canonicalize(ic.new_discrete([[1.0], [2.0]], [0.3, 0.7], box1()))
        again = ic.canonicalize(mu)
        assert again == mu

    def test_idempotent_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            mu = random_measure(rng, n, int(rng.integers(1, 4)))
            once = ic.canonicalize(mu)
            assert ic.canonicalize(once) == once

    def test_merge_sum_independent_of_input_order(self):
        # three identical atoms with different weights in every input order
        w = [0.1, 0.2, 0.7]
        results = []
        for order in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
            mu = ic.new_discrete([[1.0]] * 3, [w[i] for i in order], box1())
            results.append(ic.canonicalize(mu).weights[0])
        assert results[0] == results[1] == results[2]

    def test_near_duplicates_stay_apart(self):
        mu = ic.new_discrete([[0.0, 0.0], [1e-10, 0.0]], [0.5, 0.5])
        assert ic.canonicalize(mu).n == 2

    def test_signed_zero_merges_to_positive_zero(self):
        a = ic.canonicalize(ic.new_discrete([[0.0], [-0.0]], [0.25, 0.75], box1()))
        b = ic.canonicalize(ic.new_discrete([[-0.0], [0.0]], [0.75, 0.25], box1()))
        assert a.points.tobytes() == b.points.tobytes() == np.array([[0.0]]).tobytes()
        assert a.weights.tobytes() == b.weights.tobytes() == np.array([1.0]).tobytes()

    def test_matches_exact_merge_scan(self):
        rng = np.random.default_rng(7)
        large_groups = 0
        for trial in range(400):
            d = int(rng.integers(1, 4))
            base = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 8)), d))
            copies = [base]
            for _ in range(int(rng.integers(0, 4))):
                # near-duplicates 1e-10 to 1.1e-9 apart, which stay separate atoms
                shift = np.zeros_like(base)
                axis = rng.integers(d, size=base.shape[0])
                shift[np.arange(base.shape[0]), axis] = rng.uniform(1e-10, 1.1e-9, size=base.shape[0])
                copies.append(copies[-1] + shift * rng.choice([-1.0, 1.0], size=(base.shape[0], 1)))
            distinct = np.vstack(copies)
            # exact duplicates: groups of 8 or more meet np.sum's pairwise blocking
            copies_per_row = rng.integers(1, 21, size=distinct.shape[0])
            large_groups += int(np.sum(copies_per_row >= 8))
            pts = np.repeat(distinct, copies_per_row, axis=0)
            w = rng.uniform(0.2, 1.0, size=pts.shape[0]) * rng.choice([1e-3, 1.0, 1e3], size=pts.shape[0])
            perm = rng.permutation(pts.shape[0])
            mu = ic.new_discrete(pts[perm], w[perm])
            got, want = ic.canonicalize(mu), reference_canonicalize(mu)
            assert got.n == distinct.shape[0]
            assert got.points.tobytes() == want.points.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.is_canonical
        assert large_groups > 100


class TestPushForward:
    def test_identity(self):
        mu = ic.canonicalize(ic.new_discrete([[0.5], [1.5]], [0.4, 0.6], box1()))
        assert ic.push_forward(mu, lambda p: p) == mu

    def test_shift(self):
        nu = ic.push_forward(ic.dirac([0.0]), lambda p: p + 1.0)
        assert np.array_equal(nu.points, [[1.0]])
        assert nu.total_mass == 1.0

    def test_square_merges_atoms(self):
        mu = ic.new_discrete([[-1.0], [1.0]], [0.5, 0.5], box1())
        nu = ic.push_forward(mu, lambda p: p**2)
        assert nu.n == 1
        assert nu.points[0, 0] == 1.0
        assert nu.weights[0] == 1.0

    def test_mass_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            mu = random_measure(rng, int(rng.integers(1, 10)), 2)
            nu = ic.push_forward(mu, lambda p: np.sin(p) + 0.2 * p)
            assert abs(nu.total_mass - mu.total_mass) <= 1e-12 * mu.total_mass

    def test_map_failure_is_domain_error(self):
        mu = ic.dirac([1.0])
        with pytest.raises(ic.DomainError):
            ic.push_forward(mu, lambda p: np.array([np.nan]))
        with pytest.raises(ic.DomainError):
            ic.push_forward(mu, lambda p: 1 / 0)

    def test_map_called_once_on_all_atoms(self):
        mu = ic.new_discrete([[0.5], [1.5], [2.0]], [0.2, 0.3, 0.5], box1())
        shapes = []
        ic.push_forward(mu, lambda X: (shapes.append(X.shape), X + 0.1)[1])
        assert shapes == [(3, 1)]

    def test_ragged_images_are_domain_error(self):
        # images of unequal length, from a map that takes one point or rows
        mu = ic.new_discrete([[-1.0], [1.0], [2.0]], [0.2, 0.3, 0.5], box1())
        with pytest.raises(MapUndefinedAtAtom):
            ic.push_forward(mu, lambda X: [x if x[0] > 0 else np.array([1.0, 2.0]) for x in np.atleast_2d(X)])

    def test_wrong_row_count_is_domain_error(self):
        mu = ic.new_discrete([[-1.0], [1.0], [2.0]], [0.2, 0.3, 0.5], box1())
        with pytest.raises(MapUndefinedAtAtom):
            ic.push_forward(mu, lambda X: X[:2])

    def test_into_another_dimension(self):
        # the output box is the images' own bounding box, not a hull with the input box
        mu = ic.new_discrete([[0.5, -1.0], [-0.25, 2.0], [1.0, 0.0]], [0.25, 0.5, 0.25])
        nu = ic.push_forward(mu, lambda X: X[:, :1] + X[:, 1:])
        assert nu.dim == 1
        assert nu.points.tolist() == [[-0.5], [1.0], [1.75]]
        assert nu.weights.tolist() == [0.25, 0.25, 0.5]
        assert nu.box == ic.Box(np.array([-0.5]), np.array([1.75]))

    def test_box_expands_when_needed(self):
        mu = ic.dirac([2.5])
        nu = ic.push_forward(mu, lambda p: p + 2.0)
        assert nu.box.contains(nu.points)


class TestAddAtom:
    @pytest.mark.parametrize("mass", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_nonpositive_or_non_finite_mass(self, mass):
        with pytest.raises(NonpositiveWeight):
            ic.add_atom(ic.dirac([0.0]), [1.0], mass)


class TestGap:
    def test_single_weight(self):
        assert ic.gap(ic.dirac([0.0])) == 1.0

    def test_equal_pair(self):
        mu = ic.new_discrete([[0.0], [1.0]], [1.0, 1.0], box1())
        assert ic.gap(mu) == 0.0

    def test_powers_of_two_like(self):
        mu = ic.new_discrete([[0.0], [1.0], [2.0]], [1.0, 2.0, 4.0], box1())
        # frozen from the exhaustive oracle: min |sum_J - sum_K| = 1
        assert gap_oracle_literal([1.0, 2.0, 4.0]) == 1.0
        assert ic.gap(mu) == 1.0

    def test_strict_reading_single_atom(self):
        assert ic.gap_strict(ic.dirac([0.0])) == np.inf
        assert ic.is_dif(ic.dirac([0.0]))

    def test_cap(self):
        n = 21
        mu = ic.new_discrete(np.linspace(-2, 2, n)[:, None], np.ones(n), box1())
        with pytest.raises(SupportTooLarge):
            ic.gap(mu)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_agrees_with_literal_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            w = rng.uniform(0.05, 2.0, size=n)
            mu = ic.new_discrete(rng.uniform(-2, 2, size=(n, 1)), w, box1())
            assert abs(ic.gap(mu) - gap_oracle_literal(w)) <= 1e-12
            strict = gap_oracle_literal(w, require_nonempty_k=True)
            got = ic.gap_strict(mu)
            assert got == strict or abs(got - strict) <= 1e-12

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_agrees_with_signed_oracle(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(3):
            w = rng.uniform(0.05, 2.0, size=n)
            mu = ic.new_discrete(rng.uniform(-2, 2, size=(n, 1)), w, box1())
            assert abs(ic.gap(mu) - gap_oracle_signed(w)) <= 1e-12
            strict = gap_oracle_signed(w, require_nonempty_k=True)
            assert abs(ic.gap_strict(mu) - strict) <= 1e-12

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(WEIGHT, min_size=1, max_size=7))
    def test_gap_is_min_weight_or_strict_gap(self, weights):
        # with K empty every sum is at least its smallest term and one term
        # gives a weight exactly, so the literal enumeration agrees bitwise
        w = np.array(weights)
        mu = ic.new_discrete(0.1 * np.arange(w.size)[:, None], w, box1())
        want = gap_oracle_literal(weights)
        assert want == min(min(weights), gap_oracle_literal(weights, require_nonempty_k=True))
        assert ic.gap(mu) == min(float(np.min(w)), ic.gap_strict(mu))
        assert abs(ic.gap(mu) - want) <= 1e-12

    def test_degenerate_cases_found(self):
        # 0.3 + 0.4 == 0.7 exactly in the reals but not in binary; use halves
        mu = ic.new_discrete([[0.0], [1.0], [2.0]], [0.25, 0.25, 0.5], box1())
        assert ic.gap(mu) == 0.0
        assert not ic.is_dif(mu)


class TestScaled:
    @pytest.mark.parametrize("s", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_nonpositive_or_non_finite_factor(self, s):
        with pytest.raises(NonpositiveWeight):
            ic.dirac([0.0]).scaled(s)


class TestMakeDif:
    @pytest.mark.parametrize("eps", [0.0, np.nan, np.inf])
    def test_rejects_nonpositive_or_non_finite_eps(self, eps):
        mu = ic.new_discrete([[0.0], [1.0]], [0.5, 0.5], box1())
        with pytest.raises(NonpositiveWeight):
            ic.make_dif(mu, eps, seed=0)

    def test_equal_pair_perturbs_within_bounds(self):
        mu = ic.new_discrete([[0.0], [1.0]], [0.5, 0.5], box1())
        out = ic.make_dif(mu, 0.01, seed=0)
        assert ic.gap_strict(out) > 0.0
        assert np.all(np.abs(out.weights - 0.5) < 0.005)

    def test_already_distinct_returned_unchanged(self):
        mu = ic.canonicalize(
            ic.new_discrete([[0.0], [1.0], [2.0]], [1.0, 2.0, 4.0], box1())
        )
        assert ic.make_dif(mu, 0.1, seed=3) == mu

    def test_single_atom_unchanged(self):
        mu = ic.canonicalize(ic.dirac([0.5]))
        assert ic.make_dif(mu, 1e-6, seed=9) == mu

    def test_deterministic_given_seed(self):
        mu = ic.new_discrete([[0.0], [1.0], [2.0]], [0.5, 0.5, 1.0], box1())
        a = ic.make_dif(mu, 1e-3, seed=7)
        b = ic.make_dif(mu, 1e-3, seed=7)
        assert a == b

    def test_randomized_contract(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            n = int(rng.integers(1, 11))
            w = rng.choice([0.25, 0.5, 0.75, 1.0], size=n)
            mu = ic.new_discrete(rng.uniform(-2, 2, size=(n, 1)), w, box1())
            out = ic.make_dif(mu, 1e-3, seed=trial)
            assert ic.is_dif(out)
            assert ic.w1_extended(ic.canonicalize(mu), out) < 1e-3


class TestIota:
    def test_two_tokens(self):
        mu = ic.iota(ic.new_tokens([[0.0], [1.0]]))
        assert np.array_equal(mu.points.ravel(), [0.0, 1.0])
        assert np.array_equal(mu.weights, [0.5, 0.5])

    def test_repeat_merges(self):
        mu = ic.iota(ic.new_tokens([[0.0], [0.0]]))
        assert mu.n == 1
        assert mu.weights[0] == 1.0

    def test_multiplicities(self):
        mu = ic.iota(ic.new_tokens([[2.0], [1.0], [1.0], [0.0]]))
        assert np.array_equal(mu.points.ravel(), [0.0, 1.0, 2.0])
        assert np.array_equal(mu.weights, [0.25, 0.5, 0.25])

    def test_inverse_simple(self):
        d0 = ic.canonicalize(ic.dirac([0.0]))
        seq = ic.iota_inv(d0, 2)
        assert np.array_equal(seq.tokens, [[0.0], [0.0]])
        pair = ic.iota(ic.new_tokens([[0.0], [1.0]]))
        seq = ic.iota_inv(pair, 2)
        assert np.array_equal(seq.tokens, [[0.0], [1.0]])

    @pytest.mark.parametrize("tokens", [[], [[]], np.zeros((0, 2))])
    def test_empty_token_list_rejected(self, tokens):
        with pytest.raises(EmptySequence):
            ic.new_tokens(tokens)

    def test_inverse_rejects_offgrid(self):
        mu = ic.new_discrete([[0.0], [1.0]], [0.25, 0.75], box1())
        with pytest.raises(NotRationalGrid):
            ic.iota_inv(mu, 3)

    def test_roundtrip_exhaustive_small(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(-2, 2, size=4)
        for n in range(1, 9):
            for _ in range(10):
                toks = rng.choice(values, size=(n, 1))
                seq = ic.new_tokens(toks)
                back = ic.iota_inv(ic.iota(seq), n)
                expected = toks[np.lexsort(toks.T[::-1])]
                assert np.array_equal(back.tokens, expected)


class TestBox:
    def test_default(self):
        b = ic.default_box(3)
        assert np.array_equal(b.lo, [-3.0, -3.0, -3.0])
        assert np.array_equal(b.hi, [3.0, 3.0, 3.0])

    def test_hull(self):
        b = ic.default_box(1).hull(np.array([[5.0]]))
        assert b.contains(np.array([[5.0], [-3.0]]))

    def test_hull_of_contained_points_is_the_box_itself(self):
        b = ic.default_box(2)
        assert b.hull(np.array([[0.0, 1.0], [-3.0, 3.0]])) is b
        assert b.hull(np.array([0.5, -0.5])) is b
        assert b.hull(np.array([[0.0, 3.5]])) is not b


def _carrier_arrays(carrier):
    """Every array a carrier holds, its box corners included."""
    if isinstance(carrier, ic.Box):
        return [carrier.lo, carrier.hi]
    if isinstance(carrier, ic.TokenSequence):
        return [carrier.tokens, *_carrier_arrays(carrier.box)]
    if isinstance(carrier, ic.Trajectory):
        return [carrier.times, carrier.points, carrier.weights, *_carrier_arrays(carrier.box)]
    return [carrier.points, carrier.weights, *_carrier_arrays(carrier.box)]


class TestOwnership:
    """The validated edges copy the caller's arrays once and never change their
    flags; every array of a returned carrier is read-only."""

    @pytest.mark.parametrize("writeable", [True, False])
    def test_box_copies_the_corners(self, writeable):
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 2.0])
        lo.flags.writeable = hi.flags.writeable = writeable
        box = ic.Box(lo, hi)
        assert lo.flags.writeable is writeable and hi.flags.writeable is writeable
        if writeable:
            lo[0], hi[1] = -5.0, 5.0
        assert box.lo.tolist() == [-1.0, -1.0] and box.hi.tolist() == [1.0, 2.0]
        assert not box.lo.flags.writeable and not box.hi.flags.writeable

    @pytest.mark.parametrize("writeable", [True, False])
    def test_new_discrete_copies_points_and_weights(self, writeable):
        pts, w = np.array([[0.5, 0.0], [0.0, 0.5]]), np.array([0.25, 0.75])
        pts.flags.writeable = w.flags.writeable = writeable
        mu = ic.new_discrete(pts, w)
        assert pts.flags.writeable is writeable and w.flags.writeable is writeable
        if writeable:
            pts[0, 0], w[1] = 9.0, 9.0
        assert mu.points.tolist() == [[0.5, 0.0], [0.0, 0.5]] and mu.weights.tolist() == [0.25, 0.75]

    @pytest.mark.parametrize("writeable", [True, False])
    def test_new_tokens_copies_the_tokens(self, writeable):
        toks = np.array([[0.5], [-1.0], [0.5]])
        toks.flags.writeable = writeable
        seq = ic.new_tokens(toks)
        assert toks.flags.writeable is writeable
        if writeable:
            toks[1, 0] = 9.0
        assert seq.tokens.tolist() == [[0.5], [-1.0], [0.5]]

    def test_push_forward_keeps_the_maps_array(self):
        mu = ic.new_discrete([[0.0], [1.0]], [0.5, 0.5])
        images = np.array([[2.0], [-2.0]])
        nu = ic.push_forward(mu, lambda X: images)
        assert images.flags.writeable
        images[:] = 0.0
        assert nu.points.tolist() == [[-2.0], [2.0]]
        # a map that hands back the (read-only) atoms themselves leaves them read-only
        assert ic.push_forward(mu, lambda X: X) == mu
        assert not mu.points.flags.writeable

    def test_every_returned_array_is_read_only(self):
        rng = np.random.default_rng(40)
        mu = random_measure(rng, 4, 2)
        seq = ic.new_tokens([[0.5, 0.0], [0.5, 0.0], [-1.0, 1.0]])
        stack = random_stack(rng, 2, depth=2)
        traj = ic.euler_flow(ic.VelocityField.from_stack(stack), mu, 3)
        carriers = [
            ic.default_box(2),
            ic.default_box(2).hull(np.array([[4.0, 0.0]])),
            ic.default_box(2).enlarged(0.5),
            mu,
            ic.dirac([0.25, 0.5]),
            ic.canonicalize(mu),
            mu.normalized(),
            mu.scaled(2.0),
            ic.push_forward(mu, lambda X: 2.0 * X),
            relocate(mu, mu.points[:, ::-1]),
            ic.add_atom(mu, np.array([0.1, 0.2]), 0.5),
            ic.make_dif(ic.new_discrete([[0.0], [1.0]], [0.5, 0.5]), 1e-3, 0),
            seq,
            ic.iota(seq),
            ic.iota_inv(ic.iota(seq), 3),
            ic.forward_measure(stack, mu),
            ic.forward_tokens(stack, seq),
            traj,
            traj.final,
            *traj.states,
        ]
        for carrier in carriers:
            for arr in _carrier_arrays(carrier):
                assert not arr.flags.writeable, carrier
