import numpy as np
import pytest

from baryblend import NodeSet


class TestEquispaced:
    def test_midpoint_by_symmetry(self):
        nodes = NodeSet.equispaced(-1, 1, 2)
        assert nodes.xs.tolist() == [-1.0, 0.0, 1.0]

    def test_eleven_nodes_spacing_one(self):
        nodes = NodeSet.equispaced(-5, 5, 10)
        assert len(nodes) == 11
        assert np.allclose(np.diff(nodes.xs), 1.0)
        assert nodes.xs[0] == -5.0 and nodes.xs[-1] == 5.0

    def test_arithmetic_progression(self):
        nodes = NodeSet.equispaced(-3, 7, 4)
        assert nodes.xs.tolist() == [-3.0, -0.5, 2.0, 4.5, 7.0]

    def test_reproducible_bit_for_bit(self):
        a = NodeSet.equispaced(-2.3, 4.7, 37)
        b = NodeSet.equispaced(-2.3, 4.7, 37)
        assert np.array_equal(a.xs, b.xs)

    def test_endpoints_exact_even_when_h_rounds(self):
        # 3*(2/3) != 2 in floating point; the endpoint is pinned anyway
        nodes = NodeSet.equispaced(-1, 1, 3)
        assert nodes.xs[-1] == 1.0

    @pytest.mark.parametrize("a,b,n", [(1, 1, 4), (2, 1, 4), (0, 1, 0)])
    def test_invalid_interval(self, a, b, n):
        with pytest.raises(ValueError):
            NodeSet.equispaced(a, b, n)

    def test_non_integral_count_refused(self):
        # int() alone would build n = 2 from 2.7
        with pytest.raises(ValueError, match="integer"):
            NodeSet.equispaced(-1, 1, 2.7)
        assert NodeSet.equispaced(-1, 1, 3.0).n == 3


class TestNodeSetValidation:
    def test_rejects_nonincreasing(self):
        with pytest.raises(ValueError, match="increasing"):
            NodeSet([0.0, 1.0, 1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            NodeSet([0.0, np.inf])

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            NodeSet([1.0])

    def test_spacing_is_not_a_constructor_argument(self):
        # a spacing passed in would select binomial weights for any nodes
        xs = [0.0, 0.05, 0.3, 0.35]
        with pytest.raises(TypeError):
            NodeSet(xs, spacing=0.1)
        assert not NodeSet(xs).is_equispaced
        assert NodeSet.equispaced(0, 1, 4).spacing == 0.25

    def test_nodes_are_immutable(self):
        nodes = NodeSet.equispaced(0, 1, 4)
        with pytest.raises(ValueError):
            nodes.xs[0] = 99.0


class TestSnapping:
    def test_exact_node_snaps(self):
        nodes = NodeSet.equispaced(-5, 5, 10)
        for j in range(11):
            assert nodes.snap_index(float(nodes.xs[j])) == j

    def test_within_tolerance_snaps(self):
        nodes = NodeSet.equispaced(-5, 5, 10)
        x = float(nodes.xs[3])
        assert nodes.snap_index(np.nextafter(x, 99.0)) == 3

    def test_off_node_does_not_snap(self):
        nodes = NodeSet.equispaced(-5, 5, 10)
        assert nodes.snap_index(-4.5) is None
        # just beyond the snap radius
        h = nodes.reference_spacing()
        assert nodes.snap_index(float(nodes.xs[3]) + 1e-12 * h) is None

    def test_vectorized_matches_scalar(self, rng):
        nodes = NodeSet.equispaced(-2, 3, 17)
        xs = np.concatenate([nodes.xs, rng.uniform(-2.5, 3.5, 200)])
        vec = nodes.snap_indices(xs)
        for x, v in zip(xs, vec):
            s = nodes.snap_index(float(x))
            assert (s if s is not None else -1) == v

    def test_snap_outside_interval(self):
        nodes = NodeSet.equispaced(0, 1, 4)
        assert nodes.snap_index(-5.0) is None
        assert nodes.snap_index(5.0) is None

    def test_tie_goes_to_lower_node_and_non_finite_snaps_nowhere(self):
        # 1e-300 / 2 is exactly midway, within both radii (4 eps h)
        nodes = NodeSet([0.0, 1e-300, 1.0])
        x = 1e-300 / 2
        assert nodes.snap_index(x) == 0
        assert nodes.snap_indices([x]).tolist() == [0]
        for x in (-np.inf, np.inf, np.nan):
            assert nodes.snap_index(x) is None
            with np.errstate(invalid="ignore"):     # inf - inf
                assert nodes.snap_indices([x]).tolist() == [-1]
