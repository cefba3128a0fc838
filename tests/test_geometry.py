import numpy as np
import pytest

from competelab.geometry import (Grid, DomainMask, build_disc, build_rectangle,
                                 build_wedge, scale_mask)


def count_rectangle_nodes(width, height, h):
    """Independent enumeration: lattice nodes strictly inside the rectangle."""
    n = 0
    i = 0
    while i * h < width + h:
        j = 0
        while j * h < height + h:
            if 0 < i * h < width and 0 < j * h < height:
                n += 1
            j += 1
        i += 1
    return n


class TestRectangle:
    def test_single_center_node(self):
        m = build_rectangle(1, 1, 0.5)
        assert m.n_interior == 1
        assert m.measure == 0.25
        assert (m.grid.nx, m.grid.ny) == (3, 3)

    def test_measure_refines_to_area(self):
        prev_gap = None
        for h in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
            m = build_rectangle(1, 1, h)
            gap = abs(m.measure - 1.0)
            assert gap <= 2.1 * h
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap

    def test_count_oracle_2x1(self):
        m = build_rectangle(2, 1, 0.05)
        oracle = count_rectangle_nodes(2, 1, 0.05)
        assert oracle == 741
        assert m.n_interior == oracle
        assert m.measure == pytest.approx(0.05 ** 2 * oracle)
        # staircase shrinkage is ~h*(W+H): 7.4% here, the h->0 limit is 2
        assert abs(m.measure - 2.0) / 2.0 < 0.08

    def test_measure_is_exactly_h2_times_count(self):
        for w, ht, h in ((1, 1, 0.2), (2, 1, 0.13), (0.7, 1.9, 0.05)):
            m = build_rectangle(w, ht, h)
            assert m.measure == m.h ** 2 * m.n_interior

    def test_mirror_symmetry(self):
        for w, ht, h in ((1, 1, 0.1), (2, 1, 0.05)):
            m = build_rectangle(w, ht, h)
            assert np.array_equal(m.interior, m.interior[::-1, :])
            assert np.array_equal(m.interior, m.interior[:, ::-1])

    def test_too_coarse(self):
        with pytest.raises(ValueError):
            build_rectangle(0.5, 1.0, 0.3)


class TestDisc:
    def test_measure_near_pi(self):
        m = build_disc(1.0, 0.02)
        assert abs(m.measure - np.pi) / np.pi < 0.02

    def test_minimal_radius_has_interior(self):
        h = 0.1
        m = build_disc(3 * h, h)
        assert m.n_interior >= 1

    def test_reflection_symmetry(self):
        m = build_disc(1.0, 0.01)
        assert np.array_equal(m.interior, m.interior[::-1, :])
        assert np.array_equal(m.interior, m.interior[:, ::-1])

    @pytest.mark.parametrize("h", [1 / 12, 1 / 16, 1 / 32, 1 / 64, 1 / 100, 1 / 128],
                             ids=str)
    def test_mirror_symmetry_across_meshes(self, h):
        m = build_disc(1.0, h)
        assert np.array_equal(m.interior, m.interior[::-1, :])
        assert np.array_equal(m.interior, m.interior[:, ::-1])

    def test_count_oracle(self):
        r, h = 0.5, 0.05
        m = build_disc(r, h)
        half = (m.grid.nx - 1) // 2
        n = 0
        for i in range(m.grid.nx):
            for j in range(m.grid.ny):
                x, y = (i - half) * h, (j - half) * h
                if x * x + y * y < r * r:
                    n += 1
        assert m.n_interior == n

    def test_too_coarse(self):
        with pytest.raises(ValueError):
            build_disc(0.2, 0.1)


class TestWedge:
    def test_measure_near_triangle_area(self):
        m = build_wedge(2.0, 0.01)
        assert abs(m.measure - 0.5) / 0.5 < 0.03

    def test_vertex_on_boundary(self):
        m = build_wedge(2.0, 0.02)
        X, Y = m.grid.node_coords()
        at_origin = (np.abs(X) < 1e-12) & (np.abs(Y) < 1e-12)
        assert at_origin.sum() == 1
        assert not m.interior[at_origin].any()
        assert np.all(m.xs > 0)

    @pytest.mark.parametrize("h", [1 / 32, 1 / 128], ids=str)
    def test_mirror_symmetry(self, h):
        m = build_wedge(2.0, h)
        assert np.array_equal(m.interior, m.interior[:, ::-1])

    def test_aperture_precondition(self):
        with pytest.raises(ValueError):
            build_wedge(1.0, 0.02)
        with pytest.raises(ValueError):
            build_wedge(0.5, 0.02)

    def test_mesh_precondition(self):
        with pytest.raises(ValueError):
            build_wedge(2.0, 0.1)

    @pytest.mark.parametrize("delta", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_scaling_gives_subset(self, delta):
        m = build_wedge(2.0, 0.02)
        s = scale_mask(m, delta)
        assert np.all(~s.interior | m.interior)

    def test_scaling_near_one_still_subset(self):
        m = build_wedge(1.5, 0.02)
        s = scale_mask(m, 0.999)
        assert np.all(~s.interior | m.interior)


SCALABLE = [lambda: build_disc(1.0, 1 / 16), lambda: build_wedge(2.0, 1 / 48)]


class TestScaleMask:
    def test_disc_subset(self):
        m = build_disc(1.0, 0.05)
        s = scale_mask(m, 0.5)
        assert np.all(~s.interior | m.interior)
        assert s.measure < m.measure

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -0.1])
    def test_ratio_out_of_range(self, delta):
        m = build_disc(1.0, 0.05)
        with pytest.raises(ValueError):
            scale_mask(m, delta)

    def test_rectangle_not_scalable(self):
        m = build_rectangle(1, 1, 0.1)
        with pytest.raises(ValueError):
            scale_mask(m, 0.5)

    @pytest.mark.parametrize("build", SCALABLE, ids=["disc", "wedge"])
    def test_scalings_compose(self, build):
        # Halving twice is scaling by a quarter, not halving once.
        m = build()
        twice = scale_mask(scale_mask(m, 0.5), 0.5)
        once = scale_mask(m, 0.25)
        assert np.array_equal(twice.interior, once.interior)
        assert twice.params == once.params
        assert twice.n_interior < scale_mask(m, 0.5).n_interior

    @pytest.mark.parametrize("build", SCALABLE, ids=["disc", "wedge"])
    def test_contains_is_the_scaled_region(self, build):
        s = scale_mask(build(), 0.5)
        assert s.contains(0.4, 0.0) and not s.contains(0.6, 0.0)
        assert np.all(s.contains(s.xs, s.ys))


class TestMaskStructure:
    def test_neighbors_present_for_all_interior(self):
        m = build_disc(0.5, 0.05)
        nbr = m.neighbors
        assert nbr.shape == (m.n_interior, 4)
        # boundary-adjacent nodes have -1 entries, none point out of range
        assert nbr.max() < m.n_interior

    def test_rim_guard(self):
        g = Grid(5, 5, 0.1)
        interior = np.zeros((5, 5), dtype=bool)
        interior[0, 2] = True
        with pytest.raises(ValueError):
            DomainMask(g, interior)

    def test_empty_interior_rejected(self):
        g = Grid(5, 5, 0.1)
        with pytest.raises(ValueError):
            DomainMask(g, np.zeros((5, 5), dtype=bool))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(3, 3, 0.0)
        with pytest.raises(ValueError):
            Grid(2, 2, 0.1)

    def test_custom_mask_has_no_region(self):
        g = Grid(5, 5, 0.1)
        interior = np.zeros((5, 5), dtype=bool)
        interior[2, 2] = True
        m = DomainMask(g, interior)
        with pytest.raises(ValueError):
            m.contains(0.0, 0.0)
