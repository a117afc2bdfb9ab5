"""Unit tests for the double-description conversion."""

import itertools

from repro.linalg.dd import RAY_BUDGET, cone_generators


def unit(width, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(width))


def box(width):
    """``0 <= x_i <= t`` for each of the first ``width - 1`` coordinates
    of ``(x, t)``: the cone over the unit cube."""
    t = width - 1
    rows = [unit(width, t)]
    for i in range(t):
        rows.append(unit(width, i))
        rows.append(tuple(-1 if j == i else 1 if j == t else 0
                          for j in range(width)))
    return rows


class TestConeGenerators:
    def test_whole_space_is_lines_only(self):
        lines, rays = cone_generators([], [], 3)
        assert len(lines) == 3
        assert rays == []

    def test_half_space(self):
        lines, rays = cone_generators([], [(1, 1)], 2)
        assert len(lines) == 1
        assert rays == [(1, 0)] or rays == [(0, 1)]

    def test_equality_removes_a_line(self):
        lines, rays = cone_generators([(1, -1, 0)], [], 3)
        assert len(lines) == 2 and rays == []
        assert all(line[0] == line[1] for line in lines)

    def test_orthant_rays_are_the_unit_vectors(self):
        inequalities = [unit(3, i) for i in range(3)]
        lines, rays = cone_generators([], inequalities, 3)
        assert lines == []
        assert sorted(rays) == sorted(unit(3, i) for i in range(3))

    def test_square_has_four_vertices(self):
        lines, rays = cone_generators([], box(3), 3)
        assert lines == []
        assert sorted(rays) == sorted(
            (x, y, 1) for x, y in itertools.product((0, 1), repeat=2)
        )

    def test_rays_are_gcd_normalized(self):
        # 2x - y >= 0, -x + 2y >= 0 in the plane: rays (1, 2) and (2, 1).
        lines, rays = cone_generators([], [(2, -1), (-1, 2)], 2)
        assert lines == []
        assert sorted(rays) == [(1, 2), (2, 1)]

    def test_degenerate_vertex_keeps_only_extreme_rays(self):
        # The unit square prism cut by x + y + z <= 2: four facets meet
        # at the vertex (1, 1, 0), one more than the dimension needs.
        inequalities = [
            (1, 0, 0, 0), (0, 1, 0, 0), (-1, 0, 0, 1), (0, -1, 0, 1),
            (0, 0, 1, 0), (-1, -1, -1, 2),
        ]
        lines, rays = cone_generators([], inequalities, 4)
        assert lines == []
        assert len(rays) == 7 and len(set(rays)) == 7
        for ray in rays:
            assert all(sum(a * r for a, r in zip(row, ray)) >= 0
                       for row in inequalities)

    def test_infeasible_slice_has_no_ray_with_t(self):
        # x >= t and x <= -t with t >= 0 leaves only t = 0.
        _, rays = cone_generators([], [(0, 1), (1, -1), (-1, -1)], 2)
        assert all(ray[-1] == 0 for ray in rays)

    def test_budget(self):
        cube6 = cone_generators([], box(7), 7)
        assert cube6 is not None and len(cube6[1]) == 64 == RAY_BUDGET
        assert cone_generators([], box(8), 8) is None
