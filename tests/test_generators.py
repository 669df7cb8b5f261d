"""Witness families: circles, tori, wedges, products, presentations."""
import pytest

from hcwr import complexes, generators
from hcwr import (FieldSpec, LabeledComplex, betti1, build_complex,
                  circle_tent_labeling, euler_characteristic, generate_circle,
                  generate_torus, hcwr_value, labeled_torus,
                  maximal_simplices, presentation_complex, product_complex,
                  pullback_labeling, spread_wedge, tent_labeling,
                  validate_labeling, wedge)
from hcwr.generators import parse_relator, torus_coordinate

Q = FieldSpec.rationals()
F3 = FieldSpec.prime(3)


class TestCircle:
    def test_counts(self):
        K = generate_circle(5)
        assert K.vertex_count == 5 and len(K.edges) == 5
        assert euler_characteristic(K) == 0
        assert betti1(K, Q) == 1

    def test_too_small(self):
        with pytest.raises(ValueError, match="needs m >= 3"):
            generate_circle(2)

    def test_tent_is_valid(self):
        for m in range(3, 10):
            K = generate_circle(m)
            assert validate_labeling(K, circle_tent_labeling(m)) == []


class TestTorus:
    def test_counts_k2_n3(self):
        K = generate_torus(2, 3)
        assert K.vertex_count == 9
        assert len(K.edges) == 27
        assert sum(len(s) == 3 for s in K.simplices) == 18
        assert euler_characteristic(K) == 0
        assert betti1(K, Q) == 2

    def test_counts_k2_n4(self):
        K = generate_torus(2, 4)
        assert K.vertex_count == 16
        assert euler_characteristic(K) == 0
        assert betti1(K, Q) == 2

    def test_resolution_floor(self):
        with pytest.raises(ValueError, match="needs n >= 3"):
            generate_torus(2, 2)

    def test_coordinates_round_trip(self):
        k, n = 3, 4
        for v in range(n ** k):
            coords = [torus_coordinate(v, k, n, ax) for ax in range(k)]
            rebuilt = 0
            for c in coords:
                rebuilt = rebuilt * n + c
            assert rebuilt == v
        with pytest.raises(ValueError, match="axis 3 outside"):
            torus_coordinate(0, k, n, 3)

    def test_tent_valid_any_axis(self):
        K = generate_torus(2, 5)
        for axis in range(2):
            assert validate_labeling(K, tent_labeling(2, 5, axis)) == []
        with pytest.raises(ValueError, match="axis 2 outside"):
            tent_labeling(2, 5, 2)

    def test_tent_axis_symmetry(self):
        # the two axes are related by a grid symmetry, so the value agrees
        K = generate_torus(2, 4)
        vals = [hcwr_value(K, tent_labeling(2, 4, ax), Q).max_rank
                for ax in range(2)]
        assert vals == [1, 1]


class TestWedge:
    def test_counts_and_betti(self):
        K = wedge(generate_circle(4), 0, generate_circle(5), 2)
        assert K.vertex_count == 4 + 5 - 1
        assert betti1(K, Q) == 2
        assert euler_characteristic(K) == -1


class TestSpreadWedge:
    def _hexa(self):
        return LabeledComplex(generate_circle(6), circle_tent_labeling(6))

    def test_labels_valid_and_width_zero(self):
        sw = spread_wedge(self._hexa(), 0, self._hexa(), 0, arc_len=5)
        assert sw.complex.vertex_count == 6 + 6 + 5 - 1
        assert validate_labeling(sw.complex, sw.labeling) == []
        assert hcwr_value(sw.complex, sw.labeling, Q).max_rank == 0

    def test_arc_too_short(self):
        with pytest.raises(ValueError, match="cannot lift"):
            spread_wedge(self._hexa(), 0, self._hexa(), 0, arc_len=3)
        with pytest.raises(ValueError, match="at least one edge"):
            spread_wedge(self._hexa(), 0, self._hexa(), 0, arc_len=0)

    def test_torus_pair_takes_max(self):
        t = labeled_torus(2, 4)
        sw = spread_wedge(t, 0, labeled_torus(2, 4), 0, arc_len=4)
        assert betti1(sw.complex, Q) == 4
        assert hcwr_value(sw.complex, sw.labeling, Q).max_rank == 1


class TestProduct:
    def test_square_torus(self):
        c4 = generate_circle(4)
        P = product_complex(c4, c4)
        assert P.vertex_count == 16
        assert euler_characteristic(P) == 0
        assert betti1(P, Q) == 2

    def test_simplex_product_staircases(self):
        # one simplex per monotone path through a 3 x 4 grid: C(5, 2)
        P = product_complex(build_complex([range(3)], 3),
                            build_complex([range(4)], 4))
        assert len(maximal_simplices(P)) == 10
        assert P.dim == 5

    def test_pullback_labeling(self):
        c4 = generate_circle(4)
        P = product_complex(c4, c4)
        f = pullback_labeling(circle_tent_labeling(4), 4)
        assert validate_labeling(P, f) == []
        assert hcwr_value(P, f, Q).max_rank == 1


class TestPresentation:
    def test_parse_relator(self):
        assert parse_relator("aaa", 1) == [1, 1, 1]
        assert parse_relator("abAB", 2) == [1, 2, -1, -2]
        with pytest.raises(ValueError):
            parse_relator("ab", 1)
        with pytest.raises(ValueError):
            parse_relator("a1", 1)
        assert parse_relator("zZ", 26) == [26, -26]
        # only the ASCII letters name generators, whatever their count
        for ch in "ßµäÄé":
            for g in (1, 26, 200):
                with pytest.raises(ValueError,
                                   match=f"^bad relator character {ch!r}$"):
                    parse_relator("a" + ch, g)

    def test_moore_space(self):
        P = presentation_complex(1, [parse_relator("aaa", 1)])
        assert P.vertex_count == 13  # base + 2 + ring 9 + cone
        assert euler_characteristic(P) == 1
        assert betti1(P, F3) == 1
        assert betti1(P, Q) == 0

    def test_commutator_torus(self):
        P = presentation_complex(2, [parse_relator("abAB", 2)])
        assert betti1(P, Q) == 2
        assert euler_characteristic(P) == 0

    def test_no_generators(self):
        with pytest.raises(ValueError, match="at least one generator"):
            presentation_complex(0, [])

    def test_bad_relators(self):
        with pytest.raises(ValueError, match="empty relator"):
            presentation_complex(1, [[]])
        with pytest.raises(ValueError):
            presentation_complex(1, [[2]])


@pytest.mark.parametrize("make, faces", [
    (lambda: generate_circle(10), 30),
    (lambda: presentation_complex(2, [parse_relator("a", 2),
                                      parse_relator("abAB", 2)]), 333),
    # 9 squares of 2 triangles
    (lambda: generate_torus(2, 3), 126),
    # 4 edges and 18 triangles
    (lambda: wedge(generate_circle(4), 0, generate_torus(2, 3), 0), 138),
    # two hexagons and 5 arc edges
    (lambda: spread_wedge(*[LabeledComplex(generate_circle(6),
                                           circle_tent_labeling(6)), 0] * 2,
                          5), 51),
    # a triangle by 3 edges (3 paths of 4 vertices each) and an edge by
    # 3 edges (2 paths of 3 vertices each)
    (lambda: product_complex(build_complex([(0, 1, 2), (2, 3)], 4),
                             generate_circle(3)), 177),
])
def test_generator_counts_faces_as_build_complex_does(monkeypatch, make,
                                                      faces):
    # built at a cap of exactly that many faces; one below it, refused by
    # the generator's own count and, without it, by build_complex's
    monkeypatch.setattr(complexes, "MAX_FACES", faces)
    make()
    monkeypatch.setattr(complexes, "MAX_FACES", faces - 1)
    with pytest.raises(ValueError, match=f"more than {faces - 1} faces"):
        make()
    monkeypatch.setattr(generators, "require_under_cap", lambda *_: None)
    with pytest.raises(ValueError, match=f"more than {faces - 1} faces"):
        make()
