"""The symbolic packet sets: intervals and cubes.

The live engine needs only interval algebra and witness cubes.  The
cube algebra (union, subtraction, negation, TTL shift) lives on in the
frozen fixpoint ``reference_reach`` that the differential test compares
against, and is tested here through that copy.
"""

from repro.flow.sets import FIELDS, IntervalSet, PacketSet, cube

from . import reference_reach as ref


class TestIntervalSet:
    def test_of_merges_adjacent_and_duplicate_values(self):
        s = IntervalSet.of(3, 1, 2, 2, 7)
        assert s.intervals == ((1, 3), (7, 7))
        assert len(s) == 4

    def test_union_intersect_subtract(self):
        a = IntervalSet.from_intervals([(0, 10), (20, 30)])
        b = IntervalSet.from_intervals([(5, 25)])
        assert a.union(b).intervals == ((0, 30),)
        assert a.intersect(b).intervals == ((5, 10), (20, 25))
        assert a.subtract(b).intervals == ((0, 4), (26, 30))

    def test_complement_within_universe(self):
        # the routed-nowhere class is the universe minus every FIB key
        s = IntervalSet.from_intervals([(2, 3), (8, 9)])
        assert IntervalSet.span(0, 9).subtract(s).intervals == ((0, 1), (4, 7))
        assert IntervalSet.span(0, 3).subtract(IntervalSet.empty()).intervals == (
            (0, 3),
        )

    def test_shift_clips_to_bounds(self):
        s = IntervalSet.from_intervals([(0, 2), (250, 255)])
        shifted = ref.shift(s, -1, 0, 255)
        assert shifted.intervals == ((0, 1), (249, 254))

    def test_membership_and_min(self):
        s = IntervalSet.from_intervals([(4, 6)])
        assert 5 in s and 7 not in s
        assert s.min() == 4

    def test_empty_set_behaviour(self):
        assert IntervalSet.empty().is_empty
        assert len(IntervalSet.empty()) == 0
        assert IntervalSet.of().is_empty


class TestPacketSet:
    def test_cube_accepts_ints_pairs_and_sets(self):
        ps = cube(src=3, dst=(10, 20), ttl=IntervalSet.of(32))
        sample = ps.sample()
        assert sample["src"] == 3 and sample["ttl"] == 32
        assert 10 <= sample["dst"] <= 20

    def test_count_is_exact_over_unions(self):
        a = ref.cube(dst=(0, 9), src=1, ttl=1)
        b = ref.cube(dst=(5, 14), src=1, ttl=1)
        assert a.union(b).count() == 15  # not 10 + 10

    def test_union_keeps_cubes_disjoint(self):
        a = ref.cube(dst=(0, 9))
        u = a.union(a)
        assert u.count() == a.count()

    def test_subtract_and_negate_partition_the_universe(self):
        a = ref.cube(dst=(100, 200), ttl=(1, 10))
        everything = ref.PacketSet.all()
        assert a.union(a.negate()).count() == everything.count()
        assert a.intersect(a.negate()).is_empty
        assert everything.subtract(a).count() == (
            everything.count() - a.count()
        )

    def test_constrain_and_project(self):
        ps = ref.cube(dst=(0, 50)).constrain("dst", IntervalSet.of(7, 99))
        assert ps.project("dst").intervals == ((7, 7),)
        witness = PacketSet(cube(src=1, dst=(4, 6)).cubes + cube(src=2, dst=9).cubes)
        assert witness.project("dst").intervals == ((4, 6), (9, 9))

    def test_shift_field_models_ttl_decrement(self):
        ps = ref.cube(ttl=(1, 3)).shift_field("ttl", -1)
        assert ps.project("ttl").intervals == ((0, 2),)

    def test_contains_concrete_packet(self):
        ps = ref.cube(src=1, dst=(4, 6))
        assert ps.contains({"src": 1, "dst": 5, "ttl": 0})
        assert not ps.contains({"src": 2, "dst": 5, "ttl": 0})

    def test_as_dict_is_canonical_across_cube_order(self):
        low, high = cube(dst=(0, 4)).cubes, cube(dst=(10, 14)).cubes
        assert PacketSet(low + high).as_dict() == PacketSet(high + low).as_dict()

    def test_sample_is_the_least_packet_of_the_first_cube(self):
        witness = PacketSet(cube(src=2, dst=(5, 6), ttl=9).cubes + cube(src=1, dst=3).cubes)
        assert witness.sample() == {"src": 2, "dst": 5, "ttl": 9}

    def test_fields_registry_shape(self):
        assert set(FIELDS) == {"src", "dst", "ttl"}
        assert FIELDS["ttl"] == 8
