"""Unit and property tests for the mesh topology and address mapping."""

from hypothesis import given, strategies as st

from repro.sim.config import SystemConfig
from repro.sim.topology import AddressMap, MeshTopology


def make_map(num_mcs=2, num_slices=8):
    config = SystemConfig.default_experiment(cores=8, num_mcs=num_mcs)
    return AddressMap(config, num_slices=num_slices), config


class TestAddressMap:
    def test_line_of_strips_offset(self):
        address_map, config = make_map()
        assert address_map.line_of(0x7F) == address_map.line_of(0x40)
        assert address_map.line_of(0x80) != address_map.line_of(0x40)

    def test_mc_and_slice_in_range(self):
        address_map, config = make_map()
        for addr in range(0, 1 << 16, 64):
            assert 0 <= address_map.mc_of(addr) < config.num_mcs
            assert 0 <= address_map.slice_of(addr) < 8

    def test_mapping_is_deterministic(self):
        address_map, _ = make_map()
        assert address_map.mc_of(0x1234) == address_map.mc_of(0x1234)
        assert address_map.slice_of(0x1234) == address_map.slice_of(0x1234)

    def test_mc_hash_is_roughly_uniform(self):
        """The paper assumes a uniform address hash (Section III-C1)."""
        address_map, config = make_map(num_mcs=2)
        counts = [0] * config.num_mcs
        lines = 4096
        for i in range(lines):
            counts[address_map.mc_of(i * 64)] += 1
        for count in counts:
            assert abs(count - lines / config.num_mcs) < lines * 0.05

    def test_sequential_lines_spread_over_banks(self):
        address_map, config = make_map()
        banks = {address_map.bank_of(i * 64) for i in range(256)}
        assert len(banks) == config.banks_per_mc

    def test_row_groups_lines(self):
        address_map, config = make_map()
        assert address_map.row_of(0) == 0
        # row index grows with address
        far = 1 << 30
        assert address_map.row_of(far) > 0

    def test_checkpointed_state_drops_the_decode_memo(self):
        """The memo is pure, so snapshots leave it out and lose nothing."""
        import copy

        address_map, _ = make_map()
        addrs = [i * 64 for i in range(512)] + [1 << 30, (1 << 34) + 192]
        original = [address_map.decode(addr) for addr in addrs]
        assert address_map._decoded  # the live map keeps its memo
        assert address_map.__getstate__()["_decoded"] == {}
        # deepcopy round-trips through __getstate__, as pickling does
        restored = copy.deepcopy(address_map)
        assert restored._decoded == {}
        assert [restored.decode(addr) for addr in addrs] == original
        assert len(address_map._decoded) == len(restored._decoded)


class TestMeshTopology:
    def test_tile_coordinates_cover_grid(self):
        config = SystemConfig.paper_32core()
        mesh = MeshTopology(config)
        coords = {mesh.tile_coord(t) for t in range(mesh.num_tiles)}
        assert len(coords) == 32
        assert all(0 <= x < 8 and 0 <= y < 4 for x, y in coords)

    def test_mcs_on_left_right_edges(self):
        config = SystemConfig.paper_32core()
        mesh = MeshTopology(config)
        for mc_id in range(config.num_mcs):
            x, y = mesh.mc_coord(mc_id)
            assert x in (0, config.mesh_cols - 1)

    def test_mc_coords_distinct(self):
        config = SystemConfig.paper_32core()
        mesh = MeshTopology(config)
        coords = [mesh.mc_coord(m) for m in range(config.num_mcs)]
        assert len(set(coords)) == len(coords)

    def test_latency_is_base_plus_hops(self):
        config = SystemConfig.default_experiment(cores=8, num_mcs=2)
        mesh = MeshTopology(config)
        same = mesh.tile_to_tile_latency(0, 0)
        assert same == config.noc_base_cycles
        neighbour = mesh.tile_to_tile_latency(0, 1)
        assert neighbour == config.noc_base_cycles + config.noc_hop_cycles

    def test_shortest_path_equals_manhattan_on_full_mesh(self):
        config = SystemConfig.paper_32core()
        mesh = MeshTopology(config)
        for a in range(0, mesh.num_tiles, 5):
            for b in range(0, mesh.num_tiles, 7):
                ax, ay = mesh.tile_coord(a)
                bx, by = mesh.tile_coord(b)
                manhattan = abs(ax - bx) + abs(ay - by)
                assert mesh.hops(mesh.tile_coord(a), mesh.tile_coord(b)) == manhattan

    def test_tile_to_mc_latency_positive(self):
        config = SystemConfig.default_experiment(cores=8, num_mcs=2)
        mesh = MeshTopology(config)
        for tile in range(config.cores):
            for mc in range(config.num_mcs):
                assert mesh.tile_to_mc_latency(tile, mc) >= config.noc_base_cycles


@given(addr=st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_property_mapping_total_and_stable(addr):
    address_map, config = make_map()
    mc = address_map.mc_of(addr)
    assert 0 <= mc < config.num_mcs
    assert address_map.mc_of(addr) == mc
    assert 0 <= address_map.bank_of(addr) < config.banks_per_mc
    assert address_map.row_of(addr) >= 0


class TestDenseLatencyTables:
    """The flattened tables must agree with networkx shortest paths."""

    MESHES = [
        dict(cores=4, mesh_cols=2, mesh_rows=2, num_mcs=1),
        dict(cores=8, mesh_cols=4, mesh_rows=2, num_mcs=2),
        dict(cores=16, mesh_cols=4, mesh_rows=4, num_mcs=4),
        dict(cores=32, mesh_cols=8, mesh_rows=4, num_mcs=4),
    ]

    def _reference_latency(self, mesh, config, src, dst):
        import networkx as nx

        graph = nx.grid_2d_graph(config.mesh_cols, config.mesh_rows)
        hops = nx.shortest_path_length(graph, src, dst)
        return config.noc_base_cycles + hops * config.noc_hop_cycles

    def test_tables_match_networkx_shortest_paths(self):
        for params in self.MESHES:
            config = SystemConfig(**params)
            mesh = MeshTopology(config)
            for src in range(mesh.num_tiles):
                for dst in range(mesh.num_tiles):
                    expected = self._reference_latency(
                        mesh, config, mesh.tile_coord(src), mesh.tile_coord(dst)
                    )
                    assert mesh.tile_to_tile_latency(src, dst) == expected
            for tile in range(mesh.num_tiles):
                for mc in range(config.num_mcs):
                    expected = self._reference_latency(
                        mesh, config, mesh.tile_coord(tile), mesh.mc_coord(mc)
                    )
                    assert mesh.tile_to_mc_latency(tile, mc) == expected

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    def test_property_latency_equals_manhattan(self, cols, rows):
        """On a full grid the shortest path is the Manhattan distance."""
        config = SystemConfig(
            cores=cols * rows, mesh_cols=cols, mesh_rows=rows, num_mcs=1
        )
        mesh = MeshTopology(config)
        for src in range(mesh.num_tiles):
            sx, sy = mesh.tile_coord(src)
            for dst in range(mesh.num_tiles):
                dx, dy = mesh.tile_coord(dst)
                manhattan = abs(sx - dx) + abs(sy - dy)
                expected = config.noc_base_cycles + manhattan * config.noc_hop_cycles
                assert mesh.tile_to_tile_latency(src, dst) == expected
