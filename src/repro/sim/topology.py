"""Tiled SoC topology and physical address mapping.

The paper's baseline is an 8x4 tiled SoC: every tile holds a CPU, private
caches, and one slice of the shared L3; memory controllers sit on the mesh
edges.  The interconnect is modelled as latency only (hop count times per-hop
cycles) because the paper explicitly assumes NoC bandwidth is provisioned for
peak memory throughput.

Addresses are hashed uniformly across L3 slices and memory controllers, the
paper's stated assumption for keeping the global wired-OR SAT signal
meaningful (Section III-C1).

networkx is used at construction time only: shortest-path distances are
computed once and flattened into dense integer latency tables, so the
per-request path is two list indexes.  ``repro lint`` rule PERF001 keeps
graph-library imports from creeping back into per-event code.
"""

from __future__ import annotations

import networkx as nx

from repro.sim.config import SystemConfig

__all__ = ["AddressMap", "MeshTopology"]


def _mix_bits(value: int) -> int:
    """Cheap deterministic 64-bit mix (xorshift-multiply) for address hashing."""
    value &= (1 << 64) - 1
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & ((1 << 64) - 1)
    value ^= value >> 33
    return value


class AddressMap:
    """Maps a physical address to line, L3 slice, MC, bank, and DRAM row.

    The line -> (slice, mc, bank, row) decode is memoized: workloads revisit
    a bounded working set of lines, so after warm-up every lookup is one
    dict probe instead of two 64-bit hash mixes and three divisions.
    """

    def __init__(self, config: SystemConfig, num_slices: int) -> None:
        self._line_shift = config.line_bytes.bit_length() - 1
        self._num_mcs = config.num_mcs
        self._banks = config.banks_per_mc
        self._lines_per_row = config.lines_per_row
        self._num_slices = max(1, num_slices)
        self._hash_mcs = config.mc_interleave == "hash"
        #: line -> (slice, mc, bank, row) memo.
        self._decoded: dict[int, tuple[int, int, int, int]] = {}

    def __getstate__(self) -> dict:
        # The memo is a pure function of the line, so a checkpoint drops
        # it rather than carry one entry per line a stream has touched;
        # the restored map refills it on demand.
        state = self.__dict__.copy()
        state["_decoded"] = {}
        return state

    @property
    def num_mcs(self) -> int:
        return self._num_mcs

    def line_of(self, addr: int) -> int:
        return addr >> self._line_shift

    def _decode_line(self, line: int) -> tuple[int, int, int, int]:
        """Compute and memoize the full decode of one cache line."""
        slice_id = _mix_bits(line) % self._num_slices
        if not self._hash_mcs:
            mc = line % self._num_mcs
        else:
            mc = (_mix_bits(line ^ 0x9E3779B97F4A7C15) >> 8) % self._num_mcs
        bank = (line // self._num_mcs) % self._banks
        row = line // (self._num_mcs * self._banks * self._lines_per_row)
        decoded = (slice_id, mc, bank, row)
        self._decoded[line] = decoded
        return decoded

    def decode(self, addr: int) -> tuple[int, int, int, int]:
        """``(slice, mc, bank, row)`` for an address, memoized per line."""
        line = addr >> self._line_shift
        decoded = self._decoded.get(line)
        if decoded is None:
            decoded = self._decode_line(line)
        return decoded

    def slice_of(self, addr: int) -> int:
        """L3 slice index for an address (uniform hash)."""
        return self.decode(addr)[0]

    def mc_of(self, addr: int) -> int:
        """Memory controller index.

        Uniform hash by default (the paper's assumption); with the
        ``low-bits`` interleave a strided access pattern can concentrate
        on one controller, the scenario where the global wired-OR SAT
        signal over-throttles and per-controller governors help.
        """
        return self.decode(addr)[1]

    def bank_of(self, addr: int) -> int:
        return self.decode(addr)[2]

    def row_of(self, addr: int) -> int:
        """DRAM row id within the bank, for row-hit detection."""
        return self.decode(addr)[3]


class MeshTopology:
    """2D mesh of tiles with memory controllers on the left/right edges.

    Provides hop distances used to compute interconnect latency.  Built on a
    :func:`networkx.grid_2d_graph` so distances come from actual shortest
    paths rather than hand-rolled Manhattan arithmetic (they coincide on a
    full mesh, which the tests assert).  The graph is consulted only in
    ``__init__``: all pairwise latencies are flattened into dense integer
    tables so the per-request path never touches networkx.
    """

    def __init__(self, config: SystemConfig) -> None:
        self._cols = config.mesh_cols
        self._rows = config.mesh_rows
        self._hop_cycles = config.noc_hop_cycles
        self._base_cycles = config.noc_base_cycles
        graph = nx.grid_2d_graph(self._cols, self._rows)
        self._tile_coords = [
            (index % self._cols, index // self._cols)
            for index in range(self._cols * self._rows)
        ]
        self._mc_coords = self._place_mcs(config.num_mcs)
        self._distance = dict(nx.all_pairs_shortest_path_length(graph))
        # Dense latency tables: [src][dst] indexing, plain ints.
        base = self._base_cycles
        hop = self._hop_cycles
        self._tile_tile_latency: list[list[int]] = [
            [
                base + self._distance[src][dst] * hop
                for dst in self._tile_coords
            ]
            for src in self._tile_coords
        ]
        self._tile_mc_latency: list[list[int]] = [
            [
                base + self._distance[src][mc] * hop
                for mc in self._mc_coords
            ]
            for src in self._tile_coords
        ]

    def _place_mcs(self, num_mcs: int) -> list[tuple[int, int]]:
        """Spread MCs across the left and right mesh edges (paper Fig. 2)."""
        coords: list[tuple[int, int]] = []
        for index in range(num_mcs):
            side = index % 2
            slot = index // 2
            col = 0 if side == 0 else self._cols - 1
            row = (slot * max(1, self._rows // max(1, (num_mcs + 1) // 2))) % self._rows
            coord = (col, row)
            # avoid stacking two controllers on the same tile when possible
            attempts = 0
            while coord in coords and attempts < self._rows:
                coord = (col, (coord[1] + 1) % self._rows)
                attempts += 1
            coords.append(coord)
        return coords

    @property
    def num_tiles(self) -> int:
        return self._cols * self._rows

    def tile_coord(self, tile: int) -> tuple[int, int]:
        return self._tile_coords[tile]

    def mc_coord(self, mc_id: int) -> tuple[int, int]:
        return self._mc_coords[mc_id]

    def hops(self, src: tuple[int, int], dst: tuple[int, int]) -> int:
        return self._distance[src][dst]

    def fused_route_tables(
        self, l3_latency: int
    ) -> tuple[list[list[int]], list[list[list[int]]]]:
        """Cumulative route delays for the fused L2-miss fast paths.

        ``hit[core][slice]`` is the whole L3-hit round trip (core ->
        slice -> core plus the L3 access); ``miss[core][slice][mc]`` the
        whole L3-miss delivery leg (core -> slice -> MC plus the L3
        lookup).  Materializing the sums keeps the per-request path to a
        couple of list indexes with no arithmetic — the hop chain has no
        arbitration point, so the cumulative latency is fixed at issue.
        """
        hit = [
            [2 * to_slice + l3_latency for to_slice in row]
            for row in self._tile_tile_latency
        ]
        miss = [
            [
                [
                    to_slice + l3_latency + mc_latency
                    for mc_latency in self._tile_mc_latency[slice_tile]
                ]
                for slice_tile, to_slice in enumerate(row)
            ]
            for row in self._tile_tile_latency
        ]
        return hit, miss

    def tile_to_tile_latency(self, src_tile: int, dst_tile: int) -> int:
        """One-way NoC latency between two tiles, in cycles."""
        return self._tile_tile_latency[src_tile][dst_tile]

    def tile_to_mc_latency(self, tile: int, mc_id: int) -> int:
        """One-way NoC latency from a tile to a memory controller."""
        return self._tile_mc_latency[tile][mc_id]

