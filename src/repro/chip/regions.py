"""Slot regions: the geometry decisions behind qubit placement.

Placement (:mod:`repro.partition.placement`) runs one algorithm on every
chip.  What differs between a square tile array and a tile graph is confined
to a *region* of alive tile slots, which answers five questions:

* which alive slots it holds, in canonical order — row-major on square
  chips, spatial ``(y, x, id)`` on graph chips;
* in which order the trivial fill visits them — boustrophedon rows, or the
  same spatial order;
* which slot a lone qubit takes — the smallest alive one;
* how it splits in two for recursive bisection — at the midpoint of the
  window's longer side, or into half-counts along the wider coordinate
  extent of its tiles;
* which compact window shape determining picks — the minimum-perimeter
  sub-window, or the whole graph, which has no sub-windows.

:func:`slot_region` returns the region for a chip and a shape.
"""

from __future__ import annotations

from repro.chip.chip import Chip, TileSlot


def slot_region(chip: Chip, shape: tuple[int, int] | None = None) -> WindowRegion | SpatialRegion:
    """The alive slots of ``chip`` inside the ``shape`` window at the origin.

    ``shape`` defaults to the whole tile array.  Tile-graph chips have a
    single window, the whole graph, so they ignore ``shape``.
    """
    if chip.tile_graph is not None:
        coords = chip.tile_graph.coords
        tiles = sorted(
            chip.alive_tile_slots(),
            key=lambda slot: (coords[slot.row][1], coords[slot.row][0], slot.row),
        )
        return SpatialRegion(tiles, coords, chip.num_tile_slots)
    rows, cols = shape if shape is not None else (chip.tile_rows, chip.tile_cols)
    return WindowRegion(0, rows, 0, cols, chip.defects.dead_set())


class WindowRegion:
    """The window ``[row_lo, row_hi) × [col_lo, col_hi)`` of a square tile array.

    ``dead`` holds the chip's dead ``(row, col)`` slots; they count towards
    :attr:`num_slots` but are never handed out.
    """

    __slots__ = ("row_lo", "row_hi", "col_lo", "col_hi", "dead")

    def __init__(
        self, row_lo: int, row_hi: int, col_lo: int, col_hi: int, dead: frozenset[tuple[int, int]]
    ):
        self.row_lo, self.row_hi, self.col_lo, self.col_hi = row_lo, row_hi, col_lo, col_hi
        self.dead = dead

    @property
    def num_slots(self) -> int:
        """Slots in the window, dead ones included."""
        return (self.row_hi - self.row_lo) * (self.col_hi - self.col_lo)

    def describe(self) -> str:
        """The window's size, for error messages."""
        return f"tile array {self.row_hi - self.row_lo}x{self.col_hi - self.col_lo}"

    def num_alive(self) -> int:
        """Alive slots in the window."""
        if not self.dead:
            return self.num_slots
        return self.num_slots - sum(
            1
            for r, c in self.dead
            if self.row_lo <= r < self.row_hi and self.col_lo <= c < self.col_hi
        )

    def _alive(self):
        for r in range(self.row_lo, self.row_hi):
            for c in range(self.col_lo, self.col_hi):
                if (r, c) not in self.dead:
                    yield TileSlot(r, c)

    def slots(self) -> list[TileSlot]:
        """Alive slots in row-major order."""
        return list(self._alive())

    def fill_order(self) -> list[TileSlot]:
        """Alive slots row by row, alternately left-to-right and right-to-left."""
        order = []
        for r in range(self.row_lo, self.row_hi):
            cols = range(self.col_lo, self.col_hi)
            for c in cols if (r - self.row_lo) % 2 == 0 else reversed(cols):
                if (r, c) not in self.dead:
                    order.append(TileSlot(r, c))
        return order

    def first_slot(self) -> TileSlot:
        """The smallest (first row-major) alive slot."""
        return next(self._alive())

    def split(self) -> tuple[WindowRegion, WindowRegion]:
        """Halve the longer side at its midpoint (columns on a tie)."""
        if self.col_hi - self.col_lo >= self.row_hi - self.row_lo:
            mid = (self.col_lo + self.col_hi) // 2
            return (
                WindowRegion(self.row_lo, self.row_hi, self.col_lo, mid, self.dead),
                WindowRegion(self.row_lo, self.row_hi, mid, self.col_hi, self.dead),
            )
        mid = (self.row_lo + self.row_hi) // 2
        return (
            WindowRegion(self.row_lo, mid, self.col_lo, self.col_hi, self.dead),
            WindowRegion(mid, self.row_hi, self.col_lo, self.col_hi, self.dead),
        )

    def compact_shape(self, num_qubits: int) -> tuple[int, int]:
        """The minimum-perimeter window at the region's origin holding ``num_qubits`` alive slots.

        Ties prefer the squarer, then the smaller window (paper Fig. 10a
        picks 3×3 over 2×4).  A window short of alive slots is widened until
        its dead tiles are compensated; when no window fits, the whole
        region's shape is returned.
        """
        height, width = self.row_hi - self.row_lo, self.col_hi - self.col_lo
        best: tuple[int, int] | None = None
        best_key: tuple[int, int, int] | None = None
        for rows in range(1, height + 1):
            cols = -(-num_qubits // rows)  # ceil division
            while cols <= width and self._window(rows, cols).num_alive() < num_qubits:
                cols += 1
            if cols > width:
                continue
            key = (rows + cols, abs(rows - cols), rows * cols)
            if best_key is None or key < best_key:
                best, best_key = (rows, cols), key
        return best if best is not None else (height, width)

    def _window(self, rows: int, cols: int) -> WindowRegion:
        return WindowRegion(
            self.row_lo, self.row_lo + rows, self.col_lo, self.col_lo + cols, self.dead
        )


class SpatialRegion:
    """A set of alive tiles of a graph chip, laid out by their coordinates.

    ``tiles`` is in canonical spatial order for a whole-chip region and in
    split-axis order for the halves :meth:`split` returns.  ``num_slots``
    counts the chip's dead tiles too for a whole-chip region.
    """

    __slots__ = ("tiles", "coords", "num_slots")

    def __init__(
        self, tiles: list[TileSlot], coords: tuple[tuple[float, float], ...], num_slots: int
    ):
        self.tiles = tiles
        self.coords = coords
        self.num_slots = num_slots

    def describe(self) -> str:
        """The graph's size, for error messages."""
        return f"tile graph with {self.num_slots} tiles"

    def num_alive(self) -> int:
        """Alive tiles in the region."""
        return len(self.tiles)

    def slots(self) -> list[TileSlot]:
        """Alive tiles in spatial order: by ``y``, then ``x``, then node id."""
        return list(self.tiles)

    def fill_order(self) -> list[TileSlot]:
        """Alive tiles in spatial order, the graph analogue of the snake fill."""
        return list(self.tiles)

    def first_slot(self) -> TileSlot:
        """The alive tile with the smallest node id."""
        return min(self.tiles, key=lambda slot: slot.row)

    def split(self) -> tuple[SpatialRegion, SpatialRegion]:
        """Halve the tiles by count along the wider coordinate extent (``x`` on a tie)."""
        coords = self.coords
        xs = [coords[slot.row][0] for slot in self.tiles]
        ys = [coords[slot.row][1] for slot in self.tiles]
        if max(xs) - min(xs) >= max(ys) - min(ys):
            ordered = sorted(self.tiles, key=lambda s: (coords[s.row][0], coords[s.row][1], s.row))
        else:
            ordered = sorted(self.tiles, key=lambda s: (coords[s.row][1], coords[s.row][0], s.row))
        half = (len(ordered) + 1) // 2
        return (
            SpatialRegion(ordered[:half], coords, half),
            SpatialRegion(ordered[half:], coords, len(ordered) - half),
        )

    def compact_shape(self, num_qubits: int) -> tuple[int, int]:
        """The whole graph, as ``(num_slots, 1)``: a tile graph has no sub-windows."""
        return (self.num_slots, 1)
