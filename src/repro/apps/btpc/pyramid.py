"""The BTPC multiresolution pyramid.

The image is successively split into a high-resolution image and a
low-resolution quarter-image (paper §3): level ``k+1`` is level ``k``
decimated by two in both dimensions.  The *detail* pixels of level ``k``
are the three out of four pixels not on level ``k+1``'s lattice; they are
the ones that get predicted and entropy-coded.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

#: Detail pixel types by lattice parity (y % 2, x % 2).
TYPE_H = 0  # (0, 1): horizontal neighbours are on the coarse lattice
TYPE_V = 1  # (1, 0): vertical neighbours are on the coarse lattice
TYPE_D = 2  # (1, 1): diagonal neighbours are on the coarse lattice

_PARITY_TO_TYPE = {(0, 1): TYPE_H, (1, 0): TYPE_V, (1, 1): TYPE_D}


def num_levels(size: int, base_size: int = 8) -> int:
    """Number of pyramid levels for a ``size`` x ``size`` image.

    Level 0 is the full image; the coarsest level is ``base_size`` square
    (transmitted raw).
    """
    if size < base_size:
        raise ValueError(f"image size {size} below base size {base_size}")
    levels = 1
    while size > base_size:
        if size % 2 != 0:
            raise ValueError("image size must be divisible by two per level")
        size //= 2
        levels += 1
    return levels


def level_shape(size: int, level: int) -> Tuple[int, int]:
    return (size >> level, size >> level)


def detail_positions(shape: Tuple[int, int]) -> Iterator[Tuple[int, int, int]]:
    """Yield (y, x, pixel_type) for every detail pixel of a level.

    Detail pixels are those with odd parity in at least one coordinate;
    scan order is row-major, matching the codec's loop nest.
    """
    height, width = shape
    for y in range(height):
        for x in range(width):
            parity = (y % 2, x % 2)
            if parity == (0, 0):
                continue
            yield y, x, _PARITY_TO_TYPE[parity]


def detail_count(shape: Tuple[int, int]) -> int:
    """Number of detail pixels of a level (3/4 of the pixels)."""
    height, width = shape
    return height * width - (height // 2) * (width // 2)


def neighbour_offsets(pixel_type: int) -> Sequence[Tuple[int, int]]:
    """Coarse-lattice neighbour offsets used to predict a detail pixel.

    Offsets are relative to the detail pixel in level-``k`` coordinates;
    all land on even-even positions, i.e. on level ``k+1``'s lattice.
    The first offset is always the *parent* position (floor division by
    two), which the ridge context is read from.
    """
    if pixel_type == TYPE_H:
        return ((0, -1), (0, 1))
    if pixel_type == TYPE_V:
        return ((-1, 0), (1, 0))
    if pixel_type == TYPE_D:
        return ((-1, -1), (-1, 1), (1, -1), (1, 1))
    raise ValueError(f"unknown pixel type {pixel_type}")

