"""Color palettes and color-space partitioning.

The paper assumes all lists draw colors from a palette
``{1, ..., Δ^c}`` for a constant ``c`` and, inside Lemma 4.3,
partitions a palette of size ``C`` into ``q <= 2p`` subspaces of size
at most ``C / p``.  :func:`split_palette` implements exactly that
partition (contiguous blocks, as in the paper's Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import ParameterError


@dataclass(frozen=True)
class Palette:
    """An ordered, duplicate-free collection of color identifiers.

    Colors are plain integers.  The palette retains its order so that
    contiguous-block splitting matches the paper's figures, but
    membership checks use a frozen set.
    """

    colors: tuple[int, ...]
    #: The colors as a set, built once for O(1) membership tests.
    _set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        colors = frozenset(self.colors)
        if len(colors) != len(self.colors):
            raise ParameterError("palette contains duplicate colors")
        object.__setattr__(self, "_set", colors)

    @classmethod
    def of_size(cls, size: int, *, start: int = 1) -> "Palette":
        """Return the palette ``{start, ..., start + size - 1}``.

        The default ``start=1`` matches the paper's ``{1, ..., C}``.
        """
        if size < 0:
            raise ParameterError(f"palette size must be >= 0, got {size}")
        return cls(tuple(range(start, start + size)))

    def __len__(self) -> int:
        return len(self.colors)

    def __iter__(self) -> Iterator[int]:
        return iter(self.colors)

    def __contains__(self, color: int) -> bool:
        return color in self._set

    @property
    def as_set(self) -> frozenset[int]:
        return self._set

    def restrict(self, allowed: Sequence[int]) -> "Palette":
        """Return the sub-palette of colors also present in ``allowed``."""
        allowed_set = set(allowed)
        return Palette(tuple(c for c in self.colors if c in allowed_set))


def split_palette(palette: Palette, p: int) -> list[Palette]:
    """Partition ``palette`` into ``q <= 2p`` blocks of size ``<= ceil(C/p)``.

    This is the partition used at the top of Lemma 4.3: contiguous
    blocks of size ``s = max(1, floor(C / p))``.  With that block size,
    the number of blocks is ``q = ceil(C / s) <= 2p`` whenever
    ``p <= C`` (the lemma's precondition), and each block has size at
    most ``ceil(C / p)``.

    >>> [list(b) for b in split_palette(Palette.of_size(10), 3)]
    [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10]]
    """
    size = len(palette)
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    if size == 0:
        return []
    if p > size:
        raise ParameterError(
            f"cannot split a palette of size {size} into p={p} parts "
            "(Lemma 4.3 requires p <= C)"
        )
    block = max(1, size // p)
    blocks: list[Palette] = []
    colors = palette.colors
    for offset in range(0, size, block):
        blocks.append(Palette(colors[offset : offset + block]))
    return blocks
