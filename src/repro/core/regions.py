"""Code-region address math for Jukebox's spatio-temporal encoding.

A metadata entry describes one *code region*: a ``region pointer`` (the
upper bits of the region's virtual base address) plus an ``access vector``
with one bit per cache line in the region (Sec. 3.2).  With 48-bit virtual
addresses, 64B lines and 1KB regions an entry is 38 + 16 = 54 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import ConfigurationError
from repro.units import LINE_SHIFT, LINE_SIZE, VA_BITS, is_power_of_two, log2_int


@dataclass(frozen=True)
class RegionGeometry:
    """Derived constants for a given code-region size.

    The record and replay paths read the derived constants once per miss
    or entry, so each is computed on first use and cached on the instance.
    ``region_size`` stays the only dataclass field: equality, hashing and
    the canonical form depend on it alone.
    """

    region_size: int

    def __post_init__(self) -> None:
        if not is_power_of_two(self.region_size) or self.region_size < LINE_SIZE:
            raise ConfigurationError(
                f"region size must be a power of two >= {LINE_SIZE}: "
                f"{self.region_size}"
            )

    @cached_property
    def region_shift(self) -> int:
        return log2_int(self.region_size)

    @cached_property
    def lines_per_region(self) -> int:
        return self.region_size // LINE_SIZE

    @cached_property
    def pointer_bits(self) -> int:
        """Bits needed for the region pointer (48-bit VA, Sec. 3.2)."""
        return VA_BITS - self.region_shift

    @cached_property
    def vector_bits(self) -> int:
        """Bits in the access vector: one per line in the region."""
        return self.lines_per_region

    @cached_property
    def entry_bits(self) -> int:
        """Total bits per metadata entry (54 for the 1KB default)."""
        return self.pointer_bits + self.vector_bits

    def region_of(self, vaddr: int) -> int:
        """The region *number* (pointer value) containing ``vaddr``."""
        return vaddr >> self.region_shift

    def region_base(self, region: int) -> int:
        """The byte base address of region number ``region``."""
        return region << self.region_shift

    def line_offset(self, vaddr: int) -> int:
        """Index of the cache line within its region (access-vector bit)."""
        return (vaddr >> LINE_SHIFT) & (self.lines_per_region - 1)

    def expand(self, region: int, vector: int) -> "list[int]":
        """Return the block byte addresses encoded by ``(region, vector)``,
        in ascending line order."""
        base = self.region_base(region)
        return [base + i * LINE_SIZE
                for i in range(self.lines_per_region) if vector >> i & 1]
