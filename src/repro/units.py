"""Unit constants and small address-math helpers shared across the library.

All addresses in the library are *virtual* byte addresses in a 48-bit address
space (the paper assumes 48-bit virtual addresses, Sec. 3.2).  Cache lines are
64 bytes everywhere, matching Table 1.
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB

#: Cache-line (block) size in bytes, fixed across the whole hierarchy (Table 1).
LINE_SIZE = 64
#: log2 of :data:`LINE_SIZE`.
LINE_SHIFT = 6

#: Page size used by the TLB and page-walk models.
PAGE_SIZE = 4 * KB
PAGE_SHIFT = 12

#: Width of the virtual address space (Sec. 3.2 assumes 48-bit VAs).
VA_BITS = 48


def block_addr(addr: int) -> int:
    """Return the byte address of the cache block containing ``addr``."""
    return addr & ~(LINE_SIZE - 1)


def is_power_of_two(value: int) -> bool:
    """Return True iff ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_int(value: int) -> int:
    """Return log2 of a power-of-two ``value``, raising otherwise."""
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1
