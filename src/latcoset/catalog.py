"""Named built-in sublattices for the two code families.

All matrices are exact integer generator matrices with columns as
generators; every entry is even, so each lattice sits inside 2Z^k (the
difference lattice of the odd-integer signaling grid).

The 4-dimensional family pairs with the "alamouti" map, the 8-dimensional
one with "golden".  L1/L4 and L'1 are plain diagonal constructions, L3 is a
scaled checkerboard (D4) lattice, and the remaining entries are
well-rounded lattices found by randomized search.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .lattice import IntegerLattice

_INNER = {
    # k = 4
    "L1": [[4, 0, 0, 0],
           [0, 2, 0, 0],
           [0, 0, 2, 0],
           [0, 0, 0, 2]],
    "L2": [[-2, -2, 0, 0],
           [0, 0, -2, -1],
           [-1, 1, 1, -2],
           [1, -1, 1, -1]],
    "L3": [[4, 2, 2, 2],
           [0, 2, 0, 0],
           [0, 0, 2, 0],
           [0, 0, 0, 2]],
    "L4": [[4, 0, 0, 0],
           [0, 4, 0, 0],
           [0, 0, 4, 0],
           [0, 0, 0, 4]],
    "L5": [[-2, -3, 4, -1],
           [0, -1, 0, 3],
           [0, -3, -2, -3],
           [-4, -1, 0, -1]],
    # k = 8
    "L'1": [[2, 0, 0, 0, 0, 0, 0, 0],
            [0, 2, 0, 0, 0, 0, 0, 0],
            [0, 0, 2, 0, 0, 0, 0, 0],
            [0, 0, 0, 2, 0, 0, 0, 0],
            [0, 0, 0, 0, 2, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 1]],
    "L'2": [[1, 0, 1, 0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1, -1, 0, -1],
            [1, 1, 0, 0, 0, -1, -1, 0],
            [0, -1, -1, 1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 1, 0, -1],
            [-1, 0, 0, 1, 0, 0, 0, 0],
            [0, 1, -1, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, -1, 0, 1, 0]],
    "L'3": [[-1, -1, -1, 1, 0, 0, 0, 0],
            [1, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0, 0, 0],
            [0, -1, 0, 0, -2, 0, 0, 0],
            [-1, -1, 0, 0, 0, 2, 0, 0],
            [-1, 0, 1, 0, 0, 0, 0, 2],
            [0, 1, 0, -1, 0, 0, 0, 0],
            [0, 0, -1, 0, 0, 0, -2, 0]],
    "M1": [[0, 2, 0, 0, 0, 0, -1, 0],
           [0, 0, 0, 0, 0, 1, -1, 0],
           [0, 0, 0, 0, -2, 0, 0, -1],
           [0, 0, 2, 0, 0, 0, 1, 0],
           [0, 0, 0, 2, 0, 1, 0, 0],
           [-2, 0, 0, 0, 0, 1, 0, 1],
           [0, 0, 0, 0, 0, 0, 1, -1],
           [0, 0, 0, 0, 0, 1, 0, 1]],
    "M2": [[-1, 0, 0, 2, 0, 0, -4, 0],
           [2, 1, 0, 0, -4, 2, 0, 0],
           [1, 2, 0, 1, 0, -3, 0, 0],
           [0, -1, 0, 2, 0, -1, 0, 0],
           [0, 1, 0, 1, 0, 0, 0, 4],
           [3, 0, 0, -1, 0, 1, 0, 0],
           [0, 3, 0, 1, 0, 0, 0, 0],
           [-1, 0, -4, -2, 0, 1, 0, 0]],
    "M3": [[-2, -2, -2, 0, -4, -2, 0, 0],
           [0, 0, 2, 0, 0, -1, 0, 4],
           [0, 1, -2, 1, 0, 2, 0, 1],
           [-1, 0, -2, 0, 0, -2, 5, 0],
           [-4, 0, 1, -2, 0, 0, 0, -3],
           [-2, -1, 0, 4, -1, 2, 0, 0],
           [1, -4, 0, 1, 3, 0, 1, 0],
           [0, -2, -3, 2, 0, -3, 0, 0]],
}

#: canonical names in catalog order
NAMES = tuple(_INNER)

_ALIASES = {"LP1": "L'1", "LP2": "L'2", "LP3": "L'3"}


def canonical_name(name: str) -> str:
    """Resolve user spellings (Lp1, LP1, l'1, ...) to the catalog name."""
    key = name.strip().upper()
    key = _ALIASES.get(key, key)
    if key not in _INNER:
        raise KeyError(f"unknown built-in lattice {name!r}; "
                       f"choose from {', '.join(NAMES)}")
    return key


def builtin_sublattice(name: str) -> IntegerLattice:
    """The named sublattice of 2Z^k as an IntegerLattice (outer matrix).

    Every spelling of a name gives the same immutable instance.
    """
    return _lattice(canonical_name(name))


@lru_cache(maxsize=None)
def _lattice(key: str) -> IntegerLattice:
    return IntegerLattice(2 * np.array(_INNER[key], dtype=np.int64))
