"""Deterministic seed derivation.

Every stochastic choice in the toolkit flows from one root seed through
named derivation paths (for example ``(root, "run", 2, "sentence", 17)``),
so adding or reordering consumers never shifts anyone else's randomness,
and results are reproducible across platforms and Python versions.
"""

from __future__ import annotations

import random  # costs no start-up: tempfile, which corpus imports, loads it


def derive_seed(root: int, *path: int | str) -> int:
    """A stable 64-bit seed for the (root, path) combination."""
    import hashlib  # loaded on first use: most commands derive no seed

    key = ":".join([str(root), *(str(p) for p in path)])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(root: int, *path: int | str) -> random.Random:
    """An independent RNG for the (root, path) combination."""
    return random.Random(derive_seed(root, *path))
