"""Templates and uniform random partitions of database indices.

A template assigns database indices (1-based) to m sample blocks; injective
templates use each index at most once. Blocks are treated as index sets
(within-block order carries no information for symmetric queries), though
sampled templates keep the drawn order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapacityError, DomainError, is_int, magnitude

# Exhaustive enumeration refuses to materialize more templates than this.
TEMPLATE_CAP = 10**6


@dataclass(frozen=True)
class TemplateFormat:
    """Block sizes (n_1, ..., n_m)."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(is_int(s) for s in self.sizes):
            raise DomainError(f"block sizes must be integers, got {self.sizes!r}")
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes:
            raise DomainError("a format needs at least one block")
        if any(s < 1 for s in sizes):
            raise DomainError("block sizes must be positive")

    @property
    def num_blocks(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def require_fits(self, n: int) -> None:
        """Refuse a database of n indices too small for the blocks."""
        if self.total > n:
            raise DomainError(f"format uses {self.total} indices but n={n}")


@dataclass(frozen=True)
class PartitionLaw:
    """Uniform law over injective templates of a format on n indices.

    With restriction=(j, k) the law is conditioned on index j landing in
    block k (uniform over that subset of templates).
    """

    n: int
    format: TemplateFormat
    restriction: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not is_int(self.n) or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        self.format.require_fits(self.n)
        if self.restriction is not None:
            j, k = self.restriction
            if not (is_int(j) and is_int(k)):
                raise DomainError(f"a restriction is two integers, got {self.restriction!r}")
            if not 1 <= j <= self.n:
                raise DomainError(f"critical index {j} outside [1, {self.n}]")
            if not 1 <= k <= self.format.num_blocks:
                raise DomainError(f"block {k} outside [1, {self.format.num_blocks}]")
            object.__setattr__(self, "restriction", (int(j), int(k)))


def _reduced(law: PartitionLaw) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The indices a law partitions and the block sizes it fills.

    A law restricted to (j, k) is the uniform law over the indices other
    than j with block k one smaller; j then joins block k.
    """
    sizes = law.format.sizes
    if law.restriction is None:
        return tuple(range(1, law.n + 1)), sizes
    j, k = law.restriction
    pool = tuple(i for i in range(1, law.n + 1) if i != j)
    return pool, sizes[: k - 1] + (sizes[k - 1] - 1,) + sizes[k:]


def template_count(law: PartitionLaw) -> int:
    """Number of templates in the law's support (blocks as unordered sets)."""
    pool, sizes = _reduced(law)
    count, remaining = 1, len(pool)
    for s in sizes:
        count *= math.comb(remaining, s)
        remaining -= s
    return count


def enumerate_templates(law: PartitionLaw) -> list[tuple[tuple[tuple[int, ...], ...], float]]:
    """Exhaustive (template, probability) list with uniform weights; a
    template is one sorted tuple of indices per block.

    Raises CapacityError when the support exceeds TEMPLATE_CAP, offering no
    remedy: its one caller in the package, the exact oracle, has no sampled
    mode.
    """
    count = template_count(law)
    if count > TEMPLATE_CAP:
        raise CapacityError(f"{magnitude(count)} templates exceed the cap of {TEMPLATE_CAP}")
    pool, sizes = _reduced(law)
    j, k = law.restriction or (0, 0)
    weight = 1.0 / count
    out: list[tuple[tuple[tuple[int, ...], ...], float]] = []

    def build(block_idx: int, available: tuple[int, ...], chosen: tuple) -> None:
        if block_idx == len(sizes):
            out.append((chosen, weight))
            return
        for combo in combinations(available, sizes[block_idx]):
            rest = tuple(i for i in available if i not in combo)
            if block_idx == k - 1:  # j joins block k at its sorted place
                combo = tuple(sorted(combo + (j,)))
            build(block_idx + 1, rest, chosen + (combo,))

    build(0, pool, ())
    assert len(out) == count
    return out


def sample_template(law: PartitionLaw, seed) -> tuple[tuple[int, ...], ...]:
    """Uniform draw via a seeded shuffle and consecutive block slicing: one
    tuple of indices per block, in drawn order.

    `seed` may be an int, a SeedSequence, or a Generator; a fixed seed gives
    a fixed template. Restricted laws draw the other indices uniformly and
    append the conditioned index to its block.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    pool, sizes = _reduced(law)
    perm = rng.permutation(np.array(pool, dtype=np.int64))
    blocks, pos = [], 0
    for s in sizes:
        blocks.append(tuple(int(i) for i in perm[pos : pos + s]))
        pos += s
    if law.restriction is not None:  # j joins block k after the draw
        j, k = law.restriction
        blocks[k - 1] += (j,)
    return tuple(blocks)
