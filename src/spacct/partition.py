"""Templates and uniform random partitions of database indices.

A template assigns database indices (1-based) to m sample blocks; injective
templates use each index at most once. Blocks are treated as index sets
(within-block order carries no information for symmetric queries), though
the Template type preserves the drawn sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapacityError, DomainError, magnitude

# Exhaustive enumeration refuses to materialize more templates than this.
TEMPLATE_CAP = 10**6


@dataclass(frozen=True)
class TemplateFormat:
    """Block sizes (n_1, ..., n_m)."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class Template:
    """Concrete index assignment: one sequence of indices per block."""

    index_lists: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        lists = tuple(tuple(int(i) for i in block) for block in self.index_lists)
        object.__setattr__(self, "index_lists", lists)
        flat = [i for block in lists for i in block]
        if any(i < 1 for i in flat):
            raise DomainError("indices are 1-based and must be positive")
        if len(set(flat)) != len(flat):
            raise DomainError("template is not injective")

    @property
    def format(self) -> TemplateFormat:
        return TemplateFormat(tuple(len(b) for b in self.index_lists))

    def block(self, k: int) -> tuple[int, ...]:
        """Indices of block k (1-based)."""
        return self.index_lists[k - 1]


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
        if self.n < 1:
            raise DomainError("n must be positive")
        if self.format.total > self.n:
            raise DomainError(
                f"format uses {self.format.total} indices but n={self.n}"
            )
        if self.restriction is not None:
            j, k = self.restriction
            if not 1 <= j <= self.n:
                raise DomainError(f"critical index {j} outside [1, {self.n}]")
            if not 1 <= k <= self.format.num_blocks:
                raise DomainError(f"block {k} outside [1, {self.format.num_blocks}]")
            object.__setattr__(self, "restriction", (int(j), int(k)))


def template_count(law: PartitionLaw) -> int:
    """Number of templates in the law's support (blocks as unordered sets)."""
    sizes = law.format.sizes
    if law.restriction is None:
        count, remaining = 1, law.n
        for s in sizes:
            count *= math.comb(remaining, s)
            remaining -= s
        return count
    _, k = law.restriction
    count, remaining = 1, law.n - 1
    for idx, s in enumerate(sizes, start=1):
        pick = s - 1 if idx == k else s
        count *= math.comb(remaining, pick)
        remaining -= pick
    return count


def enumerate_templates(law: PartitionLaw, cap: int = TEMPLATE_CAP) -> list[tuple[Template, float]]:
    """Exhaustive (template, probability) list with uniform weights.

    Raises CapacityError when the support exceeds `cap`. The message offers
    no remedy: its callers (adaptive composition and the exact oracle) have
    no sampled mode, and sample_template draws single templates.
    """
    count = template_count(law)
    if count > cap:
        raise CapacityError(f"{magnitude(count)} templates exceed the cap of {cap}")
    sizes = law.format.sizes
    weight = 1.0 / count
    forced = {}
    if law.restriction is not None:
        j, k = law.restriction
        forced[k - 1] = j
    out: list[tuple[Template, float]] = []

    def build(block_idx: int, available: tuple[int, ...], chosen: tuple) -> None:
        if block_idx == len(sizes):
            out.append((Template(chosen), weight))
            return
        size = sizes[block_idx]
        force = forced.get(block_idx)
        if force is None:
            for combo in combinations(available, size):
                rest = tuple(i for i in available if i not in combo)
                build(block_idx + 1, rest, chosen + (combo,))
        else:
            for combo in combinations(available, size - 1):
                block = tuple(sorted(combo + (force,)))
                rest = tuple(i for i in available if i not in combo)
                build(block_idx + 1, rest, chosen + (block,))

    start = tuple(i for i in range(1, law.n + 1) if i not in forced.values())
    build(0, start, ())
    assert len(out) == count
    return out


def sample_template(law: PartitionLaw, seed) -> Template:
    """Uniform draw via a seeded shuffle and consecutive block slicing.

    `seed` may be an int, a SeedSequence, or a Generator; a fixed seed gives
    a fixed template. Restricted laws place the conditioned index in its
    block and draw the rest uniformly.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sizes = law.format.sizes
    if law.restriction is None:
        perm = rng.permutation(np.arange(1, law.n + 1))
        blocks, pos = [], 0
        for s in sizes:
            blocks.append(tuple(int(i) for i in perm[pos : pos + s]))
            pos += s
        return Template(tuple(blocks))
    j, k = law.restriction
    pool = np.array([i for i in range(1, law.n + 1) if i != j])
    perm = rng.permutation(pool)
    blocks, pos = [], 0
    for idx, s in enumerate(sizes, start=1):
        take = s - 1 if idx == k else s
        block = [int(i) for i in perm[pos : pos + take]]
        pos += take
        if idx == k:
            block.append(j)
        blocks.append(tuple(block))
    return Template(tuple(blocks))
