"""Synthetic dataset generator (Section 4.1.1, Tables 2(a) and 2(b)).

The paper varies three factors: set size (Large = 1M elements,
Small = 10k), node height distribution (Single vs Multiple heights),
and selectivity (High vs Low — the average number of descendants
matched per ancestor), yielding 16 datasets named by a four-character
shorthand: e.g. ``SLSH`` = single-height, large A, small D, high
selectivity.

Generation happens directly in the code space of a virtual PBiTree (no
data tree is materialised — only the codes matter for a containment
join):

* ancestor codes are sampled at the requested heights inside the *left
  half* of the PBiTree;
* a ``selectivity``-controlled fraction of descendants is planted under
  randomly chosen ancestors (guaranteed matches);
* the remaining descendants are sampled from the *right half*, which no
  ancestor dominates (guaranteed non-matches);
* both sets are shuffled — the "neither sorted nor indexed" starting
  condition the paper's new algorithms target.

Default sizes keep the paper's 100:1 Large/Small ratio at laptop scale
(Large = 50k, Small = 500); pass ``large``/``small`` to rescale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core import pbitree

__all__ = [
    "SyntheticSpec",
    "SyntheticDataset",
    "generate",
    "single_height_specs",
    "multi_height_specs",
    "spec_by_name",
    "count_results",
    "HIGH_MATCH_FRACTION",
    "LOW_MATCH_FRACTION",
]

#: fraction of min(|A|, |D|) planted as matches for High selectivity
HIGH_MATCH_FRACTION = 0.9
#: ... and for Low selectivity (paper's low datasets range 0.4%-9%)
LOW_MATCH_FRACTION = 0.05

#: multi-height (H_A, H_D) pairs, copied from Table 2(b)
_TABLE_2B_HEIGHTS = {
    "MLLH": (2, 6),
    "MLSH": (9, 9),
    "MSLH": (2, 7),
    "MSSH": (7, 9),
    "MLLL": (3, 7),
    "MLSL": (7, 5),
    "MSLL": (7, 4),
    "MSSL": (3, 2),
}


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset."""

    name: str                      # e.g. "SLSH"
    a_size: int
    d_size: int
    a_heights: tuple[int, ...]     # node heights of the ancestor set
    d_heights: tuple[int, ...]     # node heights of the descendant set
    match_fraction: float          # matched descendants / min(|A|, |D|)

    def __post_init__(self) -> None:
        if self.a_size < 1 or self.d_size < 1:
            raise ValueError(
                f"set sizes must be >= 1, got |A| = {self.a_size}, "
                f"|D| = {self.d_size}"
            )
        if not 0.0 <= self.match_fraction <= 1.0:
            raise ValueError(
                f"match_fraction must be in [0, 1], got {self.match_fraction}"
            )

    @property
    def multi_height(self) -> bool:
        return len(self.a_heights) > 1 or len(self.d_heights) > 1


@dataclass
class SyntheticDataset:
    """A generated dataset: shuffled code lists plus ground truth."""

    spec: SyntheticSpec
    tree_height: int
    a_codes: list[int] = field(repr=False, default_factory=list)
    d_codes: list[int] = field(repr=False, default_factory=list)
    num_results: int = 0

    @property
    def name(self) -> str:
        return self.spec.name


def _shorthand(multi: bool, a_large: bool, d_large: bool, high: bool) -> str:
    return (
        ("M" if multi else "S")
        + ("L" if a_large else "S")
        + ("L" if d_large else "S")
        + ("H" if high else "L")
    )


def single_height_specs(
    large: int = 50_000, small: int = 500
) -> list[SyntheticSpec]:
    """The eight single-height datasets of Table 2(a)."""
    specs = []
    for a_large in (True, False):
        for d_large in (True, False):
            for high in (True, False):
                specs.append(
                    SyntheticSpec(
                        name=_shorthand(False, a_large, d_large, high),
                        a_size=large if a_large else small,
                        d_size=large if d_large else small,
                        a_heights=(6,),
                        d_heights=(2,),
                        match_fraction=(
                            HIGH_MATCH_FRACTION if high else LOW_MATCH_FRACTION
                        ),
                    )
                )
    return specs


def multi_height_specs(
    large: int = 50_000, small: int = 500
) -> list[SyntheticSpec]:
    """The eight multiple-height datasets of Table 2(b).

    The number of distinct heights per side follows the paper's
    ``H_A``/``H_D`` columns.
    """
    specs = []
    for a_large in (True, False):
        for d_large in (True, False):
            for high in (True, False):
                name = _shorthand(True, a_large, d_large, high)
                num_ha, num_hd = _TABLE_2B_HEIGHTS[name]
                d_low = 1
                d_heights = tuple(range(d_low, d_low + num_hd))
                a_low = d_heights[-1] + 1
                a_heights = tuple(range(a_low, a_low + num_ha))
                specs.append(
                    SyntheticSpec(
                        name=name,
                        a_size=large if a_large else small,
                        d_size=large if d_large else small,
                        a_heights=a_heights,
                        d_heights=d_heights,
                        match_fraction=(
                            HIGH_MATCH_FRACTION if high else LOW_MATCH_FRACTION
                        ),
                    )
                )
    return specs


def spec_by_name(
    name: str, large: int = 50_000, small: int = 500
) -> SyntheticSpec:
    """Look up one of the 16 Table-2 datasets by its shorthand name."""
    for spec in single_height_specs(large, small) + multi_height_specs(large, small):
        if spec.name == name:
            return spec
    raise KeyError(f"unknown dataset {name!r}")


def _tree_height_for(spec: SyntheticSpec) -> int:
    """A PBiTree tall enough that every level can host its share."""
    top_height = max(spec.a_heights)
    # the topmost ancestor level must offer 2x the ancestor count in its
    # left half alone; levels below only get wider
    need_bits = max(spec.a_size, spec.d_size).bit_length() + 2
    return top_height + 1 + need_bits


def generate(spec: SyntheticSpec, seed: int = 0) -> SyntheticDataset:
    """Materialise a dataset: shuffled codes plus the exact result count."""
    name_hash = sum(ord(ch) * 131 ** i for i, ch in enumerate(spec.name))
    rng = random.Random((name_hash & 0xFFFF) * 1_000_003 + seed)
    tree_height = _tree_height_for(spec)

    a_codes = _sample_left_half(
        rng, spec.a_size, spec.a_heights, tree_height
    )
    num_matched = int(round(spec.match_fraction * min(spec.a_size, spec.d_size)))
    num_matched = min(num_matched, spec.d_size)
    d_codes = _plant_matches(rng, a_codes, spec.d_heights, num_matched)
    d_codes.update(
        _sample_right_half(
            rng, spec.d_size - len(d_codes), spec.d_heights, tree_height
        )
    )

    dataset = SyntheticDataset(spec=spec, tree_height=tree_height)
    dataset.a_codes = list(a_codes)
    dataset.d_codes = list(d_codes)
    rng.shuffle(dataset.a_codes)
    rng.shuffle(dataset.d_codes)
    dataset.num_results = count_results(dataset.a_codes, dataset.d_codes)
    return dataset


def _sample_left_half(
    rng: random.Random,
    count: int,
    heights: tuple[int, ...],
    tree_height: int,
) -> set[int]:
    """Distinct codes at the given heights, alpha in the left half."""
    codes: set[int] = set()
    while len(codes) < count:
        height = heights[rng.randrange(len(heights))]
        level = tree_height - height - 1
        half = 1 << (level - 1)  # left half of this level
        alpha = rng.randrange(half)
        codes.add(pbitree.g_code(alpha, level, tree_height))
    return codes


def _sample_right_half(
    rng: random.Random,
    count: int,
    heights: tuple[int, ...],
    tree_height: int,
) -> set[int]:
    codes: set[int] = set()
    while len(codes) < count:
        height = heights[rng.randrange(len(heights))]
        level = tree_height - height - 1
        half = 1 << (level - 1)
        alpha = half + rng.randrange(half)
        codes.add(pbitree.g_code(alpha, level, tree_height))
    return codes


def _plant_matches(
    rng: random.Random,
    a_codes: set[int],
    d_heights: tuple[int, ...],
    count: int,
) -> set[int]:
    """Sample ``count`` distinct descendants under random ancestors."""
    ancestors = list(a_codes)
    matched: set[int] = set()
    attempts = 0
    limit = 20 * count + 100
    while len(matched) < count and attempts < limit:
        attempts += 1
        a_code = ancestors[rng.randrange(len(ancestors))]
        a_height = pbitree.height_of(a_code)
        usable = [h for h in d_heights if h < a_height]
        if not usable:
            continue
        height = usable[rng.randrange(len(usable))]
        slots = pbitree.subtree_codes_at_height(a_code, height)
        matched.add(slots[rng.randrange(len(slots))])
    return matched


def count_results(a_codes: list[int], d_codes: list[int]) -> int:
    """Exact containment-join cardinality (in-memory MHCJ count)."""
    by_height: dict[int, set[int]] = {}
    for code in a_codes:
        by_height.setdefault(pbitree.height_of(code), set()).add(code)
    heights = sorted(by_height, reverse=True)
    total = 0
    height_of = pbitree.height_of
    f_ancestor = pbitree.f_ancestor
    for d_code in d_codes:
        d_height = height_of(d_code)
        for height in heights:
            if height <= d_height:
                break
            if f_ancestor(d_code, height) in by_height[height]:
                total += 1
    return total
