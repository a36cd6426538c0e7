"""Micro-benchmarks of the coding-scheme claims in Section 2.3.

The paper argues PBiTree codes support (a) O(1) ancestor verification,
(b) O(1) ancestor-at-height computation with shifts only, and (c) cheap
conversion to region and prefix codes.  These benchmarks time each
primitive over an array of codes and compare code-based verification
against region-based verification.

Two views of every timing are reported:

* ``ns_per_element`` in ``extra_info`` — the per-element cost, which is
  what the O(1) claims are actually about (the raw pytest-benchmark
  table shows whole-array times);
* a batch-size sweep (64 / 256 / 1024 / page) over the bulk kernels of
  :mod:`repro.core.batch`, showing how the vectorized hot path
  amortises interpreter overhead as the chunk grows.  "page" is the
  record capacity of the default 1 KiB page — the natural chunk the
  storage layer hands the join operators.
"""

import random

import pytest

from repro.core import batch, pbitree as pt

TREE_HEIGHT = 30
NUM_CODES = 20_000
#: code records per default 1 KiB page (8-byte records)
PAGE_RECORDS = 1024 // 8
BATCH_SIZES = [64, 256, 1024, PAGE_RECORDS]
BATCH_IDS = ["64", "256", "1024", "page"]


def record_per_element(benchmark, count):
    """Report the per-element cost next to the whole-array timing
    (nothing to report when timing is off, under ``--benchmark-disable``)."""
    if benchmark.stats is None:
        return
    benchmark.extra_info["elements"] = count
    benchmark.extra_info["ns_per_element"] = round(
        benchmark.stats.stats.mean / count * 1e9, 2
    )


def chunked(codes, size):
    return [codes[i : i + size] for i in range(0, len(codes), size)]


@pytest.fixture(scope="module")
def codes():
    rng = random.Random(42)
    top = (1 << TREE_HEIGHT) - 1
    return [rng.randrange(1, top + 1) for _ in range(NUM_CODES)]


@pytest.fixture(scope="module")
def pairs(codes):
    rng = random.Random(43)
    mixed = []
    for code in codes[: NUM_CODES // 2]:
        height = pt.height_of(code)
        if height < TREE_HEIGHT - 1 and rng.random() < 0.5:
            anc_height = rng.randrange(height + 1, TREE_HEIGHT)
            mixed.append((pt.f_ancestor(code, anc_height), code))
        else:
            mixed.append((rng.randrange(1, 1 << TREE_HEIGHT), code))
    return mixed


# ----------------------------------------------------------------------
# scalar primitives (the per-element oracle path)
# ----------------------------------------------------------------------
def test_f_ancestor_throughput(benchmark, codes):
    f = pt.f_ancestor

    def run():
        total = 0
        for code in codes:
            total += f(code, 20)
        return total

    assert benchmark(run) > 0
    record_per_element(benchmark, len(codes))


def test_height_of_throughput(benchmark, codes):
    height_of = pt.height_of

    def run():
        return sum(height_of(code) for code in codes)

    benchmark(run)
    record_per_element(benchmark, len(codes))


def test_is_ancestor_code_based(benchmark, pairs):
    is_ancestor = pt.is_ancestor

    def run():
        return sum(1 for a, d in pairs if is_ancestor(a, d))

    matches = benchmark(run)
    assert matches > 0
    record_per_element(benchmark, len(pairs))


def test_is_ancestor_region_based(benchmark, pairs):
    """The equivalent check after converting to region codes on the fly."""
    region_of = pt.region_of

    def run():
        count = 0
        for a, d in pairs:
            ra = region_of(a)
            rd = region_of(d)
            if ra.start <= rd.start and rd.end <= ra.end and ra != rd:
                count += 1
        return count

    matches = benchmark(run)
    assert matches > 0
    record_per_element(benchmark, len(pairs))


def test_region_conversion_throughput(benchmark, codes):
    region_of = pt.region_of

    def run():
        return sum(region_of(code).start for code in codes)

    benchmark(run)
    record_per_element(benchmark, len(codes))


def test_prefix_conversion_throughput(benchmark, codes):
    prefix_of = pt.prefix_of

    def run():
        return sum(prefix_of(code) for code in codes)

    benchmark(run)
    record_per_element(benchmark, len(codes))


# ----------------------------------------------------------------------
# bulk kernels: batch-size sweep over the vectorized conversions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", BATCH_SIZES, ids=BATCH_IDS)
def test_bulk_height_conversion(benchmark, codes, size):
    chunks = chunked(codes, size)

    def run():
        return sum(sum(batch.heights(chunk)) for chunk in chunks)

    benchmark(run)
    benchmark.extra_info["batch_size"] = size
    record_per_element(benchmark, len(codes))


@pytest.mark.parametrize("size", BATCH_SIZES, ids=BATCH_IDS)
def test_bulk_region_conversion(benchmark, codes, size):
    chunks = chunked(codes, size)

    def run():
        total = 0
        for chunk in chunks:
            total += len(batch.regions(chunk))
        return total

    assert benchmark(run) == len(codes)
    benchmark.extra_info["batch_size"] = size
    record_per_element(benchmark, len(codes))


@pytest.mark.parametrize("size", BATCH_SIZES, ids=BATCH_IDS)
def test_bulk_prefix_conversion(benchmark, codes, size):
    chunks = chunked(codes, size)

    def run():
        total = 0
        for chunk in chunks:
            total += len(batch.prefixes(chunk))
        return total

    assert benchmark(run) == len(codes)
    benchmark.extra_info["batch_size"] = size
    record_per_element(benchmark, len(codes))


@pytest.mark.parametrize("kernel", ["doc_order_keys", "codes_of_doc_keys"])
@pytest.mark.parametrize("size", BATCH_SIZES, ids=BATCH_IDS)
def test_bulk_doc_order_keys(benchmark, codes, size, kernel):
    """The external sort's decorate (codes -> keys) and undecorate
    (keys -> codes) kernels."""
    chunks = chunked(codes, size)
    if kernel == "codes_of_doc_keys":
        chunks = [batch.doc_order_keys(chunk) for chunk in chunks]
    convert = getattr(batch, kernel)

    def run():
        total = 0
        for chunk in chunks:
            total += len(convert(chunk))
        return total

    assert benchmark(run) == len(codes)
    benchmark.extra_info["batch_size"] = size
    benchmark.extra_info["kernel"] = kernel
    record_per_element(benchmark, len(codes))


def test_sort_doc_order_run(benchmark, codes):
    """One in-memory sort run of the external sort: 6,300 codes, the
    records of 50 pages of 1 KiB."""
    run = codes[:6300]
    assert benchmark(batch.sort_doc_order, run) == sorted(
        run, key=pt.doc_order_key
    )
    record_per_element(benchmark, len(run))


@pytest.mark.parametrize("size", BATCH_SIZES, ids=BATCH_IDS)
def test_bulk_descendant_probe(benchmark, codes, size):
    """One ancestor probed against the whole array, chunk by chunk —
    the inner loop shape of the batched merge and index joins."""
    anchor = pt.f_ancestor(codes[0], TREE_HEIGHT - 2)
    chunks = chunked(codes, size)

    def run():
        return sum(batch.count_matches(anchor, chunk) for chunk in chunks)

    benchmark(run)
    benchmark.extra_info["batch_size"] = size
    record_per_element(benchmark, len(codes))


# ----------------------------------------------------------------------
# correctness pins for what the benchmarks time
# ----------------------------------------------------------------------
def test_code_and_region_verification_agree(pairs):
    for a, d in pairs:
        assert pt.is_ancestor(a, d) == pt.region_of(a).contains(pt.region_of(d))


def test_bulk_kernels_agree_with_scalar(codes):
    sample = codes[:512]
    assert batch.heights(sample) == [pt.height_of(c) for c in sample]
    assert batch.regions(sample) == [pt.region_of(c) for c in sample]
    assert batch.prefixes(sample) == [pt.prefix_of(c) for c in sample]
