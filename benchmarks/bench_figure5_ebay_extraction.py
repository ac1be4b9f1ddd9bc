"""Experiment E7 (Figure 5): throughput of the eBay wrapper.

The Figure 5 Elog program is run against synthetic eBay result pages of
growing size; the printed table reports records per second and checks the
extraction stays complete (one record / description / price / bids group per
offered item).  The median extraction time per page size is recorded as
``figure5_extract_<records>_s``, and extraction must stay linear in the
page: the time per record at 160 records may be at most
``MAX_PER_RECORD_GROWTH`` times the time per record at 10.

The HTML parse of the same pages, the layer in front of the wrapper, is
recorded as the ``html_parse_ebay_page_<records>_ms`` series (median
milliseconds per page, with n and IQR under ``..._spread``).

Inside the wrapper, the element-path layer is recorded per path shape as
``find_targets_<shape>_ms`` (median milliseconds per ``find_targets`` call
over the largest page): ``?.td`` with and without Figure 5's price
condition and ``?.body`` are region queries on the document's label
columns, ``?.td.?.a`` is the automaton walk.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.elog import ElementPath, Extractor, figure5_program
from repro.html import parse_html
from repro.web.sites.ebay import ebay_page

PAGE_SIZES = (10, 40, 160)
REPEATS = 5
PARSE_REPEATS = 21
#: A quadratic interpreter reads ~8x here; a linear one ~1x.
MAX_PER_RECORD_GROWTH = 2.5
#: ``(series name, element path, parent label)``; ``None`` is the root.
FIND_TARGETS_SHAPES = (
    ("td", "?.td", "body"),
    ("td_regvar", r"(?.td, [(elementtext, \var[Y].*, regvar)])", "body"),
    ("td_a", "?.td.?.a", "body"),
    ("body", "?.body", None),
)
FIND_TARGETS_REPEATS = 21
#: Calls per sample, so a sample of a microsecond query is not all timer.
FIND_TARGETS_BATCH = 20


def test_extraction_completeness_and_throughput(bench_record):
    program = figure5_program()
    medians = {}
    for count in PAGE_SIZES:
        document = parse_html(ebay_page(count=count, seed=7), url="www.ebay.com")
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            base = Extractor(program).extract(document=document)
            samples.append(time.perf_counter() - start)
        assert base.count("record") == count
        assert base.count("itemdes") == count
        assert base.count("price") == count
        assert base.count("bids") == count
        medians[count] = statistics.median(samples)
        bench_record(f"figure5_extract_{count}_s", medians[count])
    print("\nE7  Figure 5 eBay wrapper throughput (median of", REPEATS, "runs)")
    print(f"{'records':>8} {'seconds':>10} {'records/s':>12} {'us/record':>10}")
    for count, elapsed in medians.items():
        per_record_us = elapsed / count * 1e6
        print(f"{count:>8} {elapsed:>10.4f} {count / elapsed:>12.1f} {per_record_us:>10.0f}")
    smallest, largest = PAGE_SIZES[0], PAGE_SIZES[-1]
    growth = (medians[largest] / largest) / (medians[smallest] / smallest)
    assert growth <= MAX_PER_RECORD_GROWTH, (
        f"per-record time grows {growth:.1f}x from {smallest} to {largest} records"
    )


def test_html_parse_time_per_page(bench_record_samples):
    print("\nE7  HTML parse of the eBay pages (median of", PARSE_REPEATS, "runs)")
    print(f"{'records':>8} {'ms/page':>10}")
    for count in PAGE_SIZES:
        markup = ebay_page(count=count, seed=7)
        samples = []
        for _ in range(PARSE_REPEATS):
            start = time.perf_counter()
            document = parse_html(markup, url="www.ebay.com")
            samples.append((time.perf_counter() - start) * 1e3)
        # The navigation and list-header tables, then one table per item.
        assert len(document.find_all("table")) == count + 2
        median = bench_record_samples(f"html_parse_ebay_page_{count}_ms", samples)
        print(f"{count:>8} {median:>10.3f}")


def test_find_targets_time_per_shape(bench_record_samples):
    count = PAGE_SIZES[-1]
    document = parse_html(ebay_page(count=count, seed=7), url="www.ebay.com")
    print(f"\nE7  find_targets per path shape over a {count}-record page "
          f"(median of {FIND_TARGETS_REPEATS} samples)")
    print(f"{'shape':>10} {'hits':>6} {'ms/call':>10}")
    for shape, text, parent_label in FIND_TARGETS_SHAPES:
        path = ElementPath.parse(text)
        parent = document.find_first(parent_label) if parent_label else document.root
        samples = []
        for _ in range(FIND_TARGETS_REPEATS):
            start = time.perf_counter()
            for _ in range(FIND_TARGETS_BATCH):
                found = path.find_targets(parent)
            samples.append((time.perf_counter() - start) * 1e3 / FIND_TARGETS_BATCH)
        # Every item has its priced cells and its hyperlinked description.
        assert len(found) >= (1 if shape == "body" else count)
        median = bench_record_samples(f"find_targets_{shape}_ms", samples)
        print(f"{shape:>10} {len(found):>6} {median:>10.4f}")


@pytest.mark.benchmark(group="E7-ebay")
def test_benchmark_figure5_wrapper(benchmark):
    program = figure5_program()
    document = parse_html(ebay_page(count=40, seed=9), url="www.ebay.com")
    benchmark(lambda: Extractor(program).extract(document=document))
