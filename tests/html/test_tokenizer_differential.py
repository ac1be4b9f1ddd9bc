"""Differential and fuzz tests: the tokenizer against the stdlib oracle.

``parse_html`` must build the same tree (labels, attributes, texts,
parents) as ``tests/html/oracle.py`` on every page the synthetic sites
serve and on generated tag soup.  The soup stays inside the markup on
which the stdlib's ``HTMLParser`` behaves the same on every supported
Python version; ``test_parser.py`` pins explicit trees for the rest.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.html import parse_html
from repro.html.parser import IMPLIED_END_TAGS, VOID_ELEMENTS
from repro.tree.document import Document
from repro.web.sites.bookstore import bookstore_site
from repro.web.sites.ebay import ebay_page, ebay_site, perturb_layout
from repro.web.sites.flights import airport_site
from repro.web.sites.markets import competitor_sites, power_trading_site, viticulture_page
from repro.web.sites.music import now_playing_site
from repro.web.sites.news import press_clipping_site

from .oracle import oracle_parse_html, tree_shape


def _site_pages() -> Iterator[Tuple[str, str]]:
    sites: Dict[str, Dict[str, str]] = {
        "bookstore": bookstore_site(count=8, seed=1),
        "ebay": ebay_site(pages=3, items_per_page=12, seed=2),
        "flights": airport_site("Vienna", count=10, seed=3),
        "competitors": competitor_sites(shops=3, count=6, seed=4),
        "power": power_trading_site(seed=5),
        "music": now_playing_site(seed=6),
        "news": press_clipping_site(count=6, seed=7),
    }
    for site, pages in sites.items():
        for url, markup in pages.items():
            yield f"{site}:{url}", markup
    yield "viticulture", viticulture_page(seed=8)
    for count in (0, 1, 10, 40):
        markup = ebay_page(count=count, seed=count)
        yield f"ebay_page:{count}", markup
        for seed in range(3):
            yield f"ebay_page:{count}:perturbed:{seed}", perturb_layout(markup, seed=seed)


SITE_PAGES = dict(_site_pages())


def assert_same_tree(markup: str, keep_whitespace_text: bool) -> Document:
    document = parse_html(markup, keep_whitespace_text=keep_whitespace_text)
    expected = oracle_parse_html(markup, keep_whitespace_text=keep_whitespace_text)
    assert tree_shape(document) == tree_shape(expected), markup
    return document


@pytest.mark.parametrize("keep_whitespace_text", [False, True])
@pytest.mark.parametrize("page", sorted(SITE_PAGES))
def test_every_site_page_parses_like_the_oracle(page, keep_whitespace_text):
    document = assert_same_tree(SITE_PAGES[page], keep_whitespace_text)
    assert document.element_count() > 1


# Runs longer than one regex match reads (``_CHUNK`` repeated items).
LONG_RUNS = {
    "attributes": '<div id="top"' + "".join(f" a{i}='{i}'" for i in range(200)) + ">x</div>",
    "valueless attributes": "<td" + " nowrap" * 150 + " class=c/>y",
    "text with bare less-than": "<p>" + "a < b &amp; " * 200 + "</p>z",
}


@pytest.mark.parametrize("keep_whitespace_text", [False, True])
@pytest.mark.parametrize("run", sorted(LONG_RUNS))
def test_runs_longer_than_one_match_parse_like_the_oracle(run, keep_whitespace_text):
    assert_same_tree(LONG_RUNS[run], keep_whitespace_text)


# -- tag soup ---------------------------------------------------------------

# Elements with implied end tags (and the ones they close), a few plain
# containers, and the void elements.
CONTAINERS = sorted(
    set(IMPLIED_END_TAGS).union(*IMPLIED_END_TAGS.values())
    | {"div", "span", "a", "b", "table", "ul", "body"}
)
VOIDS = sorted(VOID_ELEMENTS)
ENTITIES = ["&amp;", "&lt;", "&gt;", "&quot;", "&#65;", "&#x263A;", "&euro;", "&nbsp;"]
WHITESPACE = st.text(alphabet=" \t\n", min_size=1, max_size=3)


def mixed_case(names):
    return st.sampled_from(names).flatmap(
        lambda name: st.lists(st.booleans(), min_size=len(name), max_size=len(name)).map(
            lambda upper: "".join(
                char.upper() if up else char for char, up in zip(name, upper)
            )
        )
    )


words = st.sampled_from(["price", "EUR", "12.50", "item", "x", "a < b", "3 > 2"])
text_runs = st.lists(
    st.one_of(words, WHITESPACE, st.sampled_from(ENTITIES)), min_size=1, max_size=4
).map("".join)

attribute_values = st.text(
    alphabet=st.sampled_from(list("abc XYZ019./-_>'")), max_size=6
).flatmap(
    lambda value: st.sampled_from(
        [
            f'="{value}"',
            f"='{value.replace(chr(39), '')}'",
            f' = "{value}&amp;{value}"',
            "=" + ("".join(char for char in value if char.isalnum()) or "v"),
            "",
        ]
    )
)
attribute_names = mixed_case(["class", "id", "href", "data-x", "nowrap", "title"])
attributes = st.lists(
    st.tuples(WHITESPACE, attribute_names, attribute_values), max_size=3
).map(lambda items: "".join(space + name + value for space, name, value in items))


@st.composite
def elements(draw, children):
    tag = draw(mixed_case(CONTAINERS))
    opening = f"<{tag}{draw(attributes)}{draw(st.sampled_from(['', ' ']))}>"
    closing = f"</{tag}>" if draw(st.booleans()) else ""
    return opening + "".join(draw(st.lists(children, max_size=4))) + closing


leaves = st.one_of(
    text_runs,
    st.builds(
        lambda tag, attrs, end: f"<{tag}{attrs}{end}",
        mixed_case(VOIDS),
        attributes,
        st.sampled_from([">", "/>", " />"]),
    ),
    st.builds(lambda body: f"<!--{body}-->", st.text(alphabet="abc <&;\n", max_size=8)),
    st.builds(lambda tag: f"</{tag}>", mixed_case(CONTAINERS)),
    st.builds(
        lambda tag, body: f"<{tag}>{body}</{tag}>",
        st.sampled_from(["script", "style", "SCRIPT"]),
        st.text(alphabet="ab =;{}&<\n", max_size=10),
    ),
)
tag_soup = st.recursive(leaves, lambda children: elements(children), max_leaves=25)


@settings(max_examples=150, deadline=None)
@given(soup=st.lists(tag_soup, min_size=1, max_size=5).map("".join), keep=st.booleans())
def test_tag_soup_parses_like_the_oracle(soup, keep):
    assert_same_tree(soup, keep_whitespace_text=keep)


# -- fuzz: never raises -----------------------------------------------------

markupish = st.text(alphabet=st.sampled_from(list("<>!-/?=\"' \t\nabAB&;#x1[]")), max_size=60)


@settings(max_examples=300, deadline=None)
@given(markup=st.one_of(st.text(), markupish), keep=st.booleans())
def test_any_text_parses_to_a_document(markup, keep):
    document = parse_html(markup, keep_whitespace_text=keep)
    assert isinstance(document, Document)
    assert document.root.label == "#document"
