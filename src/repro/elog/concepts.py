"""Concept conditions: semantic and syntactic built-in predicates.

Section 3.3: "Concept condition predicates subsume semantic concepts like
isCountry(X) or isCurrency(X) and syntactic ones like isDate(X) [...]  Some
predicates are built-in to enrich the system, while more can be interactively
added.  Syntactic predicates are created as regular expressions, whereas
semantic ones refer to an ontological database."

The paper's ontological database is replaced by the bundled vocabularies
below (a documented substitution, see DESIGN.md); the registry is fully
user-extensible through :meth:`ConceptRegistry.register_*`.
"""

from __future__ import annotations

import re
from datetime import datetime
from typing import Callable, Dict, Iterable, Optional

CURRENCY_TOKENS = {
    "$", "€", "£", "¥", "usd", "eur", "euro", "euros", "gbp", "chf", "jpy",
    "dm", "ats", "cad", "aud", "sek", "nok", "dkk", "czk", "huf", "pln",
    "dollar", "dollars", "cent", "cents", "pound", "pounds",
}

COUNTRIES = {
    "austria", "germany", "france", "italy", "spain", "portugal", "belgium",
    "netherlands", "luxembourg", "switzerland", "united kingdom", "uk",
    "ireland", "denmark", "sweden", "norway", "finland", "iceland", "greece",
    "poland", "czech republic", "slovakia", "hungary", "slovenia", "croatia",
    "romania", "bulgaria", "estonia", "latvia", "lithuania", "russia",
    "ukraine", "turkey", "united states", "usa", "canada", "mexico", "brazil",
    "argentina", "chile", "china", "japan", "south korea", "india",
    "australia", "new zealand", "south africa", "egypt", "israel",
}

DATE_PATTERNS = (
    r"\d{1,2}[./-]\d{1,2}[./-]\d{2,4}",
    r"\d{4}-\d{2}-\d{2}",
    r"(?:jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\.?\s+\d{1,2},?\s+\d{4}",
    r"\d{1,2}\.\s?(?:jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\.?\s?\d{4}",
)

TIME_PATTERN = r"\b\d{1,2}:\d{2}(?::\d{2})?\s*(?:am|pm)?\b"
NUMBER_PATTERN = r"-?\d{1,3}(?:[.,]\d{3})*(?:[.,]\d+)?|-?\d+(?:[.,]\d+)?"
PRICE_PATTERN = (
    r"(?:[$€£¥]\s*\d[\d.,]*)|(?:\d[\d.,]*\s*(?:€|EUR|USD|GBP|\$|£|Euro|euro))"
)
EMAIL_PATTERN = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
URL_PATTERN = r"https?://[^\s<>\"]+|www\.[^\s<>\"]+"
FLIGHT_NUMBER_PATTERN = r"\b[A-Z]{2}\s?\d{2,4}\b"
PERCENT_PATTERN = r"-?\d+(?:[.,]\d+)?\s?%"

ConceptFunction = Callable[[str], bool]


class RegexConcept:
    """A regex-backed concept predicate (case-insensitive; ``full_match``
    anchors it to the whole stripped value)."""

    def __init__(self, pattern: str, full_match: bool = False) -> None:
        self.pattern = pattern
        self.full_match = full_match
        self._compiled = re.compile(pattern, re.IGNORECASE)

    def __call__(self, value: str) -> bool:
        if self.full_match:
            return bool(self._compiled.fullmatch(value.strip()))
        return bool(self._compiled.search(value))


class VocabularyConcept:
    """A vocabulary-membership concept predicate (case-insensitive)."""

    def __init__(self, words: Iterable[str]) -> None:
        self.vocabulary = frozenset(word.strip().lower() for word in words)

    def __call__(self, value: str) -> bool:
        return value.strip().lower() in self.vocabulary


class ConceptRegistry:
    """Named unary string predicates, extensible at run time."""

    def __init__(self) -> None:
        self._functions: Dict[str, ConceptFunction] = {}
        self._install_builtins()

    # -- registration ------------------------------------------------------
    def register_function(self, name: str, function: ConceptFunction) -> None:
        self._functions[name] = function

    def register_regex(self, name: str, pattern: str, full_match: bool = False) -> None:
        self._functions[name] = RegexConcept(pattern, full_match=full_match)

    def register_vocabulary(self, name: str, words: Iterable[str]) -> None:
        self._functions[name] = VocabularyConcept(words)

    # -- lookup / evaluation -------------------------------------------------
    def names(self) -> Iterable[str]:
        return sorted(self._functions)

    def has(self, name: str) -> bool:
        return name in self._functions

    def check(self, name: str, value: object) -> bool:
        if name not in self._functions:
            raise KeyError(f"unknown concept predicate {name!r}")
        return self._functions[name](str(value))

    # -- built-ins -----------------------------------------------------------
    def _install_builtins(self) -> None:
        self.register_function("isCurrency", _is_currency)
        self.register_vocabulary("isCountry", COUNTRIES)
        self.register_function("isDate", _is_date)
        self.register_regex("isTime", TIME_PATTERN, full_match=False)
        self.register_regex("isNumber", NUMBER_PATTERN, full_match=True)
        self.register_regex("isPrice", PRICE_PATTERN, full_match=False)
        self.register_regex("isEmail", EMAIL_PATTERN, full_match=False)
        self.register_regex("isUrl", URL_PATTERN, full_match=False)
        self.register_regex("isFlightNumber", FLIGHT_NUMBER_PATTERN, full_match=False)
        self.register_regex("isPercentage", PERCENT_PATTERN, full_match=False)


def _is_currency(value: str) -> bool:
    token = value.strip().lower()
    if token in CURRENCY_TOKENS:
        return True
    # a currency symbol somewhere in a short token ("US $", "EUR ")
    return any(symbol in value for symbol in ("$", "€", "£", "¥")) or any(
        re.search(rf"\b{re.escape(word)}\b", token) for word in ("eur", "usd", "gbp", "euro", "dm")
    )


def _is_date(value: str) -> bool:
    text = value.strip().lower()
    for pattern in DATE_PATTERNS:
        if re.search(pattern, text):
            return True
    return False


def parse_number(value: str) -> Optional[float]:
    """Best-effort numeric parsing ('1.234,56', '1,234.56', '42')."""
    text = value.strip().replace(" ", "")
    text = re.sub(r"[^\d.,\-]", "", text)
    if not text:
        return None
    if "," in text and "." in text:
        if text.rfind(",") > text.rfind("."):
            text = text.replace(".", "").replace(",", ".")
        else:
            text = text.replace(",", "")
    elif "," in text:
        # single comma: decimal separator if followed by <= 2 digits
        integer, _, fraction = text.rpartition(",")
        if len(fraction) in (1, 2):
            text = f"{integer.replace(',', '')}.{fraction}"
        else:
            text = text.replace(",", "")
    try:
        return float(text)
    except ValueError:
        return None


def parse_date(value: str) -> Optional[datetime]:
    """Best-effort date parsing for comparison conditions."""
    text = value.strip()
    formats = (
        "%Y-%m-%d", "%d.%m.%Y", "%d/%m/%Y", "%m/%d/%Y", "%d-%m-%Y",
        "%b %d, %Y", "%B %d, %Y", "%d. %b %Y", "%d %b %Y",
    )
    for fmt in formats:
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    return None


DEFAULT_CONCEPTS = ConceptRegistry()
