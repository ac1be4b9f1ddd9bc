"""The failure vocabulary of the serving stack.

Before this module, document acquisition failed with a bare ``KeyError``
(:class:`repro.web.SimulatedWeb`, :class:`repro.web.StaticDocumentFetcher`)
and nothing in the stack could tell a vanished page from a flaky one.  The
hierarchy here gives every fetch-boundary failure a type that encodes *how*
it should be handled:

* :class:`TransientFetchError` — worth retrying (timeouts, connection
  resets, the injected faults of :mod:`repro.resilience.faults`);
* :class:`PermanentFetchError` — retrying cannot help (404-style: the page
  is gone, the URL was never published);
* :class:`CircuitOpenError` — the per-host circuit breaker is refusing
  calls after consecutive failures (retrying *this call* is pointless; the
  host gets a probe after the cooldown);
* :class:`DeadlineExceeded` — the retry loop ran out of its total time
  budget before any attempt succeeded.

:class:`FetchError` subclasses :class:`KeyError` deliberately: every
pre-existing ``except KeyError`` at a fetch boundary (the Extractor's
lenient crawling fallback, test expectations) keeps working, while new code
can catch the precise class.
"""

from __future__ import annotations


class FetchError(KeyError):
    """A document acquisition failure (base of the fetch-error family).

    Subclasses :class:`KeyError` for compatibility with the pre-resilience
    contract, but renders its message like a normal exception (``KeyError``
    reprs its first argument, which garbles sentences).
    """

    def __init__(self, message: str, *, url: str = "") -> None:
        super().__init__(message)
        self.url = url

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


class TransientFetchError(FetchError):
    """A failure that may succeed on retry (timeout, reset, injected)."""


class PermanentFetchError(FetchError):
    """A failure no retry can fix (missing page, 404, malformed URL)."""


class CircuitOpenError(FetchError):
    """The per-host circuit breaker is open; the call was not attempted."""

    def __init__(self, message: str, *, url: str = "", host: str = "") -> None:
        super().__init__(message, url=url)
        self.host = host


class DeadlineExceeded(FetchError):
    """The retry loop exhausted its total deadline budget.

    ``__cause__`` carries the last underlying attempt error when one was
    seen before the budget ran out.
    """


#: Error types the retry layer treats as worth another attempt.  Everything
#: else — permanent fetch errors, evaluation bugs, programming errors —
#: fails the call on first sight.
TRANSIENT_ERRORS = (TransientFetchError, ConnectionError, TimeoutError)


def is_transient(error: BaseException) -> bool:
    """Whether ``error`` is worth retrying at the fetch boundary."""
    return isinstance(error, TRANSIENT_ERRORS)
