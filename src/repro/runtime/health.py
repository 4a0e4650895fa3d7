"""Error classification: which failed units earn a retry.

The retry loop would otherwise treat every failure the same. A unit that
raises ``ModuleNotFoundError`` will raise it on every worker -- retrying
it burns the attempt budget and the wall clock for nothing.
:func:`classify_error` separates the two kinds: *transient* failures
(timeouts, crashed workers, flaky probes) earn retries with backoff;
*permanent* failures (bad spec, unknown unit kind, import errors) skip
the retry loop entirely and surface immediately.

Classification must work across process boundaries, where the exception
object is gone and only a summary string (``"ExcName: message"``) or a
:class:`~repro.runtime.executors.base.WorkerError` with that summary
survives -- so classification is by exception *type name*, checked
against the full MRO in-process and against the summary's leading name
otherwise.
"""

from __future__ import annotations

from typing import Tuple

#: Classification labels carried on ``UnitOutcome.classification``.
TRANSIENT = "transient"
PERMANENT = "permanent"

#: Exception type names whose failures no amount of retrying will fix:
#: the unit spec itself is bad, the code it names is missing, or the
#: fault plan explicitly asked for a permanent error.
PERMANENT_ERROR_NAMES = frozenset(
    {
        "UnitSpecError",
        "ConfigurationError",
        "FormatError",
        "ImportError",
        "ModuleNotFoundError",
        "AttributeError",
        "TypeError",
        "PermanentFaultInjected",
    }
)


def _names_from_summary(summary: str) -> Tuple[str, ...]:
    """The exception type name leading an ``"ExcName: message"`` summary."""
    head = summary.split(":", 1)[0].strip()
    # A bare type name is a single identifier; anything with spaces is
    # prose (e.g. "unit exceeded 5s timeout"), not a type name.
    if head and " " not in head:
        return (head.rsplit(".", 1)[-1],)
    return ()


def classify_error(error: object) -> str:
    """Classify an exception (or its summary string) as transient/permanent.

    Accepts a live exception (classified by its MRO, so subclasses of a
    permanent type inherit permanence), a ``WorkerError`` whose message
    leads with the original type name, or a bare summary string.
    """
    names: Tuple[str, ...]
    if isinstance(error, BaseException):
        names = tuple(klass.__name__ for klass in type(error).__mro__)
        # Worker-side failures come back as WorkerError("ExcName: ..."):
        # the interesting name is inside the message, not the MRO.
        message_names = _names_from_summary(str(error))
        names = names + message_names
    elif isinstance(error, str):
        names = _names_from_summary(error)
    else:
        names = ()
    if any(name in PERMANENT_ERROR_NAMES for name in names):
        return PERMANENT
    return TRANSIENT
