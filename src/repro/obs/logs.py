"""The ``repro`` stdlib-logging hierarchy used by the serve/router paths.

Library code calls :func:`get_logger` and logs at will; with no handler
configured the records vanish silently (the stdlib default for library
loggers, via a :class:`logging.NullHandler` on the root ``repro`` logger).
The CLI entry points call :func:`configure_logging` to attach a stdout
stream handler at the requested level — so ``repro-mtv serve --log-level
debug`` turns the whole service chatty while the test-suite stays quiet.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["configure_logging", "get_logger"]

_ROOT = "repro"
_FORMAT = "%(asctime)s %(levelname)s %(name)s %(message)s"

logging.getLogger(_ROOT).addHandler(logging.NullHandler())


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``repro.service.core``, ...)."""
    if not name.startswith(_ROOT):
        name = f"{_ROOT}.{name}"
    return logging.getLogger(name)


class _CurrentStdout:
    """A stream that writes to whatever ``sys.stdout`` is at emit time.

    Binding a handler to the ``sys.stdout`` object of the moment breaks as
    soon as that object is swapped out and closed (output capture, a
    redirecting caller): every later record would fail with ``I/O operation
    on closed file``.
    """

    def write(self, text: str) -> int:
        return sys.stdout.write(text)

    def flush(self) -> None:
        sys.stdout.flush()


def configure_logging(level: str = "info", stream=None) -> logging.Logger:
    """Attach a stream handler to the ``repro`` logger (idempotent).

    Without a ``stream`` the handler writes to the current ``sys.stdout``
    each time a record is emitted.  Repeated calls reuse/retarget the one
    handler instead of stacking duplicates, so tests can call this freely.
    """
    root = logging.getLogger(_ROOT)
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level: {level!r}")
    target = stream if stream is not None else _CurrentStdout()
    handler = next(
        (
            existing
            for existing in root.handlers
            if getattr(existing, "_repro_cli", False)
        ),
        None,
    )
    if handler is None:
        handler = logging.StreamHandler(target)
        handler._repro_cli = True  # type: ignore[attr-defined]
        handler.setFormatter(logging.Formatter(_FORMAT))
        root.addHandler(handler)
    else:
        handler.setStream(target)
    root.setLevel(numeric)
    return root
