"""Library logging: the namespaced ``repro`` logger.

The library never configures the root logger; applications opt in with
:func:`enable_console_logging`.  Training progress is reported through
the callback bus (:class:`repro.train.callbacks.ProgressLogger`), which
logs to a child of this logger.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

LOGGER_NAME = "repro"


def get_logger(child: Optional[str] = None) -> logging.Logger:
    """Return the package logger or a named child of it."""
    name = LOGGER_NAME if child is None else f"{LOGGER_NAME}.{child}"
    return logging.getLogger(name)


def enable_console_logging(level: int = logging.INFO) -> logging.Handler:
    """Attach a stderr handler to the package logger (idempotent-ish helper)."""
    logger = get_logger()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(name)s %(levelname)s: %(message)s")
    )
    logger.addHandler(handler)
    logger.setLevel(level)
    return handler
