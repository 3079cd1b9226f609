"""Tests for repro.utils.logging — the namespaced logger."""

import logging

from repro.utils.logging import enable_console_logging, get_logger


class TestGetLogger:
    def test_root_name(self):
        assert get_logger().name == "repro"

    def test_child_name(self):
        assert get_logger("phi").name == "repro.phi"

    def test_enable_console_attaches_handler(self):
        logger = get_logger()
        before = list(logger.handlers)
        handler = enable_console_logging(logging.DEBUG)
        try:
            assert handler in logger.handlers
        finally:
            logger.removeHandler(handler)
            assert logger.handlers == before
