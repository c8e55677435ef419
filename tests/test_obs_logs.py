"""Tests for the ``repro`` logging hierarchy (`repro.obs.logs`)."""

from __future__ import annotations

import io
import logging
import sys

import pytest

from repro.obs import configure_logging, get_logger


@pytest.fixture()
def repro_root():
    root = logging.getLogger("repro")
    level, handlers = root.level, list(root.handlers)
    yield root
    for handler in root.handlers:
        if handler not in handlers:
            root.removeHandler(handler)
    root.setLevel(level)


def test_default_handler_follows_sys_stdout(repro_root, monkeypatch):
    first = io.StringIO()
    monkeypatch.setattr(sys, "stdout", first)
    configure_logging("info")
    second = io.StringIO()
    monkeypatch.setattr(sys, "stdout", second)
    first.close()
    get_logger("test").info("after the swap")
    assert "after the swap" in second.getvalue()


def test_explicit_stream_is_kept(repro_root):
    stream = io.StringIO()
    configure_logging("debug", stream=stream)
    get_logger("test").debug("to the given stream")
    assert "to the given stream" in stream.getvalue()
