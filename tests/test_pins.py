"""Every sha256 pin of ``scripts/pins.py``, one test per pin, so that a
refactoring which changes a pinned byte fails here and names the pin."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location("pins", Path(__file__).resolve().parents[1] / "scripts" / "pins.py")
pins = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pins)


@pytest.mark.parametrize("name", pins.PINS)
def test_pin(name):
    pin, pinned = pins.PINS[name]
    assert pins.digest(pin) == pinned
