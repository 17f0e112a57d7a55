"""Metric names and units, read from the checkout's ``BENCHMARK.json``,
the one place they are listed."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(section: str) -> dict[str, str]:
    """Metric name -> unit of ``end_to_end`` or ``per_layer``, in file order."""
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}
