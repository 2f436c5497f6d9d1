"""Smoke tests keeping the example scripts runnable.

Each example runs in a subprocess exactly as a user would invoke it; the
slowest multi-scenario ones are exercised at reduced scope elsewhere
(scenario tests), so only the fast ones run here.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: float = 240.0) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "T-Ratio" in out
    assert "hourly T-Ratio series" in out


def test_overlay_tour():
    out = run_example("overlay_tour.py")
    assert "zone partitioning" in out
    assert "INSCAN" in out
    assert "found [(999," in out  # the planted record is discovered


def test_range_query_cost():
    out = run_example("range_query_cost.py")
    assert "flood msgs" in out
    # flood traffic grows down the table while PID stays bounded
    lines = [l for l in out.splitlines() if l.strip() and l.strip()[0] == "0"]
    assert len(lines) == 4


def test_fault_tolerance():
    out = run_example("fault_tolerance.py")
    assert "tasks recovered" in out


def test_examples_all_have_docstrings_and_main():
    for script in EXAMPLES.glob("*.py"):
        text = script.read_text()
        assert text.startswith("#!") or text.startswith('"""'), script
        assert '__name__ == "__main__"' in text, script
