"""Linear time on hostile input.

A start-tag pattern with nested quantifiers backtracks exponentially when
the tag never closes: such a parser runs for minutes on ``'<a' + ' x' *
1000``.  Each input here is parsed at two sizes in a child process with a
timeout, so a regression fails the test instead of wedging the suite, and
doubling the input must roughly double the time, not quadruple it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

HOSTILE_INPUTS = {
    "unclosed valueless attributes": lambda n: "<a" + " x" * n,
    "unclosed attributes with slashes": lambda n: "<a" + ' x="1"/' * n,
    "slashes in a tag": lambda n: "<a " + "/ " * n,
    "less-than signs": lambda n: "<" * n,
    "unclosed comment of dashes": lambda n: "<!--" + "-" * n,
    "bare less-than in text": lambda n: "<p>" + "a < b " * n,
}

SMALL, LARGE = 16_000, 32_000
#: Linear parsing reads ~2 here, quadratic ~4.
MAX_GROWTH = 3.0

CHILD = """
import json, sys, time
from repro.html import parse_html
from tests.html.test_hostile_input import HOSTILE_INPUTS

def best_seconds(markup):
    times = []
    for _ in range(7):
        start = time.perf_counter()
        parse_html(markup)
        times.append(time.perf_counter() - start)
    return min(times)

make = HOSTILE_INPUTS[sys.argv[1]]
small, large = int(sys.argv[2]), int(sys.argv[3])
print(json.dumps([best_seconds(make(small)), best_seconds(make(large))]))
"""


@pytest.mark.parametrize("name", sorted(HOSTILE_INPUTS))
def test_hostile_input_parses_in_linear_time(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", CHILD, name, str(SMALL), str(LARGE)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    small, large = json.loads(completed.stdout)
    assert large <= MAX_GROWTH * small, (
        f"{name}: {SMALL} repeats took {small * 1e3:.1f} ms, "
        f"{LARGE} took {large * 1e3:.1f} ms"
    )
