"""Helpers shared by ``run.py`` and the store processes it starts."""

from __future__ import annotations

import bisect
import hashlib
import math
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for one run's files; removed when the run ends
RUNS_DIR = ROOT / ".perfbench_runs"


def use_repo_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for store processes: the checkout's ``src`` on the path,
    and one hash seed, so set iteration orders repeat from run to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


# ------------------------------------------------------------ answer checks


def term_text(term) -> str | None:
    """An RDF term as canonical N-Triples-like text (None = unbound).

    Written against the term's fields, not the program's serializers, so
    a serializer defect cannot hide itself from the check."""
    if term is None:
        return None
    kind = type(term).__name__
    if kind == "URI":
        return f"<{term.value}>"
    if kind == "BNode":
        return f"_:{term.label}"
    text = '"' + term.value + '"'
    if term.lang:
        return f"{text}@{term.lang}"
    if term.datatype and term.datatype != "http://www.w3.org/2001/XMLSchema#string":
        return f"{text}^^<{term.datatype}>"
    return text


def json_binding_text(binding: dict | None) -> str | None:
    """One SPARQL JSON results binding in :func:`term_text` form."""
    if binding is None:
        return None
    kind = binding["type"]
    if kind == "uri":
        return f"<{binding['value']}>"
    if kind == "bnode":
        return f"_:{binding['value']}"
    text = '"' + binding["value"] + '"'
    if binding.get("xml:lang"):
        return f"{text}@{binding['xml:lang']}"
    datatype = binding.get("datatype")
    if datatype and datatype != "http://www.w3.org/2001/XMLSchema#string":
        return f"{text}^^<{datatype}>"
    return text


def digest_rows(rows) -> str:
    """Order-insensitive digest of result rows given as tuples of text."""
    lines = sorted("\t".join("" if v is None else v for v in row) for row in rows)
    return hashlib.sha1("\n".join(lines).encode("utf-8")).hexdigest()


def digest_result(result) -> str:
    """Digest of a :class:`repro.sparql.results.SelectResult`."""
    return digest_rows(tuple(term_text(t) for t in row) for row in result.rows)


def digest_json_results(document: dict) -> str:
    """Digest of a SPARQL 1.1 JSON results document."""
    variables = document["head"]["vars"]
    return digest_rows(
        tuple(json_binding_text(b.get(v)) for v in variables)
        for b in document["results"]["bindings"]
    )


# ------------------------------------------------------------- statistics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean_of_medians(samples: dict[str, list[float]]) -> float:
    """Geometric mean over templates of each template's median (the
    per-query summary SP2Bench and the paper report)."""
    medians = [statistics.median(v) for v in samples.values() if v]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


# ------------------------------------------------------------ calibration


def calibration_loop(iterations: int) -> float:
    """Seconds for a fixed pure-Python loop of ``iterations`` steps."""
    started = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    for i in range(iterations):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - started


def calibration_seconds() -> float:
    """The long calibration loop (median of 3), recorded with every run
    as metadata so absolute times compare across machines."""
    return statistics.median(calibration_loop(300_000) for _ in range(3))


#: steps in one speed probe (~0.35 ms)
PROBE_ITERATIONS = 2_000
#: reported times are scaled to a machine on which one probe takes this long
REFERENCE_PROBE_S = 350e-6
#: probes either side of a timed operation that set its speed scale
PROBE_WINDOW = 5


class SpeedProbe:
    """Short calibration loops interleaved with the measured work.

    A shared sandbox's CPU speed can swing by 1.7x within seconds, which
    moves every absolute time with it. Each timed operation is therefore
    scaled by REFERENCE_PROBE_S over the median of the probes taken
    around it (:func:`speed_scale`), so runs compare at one reference
    speed."""

    def __init__(self, interval: float = 0.02) -> None:
        self.samples: list[tuple[float, float]] = []
        self.interval = interval
        self._next = 0.0

    def tick(self) -> None:
        """Probe if ``interval`` has passed since the last probe."""
        now = time.perf_counter()
        if now >= self._next:
            self.samples.append((now, calibration_loop(PROBE_ITERATIONS)))
            self._next = now + self.interval

    def burst(self) -> None:
        """PROBE_WINDOW probes back to back (around a set-up)."""
        for _ in range(PROBE_WINDOW):
            self.samples.append(
                (time.perf_counter(), calibration_loop(PROBE_ITERATIONS))
            )


def speed_scale(samples: list, at: float) -> float:
    """REFERENCE_PROBE_S over the median of the PROBE_WINDOW probes either
    side of time ``at`` (``samples`` are (time, seconds), time-ordered)."""
    index = bisect.bisect_left(samples, at, key=lambda sample: sample[0])
    window = samples[max(0, index - PROBE_WINDOW):index + PROBE_WINDOW]
    return REFERENCE_PROBE_S / statistics.median(s for _, s in window)
