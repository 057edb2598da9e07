"""Figure recorder shared by all benchmark files.

Lives in its own module (not ``conftest.py``) so the test modules and the
pytest-registered conftest see the *same* module instance: pytest imports
``conftest.py`` through its own loader, and a ``from benchmarks.conftest
import ...`` in a test would otherwise create a second copy with its own
(empty) result store.
"""

from __future__ import annotations

import gc
import statistics
from collections import OrderedDict
from time import perf_counter

from repro.bench.reporting import fmt_bytes, fmt_seconds, format_ratios, format_series

__all__ = ["RESULTS", "UNITS", "record", "run_and_record", "render_figures"]

#: figure -> x-label -> algorithm -> measured value (seconds or bytes).
RESULTS: "OrderedDict[str, OrderedDict[str, OrderedDict[str, float]]]" = OrderedDict()

#: figure -> unit: "seconds" (default), "bytes", "ratio" or "plain".
UNITS: dict[str, str] = {}


def record(figure: str, label: str, algorithm: str, value: float, unit: str = "seconds") -> None:
    """Register one measured point of a paper figure."""
    UNITS.setdefault(figure, unit)
    if unit != "seconds":
        UNITS[figure] = unit
    RESULTS.setdefault(figure, OrderedDict()).setdefault(label, OrderedDict())[algorithm] = value


def run_and_record(benchmark, figure: str, label: str, algorithm: str, fn,
                   rounds: int = 1) -> None:
    """Benchmark ``fn`` (pedantic, ``rounds`` rounds) and record the median.

    Under ``--benchmark-disable`` the rounds are timed with
    ``perf_counter`` instead, so the figure still gets its points.

    The paper runs each point 10 times in Java; a single round is the right
    trade-off for pure Python where each point costs 0.1-15 s and variance
    is small relative to the order-of-magnitude effects under study.

    The cyclic GC is suspended around the measured call: every figure's
    module-level datasets stay live for the whole session, so gen-2
    collections otherwise charge multi-hundred-millisecond pauses to
    whichever (allocation-heavy) algorithm happens to trigger them.
    """

    def presweep():
        # Runs untimed before the measured round: sweep garbage left by
        # earlier figures, then keep the collector out of the measurement.
        gc.collect()
        gc.disable()

    if benchmark.disabled:
        # --benchmark-disable: the fixture would run fn once and keep no
        # stats, so time the same rounds here instead.
        seconds = []
        for _ in range(rounds):
            presweep()
            try:
                start = perf_counter()
                fn()
                seconds.append(perf_counter() - start)
            finally:
                gc.enable()
        record(figure, label, algorithm, statistics.median(seconds))
        return
    try:
        benchmark.pedantic(fn, setup=presweep, rounds=rounds, iterations=1)
    finally:
        gc.enable()
    record(figure, label, algorithm, benchmark.stats.stats.median)


def render_figures() -> list[str]:
    """Format every recorded figure as an ASCII series table."""
    blocks: list[str] = []
    for figure, by_label in RESULTS.items():
        labels = list(by_label)
        algorithms: list[str] = []
        for algos in by_label.values():
            for name in algos:
                if name not in algorithms:
                    algorithms.append(name)
        series = {
            name: [by_label[label].get(name) for label in labels]
            for name in algorithms
        }
        unit = UNITS.get(figure, "seconds")
        if unit == "bytes":
            blocks.append(format_series(figure, "config", labels, series,
                                        value_format=fmt_bytes))
        elif unit == "ratio":
            blocks.append(format_ratios(figure, labels, series))
        elif unit == "plain":
            blocks.append(format_series(figure, "config", labels, series,
                                        value_format=lambda v: f"{v:.2f}"))
        else:
            blocks.append(format_series(figure, "config", labels, series,
                                        value_format=fmt_seconds))
    return blocks
