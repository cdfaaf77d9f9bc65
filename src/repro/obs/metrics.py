"""Labeled counters, gauges, and histogram families.

A :class:`MetricsRegistry` is a flat map from ``(name, labels)`` to a
metric instance. Hot-path call sites fetch the instance once (the
registry caches on the frozen label set) and then call ``inc``/``add``
directly, so recording a sample is one dict-free method call.

Histograms reuse :class:`repro.util.stats.Histogram` — same log
buckets, same approximate percentiles, same ``merge`` semantics — so a
phase-latency histogram printed by the obs layer is directly comparable
with the coordinator latency histograms the harness already reports.

The registry supports ``snapshot()`` (a plain-dict view suitable for
JSON), ``merge()`` (fold another registry in, e.g. per-coordinator
registries into a cluster-wide one), and ``render_table()`` (the
fixed-width text report the CLI prints under ``--metrics``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.util.stats import Histogram

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "RollingWindow",
]

# (metric name, ((label key, label value), ...)) — the registry key.
MetricKey = Tuple[str, Tuple[Tuple[str, Any], ...]]


class Counter:
    """A monotonically increasing labeled counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (default 1) to the counter."""
        self.value += amount


class Gauge:
    """A point-in-time labeled value (set, not accumulated)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class NullCounter:
    """No-op counter: the disabled-path stand-in for :class:`Counter`."""

    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class NullGauge:
    """No-op gauge."""

    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass


class NullHistogram:
    """No-op histogram with the same recording surface as Histogram."""

    __slots__ = ()
    count = 0

    def add(self, value: float) -> None:
        pass

    def percentile(self, pct: float) -> float:
        # Same contract as Histogram.percentile: out-of-range queries
        # are caller bugs and must not pass silently on the disabled path.
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile out of range: {pct}")
        return 0.0


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


class RollingWindow:
    """A time-bounded sample buffer for live gauges.

    Unlike :class:`~repro.util.stats.Histogram` (which accumulates for
    the whole run), a rolling window answers "what is the p99 *right
    now*": samples older than ``window`` seconds are evicted on every
    query, so the SLO monitors see the current regime, not the average
    of everything since warmup. Windows hold at most a few thousand
    samples in practice, so exact percentiles by sorting are fine.
    """

    __slots__ = ("window", "_samples")

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._samples: Deque[Tuple[float, float]] = deque()

    def add(self, now: float, value: float) -> None:
        """Record *value* observed at virtual time *now*."""
        self._samples.append((now, value))

    def _evict(self, now: float) -> None:
        cutoff = now - self.window
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            samples.popleft()

    def count(self, now: float) -> int:
        """Samples currently inside the window."""
        self._evict(now)
        return len(self._samples)

    def mean(self, now: float) -> float:
        """Mean of the in-window samples (0.0 when empty)."""
        self._evict(now)
        if not self._samples:
            return 0.0
        return sum(value for _t, value in self._samples) / len(self._samples)

    def percentile(self, now: float, pct: float) -> float:
        """Exact in-window percentile (0.0 when empty)."""
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile out of range: {pct}")
        self._evict(now)
        if not self._samples:
            return 0.0
        ordered = sorted(value for _t, value in self._samples)
        index = min(len(ordered) - 1, int(len(ordered) * pct / 100.0))
        return ordered[index]


def _key(name: str, labels: Dict[str, Any]) -> MetricKey:
    return (name, tuple(sorted(labels.items())))


def _prom_name(name: str) -> str:
    """Dotted internal names → Prometheus-legal metric names."""
    return name.replace(".", "_").replace("-", "_")


def _prom_escape(value: Any) -> str:
    """Escape a label value per the text exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Tuple[Tuple[str, Any], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{label}="{_prom_escape(value)}"' for label, value in labels)
    return "{" + inner + "}"


def _prom_value(value: float) -> str:
    """Float rendering: integral values without the trailing .0."""
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(value)


def _render_key(key: MetricKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{label}={value}" for label, value in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Flat registry of labeled counters, gauges, and histograms."""

    def __init__(self) -> None:
        self.counters: Dict[MetricKey, Counter] = {}
        self.gauges: Dict[MetricKey, Gauge] = {}
        self.histograms: Dict[MetricKey, Histogram] = {}

    # -- instance access (get-or-create) ------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """Return the counter for (*name*, *labels*), creating it once."""
        key = _key(name, labels)
        counter = self.counters.get(key)
        if counter is None:
            counter = self.counters[key] = Counter()
        return counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Return the gauge for (*name*, *labels*), creating it once."""
        key = _key(name, labels)
        gauge = self.gauges.get(key)
        if gauge is None:
            gauge = self.gauges[key] = Gauge()
        return gauge

    def histogram(
        self,
        name: str,
        min_value: float = 1e-7,
        max_value: float = 100.0,
        **labels: Any,
    ) -> Histogram:
        """Return the histogram for (*name*, *labels*), creating it once."""
        key = _key(name, labels)
        histogram = self.histograms.get(key)
        if histogram is None:
            histogram = self.histograms[key] = Histogram(
                min_value=min_value, max_value=max_value
            )
        return histogram

    # -- convenience recording ----------------------------------------------

    def inc(self, name: str, amount: int = 1, **labels: Any) -> None:
        """One-shot counter increment (cold paths only)."""
        self.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """One-shot histogram sample (cold paths only)."""
        self.histogram(name, **labels).add(value)

    # -- aggregation -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other* in: counters add, gauges take the other value,
        histograms merge bucket-wise (layouts must match)."""
        for key, counter in other.counters.items():
            self.counter(key[0], **dict(key[1])).inc(counter.value)
        for key, gauge in other.gauges.items():
            self.gauge(key[0], **dict(key[1])).set(gauge.value)
        for key, histogram in other.histograms.items():
            mine = self.histograms.get(key)
            if mine is None:
                mine = self.histograms[key] = Histogram(
                    min_value=histogram.min_value, max_value=histogram.max_value
                )
            mine.merge(histogram)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict view: JSON-serializable, stable key order."""
        return {
            "counters": {
                _render_key(key): counter.value
                for key, counter in sorted(self.counters.items())
            },
            "gauges": {
                _render_key(key): gauge.value
                for key, gauge in sorted(self.gauges.items())
            },
            "histograms": {
                _render_key(key): {
                    "count": histogram.count,
                    "mean": histogram.stats.mean,
                    "p50": histogram.percentile(50),
                    "p99": histogram.percentile(99),
                    "max": histogram.stats.max if histogram.count else 0.0,
                }
                for key, histogram in sorted(self.histograms.items())
            },
        }

    # -- rendering --------------------------------------------------------------

    def select(self, prefix: str) -> List[Tuple[MetricKey, Any]]:
        """All (key, metric) pairs whose name starts with *prefix*."""
        found: List[Tuple[MetricKey, Any]] = []
        for family in (self.counters, self.gauges, self.histograms):
            for key, metric in family.items():
                if key[0].startswith(prefix):
                    found.append((key, metric))
        return sorted(found, key=lambda pair: pair[0])

    def render_prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4) of the registry.

        Metric names have dots replaced by underscores; label values
        are escaped per the exposition format (backslash, double quote,
        newline). Histograms emit cumulative ``_bucket{le=...}`` lines
        for every non-empty log bucket plus ``+Inf``, ``_sum``
        (reconstructed as mean x count), and ``_count``.
        """
        lines: List[str] = []

        def grouped(family: Dict[MetricKey, Any]):
            by_name: Dict[str, List[Tuple[MetricKey, Any]]] = {}
            for key, metric in sorted(family.items()):
                by_name.setdefault(_prom_name(key[0]), []).append((key, metric))
            return sorted(by_name.items())

        for name, members in grouped(self.counters):
            lines.append(f"# TYPE {name} counter")
            for key, counter in members:
                lines.append(f"{name}{_prom_labels(key[1])} {counter.value}")
        for name, members in grouped(self.gauges):
            lines.append(f"# TYPE {name} gauge")
            for key, gauge in members:
                lines.append(f"{name}{_prom_labels(key[1])} {_prom_value(gauge.value)}")
        for name, members in grouped(self.histograms):
            lines.append(f"# TYPE {name} histogram")
            for key, histogram in members:
                labels = key[1]
                running = 0
                for index, bucket_count in enumerate(histogram._counts):
                    if not bucket_count:
                        continue
                    running += bucket_count
                    _low, high = histogram._bucket_bounds(index)
                    le = _prom_labels(labels + (("le", _prom_value(high)),))
                    lines.append(f"{name}_bucket{le} {running}")
                inf = _prom_labels(labels + (("le", "+Inf"),))
                lines.append(f"{name}_bucket{inf} {histogram.count}")
                total = histogram.stats.mean * histogram.count
                lines.append(f"{name}_sum{_prom_labels(labels)} {_prom_value(total)}")
                lines.append(f"{name}_count{_prom_labels(labels)} {histogram.count}")
        return "\n".join(lines) + "\n" if lines else ""

    def render_table(self, title: str = "metrics") -> str:
        """Fixed-width text dump of every metric in the registry."""
        lines = [title, "=" * len(title)]
        rows: List[Tuple[str, str]] = []
        for key, counter in sorted(self.counters.items()):
            rows.append((_render_key(key), str(counter.value)))
        for key, gauge in sorted(self.gauges.items()):
            rows.append((_render_key(key), f"{gauge.value:g}"))
        for key, histogram in sorted(self.histograms.items()):
            rows.append(
                (
                    _render_key(key),
                    f"n={histogram.count} mean={histogram.stats.mean:.3g} "
                    f"p50={histogram.percentile(50):.3g} "
                    f"p99={histogram.percentile(99):.3g}",
                )
            )
        width = max((len(name) for name, _ in rows), default=0)
        for name, rendered in rows:
            lines.append(f"{name.ljust(width)}  {rendered}")
        return "\n".join(lines) + "\n"


def render_rows(
    headers: Iterable[str], rows: Iterable[Iterable[Any]], title: Optional[str] = None
) -> str:
    """The one fixed-width table formatter (it lives in the obs layer so
    that obs never imports ``repro.bench``, whose ``format_table``
    delegates here)."""
    headers = [str(header) for header in headers]
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines += [title, "=" * len(title)]
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"
