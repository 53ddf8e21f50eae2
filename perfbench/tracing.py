"""Per-layer tracing for the benchmark, applied from outside the package.

The tracer replaces each traced function at every module attribute that
binds it (the defining module and each importer, e.g. ``engine`` and
``harness`` both bind ``recover_factors``) with a wrapper that records a
span: name, start, end, parent span and op id. Spans stay in memory until
the run ends. ``restore`` puts every original back. A target that the
package no longer defines is listed in ``absent`` and reported as zero, so
renaming a function never breaks a run.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


def _prime_calls(result) -> dict:
    return {"prime_calls": int(result is True)}


def _accepted(result) -> dict:
    return {"accepted": int(result is True)}


def _recovery_counts(result) -> dict:
    return {"iterations": getattr(result, "iterations", 0),
            "gcd_calls": getattr(result, "gcd_calls", 0)}


# (layer name, defining module, attribute path, result -> counts)
TARGETS = (
    ("ntcore.is_probable_prime", "ordersplit.ntcore", "is_probable_prime", _prime_calls),
    ("ntcore.perfect_power_reduce", "ordersplit.ntcore", "perfect_power_reduce", None),
    ("ntcore.primes_up_to", "ordersplit.ntcore", "primes_up_to", None),
    ("ntcore.multiplicative_order", "ordersplit.ntcore", "multiplicative_order", None),
    ("oracle.generate_instance", "ordersplit.oracle", "generate_instance", None),
    ("oracle.exact_order", "ordersplit.oracle", "exact_order", None),
    ("oracle.simulate_order", "ordersplit.oracle", "simulate_order", None),
    ("oracle.sample_unit", "ordersplit.oracle", "sample_unit", None),
    ("engine.recover_factors", "ordersplit.engine", "recover_factors", _recovery_counts),
    ("engine.FactorSet.add_factor", "ordersplit.engine", "FactorSet.add_factor", _accepted),
    ("engine.guess_multiple", "ordersplit.engine", "guess_multiple", None),
    ("engine.factor_with_order", "ordersplit.engine", "factor_with_order", None),
    ("harness.run_cell", "ordersplit.harness", "run_cell", None),
    ("cli.main", "ordersplit.cli", "main", None),
)

# Per-layer metrics, in report order: (metric, unit). "<layer>.calls"
# and "<layer>.ms" / ".self_ms" are per op; the other fields are counts
# taken from return values, also per op.
PER_LAYER = (
    ("ntcore.is_probable_prime.calls", "calls/op"),
    ("ntcore.is_probable_prime.prime_calls", "calls/op"),
    ("ntcore.is_probable_prime.ms", "ms/op"),
    ("ntcore.perfect_power_reduce.calls", "calls/op"),
    ("ntcore.perfect_power_reduce.ms", "ms/op"),
    ("ntcore.primes_up_to.calls", "calls/op"),
    ("ntcore.primes_up_to.ms", "ms/op"),
    ("ntcore.multiplicative_order.calls", "calls/op"),
    ("ntcore.multiplicative_order.ms", "ms/op"),
    ("oracle.generate_instance.calls", "calls/op"),
    ("oracle.generate_instance.ms", "ms/op"),
    ("oracle.generate_instance.self_ms", "ms/op"),
    ("oracle.exact_order.calls", "calls/op"),
    ("oracle.exact_order.ms", "ms/op"),
    ("oracle.exact_order.self_ms", "ms/op"),
    ("oracle.simulate_order.calls", "calls/op"),
    ("oracle.simulate_order.ms", "ms/op"),
    ("oracle.simulate_order.self_ms", "ms/op"),
    ("oracle.sample_unit.calls", "calls/op"),
    ("oracle.sample_unit.ms", "ms/op"),
    ("engine.recover_factors.calls", "calls/op"),
    ("engine.recover_factors.ms", "ms/op"),
    ("engine.recover_factors.self_ms", "ms/op"),
    ("engine.recover_factors.iterations", "count/op"),
    ("engine.recover_factors.gcd_calls", "count/op"),
    ("engine.FactorSet.add_factor.calls", "calls/op"),
    ("engine.FactorSet.add_factor.accepted", "count/op"),
    ("engine.FactorSet.add_factor.ms", "ms/op"),
    ("engine.FactorSet.add_factor.self_ms", "ms/op"),
    ("engine.splits_per_gcd", "ratio"),
    ("engine.guess_multiple.calls", "calls/op"),
    ("engine.guess_multiple.ms", "ms/op"),
    ("engine.factor_with_order.calls", "calls/op"),
    ("engine.factor_with_order.ms", "ms/op"),
    ("engine.factor_with_order.self_ms", "ms/op"),
    ("harness.run_cell.calls", "calls/op"),
    ("harness.run_cell.ms", "ms/op"),
    ("harness.run_cell.self_ms", "ms/op"),
    ("cli.main.calls", "calls/op"),
    ("cli.main.ms", "ms/op"),
    ("cli.main.self_ms", "ms/op"),
    ("trace.op_ms", "ms/op"),
    ("trace.overhead_ratio", "ratio"),
)

OP_SPAN = "op"


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for a dotted path, or None if absent."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


class Tracer:
    """Span recorder for one traced run. Not thread-safe: one client only."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        # span: [name, start_ns, end_ns, parent index or None, op id]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op_id = None
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self._op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                for key, value in count(result).items():
                    counts[name, key] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each module attribute that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "ordersplit"
                                         or key.startswith("ordersplit."))]
        for name, module_name, path, count in self.targets:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(name, fn, count)
            if "." in path:  # a method: patch the class once
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; spans recorded inside it carry op_id."""
        self._op_id = op_id
        span = [OP_SPAN, 0, 0, None, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            yield
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()
            self._op_id = None

    def self_ns(self) -> list[int]:
        """Per span: duration minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self, untraced_ns) -> dict:
        """Every PER_LAYER metric as {name: (value, unit)}, per op.

        ``untraced_ns`` holds the untraced latency of each op, by op id;
        the overhead ratio is the median over ops of traced / untraced.
        """
        ops = len(untraced_ns)
        traced_ns = [end - start for name, start, end, _, _ in self.spans
                     if name == OP_SPAN]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for span, self_time in zip(self.spans, self.self_ns()):
            name = span[0]
            calls[name] += 1
            total[name] += span[2] - span[1]
            own[name] += self_time
        gcd_calls = self.counts["engine.recover_factors", "gcd_calls"]
        accepted = self.counts["engine.FactorSet.add_factor", "accepted"]
        special = {
            "engine.splits_per_gcd": accepted / gcd_calls if gcd_calls else 0.0,
            "trace.op_ms": total[OP_SPAN] / ops / 1e6,
            "trace.overhead_ratio": statistics.median(
                t / u for t, u in zip(traced_ns, untraced_ns)),
        }
        metrics = {}
        for metric, unit in PER_LAYER:
            layer, field = metric.rsplit(".", 1)
            if metric in special:
                value = special[metric]
            elif field == "calls":
                value = calls[layer] / ops
            elif field == "ms":
                value = total[layer] / ops / 1e6
            elif field == "self_ms":
                value = own[layer] / ops / 1e6
            else:
                value = self.counts[layer, field] / ops
            metrics[metric] = (value, unit)
        return metrics

    def write_spans(self, path) -> None:
        """Spans as gzipped JSON lines: [name, start_ns, end_ns, parent, op]."""
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")
