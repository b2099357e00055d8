"""Declared spans and the tracer that records them.

A span wraps one public function of the library from outside: the
wrapper is installed in every `weakinv` module namespace that holds the
function, so calls made through `from .x import f` names and through
module globals are both seen. Nothing under `src/` is edited.

Each thread keeps its own span stack, because the channel fuzz scenario
calls the `channels` functions from a thread pool. A span's self time is
its duration minus the time its child spans in the same thread took; a
span whose thread waits on other threads (run_scenario while the fuzz
pool works) counts that wait as its own.

This module imports only the standard library, so run.py
can read the span table without loading numpy.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass

ALL = ("spin", "fp_ou", "channel_fuzz_5k", "thermo_spin")


@dataclass(frozen=True)
class Span:
    """One traced function.

    `target` is "module:attribute" or "module:Class.method". `needs`
    lists the workloads whose traced run fails if the span records zero
    calls: the ones that exist to exercise it. `moves` says which
    end-to-end metric on which workload the span's numbers should move.
    """

    name: str
    target: str
    needs: tuple[str, ...]
    moves: str


SPANS = (
    Span("config.load_config", "weakinv.config:load_config", ALL,
         "setup_s on all workloads"),
    Span("scenarios.run_scenario", "weakinv.scenarios:run_scenario", ALL,
         "solve_s on channel_fuzz_5k"),
    Span("models.spin_coefficients", "weakinv.models:spin_coefficients", ("spin",),
         "solve_s on spin and thermo_spin"),
    Span("lindblad.eval", "weakinv.lindblad:LindbladGenerator.eval", ("spin",),
         "solve_s on spin and thermo_spin"),
    Span("lindblad.integrate", "weakinv.lindblad:integrate", ("spin",),
         "solve_s on spin and thermo_spin"),
    Span("channels.random_channel", "weakinv.channels:random_channel",
         ("channel_fuzz_5k",), "solve_s on channel_fuzz_5k"),
    Span("channels.apply", "weakinv.channels:apply", ("channel_fuzz_5k",),
         "solve_s on channel_fuzz_5k"),
    Span("channels.adjoint_apply", "weakinv.channels:adjoint_apply",
         ("channel_fuzz_5k",), "solve_s on channel_fuzz_5k"),
    Span("channels.kadison_gap", "weakinv.channels:kadison_gap",
         ("channel_fuzz_5k",), "solve_s on channel_fuzz_5k"),
    Span("operators.from_matrix", "weakinv.operators:DensityMatrix.from_matrix",
         ("channel_fuzz_5k",), "solve_s on channel_fuzz_5k and thermo_spin"),
    Span("operators.variance", "weakinv.operators:variance",
         ("channel_fuzz_5k", "thermo_spin"),
         "solve_s on channel_fuzz_5k and thermo_spin"),
    Span("thermo.build_isoenergetic_path", "weakinv.thermo:build_isoenergetic_path",
         ("thermo_spin",), "solve_s on thermo_spin"),
    Span("thermo.solve_isoenergetic_temperature",
         "weakinv.thermo:solve_isoenergetic_temperature", ("thermo_spin",),
         "solve_s on thermo_spin"),
    Span("thermo.canonical_state", "weakinv.thermo:canonical_state",
         ("thermo_spin",), "solve_s on thermo_spin"),
    Span("thermo.trace_distance", "weakinv.thermo:trace_distance", (),
         "solve_s on thermo_spin"),
    Span("fokker_planck.evolve", "weakinv.fokker_planck:evolve", ("fp_ou",),
         "solve_s on fp_ou"),
    Span("fokker_planck.fp_rhs", "weakinv.fokker_planck:fp_rhs", ("fp_ou",),
         "solve_s on fp_ou"),
    Span("fokker_planck.classical_growth_rate",
         "weakinv.fokker_planck:classical_growth_rate", ("fp_ou",),
         "solve_s on fp_ou"),
    Span("cli.format_series", "weakinv.cli:format_series", ALL,
         "wall_s on fp_ou; flat on spin"),
    Span("cli.emit_verdict", "weakinv.cli:emit_verdict", ALL,
         "wall_s on fp_ou; flat on spin"),
)

# Per-layer metrics of the traced run: name -> (unit, better, how it is
# read off the span statistics, what it should move).
#
# Self times of spans that only some workloads exercise are printed by
# the traced run but are not listed here: on the other workloads they
# read exactly 0.0 on every run.
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "setup.import_s": ("s", "lower", "setup_s on all workloads"),
    "config.load_config_s": ("s", "lower", "setup_s on all workloads"),
    "scenarios.run_scenario.self_s": ("s", "lower", "solve_s on channel_fuzz_5k"),
    "cli.format_series_s": ("s", "lower", "wall_s on fp_ou; flat on spin"),
    "cli.emit_verdict_s": ("s", "lower", "wall_s on fp_ou; flat on spin"),
    "models.spin_coefficients.calls": ("count", "lower", "solve_s on spin and thermo_spin"),
    "lindblad.eval.calls": ("count", "lower", "solve_s on spin and thermo_spin"),
    "lindblad.integrate.calls": ("count", "lower", "solve_s on spin and thermo_spin"),
    "lindblad.integrate.nodes": ("count", "lower", "solve_s on spin and thermo_spin"),
    "lindblad.integrate.alloc_peak_mb": ("MiB", "lower",
                                         "peak_rss_mb on spin and thermo_spin, "
                                         "where it is under 2 MiB of about 85"),
    "channels.adjoint_apply.calls": ("count", "lower", "solve_s on channel_fuzz_5k"),
    "operators.from_matrix.calls": ("count", "lower",
                                    "solve_s on channel_fuzz_5k and thermo_spin"),
    "thermo.solve_isoenergetic_temperature.calls": ("count", "lower",
                                                    "solve_s on thermo_spin"),
    "thermo.trace_distance.calls": ("count", "lower", "solve_s on thermo_spin"),
    "fokker_planck.fp_rhs.calls": ("count", "lower", "solve_s on fp_ou"),
    "fokker_planck.classical_growth_rate.calls": ("count", "lower", "solve_s on fp_ou"),
    "trace.overhead_s": ("s", "lower",
                         "none: traced minus untraced solve_s, the tracer's own cost"),
}

# Spans whose inclusive duration is reported as "<name>_s"; for the rest
# the traced run prints calls and self time.
INCLUSIVE = {"config.load_config", "thermo.build_isoenergetic_path",
             "cli.format_series", "cli.emit_verdict"}


def _resolve(target: str):
    """(owner, attribute, raw attribute) for "module:attr" or "module:Cls.meth"."""
    mod_name, _, path = target.partition(":")
    owner = sys.modules[mod_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if outer else getattr(owner, attr)


class Tracer:
    """Per-thread span stacks; statistics merged when the run ends."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict[str, dict]] = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, name: str, fn, on_result=None):
        """`fn` recorded as span `name`; `on_result(stats, result)` may add fields."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = self._thread_state()
            frame = [0.0]                  # time taken by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stats = table.get(name)
                if stats is None:
                    stats = table[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                stats["calls"] += 1
                stats["total_s"] += dur
                stats["self_s"] += dur - frame[0]
            if on_result is not None:
                on_result(stats, result)
            return result

        return traced

    def stats(self) -> dict[str, dict]:
        merged: dict[str, dict] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, stats in table.items():
                into = merged.setdefault(name, {})
                for key, value in stats.items():
                    if key.endswith("peak_mb"):
                        into[key] = max(into.get(key, 0.0), value)
                    else:
                        into[key] = into.get(key, 0) + value
        return merged


def install(owner, attr: str, raw, replacement) -> None:
    """Put `replacement` on the class, or wherever a weakinv module binds `raw`."""
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "weakinv" or mod_name.startswith("weakinv.")):
            continue
        for key, value in list(vars(module).items()):
            if value is raw:
                setattr(module, key, replacement)


def _count_nodes(stats, trajectory):
    stats["nodes"] = stats.get("nodes", 0) + len(trajectory.times)


def install_spans(tracer: Tracer) -> None:
    """Wrap every declared span; raise LookupError if a target is gone."""
    for span in SPANS:
        try:
            owner, attr, raw = _resolve(span.target)
        except (KeyError, AttributeError) as exc:
            raise LookupError(f"span {span.name}: target {span.target} not found") from exc
        hook = _count_nodes if span.name == "lindblad.integrate" else None
        if isinstance(raw, classmethod):
            replacement = classmethod(tracer.wrap(span.name, raw.__func__, hook))
        else:
            replacement = tracer.wrap(span.name, raw, hook)
        install(owner, attr, raw, replacement)


def install_alloc_probe(tracer: Tracer) -> None:
    """Record the tracemalloc peak inside each `integrate` call, in MiB.

    tracemalloc slows every allocation, so this runs in its own process,
    never together with the timing spans.
    """
    owner, attr, raw = _resolve("weakinv.lindblad:integrate")

    @functools.wraps(raw)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return raw(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            table = tracer._thread_state()[1]
            stats = table.setdefault("lindblad.integrate", {"alloc_peak_mb": 0.0})
            stats["alloc_peak_mb"] = max(stats["alloc_peak_mb"], peak)

    install(owner, attr, raw, measured)
