"""Spans around the public functions of each ``hypergconv`` module.

The spans are installed from outside the package: every module attribute
(and ``cli.RUNNERS`` entry) that refers to a traced function is rebound to
one wrapper, so ``from .hyperboloid import dist`` in ``resisting`` is
counted the same as a call through ``hyperboloid.dist``.  Methods are
wrapped on their class.  A span records its call count and its self time:
its duration minus the time of the spans it encloses, kept per thread.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import statistics
import sys
import threading
import time
import types

# (span name, module, attribute); "A.b" is method b of class A.  Several
# targets may share one span name.
SPANS = [
    ("hyperboloid.dist", "hyperboloid", "dist"),
    ("hyperboloid.exp", "hyperboloid", "exp"),
    ("hyperboloid.log", "hyperboloid", "log"),
    ("hyperboloid.ptransport", "hyperboloid", "ptransport"),
    ("hyperboloid.sub_dist", "hyperboloid", "sub_dist"),
    ("hyperboloid.gspan", "hyperboloid", "gspan"),
    ("hyperboloid.HalfSpace", "hyperboloid", "HalfSpace.__post_init__"),
    ("oracles.MoreauEnvelope.eval", "oracles", "MoreauEnvelope.eval"),
    ("oracles.MoreauEnvelope.value", "oracles", "MoreauEnvelope.value"),
    ("oracles.ShiftedMax.eval", "oracles", "ShiftedMax.eval"),
    ("resisting.construct", "resisting", "nonsmooth_new"),
    ("resisting.construct", "resisting", "smooth_new"),
    ("resisting.GameOracle.eval", "resisting", "GameOracle.eval"),
    ("resisting.finalize", "resisting", "_GameBase.finalize"),
    ("resisting.certificate", "resisting", "_GameBase.certificate"),
    ("resisting.worst_build", "resisting", "worst_build"),
    ("resisting.WorstFunctionOracle.eval", "resisting", "WorstFunctionOracle.eval"),
    ("solvers.polyak_sgd", "solvers", "polyak_sgd"),
    ("solvers.rgd", "solvers", "rgd"),
    ("cutting.new_game", "cutting", "new_game"),
    ("cutting.adversary_respond", "cutting", "adversary_respond"),
    ("highprec.worst_trajectory_report", "highprec", "worst_trajectory_report"),
    ("interpolation.obstruction_certificate", "interpolation", "obstruction_certificate"),
    ("interpolation.check_necessary", "interpolation", "check_necessary"),
    ("interpolation.construct_sufficient", "interpolation", "construct_sufficient"),
    ("interpolation.minimal_function", "interpolation", "minimal_function"),
    ("sampling.random_point_in_ball", "sampling", "random_point_in_ball"),
    ("sampling.random_unit_tangent", "sampling", "random_unit_tangent"),
    # the CLI's own work: entry point, sweep driver and per-kind runners
    ("cli", "cli", "main"),
    ("cli", "cli", "run_sweep"),
]
# scipy calls made by the Moreau prox, wrapped on the oracles module's
# ``optimize`` reference only
SLSQP, POLISH = "oracles.slsqp", "oracles.polish"
# the main thread blocked on the sweep's thread pool
WAIT = "cli.sweep.wait"
MODULES = sorted({m for _, m, _ in SPANS} | {"instances"})

# extra per-span counters, filled by the hooks in Tracer.install
COUNTERS = {
    SLSQP: ["failed", "nit"],
    POLISH: ["failed"],
    "solvers.polyak_sgd": ["steps"],
    "cutting.new_game": ["centers"],
    "cutting.adversary_respond": ["exhausted"],
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    names = list(dict.fromkeys(n for n, _, _ in SPANS if n != "cli"))
    at = names.index("oracles.ShiftedMax.eval") + 1
    names[at:at] = [SLSQP, POLISH]
    for name in names:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name.startswith("hyperboloid."):
            units[f"{name}.us_per_call"] = "us"
        for c in COUNTERS.get(name, []):
            units[f"{name}.{c}"] = "count"
    units.update({"cli.self_s": "s", "cli.sweep.cells": "count",
                  "cli.sweep.wait_s": "s", "trace.wall_s": "s",
                  "trace.overhead_s": "s", "trace.coverage_gap": "frac"})
    return units


class _ThreadState:
    def __init__(self):
        self.main = threading.current_thread() is threading.main_thread()
        self.stack: list[float] = []   # child time of each open span
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.first: float | None = None   # start of the first root span
        self.last = 0.0                   # end of the last root span

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(n)


class _OptimizeProxy(types.ModuleType):
    """Stands in for ``scipy.optimize`` inside ``hypergconv.oracles``."""

    def __init__(self, real, **overrides):
        super().__init__(real.__name__)
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.start_pass()

    def start_pass(self) -> None:
        """Forget everything recorded so far."""
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def wrap(self, name, fn, on_return=None, on_raise=None):
        """``fn`` inside a span called ``name``; hooks get (thread state, value)."""
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            st = tracer._state()
            st.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                if on_raise is not None:
                    on_raise(st, e)
                raise
            finally:
                t1 = time.perf_counter()
                dt = t1 - t0
                st.self_s[name] = st.self_s.get(name, 0.0) + dt - st.stack.pop()
                st.calls[name] = st.calls.get(name, 0) + 1
                if st.stack:
                    st.stack[-1] += dt
                else:
                    st.first = t0 if st.first is None else st.first
                    st.last = t1
            if on_return is not None:
                on_return(st, out)
            return out

        return span

    # -- installation -------------------------------------------------------

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"hypergconv.{m}") for m in MODULES}
        loaded = [m for n, m in sys.modules.items()
                  if n == "hypergconv" or n.startswith("hypergconv.")]
        cli, cutting = mods["cli"], mods["cutting"]
        hooks = {
            "run_sweep": {"on_return": lambda st, out: st.count(
                "cli.sweep.cells", len(out[1]["cells"]))},
            "polyak_sgd": {"on_return": lambda st, out: st.count(
                "solvers.polyak_sgd.steps", len(out.step_lengths))},
            "new_game": {"on_return": lambda st, out: st.count(
                "cutting.new_game.centers", out.n_candidates)},
            "adversary_respond": {"on_raise": lambda st, e: st.count(
                "cutting.adversary_respond.exhausted",
                isinstance(e, cutting.AdversaryExhausted))},
        }
        for name, module, attr in SPANS:
            owner, _, method = attr.rpartition(".")
            if owner:
                cls = getattr(mods[module], owner)
                self._set(cls, method, self.wrap(name, cls.__dict__[method]))
                continue
            original = getattr(mods[module], attr)
            wrapper = self.wrap(name, original, **hooks.get(attr, {}))
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
        for kind, runner in list(cli.RUNNERS.items()):
            self._set(cli.RUNNERS, kind, self.wrap("cli", runner))

        oracles = mods["oracles"]
        real = oracles.optimize
        self._set(oracles, "optimize", _OptimizeProxy(
            real,
            minimize=self.wrap(SLSQP, real.minimize, on_return=lambda st, res: (
                st.count(f"{SLSQP}.failed", res.status != 0),
                st.count(f"{SLSQP}.nit", res.nit))),
            root=self.wrap(POLISH, real.root,
                           on_return=lambda st, sol: st.count(
                               f"{POLISH}.failed", not sol.success),
                           on_raise=lambda st, e: st.count(f"{POLISH}.failed", 1))))

        executor = concurrent.futures.ThreadPoolExecutor
        wait = self.wrap(WAIT, lambda ex, fn, *its: list(executor.map(ex, fn, *its)))

        class Pool(executor):
            def map(self, fn, *iterables):
                return wait(self, fn, *iterables)

        self._set(cli, "concurrent", types.SimpleNamespace(
            futures=types.SimpleNamespace(ThreadPoolExecutor=Pool)))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._patches.clear()

    # -- reporting ----------------------------------------------------------

    def report(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the pass recorded since ``start_pass``.

        ``wall`` is the pass's wall time on the main thread.  The coverage
        gap is the largest share, over threads, of a thread's busy interval
        that no span's self time accounts for: the main thread's interval is
        ``wall``, a pool worker's runs from its first span to its last.
        """
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        counters: dict[str, int] = {}
        gaps = []
        for st in self._states:
            for src, dst in ((st.calls, calls), (st.self_s, self_s),
                             (st.counters, counters)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
            interval = wall if st.main else st.last - (st.first or st.last)
            if interval > 0:
                gaps.append(1.0 - sum(st.self_s.values()) / interval)
        out: dict[str, float] = {}
        for name in metric_units():
            span, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = calls.get(span, 0)
            elif field == "self_s":
                out[name] = self_s.get(span, 0.0)
            elif field == "us_per_call":
                n = calls.get(span, 0)
                out[name] = 1e6 * self_s.get(span, 0.0) / n if n else 0.0
            else:
                out[name] = counters.get(name, 0)
        out["cli.self_s"] = self_s.get("cli", 0.0)
        out["cli.sweep.wait_s"] = self_s.get(WAIT, 0.0)
        out["trace.wall_s"] = wall
        out["trace.coverage_gap"] = max(gaps, default=0.0)
        return out


def summarize(reports: list[dict[str, float]], untraced_wall: float
              ) -> tuple[dict[str, float], bool]:
    """Combine the reports of the traced passes of one run.

    Counts come from the first pass; times are medians over passes; the
    coverage gap is the worst pass.  The flag says whether every count
    repeated exactly in every pass.
    """
    units = metric_units()
    out, repeat = {}, True
    for name, unit in units.items():
        values = [r[name] for r in reports]
        if unit == "count":
            out[name] = values[0]
            repeat &= all(v == values[0] for v in values)
        elif name == "trace.coverage_gap":
            out[name] = max(values)
        else:
            out[name] = statistics.median(values)
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out, repeat
