"""Timers and counters around rockrelax's public functions.

A wrapper replaces a function under every name a rockrelax module binds it
to (``solver`` imports ``eval_approx``, ``rockafellian`` imports
``weighted_objective``, ``analysis`` imports ``grid_points``, ...), so calls
made inside the package are seen as well as the benchmark's own.

With tracing off only the end-to-end groups are timed: ``solve`` is the
wall time inside ``solve_joint`` and ``certify`` the wall time inside the
oracles and certificate routines, each counted at its outermost call. The
instrument's ticker takes host-speed readings meanwhile (calibrate.py), and
their time is left out of every span. With tracing on every layer below is
counted, and the ones with a span record self time: the span's duration
minus the spans of the wrapped calls it made.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import calibrate

U_STEP_KINDS = ("projection", "bisection", "slsqp", "lp")

#: group -> (module, function) pairs timed with tracing off
GROUPS = {
    "solve": [("solver", "solve_joint")],
    "certify": [("solver", "brute_force_oracle"),
                ("solver", "make_min_value_oracle"),
                ("rockafellian", "check_exactness_certificate"),
                ("analysis", "rate_constants"),
                ("analysis", "verify_rate_inequality"),
                ("analysis", "optimality_residual"),
                ("analysis", "epi_distance_estimate")],
}

#: (module, function) -> (count metric or None, self-time metric or None)
SPANS = {
    ("solver", "solve_joint"): ("solver.solves", "solver.solve_s"),
    ("solver", "x_step"): ("solver.x_steps", "solver.x_step_s"),
    ("solver", "brute_force_oracle"): ("solver.oracle_calls", "solver.oracle_s"),
    ("rockafellian", "eval_approx"): ("rockafellian.eval_approx_calls",
                                      "rockafellian.eval_approx_s"),
    ("rockafellian", "check_exactness_certificate"): (
        "rockafellian.certificate_calls", "rockafellian.certificate_s"),
    ("extreal", "weighted_objective"): ("extreal.weighted_objective_calls",
                                        "extreal.weighted_objective_s"),
    ("divergence", "phi_divergence"): ("divergence.phi_divergence_calls",
                                       "divergence.phi_divergence_s"),
    ("simplex", "project_to_simplex"): ("simplex.projections",
                                        "simplex.projection_s"),
    ("simplex", "normal_cone_distance"): ("simplex.normal_cone_calls",
                                          "simplex.normal_cone_s"),
    ("analysis", "rate_constants"): (None, "analysis.rate_constants_s"),
    ("analysis", "verify_rate_inequality"): (None, "analysis.rate_check_s"),
    ("analysis", "optimality_residual"): (None, "analysis.residual_s"),
    ("analysis", "epi_distance_estimate"): (None, "analysis.epi_distance_s"),
    ("instances", "build_example"): ("instances.build_calls", "instances.build_s"),
    ("instances", "build_from_config"): ("instances.build_calls",
                                         "instances.build_s"),
    ("instances", "instantiate"): ("instances.build_calls", "instances.build_s"),
    ("cli", "run"): (None, "cli.run_s"),
}

REGULARIZER_FUNCTIONS = ("negative_regularizer", "negative_regularizer_gradient",
                         "min_over_w_value", "smoothed_constraint",
                         "smoothed_constraint_generic", "upper_bound_conj_prox")


def _layer_units() -> dict:
    """Every per-layer metric and its unit, in report order."""
    units = {}
    for calls, secs in SPANS.values():
        if calls is not None:
            units[calls] = "count"
        units[secs] = "s"
    for name in ("solver.grid_points", "solver.simplex_grid_points",
                 "solver.outer_iters", "solver.min_value_queries",
                 "extreal.scenario_evals", "extreal.generator_evals",
                 "regularizer.calls"):
        units[name] = "count"
    units["solver.min_value_s"] = "s"
    for kind in U_STEP_KINDS:
        units[f"solver.u_steps.{kind}"] = "count"
        units[f"solver.u_step_s.{kind}"] = "s"
    return units


LAYER_METRICS = _layer_units()


def _u_step_kind(spec) -> str:
    """Which exact u-step the solver takes for this spec."""
    from rockrelax.rockafellian import L1Penalty, PhiDivergencePenalty
    if isinstance(spec, L1Penalty):
        return "lp"
    if isinstance(spec, PhiDivergencePenalty):
        if spec.family.tag == "variational":
            return "lp"
        return "bisection" if spec.family.dphi_inv is not None else "slsqp"
    return "projection"


class Instrument:
    """Installs the wrappers for one run and holds what they measured."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.group_s = {group: 0.0 for group in GROUPS}
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.paused = False
        self._depth = {group: 0 for group in GROUPS}
        #: host-speed readings taken while the wrapped functions run; their
        #: time is left out of every span
        self.ticker = calibrate.Ticker(self._depth)
        self._stack = []
        self._undo = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        import rockrelax  # noqa: F401  (loads every submodule; run.py loads the CLI)
        for group, names in GROUPS.items():
            for mod, fn in names:
                self._replace(mod, fn, lambda f, g=group: self._wrap(f, group=g))
        self._replace("solver", "make_min_value_oracle", self._wrap_oracle_factory)
        if not self.trace:
            return
        for (mod, fn), (calls, secs) in SPANS.items():
            self._replace(mod, fn, lambda f, c=calls, s=secs:
                          self._wrap(f, calls=c, secs=s))
        self._replace("solver", "solve_joint", self._wrap_solve)
        self._replace("solver", "u_step", self._wrap_u_step)
        self._replace("solver", "grid_points", self._wrap_grid_points)
        self._replace("solver", "simplex_grid", self._wrap_simplex_grid)
        for fn in REGULARIZER_FUNCTIONS:
            self._replace("regularizer", fn,
                          lambda f: self._wrap_count(f, "regularizer.calls"))
        from rockrelax.extreal import ScenarioFunction, StochasticProgram
        self._set(ScenarioFunction, "__call__", self._wrap_count(
            ScenarioFunction.__call__, "extreal.scenario_evals"))
        self._set(StochasticProgram, "__post_init__",
                  self._wrap_post_init(StochasticProgram.__post_init__))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    @contextmanager
    def pause(self):
        """Calls made inside this block (the benchmark's checks) are not measured."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, module: str, name: str, make_wrapper) -> None:
        """Rebind ``module.name`` in every rockrelax module that holds it."""
        original = getattr(sys.modules[f"rockrelax.{module}"], name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rockrelax"
                                   or mod_name.startswith("rockrelax.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, fn, group=None, calls=None, secs=None):
        perf = time.perf_counter
        counts, self_s, stack = self.counts, self.self_s, self._stack
        depth, group_s = self._depth, self.group_s

        ticker = self.ticker

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if calls is not None:
                counts[calls] += 1
            if group is not None:
                depth[group] += 1
            if secs is not None:
                stack.append(0.0)
            start, stolen_at_start = perf(), ticker.stolen
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start - (ticker.stolen - stolen_at_start)
                if secs is not None:
                    self_s[secs] += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                if group is not None:
                    depth[group] -= 1
                    if depth[group] == 0:
                        group_s[group] += elapsed
        return wrapper

    def _wrap_count(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.paused:
                counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.counted = True
        return wrapper

    def _wrap_oracle_factory(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            oracle = factory(*args, **kwargs)
            if self.trace:
                oracle = self._wrap(oracle, calls="solver.min_value_queries",
                                    secs="solver.min_value_s")
            return self._wrap(oracle, group="certify")
        return wrapper

    def _wrap_solve(self, solve):
        @functools.wraps(solve)
        def wrapper(*args, **kwargs):
            report = solve(*args, **kwargs)
            if not self.paused:
                self.counts["solver.outer_iters"] += report.iterations
            return report
        return wrapper

    def _wrap_u_step(self, u_step):
        by_kind = {kind: self._wrap(u_step, calls=f"solver.u_steps.{kind}",
                                    secs=f"solver.u_step_s.{kind}")
                   for kind in U_STEP_KINDS}

        @functools.wraps(u_step)
        def wrapper(spec, *args, **kwargs):
            return by_kind[_u_step_kind(spec)](spec, *args, **kwargs)
        return wrapper

    def _wrap_grid_points(self, grid_points):
        counts = self.counts

        def counted(points):
            for point in points:
                counts["solver.grid_points"] += 1
                yield point

        @functools.wraps(grid_points)
        def wrapper(*args, **kwargs):
            points = grid_points(*args, **kwargs)
            return points if self.paused else counted(points)
        return wrapper

    def _wrap_simplex_grid(self, simplex_grid):
        @functools.wraps(simplex_grid)
        def wrapper(*args, **kwargs):
            points = simplex_grid(*args, **kwargs)
            if not self.paused:
                self.counts["solver.simplex_grid_points"] += len(points)
            return points
        return wrapper

    def _wrap_post_init(self, post_init):
        @functools.wraps(post_init)
        def wrapper(program):
            post_init(program)
            gen = program.generator
            if gen is not None and not getattr(gen, "counted", False):
                object.__setattr__(program, "generator", self._wrap_count(
                    gen, "extreal.generator_evals"))
        return wrapper

    # -- results ----------------------------------------------------------
    def layer_metrics(self) -> dict:
        out = {}
        for name, unit in LAYER_METRICS.items():
            table = self.self_s if unit == "s" else self.counts
            out[name] = {"value": table.get(name, 0), "unit": unit}
        return out
