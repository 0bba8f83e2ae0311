"""Spans around calls into each ``risac`` module, installed from outside ``src``.

Every public function of a layer module is replaced by a wrapper that records
a span (parent, name, module, start, end) in memory. ``from .x import y``
copies the function object into the importing module, so the wrapper replaces
every ``risac.*`` binding of that object. The objective and gradient callables
passed to ``projected_gradient`` are wrapped too; their spans belong to the
module that defined them, and their time is charged to the nearest enclosing
CRB or coupling solve. Self time is a span minus its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "config", "arrays", "channels", "sensing", "isac",
          "ris_isac", "optim", "dual_waveform")
# Public methods wrapped on their class (module, class, method).
METHODS = (("ris_isac", "RisIsacScenario", "from_scene"),
           ("config", "RunConfig", "validate"))
CRB_OWNER = "ris_isac.rate_constrained_crb_beamformer"
COUPLING_OWNER = "ris_isac.optimize_ris_profile"
OBJECTIVE, GRADIENT = "optim.objective", "optim.gradient"


def public_functions(mod) -> list:
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    return [n for n in names
            if inspect.isfunction(getattr(mod, n, None))
            and getattr(mod, n).__module__ == mod.__name__]


def _layer_of(fn) -> str:
    return getattr(fn, "__module__", "").rpartition(".")[2] or "?"


class Tracer:
    """Collects spans while installed; ``metrics()`` reduces them per layer."""

    def __init__(self):
        self.spans = []          # [parent, name, module, t0, t1]
        self._stack = []
        self.solves = []         # (span, iterations, accepted steps, converged)
        self.designs = []        # DualDesign results
        self.illumination_iters = 0
        self.glrt_trials = 0
        self._undo = []

    def _wrap(self, name, module, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [stack[-1] if stack else -1, name, module, 0.0, 0.0]
            stack.append(sid)
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, sid)
            return result

        return wrapper

    def _wrap_solver(self, fn):
        signature = inspect.signature(fn)

        def record(res, sid):
            self.solves.append((sid, res.iterations, len(res.trace) - 1, bool(res.converged)))

        traced = self._wrap("optim.projected_gradient", "optim", fn, record)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            for key, name in (("objective", OBJECTIVE), ("gradient", GRADIENT)):
                callable_ = bound.arguments[key]
                bound.arguments[key] = self._wrap(name, _layer_of(callable_), callable_)
            return traced(*bound.args, **bound.kwargs)

        return wrapper

    def _hook(self, qualified):
        if qualified == "dual_waveform.design_dual_waveform":
            return lambda res, sid: self.designs.append(res)
        if qualified == "sensing.maximize_illumination":
            def hook(res, sid):
                self.illumination_iters += res.iterations
            return hook
        if qualified == "sensing.glrt_monte_carlo":
            def hook(res, sid):
                self.glrt_trials += res.trials
            return hook
        return None

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"risac.{layer}") for layer in LAYERS}
        bindings = [m for n, m in sys.modules.items() if n == "risac" or n.startswith("risac.")]
        for layer, mod in modules.items():
            for name in public_functions(mod):
                original = getattr(mod, name)
                qualified = f"{layer}.{name}"
                if qualified == "optim.projected_gradient":
                    wrapper = self._wrap_solver(original)
                else:
                    wrapper = self._wrap(qualified, layer, original, self._hook(qualified))
                for holder in bindings:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._undo.append((holder, key, value))
                            setattr(holder, key, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[meth]
            qualified = f"{layer}.{meth}"
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(qualified, layer, raw.__func__))
            else:
                wrapper = self._wrap(qualified, layer, raw)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: Path) -> None:
        base = self.spans[0][3] if self.spans else 0.0
        lines = ["id,parent,name,module,start_s,end_s"]
        lines.extend(f"{i},{p},{n},{m},{t0 - base:.9f},{t1 - base:.9f}"
                     for i, (p, n, m, t0, t1) in enumerate(self.spans))
        Path(path).write_text("\n".join(lines) + "\n")

    def metrics(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for parent, _, _, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_by_layer, self_by_name, incl, calls = Counter(), Counter(), Counter(), Counter()
        evals, eval_s = Counter(), Counter()
        owner = [None] * len(spans)  # nearest enclosing CRB or coupling solve
        for i, (parent, name, layer, t0, t1) in enumerate(spans):
            dur = t1 - t0
            self_by_layer[layer] += dur - child[i]
            self_by_name[name] += dur - child[i]
            incl[name] += dur
            # Recursive calls (marcum_q1 uses symmetry) count once.
            if parent < 0 or spans[parent][1] != name:
                calls[name] += 1
            if name in (CRB_OWNER, COUPLING_OWNER):
                owner[i] = name
            elif parent >= 0:
                owner[i] = owner[parent]
            if name in (OBJECTIVE, GRADIENT) and owner[i] is not None:
                eval_s[owner[i]] += dur
                if name == OBJECTIVE:
                    evals[owner[i]] += 1
        accepted = sum(s[2] for s in self.solves)
        crb_steps = sum(s[2] for s in self.solves if owner[s[0]] == CRB_OWNER)
        glrt_s = incl["sensing.glrt_monte_carlo"]
        out = {
            "ris_isac.crb_evals": evals[CRB_OWNER],
            "ris_isac.crb_steps": crb_steps,
            "ris_isac.crb_eval_s": eval_s[CRB_OWNER],
            "ris_isac.coupling_evals": evals[COUPLING_OWNER],
            "ris_isac.coupling_eval_s": eval_s[COUPLING_OWNER],
            "ris_isac.optimize_ris_profile.calls": calls[COUPLING_OWNER],
            "ris_isac.from_scene_s": incl["ris_isac.from_scene"],
            "optim.solves": len(self.solves),
            "optim.iterations": sum(s[1] for s in self.solves),
            "optim.objective_evals": calls[OBJECTIVE],
            "optim.gradient_evals": calls[GRADIENT],
            "optim.accept_ratio": accepted / calls[OBJECTIVE] if calls[OBJECTIVE] else 0.0,
            "optim.unconverged": sum(1 for s in self.solves if not s[3]),
            "dual_waveform.converged": sum(1 for d in self.designs if d.converged),
            "dual_waveform.trace_len": sum(len(d.objective_trace) for d in self.designs),
            "dual_waveform.autoscale_tau.calls": calls["dual_waveform.autoscale_tau"],
            "arrays.steering_vector.calls": calls["arrays.steering_vector"],
            "arrays.steering_derivative.calls": calls["arrays.steering_derivative"],
            "channels.calls": sum(c for n, c in calls.items() if n.startswith("channels.")),
            "channels.build_sensing_channels.calls": calls["channels.build_sensing_channels"],
            "sensing.glrt_monte_carlo.self_s": self_by_name["sensing.glrt_monte_carlo"],
            "sensing.glrt_trials_per_s": self.glrt_trials / glrt_s if glrt_s else 0.0,
            "sensing.maximize_illumination.iterations": self.illumination_iters,
            "sensing.marcum_q1.calls": calls["sensing.marcum_q1"],
            "sensing.marcum_q1.self_s": self_by_name["sensing.marcum_q1"],
            "isac.crb_min_beamformer.calls": calls["isac.crb_min_beamformer"],
            "trace.spans": len(spans),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_by_layer[layer]
        return out
