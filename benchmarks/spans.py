"""Span tracing from outside the program, for the benchmark's traced run.

``Tracer.install()`` replaces the public functions of each ``sphcav`` layer,
and the SciPy entry points (``solve_ivp``, ``brentq``, ``quad``) as each
``sphcav`` module sees them, with wrappers that record one span per call:
name, start, end and the span that caused it.  Spans stay in flat in-memory
arrays until ``write()``; ``metrics()`` turns them into per-layer counts and
self times.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from pathlib import Path

import numpy as np

# public functions wrapped per layer
_TARGETS = {
    "specfun": ("spherical_j", "riccati_deriv", "legendre_theta", "legendre_theta_deriv", "hyp2f1"),
    "angular": ("cone_roots", "cone_nu"),
    "radial": ("j_zero", "riccati_deriv_zero", "radial_root"),
    "fields": ("make_mode", "evaluate", "wave_impedances"),
    "energy": ("mode_energy",),
    "spectrum": (
        "enumerate_modes",
        "fundamental_tm",
        "cone_sweep",
        "wedge_sweep",
        "dispersion_table",
        "validate",
    ),
    "cli": ("main",),
}

# SciPy entry points, per module that calls them
_SCIPY = {"specfun": ("solve_ivp",), "angular": ("brentq",), "radial": ("brentq",), "fields": ("quad",), "energy": ("quad",)}

# a span of these kinds is work done on behalf of the nearest other layer
_LEAF_LAYERS = ("specfun", "scipy")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.rhs_evals = 0
        self.integrand_evals = 0
        self.roots_out = 0
        self.modes_out = 0
        self.root_calls_repeated = 0
        self._seen_roots: set = set()

    # -- recording ------------------------------------------------------------

    def new_operation(self) -> None:
        """Start of one workload operation; radial repeats are counted within it."""
        self._seen_roots = set()

    def _wrap(self, name: str, fn, after=None, before=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, name_ids, parents, starts, ends = self._stack, self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after(self, name: str):
        if name == "angular.cone_roots":
            def after(args, result):
                self.roots_out += len(result)
        elif name in ("radial.j_zero", "radial.riccati_deriv_zero"):
            def after(args, result):
                key = (result.kind, result.nu, result.n)
                if key in self._seen_roots:
                    self.root_calls_repeated += 1
                self._seen_roots.add(key)
        elif name == "spectrum.enumerate_modes":
            def after(args, result):
                # count only the outermost call; the max_count path recurses
                nid = self._name_ids[name]
                if not any(self.name_id[i] == nid for i in self._stack):
                    self.modes_out += len(result)
        elif name.startswith("scipy.solve_ivp"):
            def after(args, result):
                self.rhs_evals += int(result.nfev)
        else:
            return None
        return after

    def _count_integrand(self, args):
        func = args[0]

        def counted(*a):
            self.integrand_evals += 1
            return func(*a)

        return (counted,) + tuple(args[1:])

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"sphcav.{layer}") for layer in _TARGETS}
        mods["package"] = importlib.import_module("sphcav")
        wrappers: dict[int, object] = {}
        for layer, funcs in _TARGETS.items():
            for func in funcs:
                original = getattr(mods[layer], func)
                name = f"{layer}.{func}"
                wrappers[id(original)] = self._wrap(name, original, after=self._after(name))
        # rebind every module-level name that refers to a wrapped function
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        for layer, funcs in _SCIPY.items():
            for func in funcs:
                original = getattr(mods[layer], func)
                name = f"scipy.{func}@{layer}"
                before = self._count_integrand if func == "quad" and layer == "energy" else None
                self._patches.append((mods[layer], func, original))
                setattr(mods[layer], func, self._wrap(name, original, after=self._after(name), before=before))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------

    def _arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = parent >= 0
        self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        # owner: nearest span (itself included) outside specfun and scipy;
        # parents precede children, so one forward pass resolves it
        leaf = [n.split(".", 1)[0] in _LEAF_LAYERS for n in self.names]
        owner = np.full(len(dur), -1, dtype=np.int64)
        for i in range(len(dur)):
            if not leaf[nid[i]]:
                owner[i] = i
            elif parent[i] >= 0:
                owner[i] = owner[parent[i]]
        owner_nid = np.where(owner >= 0, nid[np.maximum(owner, 0)], -1)
        return nid, self_time, owner_nid

    def metrics(self, pass_seconds: float) -> dict[str, tuple[float, str]]:
        nid, self_time, owner_nid = self._arrays()
        index = {n: i for i, n in enumerate(self.names)}
        layer_ids = {}
        for n, i in index.items():
            layer_ids.setdefault(n.split(".", 1)[0], []).append(i)
        # Brent and quadrature self time belongs to the span that called them;
        # ODE self time is reported on its own as specfun.ode.self_s
        attributed = np.isin(nid, [index[n] for n in index if n.startswith(("scipy.brentq", "scipy.quad"))])

        def sel(name):
            return nid == index[name]

        def calls(name, owned_by=None):
            mask = sel(name)
            if owned_by is not None:
                mask &= np.isin(owner_nid, layer_ids[owned_by])
            return int(np.count_nonzero(mask))

        def self_s(*names_):
            mask = np.isin(nid, [index[n] for n in names_])
            mask |= attributed & np.isin(owner_nid, [index[n] for n in names_])
            return float(self_time[mask].sum())

        def ratio(num, den):
            return num / den if den else 0.0

        ode = "scipy.solve_ivp@specfun"
        root_calls = calls("radial.j_zero") + calls("radial.riccati_deriv_zero")
        roots_out = self.roots_out
        angular_odes = calls(ode, "angular")
        bessel = calls("specfun.spherical_j", "radial")
        radial_names = [n for n in self.names if n.startswith("radial.")]
        out = {
            "angular.cone_roots.calls": (calls("angular.cone_roots"), "count"),
            "angular.cone_roots.self_s": (self_s("angular.cone_roots"), "s"),
            "angular.cone_nu.calls": (calls("angular.cone_nu"), "count"),
            "angular.roots_out": (roots_out, "count"),
            "angular.ode_solves": (angular_odes, "count"),
            "angular.brentq_calls": (calls("scipy.brentq@angular"), "count"),
            "angular.roots_per_ode_solve": (ratio(roots_out, angular_odes), "ratio"),
            "radial.root_calls": (root_calls, "count"),
            "radial.root_calls_repeated": (self.root_calls_repeated, "count"),
            "radial.unique_root_ratio": (ratio(root_calls - self.root_calls_repeated, root_calls), "ratio"),
            "radial.bessel_evals": (bessel, "count"),
            "radial.bessel_evals_per_root": (ratio(bessel, root_calls), "ratio"),
            "radial.brentq_calls": (calls("scipy.brentq@radial"), "count"),
            "radial.self_s": (self_s(*radial_names), "s"),
            "specfun.spherical_j.calls": (calls("specfun.spherical_j"), "count"),
            "specfun.spherical_j.self_s": (self_s("specfun.spherical_j"), "s"),
            "specfun.hyp2f1.calls": (calls("specfun.hyp2f1"), "count"),
            "specfun.ode_solves": (calls(ode), "count"),
            "specfun.ode_rhs_evals": (self.rhs_evals, "count"),
            "specfun.ode.self_s": (self_s(ode), "s"),
            "fields.evaluate.calls": (calls("fields.evaluate"), "count"),
            "fields.evaluate.self_s": (self_s("fields.evaluate"), "s"),
            "fields.make_mode.self_s": (self_s("fields.make_mode"), "s"),
            "fields.polar_evals": (
                calls("specfun.legendre_theta", "fields") + calls("specfun.legendre_theta_deriv", "fields"),
                "count",
            ),
            "fields.ode_solves": (calls(ode, "fields"), "count"),
            "energy.mode_energy.calls": (calls("energy.mode_energy"), "count"),
            "energy.mode_energy.self_s": (self_s("energy.mode_energy"), "s"),
            "energy.quad_calls": (calls("scipy.quad@energy"), "count"),
            "energy.integrand_evals": (self.integrand_evals, "count"),
            "energy.ode_solves": (calls(ode, "energy"), "count"),
            "spectrum.enumerate_modes.calls": (calls("spectrum.enumerate_modes"), "count"),
            "spectrum.enumerate_modes.self_s": (self_s("spectrum.enumerate_modes"), "s"),
            "spectrum.fundamental_tm.calls": (calls("spectrum.fundamental_tm"), "count"),
            "spectrum.validate.self_s": (self_s("spectrum.validate"), "s"),
            "spectrum.modes_out": (self.modes_out, "count"),
            "cli.main.calls": (calls("cli.main"), "count"),
            "cli.main.self_s": (self_s("cli.main"), "s"),
            "trace.pass_s": (pass_seconds, "s"),
            "trace.spans": (len(nid), "count"),
        }
        return out

    def write(self, path: Path) -> None:
        """Spans as arrays (.npz) plus the name table (.json)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path.with_suffix(".npz"),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
        path.with_suffix(".json").write_text(json.dumps({"names": self.names}) + "\n")
