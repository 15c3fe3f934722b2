"""Spans around the calls into each proxkit layer, recorded from outside.

``Tracer.install`` wraps every public module-level function of every
``proxkit`` module and rebinds the wrapper under each name that binds the
function in any ``proxkit`` module.  proxkit imports with ``from .x import
y``, so the defining module's binding alone would miss most callers.  A
layer is the module that defines the function.  Methods of the data
classes are not wrapped: their time counts as self time of the layer whose
function called them.

Spans are kept in flat arrays (name, parent, start, end) and written out
when the run ends.  A span's self time is its duration minus that of its
direct children; spans nest, as the benchmark runs no threads.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array

LAYERS = ("catalog", "chain", "cli", "comonads", "finite", "morphisms",
          "proximity", "reports", "roundideal")

# inclusive times of named groups of functions, outermost call only
GROUPS = {
    "finite.build_s": {"finite.build_finite_frame"},
    "proximity.validate_s": {"proximity.validate_proximity"},
    "proximity.collapse_s": {"proximity.certify_finite_collapse"},
    "roundideal.rframe_s": {"roundideal.rframe"},
    "morphisms.enumerate_s": {"morphisms.enumerate_proxhoms"},
    "morphisms.algebra_s": {
        "morphisms.compose", "morphisms.star_compose", "morphisms.theta",
        "morphisms.rho", "morphisms.rmap_map", "morphisms.identity_map",
        "morphisms.sigma_map", "morphisms.kappa_map", "morphisms.alpha_map",
    },
    "catalog.load_s": {"catalog.load_instance", "catalog.catalog_instances"},
}

# call counts of single functions
CALLS = {
    "finite.build_calls": "finite.build_finite_frame",
    "proximity.validate_calls": "proximity.validate_proximity",
    "roundideal.rframe_calls": "roundideal.rframe",
    "morphisms.proxhom_checks": "morphisms.validate_proxhom",
    "morphisms.compose_calls": "morphisms.compose",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        # outcome counts, taken after the span has ended
        self.validate_accepted = 0
        self.proxhoms_found = 0
        self._rframe_args: set = set()
        self.rframe_distinct = 0

    # -- installation -------------------------------------------------------

    def install(self, package: str = "proxkit") -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if name == package or name.startswith(package + ".")]
        wrappers = {}
        for mod in mods:
            layer = mod.__name__.rpartition(".")[2]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        for mod in mods:
            for attr, fn in list(vars(mod).items()):
                if id(fn) in wrappers and inspect.isfunction(fn):
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        clock = time.perf_counter
        outcome = {
            "proximity.validate_proximity": self._on_validate,
            "morphisms.validate_proxhom": self._on_proxhom,
            "roundideal.rframe": self._on_rframe,
        }.get(name)

        def span(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if outcome is not None:
                outcome(args, result)
            return result

        return span

    def _on_validate(self, args, report):
        self.validate_accepted += bool(report.ok)

    def _on_proxhom(self, args, report):
        self.proxhoms_found += bool(report.ok)

    def _on_rframe(self, args, rfd):
        if args[0] not in self._rframe_args:
            self._rframe_args.add(args[0])
            self.rframe_distinct += 1

    def begin_round(self) -> None:
        """Distinct rframe arguments are counted per round."""
        self._rframe_args.clear()

    # -- analysis -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.start)

    def summary(self, first: int, last: int) -> dict[str, float]:
        """Totals over the spans with index in [first, last), which must be
        whole trees (a span's parent precedes it)."""
        layer_of = [nm.partition(".")[0] for nm in self.names]
        keys = list(GROUPS)
        own = [sum(1 << g for g, key in enumerate(keys) if nm in GROUPS[key])
               for nm in self.names]
        call_key = {self.names.index(nm): key for key, nm in CALLS.items()
                    if nm in self.names}
        out: dict[str, float] = {f"{L}.self_s": 0.0 for L in LAYERS}
        out.update({f"{L}.calls": 0 for L in LAYERS})
        out.update({key: 0.0 for key in GROUPS})
        out.update({key: 0 for key in CALLS})
        selfs = [0.0] * (last - first)
        flags = [0] * (last - first)  # groups of the span and its ancestors
        covered = 0.0
        for i in range(first, last):
            nid = self.name_of[i]
            p = self.parent[i] - first
            dur = self.end[i] - self.start[i]
            selfs[i - first] += dur
            up = 0
            if p >= 0:
                selfs[p] -= dur
                up = flags[p]
            else:
                covered += dur
            flags[i - first] = up | own[nid]
            fresh = own[nid] & ~up
            if fresh:
                for g, key in enumerate(keys):
                    if fresh >> g & 1:
                        out[key] += dur
            out[f"{layer_of[nid]}.calls"] += 1
            if nid in call_key:
                out[call_key[nid]] += 1
        for i, s in enumerate(selfs):
            out[f"{layer_of[self.name_of[first + i]]}.self_s"] += s
        out["covered_s"] = covered
        out["spans"] = last - first
        return out

    def write(self, path: str) -> None:
        """Tab-separated spans: index, name, parent, start, end (seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_of[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
