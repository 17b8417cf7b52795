"""Outside-in tracer: spans around the calls into each module's public functions.

The tracer wraps the public functions of the traced modules and rebinds
each one wherever the package holds a reference to it: in every
``skewbidisc`` module that imported it with ``from .x import f`` and in
module-level dict tables such as the CLI's command map.  A wrapper records
a span (name, start, end, parent span, campaign id, whether an exception
crossed it) only while a campaign is being recorded, so work the benchmark
itself does between campaigns stays out of the trace.

Spans are kept in flat in-memory arrays and written once, at the end.
Self time and call counts are derived from the spans afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PACKAGE = "skewbidisc"
MODULES = (
    "domains", "colligation", "linalg", "realization", "kernels",
    "synthesis", "catalog", "jsonio", "cli",
)
# Methods traced besides the module-level functions.
METHODS = (("synthesis", "PolyVectorMap", "eval"), ("synthesis", "ScalarPoly", "eval"))
# Samplers whose returned points are the denominator of calls_per_point.
SAMPLERS = ("domains.sample_rG", "domains.sample_skew_bidisc")
# The catalog's closed form is a closure returned by rank_one_build; it is
# traced by wrapping the closure rank_one_build hands back.
CLOSED_FORM = "catalog.closed_form"
CLOSED_FORM_BUILDER = "catalog.rank_one_build"


def public_functions(module) -> list[str]:
    """Names of the functions a module defines itself and does not mark private."""
    return sorted(
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    )


@dataclass
class SpanTable:
    """Spans as parallel numpy arrays, plus the name table they index."""

    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    campaign: np.ndarray
    error: np.ndarray

    def self_seconds(self) -> np.ndarray:
        """Each span's duration minus the time covered by its direct children."""
        dur = self.end - self.start
        child = np.zeros(len(dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], dur[has_parent])
        return dur - child

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name=self.name, start=self.start,
                 end=self.end, parent=self.parent, campaign=self.campaign, error=self.error)


class Tracer:
    """Installs span-recording wrappers into a loaded package and removes them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._campaign = array("i")
        self._error = array("b")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.points: dict[int, int] = {}
        self.campaign_id = -1

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        sampler = name in SAMPLERS
        builder = name == CLOSED_FORM_BUILDER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            campaign = self.campaign_id
            if campaign < 0:
                return fn(*args, **kwargs)
            idx = len(self._start)
            self._name.append(nid)
            self._parent.append(self._stack[-1])
            self._campaign.append(campaign)
            self._error.append(0)
            self._end.append(0.0)
            self._stack.append(idx)
            self._start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._error[idx] = 1
                raise
            finally:
                self._end[idx] = time.perf_counter()
                self._stack.pop()
            if sampler:
                self.points[campaign] = self.points.get(campaign, 0) + len(out)
            elif builder:
                out = (out[0], self.wrap(CLOSED_FORM, out[1]))
            return out

        return traced

    def _rebind(self, original, wrapper) -> None:
        """Replace every reference the package holds to ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patches.append((value, key, original))
                            value[key] = wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = []
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            targets += [(f"{short}.{f}", getattr(module, f)) for f in public_functions(module)]
        for name, original in targets:
            self._rebind(original, self.wrap(name, original))
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{short}"), cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def table(self) -> SpanTable:
        return SpanTable(
            names=list(self.names),
            name=np.frombuffer(self._name, dtype=np.int32).copy(),
            start=np.frombuffer(self._start, dtype=np.float64).copy(),
            end=np.frombuffer(self._end, dtype=np.float64).copy(),
            parent=np.frombuffer(self._parent, dtype=np.int32).copy(),
            campaign=np.frombuffer(self._campaign, dtype=np.int32).copy(),
            error=np.frombuffer(self._error, dtype=np.int8).copy(),
        )
