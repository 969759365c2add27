"""Per-layer spans for the declutter benchmark, recorded from outside the package.

``Rebinding`` wraps the public functions of every ``declutter`` module at each
module-level name bound to them (``policies.mog_grasp`` and
``actions.mog_grasp`` are two bindings of one function), so calls made through
any of those names reach the wrapper.  Functions look their callees up in
their module's globals at call time, which is why rebinding the module
attributes is enough.  ``restore`` puts every original back.

``Tracer`` is the wrapper that counts calls and times spans.  A layer's self
time is its span minus the spans of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict
from collections.abc import Hashable


def declutter_modules() -> list:
    """The package and every submodule, imported."""
    import declutter

    return [declutter] + [
        importlib.import_module(f"declutter.{info.name}")
        for info in pkgutil.iter_modules(declutter.__path__)
    ]


def layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Rebinding:
    """Replaces each public declutter function ``fn`` (named in ``only``, if
    given) by ``make_wrapper(layer_name(fn), fn)`` at every module-level
    binding of ``modules``, until ``restore``."""

    def __init__(self, modules: list, make_wrapper, only: set[str] | None = None):
        originals = {}
        for module in modules:
            for value in vars(module).values():
                if (
                    inspect.isfunction(value)
                    and value.__module__.startswith("declutter")
                    and not value.__name__.startswith("_")
                    and (only is None or layer_name(value) in only)
                ):
                    originals[id(value)] = value
        wrappers = {key: make_wrapper(layer_name(fn), fn) for key, fn in originals.items()}
        self.patched: list[tuple[object, str, object]] = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if originals.get(id(value)) is value:
                    self.patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def restore(self) -> None:
        for module, attr, value in reversed(self.patched):
            setattr(module, attr, value)
        self.patched.clear()

    def __enter__(self) -> "Rebinding":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def policy_label(args, kwargs) -> str | None:
    """Policy kind of the first argument that carries one (a PolicyConfig)."""
    for value in (*args, *kwargs.values()):
        kind = getattr(value, "kind", None)
        if kind is not None and hasattr(value, "utensil_stacking"):
            return kind.value
    return None


# Layers whose counts are split by policy.
LABELLED = {"policies.next_action": policy_label}
# Predicates whose truthy results are counted, for accept ratios.
PREDICATES = {"actions.mog_grasp", "actions.pull_allowable", "actions.stack_allowable"}
# Layers whose distinct hashable arguments are counted.
DISTINCT = {"tableware.generate_scene"}


class Tracer:
    """Calls, self times and accepted predicate results per (layer, label)."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.accepted: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self._stack = [0.0]

    def install(self, modules: list, only: set[str] | None = None) -> Rebinding:
        return Rebinding(modules, self.wrap, only)

    def wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        label_of = LABELLED.get(name)
        predicate = name in PREDICATES
        distinct = self.distinct[name] if name in DISTINCT else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                stack[-1] += span
                key = (name, label_of(args, kwargs) if label_of else None)
                self.calls[key] += 1
                self.self_s[key] += span - children
            if predicate and result is not None and result is not False:
                self.accepted[key] += 1
            if distinct is not None:
                distinct.add(tuple(a for a in args if isinstance(a, Hashable)))
            return result

        return traced

    def total(self, table, name: str) -> float:
        """Sum of ``table`` (calls, self_s or accepted) over a layer's labels."""
        return sum(v for (n, _), v in table.items() if n == name)

    def covered_s(self) -> float:
        """Sum of every layer's self time: the wall time the spans explain."""
        return sum(self.self_s.values())
