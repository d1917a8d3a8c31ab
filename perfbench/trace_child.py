"""Run one treestop CLI command in-process with a span around every layer call.

    PYTHONPATH=src python3 perfbench/trace_child.py SPANS.json train --config ...

The public treestop functions are replaced, at the names their callers look
them up, by wrappers that record a span (name, start, end, parent span) and a
few counters.  The command then runs through ``treestop.cli.main(argv)`` and
the spans are written to SPANS.json when it ends.  The wrappers only observe:
arguments and results pass through unchanged, so outputs are byte-identical
to an untraced run.

A wrapped name that does not exist (a later refactor removed or renamed it)
is listed under "absent" instead of failing the command.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# Spans whose name depends on the nearest enclosing training or apply span.
BY_CALLER = {"stopper.train": 0, "stopper.apply": 1}


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape and len(shape) == 2 else 1


def _path_bytes(args, result):
    # computed from the ensemble shape: K * (N+1) * D float64 values
    return {"ensemble.path_bytes": result.num_paths * (result.num_steps + 1) * result.dim * 8}


def _augmented_bytes(args, result):
    # augment_barrier, which runs inside make_ensemble, copies the paths with
    # the indicator as one more coordinate
    return _path_bytes(args, result) if result.has_barrier_indicator else {}


def _removal_rows(args, result):
    return {"cart.removal_rows_in": _rows(args[0]), "cart.removal_rows_out": len(result)}


def _tree_nodes(args, result):
    return {"cart.tree_nodes": result.n_nodes}


def _predict_rows(args, result, caller):
    return {f"cart.predict_rows.{caller}": _rows(args[1])}


# (module, attribute path, span name, caller suffixes (train, apply), counter)
WRAPS = [
    ("treestop.cli", "main", "cli.main", None, None),
    ("treestop.cli", "train", "stopper.train", None, None),
    ("treestop.cli", "apply", "stopper.apply", None, None),
    ("treestop.cli", "value_of_rule", "valuation.value_of_rule", None, None),
    ("treestop.cli", "v_max", "valuation.v_max", None, None),
    ("treestop.config", "ExperimentConfig.make_ensemble", "ensemble.make_ensemble", None,
     _augmented_bytes),
    ("treestop.config", "generate_gbm", "ensemble.generate_gbm", None, _path_bytes),
    ("treestop.stopper", "features", "reward.features", ("train", "apply"), None),
    ("treestop.stopper", "reward", "reward.reward", None, None),
    ("treestop.stopper", "removal", "cart.removal", None, _removal_rows),
    ("treestop.stopper", "grow", "cart.grow", None, _tree_nodes),
    ("treestop.cart", "CartTree.predict", "cart.predict", ("loo", "apply"), _predict_rows),
    ("treestop.stopper", "BaggedStopper.parse", "stopper.parse", None, None),
    ("treestop.stopper", "BaggedStopper.content_hash", "stopper.content_hash", None, None),
]


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self.absent = []

    def caller(self, suffixes) -> str:
        for i in reversed(self.stack):
            pos = BY_CALLER.get(self.spans[i][0])
            if pos is not None:
                return suffixes[pos]
        return "other"

    def call(self, name, suffixes, counter, fn, args, kwargs):
        caller = self.caller(suffixes) if suffixes else None
        idx = len(self.spans)
        self.spans.append([f"{name}.{caller}" if caller else name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()
        if counter is not None:
            self.count(counter, args, result, caller)
        return result

    def count(self, counter, args, result, caller):
        try:
            found = counter(args, result, caller) if caller else counter(args, result)
        except (AttributeError, TypeError, IndexError) as exc:
            # the result no longer has the shape this counter reads
            self.absent.append(f"{counter.__name__}: {exc}")
            return
        for key, value in found.items():
            self.counts[key] = self.counts.get(key, 0) + int(value)

    def wrap(self, module_name, path, name, suffixes, counter) -> None:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(f"{module_name}.{path}")
            return
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if raw is None:
            self.absent.append(f"{module_name}.{path}")
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return tracer.call(name, suffixes, counter, fn, args, kwargs)

        setattr(owner, attr, kind(spanned) if kind else spanned)


def main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    for spec in WRAPS:
        tracer.wrap(*spec)
    cli = importlib.import_module("treestop.cli")
    code = cli.main(cli_argv)
    with open(out_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts,
                   "absent": tracer.absent, "exit": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
