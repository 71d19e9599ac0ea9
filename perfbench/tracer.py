"""Traced CLI launcher and span analysis.

Run as a script, this is a drop-in for the `demoscope` console command:

    python3 perfbench/tracer.py SPANS.json <demoscope arguments...>

It imports demoscope.cli, wraps the public functions and public methods
of each measured module (without editing the package), calls
cli.main(argv) and writes the spans and counters to SPANS.json when the
command ends. Spans are held in memory until then.

Wrapping rebinds every name a caller actually uses: the module
attribute, and every `from .x import f` copy of it in another demoscope
module (cli's load_corpus, evaluate's split, bayes' apply_map, ...).

Imported as a module, it offers the analysis used by run.py: self time
per span and per-name aggregates.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from time import perf_counter

LAYERS = (
    "cli",
    "data",
    "labeling",
    "bayes",
    "axis",
    "calibrate",
    "classifiers",
    "quantify",
    "evaluate",
    "serialize",
)
# per-row objects: wrapping them would measure the tracer, not the program
SKIP_CLASSES = {"data.SparseActivityVector"}
HOOK = "perfbench.hook"


def _nnz(corpus) -> int:
    rows = getattr(corpus, "rows", None)
    if rows is not None:
        return sum(len(r.indices) for r in rows)
    return int(corpus.to_csr().nnz)


def _load_hook(result, counters):
    corpus = result[0]
    counters["data.rows_loaded"] = counters.get("data.rows_loaded", 0) + corpus.n
    counters["data.nnz_loaded"] = counters.get("data.nnz_loaded", 0) + _nnz(corpus)


def _extract_hook(result, counters):
    seen = result[1].comments_seen
    counters["labeling.comments"] = counters.get("labeling.comments", 0) + seen


def _em_hook(result, counters):
    fit = result[1]
    counters["bayes.em_iterations"] = counters.get("bayes.em_iterations", 0) + fit.iterations
    trace = list(fit.log_likelihood)
    falls = sum(1 for a, b in zip(trace, trace[1:]) if b < a - 1e-9 * abs(a))
    counters["bayes.em_trace_falls"] = counters.get("bayes.em_trace_falls", 0) + falls


# counters read from a wrapped function's return value; a hook that no
# longer fits the program counts an error instead of failing the command
HOOKS = {
    "data.load_corpus": _load_hook,
    "labeling.extract_declarations": _extract_hook,
    "bayes.fit_semisupervised": _em_hook,
}


class Recorder:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.hook_errors = 0
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
        stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if hook is not None:
                # its own span, so the caller's self time excludes it
                h = rec._open(HOOK)
                try:
                    hook(result, rec.counters)
                except Exception:
                    rec.hook_errors += 1
                finally:
                    rec._close(h)
            return result

        return traced

    def dump(self, path):
        payload = {"spans": self.spans, "counters": self.counters, "hook_errors": self.hook_errors}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def install(rec: Recorder):
    """Wrap the measured modules in place, rebinding every copy of a name."""
    import demoscope.cli  # noqa: F401  (imports every measured module)

    wrapped = {}
    for short in LAYERS:
        mod = sys.modules[f"demoscope.{short}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = rec.wrap(f"{short}.{attr}", obj)
            elif inspect.isclass(obj) and f"{short}.{attr}" not in SKIP_CLASSES:
                _wrap_methods(rec, obj, f"{short}.{attr}")
    for modname, mod in list(sys.modules.items()):
        if modname != "demoscope" and not modname.startswith("demoscope."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def _wrap_methods(rec: Recorder, cls, prefix: str):
    for name, member in list(vars(cls).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(member):
            setattr(cls, name, rec.wrap(f"{prefix}.{name}", member))
        elif isinstance(member, classmethod):
            setattr(cls, name, classmethod(rec.wrap(f"{prefix}.{name}", member.__func__)))


# ---------------------------------------------------------------- analysis


def self_times(spans) -> list[float]:
    """Duration of each span minus the part its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    out = []
    for i, (_, t0, t1, _) in enumerate(spans):
        covered, end = 0.0, t0
        for a, b in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            a, b = max(a, end), min(b, t1)
            if b > a:
                covered += b - a
                end = b
        out.append((t1 - t0) - covered)
    return out


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds."""
    table: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(s[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s[2] - s[1]
        row["self_s"] += self_s
    return table


def count_under(spans, name: str, ancestor: str) -> dict[int, int]:
    """Number of `name` spans below each `ancestor` span that has any."""
    counts: dict[int, int] = {}
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        if p >= 0:
            counts[p] = counts.get(p, 0) + 1
    return counts


def main(argv) -> int:
    out, cli_argv = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    from demoscope import cli

    try:
        return cli.main(cli_argv)
    except SystemExit as e:
        return 0 if e.code is None else e.code if isinstance(e.code, int) else 1
    finally:
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
