"""Binding-aware call tracer for the crosscap benchmark.

The tracer wraps public functions and methods of crosscap's modules from
outside the package, so tracing needs no change to the program.  A
``from .module import name`` statement copies the binding, so each wrapped
function is replaced in every loaded crosscap module that holds it (for
example ``ledger.word_matrix`` as well as ``homology.word_matrix``), and
methods are replaced on their class.

Two kinds of boundary:

* coarse boundaries record a span -- name, start, end, parent span, item id --
  kept in memory and written out by :meth:`Tracer.write_spans`.  A span's
  self time is its duration minus the time its child spans cover.
* hot boundaries (matrix and word products) only bump a counter and, where
  asked, add up their time; one span per call would cost more than the call.

Counts are taken from the arguments and results seen at a boundary, so two
runs of the same inputs give identical counts.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable

perf = time.perf_counter

# The eight modules of the package, which are the benchmark's layers.
LAYERS = ("intmat", "words", "homology", "families", "finitegrp", "pi1free", "ledger", "cli")


class Tracer:
    """Spans and counters for one pass of a workload."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.stack: list[list] = []  # [span index, start, seconds in children]
        self.item: str | None = None
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.hot_s: defaultdict = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.item])
        self.stack.append([len(self.spans) - 1, perf(), 0.0])

    def exit(self) -> None:
        end = perf()
        index, start, child = self.stack.pop()
        record = self.spans[index]
        record[1], record[2] = start, end
        duration = end - start
        name = record[0]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self.stack:
            self.stack[-1][2] += duration

    def span(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        """Wrap ``fn`` so that each call is a span; ``measure(counts, args,
        kwargs, result)`` adds boundary counts after the span has closed."""

        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if measure is not None:
                measure(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def generator_span(self, name: str, fn: Callable, wrap_args=None, count_key=None) -> Callable:
        """Wrap a generator function: each ``next`` is a span, so the time the
        consumer spends between items is not charged to the generator."""

        def iterate(inner):
            while True:
                self.enter(name)
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    self.exit()
                if count_key is not None:
                    self.counts[count_key] += 1
                yield value

        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args = wrap_args(args)
            return iterate(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn: Callable, timed: bool = False) -> Callable:
        """Wrap a hot binary method with a call counter (and summed time)."""
        counts, hot_s = self.counts, self.hot_s
        if timed:

            def wrapper(a, b):
                start = perf()
                result = fn(a, b)
                hot_s[key] += perf() - start
                counts[key] += 1
                return result

        else:

            def wrapper(a, b):
                counts[key] += 1
                return fn(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def replace_function(self, module, name: str, replacement: Callable) -> None:
        """Replace ``module.name`` in every loaded crosscap module bound to it."""
        original = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "crosscap" or mod_name.startswith("crosscap.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def replace_method(self, cls, name: str, make: Callable[[Callable], Callable]) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._undo.append((cls, name, raw))
        setattr(cls, name, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart_s\tend_s\tparent\titem\n")
            for index, (name, start, end, parent, item) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += seconds
        return totals


def install(tracer: Tracer) -> Tracer:
    """Wrap crosscap's layer boundaries; the package must be imported."""
    from crosscap import cli, families, finitegrp, homology, intmat, ledger, pi1free, words

    def add(key, amount):
        def measure(counts, args, kwargs, result):
            counts[key] += amount(args, kwargs, result)

        return measure

    def one(args, kwargs, result):
        return 1

    t = tracer
    f = t.replace_function
    # cli and ledger: the entry point and one span per check run
    f(cli, "main", t.span("cli.main", cli.main))
    f(ledger, "run_suite", t.span("ledger.run_suite", ledger.run_suite))

    run_check = ledger.run_check

    def traced_run_check(check_id, params=None):
        # inside the suite each check is its own item; a workload item that
        # runs one check keeps the item id its caller set
        own_item = t.item is None
        if own_item:
            t.item = check_id
        t.enter(f"ledger.check.{check_id}")
        try:
            return run_check(check_id, params)
        finally:
            t.exit()
            if own_item:
                t.item = None

    f(ledger, "run_check", traced_run_check)

    # homology: word evaluation and the functions built on it
    f(
        homology,
        "word_matrix",
        t.span(
            "homology.word_matrix",
            homology.word_matrix,
            add("homology.letters", lambda a, k, r: len(a[0].letters)),
        ),
    )
    for name in ("reduced_action", "level_member", "mod2_action"):
        f(homology, name, t.span(f"homology.{name}", getattr(homology, name)))

    # families and words: building the generator words
    built = add("families.words_built", one)
    f(families, "main3_generator", t.span("families.main3_generator", families.main3_generator, built))
    f(families, "subset_word", t.span("families.subset_word", families.subset_word, built))
    f(words, "conjugate", t.span("words.conjugate", words.conjugate, built))
    f(
        families,
        "main3_generators",
        t.generator_span(
            "families.main3_generators", families.main3_generators, count_key="families.words_built"
        ),
    )

    # finitegrp: closures, Schreier generators, coset enumeration
    order = add("finitegrp.elements", lambda a, k, r: r.order)
    f(finitegrp, "bfs_closure", t.span("finitegrp.bfs_closure", finitegrp.bfs_closure, order))
    f(finitegrp, "normal_closure", t.span("finitegrp.normal_closure", finitegrp.normal_closure, order))
    f(
        finitegrp,
        "todd_coxeter",
        t.span(
            "finitegrp.todd_coxeter",
            finitegrp.todd_coxeter,
            add("finitegrp.cosets", lambda a, k, r: r.coset_count),
        ),
    )

    def callbacks(args):
        # the quotient and transversal callbacks are the caller's work, not
        # the stream's: as child spans their time leaves the stream's self time
        quotient, transversal, *rest = args
        return (
            t.span("callback.quotient", quotient),
            t.span("callback.transversal", transversal),
            *rest,
        )

    f(
        finitegrp,
        "schreier_generators",
        t.generator_span(
            "finitegrp.schreier_generators",
            finitegrp.schreier_generators,
            wrap_args=callbacks,
            count_key="finitegrp.schreier_yields",
        ),
    )

    # pi1free: folding, rewriting, the coefficient map, certification
    def fold_measure(counts, args, kwargs, result):
        counts["pi1free.fold_letters"] += sum(w.length() for w in args[0])
        counts["pi1free.fold_vertices"] += result.vertex_count

    t.replace_method(
        pi1free.StallingsGraph, "fold", lambda fn: t.span("pi1free.fold", fn, fold_measure)
    )
    f(pi1free, "rewrite_two_sided", t.span("pi1free.rewrite_two_sided", pi1free.rewrite_two_sided))
    f(pi1free, "push_coefficients_int", t.span("pi1free.theta", pi1free.push_coefficients_int))
    f(pi1free, "verify_ker_theta", t.span("pi1free.verify_ker_theta", pi1free.verify_ker_theta))

    # hot products: counted, not spanned
    t.replace_method(intmat.IntMatrix, "__mul__", lambda fn: t.counter("intmat.mul_calls", fn))
    t.replace_method(intmat.ModMatrix, "__mul__", lambda fn: t.counter("intmat.mul_calls", fn))
    t.replace_method(words.MCGWord, "__mul__", lambda fn: t.counter("words.mul", fn, timed=True))
    t.replace_method(pi1free.FreeWord, "__mul__", lambda fn: t.counter("pi1free.word_mul_calls", fn))
    return tracer
