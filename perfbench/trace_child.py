"""Traced CLI invocation: ``python trace_child.py SPANS_JSON CLI_ARG...``.

Times the package import, wraps every function named in ``layers.WRAPPED``
in a span (also where another module imported the name directly), then
calls ``phonon_optics.cli.main`` with the remaining arguments.  Spans are
kept in memory and written to SPANS_JSON when the call returns, followed
by a second line with the clock reading taken just after the write; the
exit code is the CLI's own.
"""

import time

_now = time.perf_counter
T_START = _now()  # perf_counter is CLOCK_MONOTONIC, comparable with the parent's

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from layers import WRAPPED  # noqa: E402


def _cubic_ops(kind, theta, trunc):
    # sum_{N<=nmax} (N+1)^3 = (K (K+1) / 2)^2 with K = nmax + 1
    k = trunc.n_total_max + 1
    return (k * (k + 1) // 2) ** 2


def _block_bytes(u, state):
    if not u.blocks:
        return 0
    # 16 bytes per complex entry, sum_{N<=nmax} (N+1)^2 entries
    k = u.trunc.n_total_max + 1
    return 16 * (k * (k + 1) * (2 * k + 1) // 6)


_COUNTERS = {"operators.beam_splitter": _cubic_ops, "operators.apply": _block_bytes}


class Recorder:
    """Flat span list: [name, start, end, parent index, computed count]."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], counter(*args, **kwargs) if counter else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = _now()
                stack.pop()

        return traced


def install(recorder):
    """Replace each wrapped function in every loaded phonon_optics module."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "phonon_optics"]
    for module_name, attr, span in WRAPPED:
        original = getattr(sys.modules[module_name], attr)
        wrapped = recorder.wrap(span, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = _now()
    import phonon_optics.cli as cli

    import_s = _now() - t0
    recorder = Recorder()
    install(recorder)
    try:
        rc = cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"t_start": T_START, "import_s": import_s, "spans": recorder.spans}, fh)
            fh.write("\n" + json.dumps(_now()))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
