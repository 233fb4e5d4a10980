"""One benchmark operation: a fresh process that runs `ternions.cli.main`.

Usage (from the checkout root, with src/ on PYTHONPATH):

    python3 perfbench/child.py META_JSON MODE(0|1|setup) OP_ID -- <ternions CLI args>

The program sees only the CLI arguments after `--`.  Before calling
`ternions.cli.main` the process imports `ternions`, builds GF(q) (the field
cache makes the CLI's own lookup free, so no work is added) and notes the
monotonic clock: the parent subtracts its spawn time to get `setup_s`.

MODE 0 runs the command plainly and MODE setup stops after set-up, which
adds set-up samples without running the command.  With MODE 1 the public
functions of each layer are wrapped from outside, before `main` runs: the
`Kernel` methods at class level, every module-level binding of the traced functions (including the names `ternions.suites`
imports with `from ... import`), and the entries of the `SUITES` dict in
place.  Spans live in memory and are written to META_JSON when the
operation ends, together with per-layer call counts and times.

Traced or not, a speed probe runs through the whole operation: every
PROBE_INTERVAL_S of wall time a signal handler times a fixed reference
snippet.  The mean snippet time says how fast the shared machine ran
during this operation; run.py uses it to scale wall times to one nominal
speed, and subtracts the probe's own time.
"""

import json
import signal
import sys
import time

PROBE_INTERVAL_S = 0.01

# Preallocated, so the snippet neither allocates tracked objects nor
# triggers the cyclic garbage collector.
_PROBE_DICT = dict.fromkeys(range(64), 0)
_PROBE_LIST = list(range(17))

# Kernel methods wrapped at class level.
KERNEL_OPS = (
    "stack_rank", "rref", "rank", "meet", "matmul",
    "matinv", "nullspace", "vec_apply", "apply_rows",
)

# (module, function) pairs wrapped wherever the package binds them.
FUNCTIONS = (
    ("gf", "field_of_order"),
    ("linalg", "canonicalize"),
    ("ternion", "random_invertible"),
    ("model", "cyclic_span"),
    ("model", "classify"),
    ("model", "build_catalog"),
    ("model", "validate_catalog"),
    ("model", "scan_planes_for_x"),
    ("geometry", "build_graph"),
    ("geometry", "scan_lines"),
    ("geometry", "scan_solids"),
    ("geometry", "first_failed_condition"),
    ("geometry", "decompose_semilinear"),
    ("geometry", "incidence_table"),
    ("geometry", "xi_report"),
    ("geometry", "verify_preserver"),
)

# Generators: each resume is timed; yields are counted.
GENERATORS = (
    ("linalg", "enumerate_subspaces"),
    ("ternion", "enumerate_pairs"),
)

# Layers called so often that only their totals are kept, not each span.
AGGREGATE_ONLY = frozenset(
    ["kernels." + op for op in KERNEL_OPS]
    + [
        "linalg.canonicalize",
        "linalg.enumerate_subspaces",
        "ternion.enumerate_pairs",
        "ternion.random_invertible",
        "model.cyclic_span",
        "model.classify",
    ]
)

# Sizes of results the per-layer ratios need.
RESULT_SIZES = {
    "geometry.scan_lines": len,
    "geometry.scan_solids": len,
    "model.build_catalog": lambda cat: sum(cat.counts().values()),
}


class Tracer:
    """Span stack with self time: a span's duration minus its children's.

    Single-threaded code runs child spans one after another, so the time
    they cover is the sum of their durations."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.clock = time.perf_counter
        self.stack = []  # frames: [name, child_seconds, recorded span index]
        self.totals = {}  # (name, parent name) -> [calls, total_s, self_s, yields]
        self.spans = []  # [name, start, end, parent span index, op id]
        self.sizes = {}  # name -> summed result size

    def _enter(self, name):
        stack = self.stack
        parent = stack[-1] if stack else None
        index = parent[2] if parent else -1
        if name not in AGGREGATE_ONLY:
            self.spans.append([name, 0.0, 0.0, index, self.op_id])
            index = len(self.spans) - 1
        stack.append([name, 0.0, index])
        return parent

    def _exit(self, name, parent, start, end, yielded):
        frame = self.stack.pop()
        dur = end - start
        if parent is not None:
            parent[1] += dur
        key = (name, parent[0] if parent else None)
        row = self.totals.get(key)
        if row is None:
            row = self.totals[key] = [0, 0.0, 0.0, 0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - frame[1]
        row[3] += yielded
        if name not in AGGREGATE_ONLY:
            span = self.spans[frame[2]]
            span[1] = start
            span[2] = end

    def wrap(self, name, fn):
        enter, exit_, clock = self._enter, self._exit, self.clock
        size = RESULT_SIZES.get(name)

        def traced(*args, **kwargs):
            parent = enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(name, parent, start, clock(), 0)
            if size is not None:
                self.sizes[name] = self.sizes.get(name, 0) + size(result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        enter, exit_, clock = self._enter, self._exit, self.clock

        def resumes(it):
            while True:
                parent = enter(name)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    exit_(name, parent, start, clock(), 0)
                    return
                except BaseException:
                    exit_(name, parent, start, clock(), 0)
                    raise
                exit_(name, parent, start, clock(), 1)
                yield item

        def traced(*args, **kwargs):
            return resumes(fn(*args, **kwargs))

        return traced

    def report(self):
        return {
            "totals": [[n, p, *row] for (n, p), row in self.totals.items()],
            "sizes": self.sizes,
            "spans": self.spans,
        }


def _reference_snippet():
    """Fixed interpreter work of about 0.1 ms: dict and list reads and writes
    and integer arithmetic, the mix the pure-Python kernels run."""
    d, lst, s = _PROBE_DICT, _PROBE_LIST, 0
    for i in range(400):
        d[i & 63] = lst[i % 17] ^ i
        s += d[i & 31]
    return s


class SpeedProbe:
    """Times the reference snippet from a SIGALRM handler, which runs in the
    main thread between bytecodes, on the same CPU state as the program."""

    def __init__(self):
        self.count = 0
        self.total_s = 0.0
        self.marks = {}  # label -> (count, total_s) when `mark` was called

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _reference_snippet()
        self.total_s += time.perf_counter() - start
        self.count += 1

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self, label):
        self.marks[label] = (self.count, self.total_s)

    def report(self):
        return {"count": self.count, "total_s": self.total_s, "marks": self.marks}


def _rebind(original, replacement):
    """Point every module-level name in the package that holds `original`
    at `replacement`, so `from x import f` bindings are traced too."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "ternions" or mod_name.startswith("ternions."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer):
    """Wrap every traced layer; return the traced `cli.main`."""
    import importlib

    import ternions.cli as cli
    from ternions import _pycore, suites

    for op in KERNEL_OPS:
        fn = getattr(_pycore.Kernel, op)
        setattr(_pycore.Kernel, op, tracer.wrap("kernels." + op, fn))
    for table, wrap in ((FUNCTIONS, tracer.wrap), (GENERATORS, tracer.wrap_generator)):
        for mod_name, fn_name in table:
            mod = importlib.import_module("ternions." + mod_name)
            original = getattr(mod, fn_name)
            _rebind(original, wrap(f"{mod_name}.{fn_name}", original))
    for name, fn in list(suites.SUITES.items()):
        suites.SUITES[name] = tracer.wrap("suites." + name, fn)  # cli shares this dict
    return tracer.wrap("cli.main", cli.main)


def _field_order(cli_args):
    return int(cli_args[cli_args.index("--q") + 1])


def main(argv):
    meta_path, mode, op_id, sep, *cli_args = argv
    if sep != "--" or mode not in ("0", "1", "setup"):
        raise SystemExit("usage: child.py META_JSON MODE(0|1|setup) OP_ID -- <cli args>")
    probe = SpeedProbe()
    probe.start()
    import ternions.cli as cli
    import ternions.gf as gf

    tracer = None
    run = cli.main
    if mode == "1":
        tracer = Tracer(int(op_id))
        run = install(tracer)
    elif mode == "setup":
        run = lambda cli_args: 0  # noqa: E731
    gf.field_of_order(_field_order(cli_args))  # traced binding when tracing
    setup_at = time.monotonic()
    probe.mark("setup")
    try:
        code = run(cli_args)
    finally:
        probe.stop()
        meta = {"setup_at": setup_at, "probe": probe.report()}
        if tracer is not None:
            meta["trace"] = tracer.report()
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
