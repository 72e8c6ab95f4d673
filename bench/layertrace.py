"""Spans and counters around the public calls of corequilib's modules.

``install`` wraps those calls in a CLI process before ``cli.main`` runs.
Each wrapped call records a span ``(id, name, start, end, parent)``; a few
calls also add to a counter or a peak.  The CLI process keeps its spans in
memory and writes them to ``spans-<pid>.jsonl`` in the trace directory when
the command has returned.

Scan workers are forked from the CLI process and inherit the wrappers.  At
fork a worker empties its buffers and remembers its stack depth, so its root
spans point at the span that was open in the CLI process (``run_scan``).
Pool workers end through ``os._exit`` and run no exit handlers, so a worker
flushes each time it returns to that depth, that is after every call the
pool makes into the program.

``summarize`` turns the records of one operation into the per-layer
metrics; a span's self time is its duration minus that of its children in
the same process.
"""

import json
import os
import sys
import time

#: wrapped calls: (module, owner inside the module or None, attribute, span name)
SPANS = (
    ("corequilib.config", None, "build_problem", "config.build_problem"),
    ("corequilib.eos", "TabulatedEos", "__init__", "eos.build"),
    ("corequilib.eos", "TabulatedEos", "enthalpy_inverse", "eos.inverse"),
    ("corequilib.eos", "Polytrope", "enthalpy_inverse", "eos.inverse"),
    ("corequilib.potential", "AxiKernel", "__init__", "potential.kernel_build"),
    ("corequilib.potential", "AxiKernel", "apply", "potential.apply"),
    ("corequilib.solver", None, "solve", "solver.solve"),
    ("corequilib.solver", None, "scf_step", "solver.scf_step"),
    ("corequilib.solver", None, "solve_lambda", "solver.lambda_solve"),
    ("corequilib.energy", None, "energy_with_potential", "energy.eval"),
    ("corequilib.energy", None, "residual_with_potential", "energy.eval"),
    ("corequilib.field", None, "write_field_csv", "field.write"),
    ("corequilib.scan", None, "run_scan", "scan.run_scan"),
)

#: wrapped calls that only count, because they are too many to be spans
COUNTS = (
    ("corequilib.solver", None, "mass_of_lambda", "solver.mass_evals"),
)


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.origin_pid = os.getpid()
        self.stack = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self.pid = os.getpid()
        self.spans = []
        self.counts = {}
        self.peaks = {}
        self.base_depth = len(self.stack)
        self._next_id = 0

    def add(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def span(self, name, fn, after=None):
        def traced(*args, **kwargs):
            sid = "%d:%d" % (self.pid, self._next_id)
            self._next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args)
                return result
            finally:
                end = time.monotonic()
                self.stack.pop()
                self.spans.append([sid, name, start, end, parent])
                if self.pid != self.origin_pid and len(self.stack) == self.base_depth:
                    self.flush()

        return traced

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return counted

    def flush(self):
        record = {
            "pid": self.pid,
            "spans": self.spans,
            "counts": self.counts,
            "peaks": self.peaks,
        }
        path = os.path.join(self.out_dir, "spans-%d.jsonl" % self.pid)
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans, self.counts, self.peaks = [], {}, {}


def _kernel_size(tracer, args):
    # args[0] is the AxiKernel being constructed
    tracer.peak("potential.kernel_mb", args[0]._fw.nbytes / 1e6)


def _file_size(tracer, args):
    tracer.add("field.bytes_written", os.path.getsize(args[1]))


_AFTER = {"potential.kernel_build": _kernel_size, "field.write": _file_size}


def _replace(module_name, owner, attr, make):
    """Wrap one call everywhere it can be reached by name.

    A module-level function is also rebound in every corequilib module that
    imported it by name (``from .solver import solve``), so calls made
    through those names are traced too.
    """
    module = sys.modules[module_name]
    if owner is not None:
        cls = getattr(module, owner)
        setattr(cls, attr, make(cls.__dict__[attr]))
        return
    original = getattr(module, attr)
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "corequilib" and vars(mod).get(attr) is original:
            setattr(mod, attr, wrapped)


def install(out_dir):
    """Wrap corequilib's public calls; corequilib must be imported already."""
    tracer = Tracer(out_dir)
    for module_name, owner, attr, name in SPANS:
        _replace(module_name, owner, attr,
                 lambda fn, name=name: tracer.span(name, fn, _AFTER.get(name)))
    for module_name, owner, attr, name in COUNTS:
        _replace(module_name, owner, attr,
                 lambda fn, name=name: tracer.counter(name, fn))
    return tracer


def load(trace_dir):
    """Merge the span files of one operation."""
    spans, counts, peaks = [], {}, {}
    for entry in sorted(os.listdir(trace_dir)):
        if not entry.startswith("spans-"):
            continue
        with open(os.path.join(trace_dir, entry)) as fh:
            for line in fh:
                record = json.loads(line)
                spans.extend(record["spans"])
                for key, value in record["counts"].items():
                    counts[key] = counts.get(key, 0) + value
                for key, value in record["peaks"].items():
                    peaks[key] = max(peaks.get(key, value), value)
    return spans, counts, peaks


def self_times(spans):
    """Self time of every span: duration minus same-process children."""
    own = {sid: end - start for sid, _, start, end, _ in spans}
    for sid, _, start, end, parent in spans:
        if parent in own and parent.split(":")[0] == sid.split(":")[0]:
            own[parent] -= end - start
    return own


def summarize(spans, counts, peaks, workers):
    """Per-layer metrics of one operation (names as in BENCHMARK.json)."""
    self_s = self_times(spans)
    total = {}
    calls = {}
    by_id = {}
    for sid, name, start, end, parent in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        by_id[sid] = (name, start, end, parent)

    def under_scan(sid):
        parent = by_id[sid][3]
        while parent is not None and parent in by_id:
            if by_id[parent][0] == "scan.run_scan":
                return True
            parent = by_id[parent][3]
        return False

    scan_wall = total.get("scan.run_scan", 0.0)
    busy = sum(
        end - start for sid, (name, start, end, _) in by_id.items()
        if name in ("config.build_problem", "solver.solve") and under_scan(sid)
    )
    iterations = calls.get("solver.scf_step", 0)
    mass_evals = counts.get("solver.mass_evals", 0)
    apply_calls = calls.get("potential.apply", 0)
    return {
        "eos.build_s": total.get("eos.build", 0.0),
        "eos.inverse_s": total.get("eos.inverse", 0.0),
        "eos.inverse_calls": calls.get("eos.inverse", 0),
        "potential.kernel_build_s": total.get("potential.kernel_build", 0.0),
        "potential.kernel_builds": calls.get("potential.kernel_build", 0),
        "potential.kernel_mb": peaks.get("potential.kernel_mb", 0.0),
        "potential.apply_s": total.get("potential.apply", 0.0),
        "potential.apply_calls": apply_calls,
        "potential.apply_ms":
            1e3 * total.get("potential.apply", 0.0) / apply_calls if apply_calls else 0.0,
        "solver.iterations": iterations,
        "solver.lambda_solve_s": sum(
            self_s[sid] for sid, name, *_ in spans if name == "solver.lambda_solve"
        ),
        "solver.mass_evals": mass_evals,
        "solver.mass_evals_per_iter": mass_evals / iterations if iterations else 0.0,
        "energy.eval_s": total.get("energy.eval", 0.0),
        "field.write_s": total.get("field.write", 0.0),
        "field.bytes_written": counts.get("field.bytes_written", 0),
        "scan.solves": sum(
            1 for sid, (name, *_) in by_id.items()
            if name == "solver.solve" and under_scan(sid)
        ),
        "scan.worker_busy_s": busy,
        "scan.parallel_efficiency":
            busy / (workers * scan_wall) if scan_wall > 0.0 else 0.0,
    }
