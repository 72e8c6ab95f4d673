"""One benchmark process: a fresh interpreter that runs the corequilib CLI.

Usage (started by run.py, never by hand):

    python3 bench/child.py SRC_DIR TIMING_JSON MODE [CLI ARGS...]
    python3 bench/child.py SRC_DIR --warm-up

The process imports ``corequilib.cli`` from SRC_DIR, marks the moment the
CLI calls into ``solve`` or ``run_scan`` (the end of set-up) and writes its
timestamps to TIMING_JSON.  Timestamps come from ``time.monotonic``, which
is one system-wide clock, so run.py can subtract its own spawn time.
MODE is one of

* ``run``: run ``cli.main`` to the end and also record the exit code and the
  peak resident sets of this process and of its reaped children;
* ``trace``: the same with the layer tracer from layertrace.py installed,
  writing spans to the ``trace`` directory next to TIMING_JSON;
* ``setup``: stop at the mark, so one process gives one set-up time.
"""

import json
import os
import resource
import sys
import time


def _load_cli(src):
    sys.path.insert(0, src)
    start = time.monotonic()
    import corequilib.cli as cli
    import_s = time.monotonic() - start
    here = os.path.realpath(cli.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit("corequilib was imported from %s, not %s" % (here, src))
    return cli, import_s


def _write(path, timing):
    with open(path, "w") as fh:
        json.dump(timing, fh)


def _mark_entry(cli, timing, timing_path, stop):
    """Record the first call into the CLI's solve or run_scan."""

    def wrap(fn):
        def marked(*args, **kwargs):
            timing.setdefault("t_call", time.monotonic())
            if stop:
                _write(timing_path, timing)
                os._exit(0)
            return fn(*args, **kwargs)

        return marked

    cli.solve = wrap(cli.solve)
    cli.run_scan = wrap(cli.run_scan)


def main(argv):
    src = argv[0]
    if argv[1:] == ["--warm-up"]:
        _load_cli(src)
        return 0
    timing_path, mode, cli_args = argv[1], argv[2], argv[3:]
    cli, import_s = _load_cli(src)
    tracer = None
    if mode == "trace":
        import layertrace

        tracer = layertrace.install(
            os.path.join(os.path.dirname(timing_path), "trace"))
    timing = {"import_s": import_s}
    _mark_entry(cli, timing, timing_path, stop=mode == "setup")
    rc = cli.main(cli_args)
    timing["t_return"] = time.monotonic()
    if tracer is not None:
        tracer.flush()
    to_mb = 1024.0 / 1e6  # ru_maxrss is in KiB on Linux
    timing["rc"] = rc
    timing["rss_self_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * to_mb
    timing["rss_children_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * to_mb)
    _write(timing_path, timing)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
