"""The layered ZIV stack benchmark: workloads, span tracing and analysis.

``bench_stack.py`` in this directory is the command-line entry point;
the modules here are its parts:

* :mod:`stack.spans`    -- in-memory span recorder and the wrappers it
  installs around each layer's public functions;
* :mod:`stack.loads`    -- the four seeded workloads and their checks;
* :mod:`stack.layers`   -- span trees -> per-layer self times and counts;
* :mod:`stack.summary`  -- medians, quartiles and the ``compare`` rule;
* :mod:`stack.serve_traced` -- the service entry point for traced runs.
"""
