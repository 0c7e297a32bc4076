"""One measured process: run ``bornbench.cli.main`` on the given arguments.

    python3 perfbench/child.py <spec.json>

The spec names the source directory, the CLI arguments, whether to trace and
where to write the timings.  Untraced, the only hooks are the set-up marks
(one clock read on the first call of any of them).  Traced, every hook in
``layers.HOOKS`` records spans, which are written out after the command
returns.  All hooks are removed before the output is written.  The exit code
is the command's.
"""

from __future__ import annotations

import json
import sys

from spans import Hooks, Tracer, clock


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import bornbench.cli

    from layers import HOOKS, SETUP_MARKS

    hooks = Hooks()
    tracer = Tracer(spec["run"]) if spec["trace"] else None
    if tracer is not None:
        for name, target, measure in HOOKS:
            hooks.install(target, tracer.wrapper(name, measure))
    setup_end: list[float] = []

    def mark(fn):
        def first_call_marks(*args, **kwargs):
            if not setup_end:
                setup_end.append(clock())
            return fn(*args, **kwargs)

        return first_call_marks

    for target in SETUP_MARKS:
        hooks.install(target, mark)
    main_start = clock()
    try:
        code = bornbench.cli.main(spec["argv"])
    finally:
        main_end = clock()
        hooks.remove_all()

    result = {
        "code": code,
        "main_start": main_start,
        "main_end": main_end,
        "setup_end": setup_end[0] if setup_end else None,
        "missing_hooks": sorted(set(hooks.missing)),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(spec["out"], "w") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
