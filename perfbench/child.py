"""One projlab CLI invocation in a fresh process, as a user would run it.

Usage: python3 perfbench/child.py CONFIG OUT_DIR RESULT_JSON [SPANS_NPZ RUN_ID]

Runs from the checkout root with `src` on the import path and exits with
the CLI's code.  Writes to RESULT_JSON the CLOCK_MONOTONIC time at which
the first experiment driver was entered; with SPANS_NPZ it also traces the
layers, saves the spans there and adds the per-layer metrics to the result.
"""
import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    config, out_dir, result_path = argv[:3]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from projlab import cli, experiments

    tracer = None
    if len(argv) > 3:
        from tracer import Tracer

        tracer = Tracer(argv[4])
        tracer.install()
    entered: list[float] = []

    def stamped(fn):
        def driver(*args, **kwargs):
            if not entered:
                entered.append(time.monotonic())
            return fn(*args, **kwargs)

        return driver

    for name, fn in list(experiments.EXPERIMENTS.items()):
        experiments.EXPERIMENTS[name] = stamped(fn)
    code = cli.main(["--config", config, "--out-dir", out_dir])
    result = {"driver_entered": entered[0] if entered else None}
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["module_self_s"] = tracer.module_self_s()
        tracer.save(argv[3])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
