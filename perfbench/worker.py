#!/usr/bin/env python3
"""One fresh interpreter running one workload; started by run.py.

    worker.py --workload W --inputs DIR --work DIR --result FILE --mode setup|run
              [--seconds N] [--trace 0|1] [--spans FILE]

``--mode setup`` stops once the program is ready for its first op and
records how long that took: thread CPU time, corrected for machine speed
(probe.py). Only
``os``, ``sys``, ``time`` and the probe are imported before the clock
starts, so every module the program needs is part of its set-up time. ``--mode run`` then runs whole passes over the workload's
pool, a closed loop on one thread, for at least ``--seconds``.
"""

import os
import sys
import time


def setup(workload: str, inputs: str) -> dict:
    """Import the program and load the workload's tokenizer and fixtures."""
    import notation
    from notation import tokens

    if workload == "measure-words":
        import notation.cli  # noqa: F401

        return {"tokenizer": tokens.make_tokenizer("words")}
    if workload == "measure-bpe":
        import notation.cli  # noqa: F401

        vocab = os.path.join(inputs, "bpe")
        return {
            "tokenizer": tokens.make_tokenizer(
                "bpe", os.path.join(vocab, "vocab.json"), os.path.join(vocab, "merges.txt")
            )
        }
    if workload == "codec-roundtrip":
        texts = {}
        for group in sorted(os.listdir(os.path.join(inputs, "groups"))):
            gdir = os.path.join(inputs, "groups", group)
            docs = []
            for name in sorted(os.listdir(gdir)):
                with open(os.path.join(gdir, name), encoding="utf-8") as f:
                    docs.append(f.read())
            texts[f"groups/{group}"] = docs
        return {"texts": texts}
    return {
        "agent": notation.agent.load_trace(os.path.join(inputs, "trace.jsonl")),
        "catalog": notation.agent.load_catalog(os.path.join(inputs, "catalog.json")),
        "executor": notation.agent.load_executor(os.path.join(inputs, "executor.json")),
        "tokenizer": tokens.make_tokenizer("bytes"),
    }


def _args(argv: list[str]) -> dict:
    # not argparse: the CLI imports it, and loading it before the clock starts
    # would take it out of the measure workloads' set-up time
    opts = {"--seconds": "1", "--trace": "0"}
    for flag, value in zip(argv[::2], argv[1::2]):
        opts[flag] = value
    for need in ("--workload", "--inputs", "--work", "--result", "--mode"):
        if need not in opts:
            raise SystemExit(f"worker: missing {need}")
    return opts


def main(argv: list[str]) -> int:
    opts = _args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import probe  # builtins only, so it loads nothing the program needs

    before = probe.probe()
    t0, c0 = time.perf_counter(), time.thread_time()
    state = setup(opts["--workload"], opts["--inputs"])
    raw_setup_s = time.perf_counter() - t0
    setup_s = (time.thread_time() - c0) * 2 * probe.PROBE_REF_S / (before + probe.probe())

    import json

    import notation

    src = os.path.join(root, "src", "notation")
    if os.path.dirname(os.path.abspath(notation.__file__)) != src:
        raise SystemExit(f"worker: imported notation from {notation.__file__}, not from {src}")
    result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    if opts["--mode"] == "run":
        import loop

        result.update(
            loop.run(
                opts["--workload"],
                opts["--inputs"],
                opts["--work"],
                state,
                float(opts["--seconds"]),
                opts["--trace"] == "1",
                opts.get("--spans"),
            )
        )
    with open(opts["--result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
