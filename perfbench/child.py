"""One fresh interpreter of the benchmark; run.py starts it and reads its JSON.

Usage: python3 child.py '<json spec>'. The spec names the checkout root, a
mode and the workload's CLI arguments. Modes:

- ``setup``: cold start. Times ``import dsmimo``, config or preset
  resolution and validation, and the first trial of the first grid point,
  then times the calibration kernel (calibrate.py) once.
- ``run``: one untimed warm-up execution of ``dsmimo run``, then timed
  executions of the same command until ``seconds`` have passed, with a
  run of the calibration kernel before the first and after each one.
- ``trace``: as ``run``, but each timed execution is followed by a traced
  one, with the layer functions wrapped by the tracer. Alternating keeps
  the untraced and traced executions on the same machine state, so their
  ratio is the tracing overhead.

Only the standard library is imported before the timed region of
``setup``; run.py pins the BLAS thread count in the environment, so numpy
sees it on first import.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _import_dsmimo(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    import dsmimo

    if not Path(dsmimo.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"imported dsmimo from {dsmimo.__file__}, not from the checkout")


def setup(spec: dict) -> dict:
    root = Path(spec["root"])
    t0 = time.perf_counter()
    _import_dsmimo(root)
    from dataclasses import replace

    from dsmimo.harness import load_config, preset_configs, run_trial

    if spec["config"]:
        configs = [load_config(str(root / spec["config"]))]
    else:
        configs = preset_configs(spec["preset"])
    if spec["trials"] is not None:
        configs = [replace(c, n_trials=spec["trials"]) for c in configs]
    for cfg in configs:
        cfg.validate()
    error = None
    try:
        run_trial(configs[0].grid()[0], spec["seed"], 0)
    except Exception as exc:  # reported by run.py as a failed gate, like an error row
        error = f"{type(exc).__name__}: {exc}"
    setup_s = time.perf_counter() - t0
    from calibrate import calibrate

    return {"setup_s": setup_s, "cal_s": calibrate(), "error": error}


def _blas_manifest() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {"numpy": np.__version__, "blas": blas}


def run(spec: dict) -> dict:
    root = Path(spec["root"])
    _import_dsmimo(root)
    from dsmimo.cli import main as cli_main

    out = Path(spec["out"])
    argv = ["run", *spec["args"], "--out", str(out)]

    def execute() -> tuple[int, float, str]:
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code = cli_main(argv)
        wall = time.perf_counter() - t0
        return code, wall, out.read_text(encoding="utf-8") if out.exists() else ""

    code, _, first_csv = execute()
    tracer = calibrate = None
    if spec["mode"] == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
    else:
        from calibrate import calibrate

    codes, walls, traced_walls, summaries = [code], [], [], []
    cals = [calibrate()] if calibrate else []
    identical = True
    deadline = time.perf_counter() + spec["seconds"]
    while not walls or time.perf_counter() < deadline:
        code, wall, csv = execute()
        codes.append(code)
        walls.append(wall)
        identical &= csv == first_csv
        if calibrate is not None:
            cals.append(calibrate())
        if tracer is not None:
            tracer.spans.clear()
            tracer.install()
            try:
                code, wall, csv = execute()
            finally:
                tracer.uninstall()
            codes.append(code)
            traced_walls.append(wall)
            identical &= csv == first_csv
            summaries.append(tracing.summarize_rep(tracer.spans, wall, spec["workers"]))

    result = {
        "codes": codes,
        "walls": walls,
        "cals": cals,
        "csv": first_csv,
        "identical": identical,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **_blas_manifest(),
    }
    if tracer is not None:
        result["traced_walls"] = traced_walls
        result["trace"] = tracing.combine_reps(summaries)
    return result


def main() -> None:
    spec = json.loads(sys.argv[1])
    result = setup(spec) if spec["mode"] == "setup" else run(spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
