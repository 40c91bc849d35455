"""Run the ledger: the repository's end-to-end and per-layer benchmark.

Usage, from the root of a checkout::

    python3 ledger/run.py --workload ch_read_hot --seed 1 --seconds 10 --trace 0
    python3 ledger/run.py --workload all --seed 1            # every workload

``--trace 0`` measures the end-to-end metrics (set-up repeated and its
median reported).  ``--trace 1`` runs the workload untraced once and
traced once, and reports the per-layer metrics plus the tracing
overhead.  Every answer the run checks is compared with the uncached
evaluation; a wrong answer makes the command exit with status 1.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the gated
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  The end-to-end metrics that are not gated are printed
above it.  METRICS.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5  # set-ups per untraced run; setup_s is their median


def _prepare_environment() -> list:
    """Make the engine importable and strip every ``REPRO_*`` knob, so
    the default configuration is what gets measured."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"ledger: no engine sources under {ROOT / 'src'}; run from a full checkout\n"
        )
        sys.exit(2)
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return cleared


def _print_metrics(title: str, metrics: dict, units: dict, notes: dict) -> None:
    print(f"  {title}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"    {name:<36} {value:>14.6g} {units[name]}{note}")


def run_workload(name: str, args, out_dir: Path) -> dict:
    from ledger import runner, tracing
    from ledger.workloads import WORKLOADS

    workload = WORKLOADS[name](args.seed, args.seconds, tiny=args.tiny)
    workdir = ROOT / ".ledger_work" / f"{name}-seed{args.seed}-{os.getpid()}"
    try:
        untraced = runner.Pass(workload, workdir / "untraced").run(
            setups=1 if args.trace else SETUPS)
        report = {"workload": name, "why": workload.why, "failures": untraced.failures}
        print(f"\n{name}: {workload.why}")
        measured = runner.end_to_end(untraced)
        metrics = {k: measured[k] for k in runner.END_TO_END}
        extras = {k: measured[k] for k in runner.EXTRA if k in measured}
        units = {k: v[0] for k, v in {**runner.END_TO_END, **runner.EXTRA}.items()}
        notes = runner.sample_notes(untraced)
        _print_metrics("end to end, gated", metrics, units, notes)
        _print_metrics("end to end, not gated", extras, units, notes)
        attempted, failed = untraced.attempted, len(untraced.failures)
        if args.trace:
            recorder = tracing.SpanRecorder()
            traced = runner.Pass(workload, workdir / "traced", recorder).run(setups=1)
            attempted += traced.attempted
            failed += len(traced.failures)
            report["failures"] += traced.failures
            layer = runner.per_layer(recorder, traced, untraced)
            layer_units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
            _print_metrics("per layer (traced run)", layer, layer_units, {
                "trace.overhead_ratio":
                    f"untraced {measured['ops_per_s']:.1f} ops/s vs traced "
                    f"{runner.end_to_end(traced)['ops_per_s']:.1f} ops/s",
            })
            spans_file = out_dir / f"spans-{name}-seed{args.seed}.jsonl"
            recorder.write(spans_file)
            print(f"  {len(recorder.spans)} spans written to {spans_file.relative_to(ROOT)}")
            missing = tracing.missing_spans(recorder, name)
            if missing:
                raise SystemExit(
                    f"ledger: no spans recorded on {name} for {', '.join(missing)}; "
                    "a wrapper is patched at the wrong call site, or the run never "
                    "reached it"
                )
            metrics, units = layer, layer_units
        for failure in report["failures"][:10]:
            print(f"  FAILED: {failure}")
        report.update(attempted=attempted, failed=failed, metrics=metrics,
                      extras=extras)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}-seed{args.seed}-trace{int(args.trace)}.json").write_text(
            json.dumps(report, indent=2, default=str))
        report["units"] = units
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="ch_read_hot, ch_htap_churn, erp_durable or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sizes the fixed operation list (nominal rate x seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny data, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    cleared = _prepare_environment()

    import numpy

    from ledger.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)}")
    print(f"ledger seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"nproc={os.cpu_count()} client=1 closed loop")
    print("flush policy: engine default, one fsync per committed transaction "
          "(erp_durable); ch_* are in memory")
    print(f"cleared environment: {', '.join(cleared) if cleared else 'no REPRO_* variables set'}")
    out_dir = ROOT / ".ledger_out"
    reports = [run_workload(name, args, out_dir) for name in names]
    correct = all(r["failed"] == 0 for r in reports)
    if len(reports) == 1:
        metrics = {k: {"value": v, "unit": reports[0]["units"][k]}
                   for k, v in reports[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": r["units"][k]}
                   for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
