"""``chaos {run,soak,replay}``: the composed-fault harness."""

from __future__ import annotations

from ..chaos import replay, report_json, run_scenario, sample_scenario, soak
from ..obs import write_json
from .common import logger


def chaos_command(args) -> int:
    """Dispatch ``chaos {run,soak,replay}``.  Returns a process exit code."""
    log = logger(args.quiet)

    if args.chaos_command == "run":
        spec = sample_scenario(args.seed, workload=args.workload)
        if args.deadline is not None:
            spec.deadline_s = float(args.deadline)
        outcome = run_scenario(spec)
        log(report_json(outcome.to_dict()))
        return 0 if outcome.ok else 1

    if args.chaos_command == "replay":
        outcome = replay(args.artifact)
        log(report_json(outcome.to_dict()))
        if outcome.ok:
            log("replay: all invariants hold")
            return 0
        log(f"replay: {len(outcome.violations)} invariant violation(s)")
        return 1

    # soak
    if args.reproducer_dir is not None:
        args.reproducer_dir.mkdir(parents=True, exist_ok=True)

    def progress(i, outcome) -> None:
        status = "ok" if outcome.ok else "VIOLATED"
        log(
            f"[{i + 1}/{args.n}] {outcome.spec.workload} "
            f"seed={outcome.spec.seed} "
            f"events={len(outcome.spec.events)}: {status}"
        )

    report = soak(
        args.n,
        seed=args.seed,
        budget_s=args.budget,
        deadline_s=args.deadline,
        reproducer_dir=args.reproducer_dir,
        progress=progress,
    )
    if args.report is not None:
        write_json(args.report, report)
        log(f"wrote soak report to {args.report}")
    summary = report["summary"]
    log(
        f"soak: {report['n_run']}/{report['n_requested']} scenarios run, "
        f"{summary['passed']} passed, {summary['violated']} violated, "
        f"{report['n_skipped_budget']} skipped (budget)"
    )
    return 0 if summary["violated"] == 0 else 1
