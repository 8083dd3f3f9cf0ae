"""The ``python -m repro.obs`` command line: profile a simulated run.

Subcommands over one instrumented-workload runner:

``timeline``
    Run a sort with observability on and write the full Perfetto /
    Chrome trace JSON — nested phase→flow slices, per-link bandwidth
    counter tracks, fault markers.

``timeline``, ``summary`` and ``critical-path`` also run whole
*service episodes*: ``--service N`` offers N jobs through
:class:`~repro.serve.SortService` at estimated capacity, and
``--job tenant/id`` narrows the output to one job's spans (see
:mod:`repro.obs.jobs`).
``links``
    Top-N hottest links (peak utilization), with time-weighted mean
    bandwidth, saturation windows and an ASCII sparkline per link.
``summary``
    Phase × actor × link rollup plus engine occupancy and the key
    counters of the run.
``critical-path``
    The blocking chain that determined the run's wall time (see
    :mod:`repro.obs.critpath`): every critical segment attributed to
    {kernel, link+tier, host, engine-wait, fault, queue-wait} with
    rollups per category/phase/tier — and per tenant on ``--service``
    episodes.
``metrics``
    Run a workload and print the recorder's metrics registry in
    Prometheus text exposition format.
``postmortem``
    Render a saved post-mortem bundle (see
    :mod:`repro.obs.postmortem`) — no simulation, pure reading.
``diff``
    Compare two ``BENCH_*.json`` records and flag regressions beyond a
    threshold; exits non-zero when any directed metric regressed.

Every workload verb accepts ``--flight-recorder`` (bounded ring
buffers instead of unbounded event lists), ``--max-replans`` and
``--postmortem-dir`` (dump a bundle when a supervised run or service
job dies, or the breaker quarantines GPUs).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Tuple

from repro.bench.report import Table
from repro.data import DISTRIBUTIONS, generate, key_dtype
from repro.errors import ReproError
from repro.hw import FABRICS, make_cluster, system_by_name
from repro.obs.diff import diff_files, format_diff
from repro.obs.telemetry import (
    engine_occupancy,
    link_report,
    link_series,
    sparkline,
    tier_summary,
)
from repro.runtime import Machine
from repro.sort import het_sort, hier_sort, p2p_sort, rp_sort

#: Physical keys simulated per run; --keys scales them logically.
PHYSICAL_KEYS = 500_000
#: Physical keys with --quick (CI smoke: seconds, not minutes).
QUICK_PHYSICAL_KEYS = 50_000

_ALGORITHMS = {"p2p": p2p_sort, "het": het_sort, "rp": rp_sort,
               "hier": hier_sort}
_SYSTEMS = ("ibm-ac922", "delta-d22x", "dgx-a100")


def _parse_gpu_ids(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"GPU ids must be comma-separated integers, got {text!r}")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--system", choices=_SYSTEMS, default="dgx-a100")
    parser.add_argument("--algorithm", choices=sorted(_ALGORITHMS),
                        default="p2p")
    parser.add_argument("--keys", default="2e9",
                        help="logical key count (default 2e9)")
    parser.add_argument("--distribution", choices=sorted(DISTRIBUTIONS),
                        default="uniform")
    parser.add_argument("--gpus", type=_parse_gpu_ids, default=None,
                        help="comma-separated GPU ids, e.g. 0,2,4,6")
    parser.add_argument("--nodes", type=int, default=1, metavar="N",
                        help="cluster size: N > 1 builds an N-node "
                             "cluster of --system and runs the "
                             "hierarchical sort over its fabric")
    parser.add_argument("--fabric", choices=FABRICS, default="fat-tree",
                        help="cluster fabric generator with --nodes > 1 "
                             "(default fat-tree)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--quick", action="store_true",
                        help="small physical arrays (CI smoke; simulated "
                             "timing is unchanged)")
    parser.add_argument("--faults", type=float, default=0.0, metavar="I",
                        help="install a generated fault plan of this "
                             "intensity (0 = none)")
    parser.add_argument("--fault-horizon", type=float, default=0.4,
                        help="simulated-seconds span the fault windows "
                             "land in")
    parser.add_argument("--supervised", action="store_true",
                        help="run under the self-healing SortSupervisor "
                             "(checkpoints, replanning, speculation)")
    parser.add_argument("--kill-gpu", type=int, default=None,
                        metavar="GPU",
                        help="hard-fail this GPU mid-run (P2P, HET "
                             "and --supervised runs replan around it)")
    parser.add_argument("--kill-at", type=float, default=0.5,
                        metavar="T",
                        help="simulated time of the --kill-gpu / "
                             "--kill-node failure (default 0.5)")
    parser.add_argument("--kill-node", type=int, default=None,
                        metavar="NODE",
                        help="kill this whole cluster node mid-run "
                             "(all GPUs + NIC links; needs --nodes > 1)")
    parser.add_argument("--service", type=int, default=None, metavar="N",
                        help="instead of one sort, run a service episode "
                             "offering N jobs at estimated capacity")
    parser.add_argument("--flight-recorder", action="store_true",
                        help="bound the recorder with ring buffers "
                             "(always-on mode: capped per-kind event "
                             "retention, running aggregates)")
    parser.add_argument("--max-replans", type=int, default=None,
                        metavar="N",
                        help="override the supervisor's replan budget "
                             "(0 = first mid-phase failure is terminal)")
    parser.add_argument("--postmortem-dir", default=None, metavar="DIR",
                        help="dump post-mortem bundles here on terminal "
                             "failures / breaker quarantine")


def _install_faults(machine, spec, args) -> None:
    fault_events = []
    if getattr(args, "kill_gpu", None) is not None:
        from repro.faults.events import GpuFail

        fault_events.append(GpuFail(at=args.kill_at, gpu=args.kill_gpu))
    if getattr(args, "kill_node", None) is not None:
        from repro.faults.events import NodeDown

        fault_events.append(NodeDown(at=args.kill_at, node=args.kill_node))
    if args.faults > 0 or fault_events:
        from repro.faults.plan import FaultPlan

        if args.faults > 0:
            base = FaultPlan.generate(
                spec, seed=args.seed, intensity=args.faults,
                horizon=args.fault_horizon)
            fault_events.extend(base.events)
            plan = FaultPlan(events=tuple(fault_events),
                             transient_failure_prob=
                             base.transient_failure_prob,
                             seed=args.seed)
        else:
            plan = FaultPlan(events=tuple(fault_events))
        machine.install_faults(plan)


class _FailedRun(Exception):
    """A supervised workload died terminally; carries the run context.

    ``critical-path`` still renders the blocking chain up to the
    failure; other verbs report the error (and any bundle paths) and
    exit non-zero.
    """

    def __init__(self, machine, recorder, error: BaseException,
                 postmortems, failed_phase=None, failed_phase_started=None):
        super().__init__(str(error))
        self.machine = machine
        self.recorder = recorder
        self.error = error
        self.postmortems = list(postmortems)
        #: Phase executing at death (and its start), when known.
        self.failed_phase = failed_phase
        self.failed_phase_started = failed_phase_started


def _make_recorder(args):
    """A configured recorder when --flight-recorder asks for one."""
    if getattr(args, "flight_recorder", False):
        from repro.obs.recorder import Recorder, RingConfig

        return Recorder(ring=RingConfig())
    return None


def _supervisor_config(args):
    """The supervisor template honouring the CLI failure knobs."""
    from repro.recovery import SupervisorConfig

    config = SupervisorConfig(
        postmortem_dir=getattr(args, "postmortem_dir", None))
    if getattr(args, "max_replans", None) is not None:
        config.max_replans = args.max_replans
    return config


def _run_instrumented(args):
    """Run the requested sort with observability on.

    Returns ``(machine, recorder, result)``; a terminal supervised
    failure raises :class:`_FailedRun` with the same context.
    """
    algorithm = "hier" if args.nodes > 1 else args.algorithm
    if args.nodes > 1:
        spec = make_cluster(args.system, args.nodes, fabric=args.fabric)
    else:
        spec = system_by_name(args.system)
    logical = float(args.keys)
    budget = QUICK_PHYSICAL_KEYS if args.quick else PHYSICAL_KEYS
    physical = max(1, min(budget, int(logical)))
    scale = max(1.0, logical / physical)
    machine = Machine(spec, scale=scale)
    recorder = machine.enable_observability(_make_recorder(args))
    _install_faults(machine, spec, args)
    keys = generate(physical, args.distribution, key_dtype("int"),
                    seed=args.seed)
    if algorithm == "hier":
        from repro.errors import SortError
        from repro.sort import HierConfig

        config = HierConfig(
            postmortem_dir=getattr(args, "postmortem_dir", None))
        if getattr(args, "max_replans", None) is not None:
            config.max_node_replans = args.max_replans
        try:
            result = hier_sort(machine, keys, config=config)
        except SortError as exc:
            raise _FailedRun(
                machine, recorder, exc,
                getattr(exc, "postmortems", ()) or (),
                failed_phase=getattr(exc, "failing_phase", None),
                failed_phase_started=getattr(
                    exc, "failing_phase_started", None)) from exc
        return machine, recorder, result
    gpu_ids = args.gpus
    if getattr(args, "supervised", False):
        from repro.errors import SortError
        from repro.recovery import SortSupervisor

        supervisor = SortSupervisor(machine, _supervisor_config(args))
        try:
            result = supervisor.sort(keys, algorithm=algorithm,
                                     gpu_ids=gpu_ids)
        except SortError as exc:
            raise _FailedRun(machine, recorder, exc,
                             supervisor.postmortems,
                             failed_phase=supervisor.failed_phase,
                             failed_phase_started=(
                                 supervisor.failed_phase_started)) from exc
    else:
        result = _ALGORITHMS[algorithm](machine, keys,
                                        gpu_ids=gpu_ids)
    return machine, recorder, result


def _run_service(args):
    """Run a ``--service N`` episode with observability on.

    Returns ``(machine, recorder, report)``.  A reference sort on a
    throwaway machine calibrates the platform's sorting rate first, so
    the admission controller's estimates agree with the executor and
    the episode is not dominated by deadline rejections.
    """
    from repro.recovery import SortSupervisor
    from repro.serve import (
        ServiceConfig,
        SortService,
        Tenant,
        WorkloadSpec,
        generate_jobs,
    )

    spec = system_by_name(args.system)
    logical = float(args.keys)
    budget = QUICK_PHYSICAL_KEYS if args.quick else PHYSICAL_KEYS
    physical = max(1, min(budget, int(logical)))
    scale = max(1.0, logical / physical)

    probe = Machine(spec, scale=scale)
    reference = SortSupervisor(probe).sort(
        generate(physical, args.distribution, key_dtype("int"),
                 seed=args.seed))
    rate = (reference.logical_keys
            / (reference.duration * len(reference.gpu_ids)))

    machine = Machine(spec, scale=scale)
    recorder = machine.enable_observability(_make_recorder(args))
    _install_faults(machine, spec, args)
    workload = WorkloadSpec(
        jobs=args.service,
        arrival_rate=spec.num_gpus * rate / (_mix_mean_fraction()
                                             * physical * scale),
        base_keys=physical,
        est_service_s=physical * scale / rate,
        seed=args.seed)
    service = SortService(
        machine,
        tenants=[Tenant(name) for name in workload.tenants],
        config=ServiceConfig(gpu_rate_keys_per_s=rate,
                             distribution=args.distribution,
                             supervisor=_supervisor_config(args),
                             postmortem_dir=getattr(args,
                                                    "postmortem_dir",
                                                    None)))
    report = service.run(generate_jobs(workload))
    if service.postmortems:
        for path in service.postmortems:
            print(f"  post-mortem bundle: {path}", file=sys.stderr)
    return machine, recorder, report


def _mix_mean_fraction() -> float:
    """Expected keys-fraction of one job under the default mix."""
    from repro.serve.workload import DEFAULT_MIX

    return sum(fraction * weight
               for _, fraction, _, _, weight in DEFAULT_MIX)


def _job_result(report, label):
    """The :class:`~repro.serve.job.JobResult` with ``label``."""
    for result in report.results:
        if result.spec.label == label:
            return result
    return None


def _describe_run(machine, result) -> str:
    return (f"{result.algorithm} sort on {machine.spec.display_name}, "
            f"GPUs {result.gpu_ids}: "
            f"{result.logical_keys / 1e9:.2f}B keys in "
            f"{result.duration:.3f} s")


def _describe_service(machine, report) -> str:
    return (f"service episode on {machine.spec.display_name}: "
            f"{report.offered} offered, {report.completed} completed, "
            f"{report.rejected} rejected, {report.jobs_per_s:.1f} jobs/s, "
            f"p99 latency {report.p99_latency_s:.3f} s")


def cmd_timeline(args) -> int:
    from repro.analysis.timeline import write_chrome_trace

    if args.service is not None:
        machine, recorder, report = _run_service(args)
        trace, label = machine.trace, f"service@{args.system}"
        if args.job:
            from repro.obs.jobs import job_trace

            job = _job_result(report, args.job)
            try:
                trace, _ = job_trace(machine.trace, args.job,
                                     job.gpu_ids if job else ())
            except ReproError as exc:
                print(str(exc), file=sys.stderr)
                return 1
            # Counter tracks are machine-wide; a per-job timeline keeps
            # only the job's own spans.
            recorder = None
            label = f"job {args.job}@{args.system}"
        path = write_chrome_trace(trace, args.output, label=label,
                                  recorder=recorder)
        print(_describe_service(machine, report))
        print(f"  {len(trace.spans)} spans"
              + (f", {len(recorder.events)} events, "
                 f"{len(recorder.flows)} flows" if recorder else
                 f" (job {args.job})"))
        print(f"  timeline written to {path} "
              f"(open in https://ui.perfetto.dev)")
        return 0
    machine, recorder, result = _run_instrumented(args)
    path = write_chrome_trace(machine.trace, args.output,
                              label=f"{result.algorithm}@{args.system}",
                              recorder=recorder)
    print(_describe_run(machine, result))
    print(f"  {len(machine.trace.spans)} spans, "
          f"{len(recorder.events)} events, {len(recorder.flows)} flows")
    print(f"  timeline written to {path} "
          f"(open in https://ui.perfetto.dev)")
    return 0


def cmd_links(args) -> int:
    if args.service is not None:
        machine, recorder, report = _run_service(args)
        described = _describe_service(machine, report)
    else:
        machine, recorder, result = _run_instrumented(args)
        described = _describe_run(machine, result)
    start, end = 0.0, None
    scope = ""
    if args.phase:
        window = machine.trace.phase_window(args.phase)
        if window is None:
            known = ", ".join(machine.trace.phases())
            print(f"no phase {args.phase!r} in this run (phases: {known})",
                  file=sys.stderr)
            return 1
        start, end = window
        scope = f" during {args.phase} [{start:.3f}s, {end:.3f}s]"
    print(described)
    tier_of = machine.spec.topology.tier_of
    reports = link_report(recorder, start=start, end=end,
                          saturation_fraction=args.saturation)
    tiers = tier_summary(reports, tier_of)
    if args.tier:
        reports = [r for r in reports if tier_of(r.link) == args.tier]
        scope += f" ({args.tier}-node tier)"
        if not reports:
            print(f"no {args.tier}-tier link carried traffic in this "
                  "window", file=sys.stderr)
            return 1
    if len(tiers) > 1:
        # Cluster run: lead with the per-tier rollup so "fabric or
        # machine?" is answered before the per-link table.
        for tier, entry in sorted(tiers.items()):
            print(f"  {tier}-node tier: {int(entry['links'])} link dirs, "
                  f"{entry['bytes'] / 1e9:.1f} GB moved, "
                  f"{entry['mean_utilization']:.1%} mean / "
                  f"{entry['peak_utilization']:.1%} peak utilization")
    print(f"hottest links{scope}:")
    series = link_series(recorder)
    horizon = end if end is not None else recorder.last_time
    table = Table(["link", "dir", "mean util", "peak util", "mean GB/s",
                   "cap GB/s", "GB moved", "sat s",
                   "bandwidth over time"])
    for report in reports[:args.top]:
        entry = series[(report.link, report.direction)]
        samples = entry.samples(buckets=args.width, start=start,
                                end=horizon)
        table.add_row(
            report.link, report.direction,
            f"{report.mean_utilization:5.1%}",
            f"{report.peak_utilization:5.1%}",
            f"{report.mean / 1e9:.1f}",
            f"{report.capacity / 1e9:.1f}",
            f"{report.bytes / 1e9:.1f}",
            f"{report.saturated_s:.3f}",
            sparkline(samples, width=args.width, peak=entry.capacity))
    table.print()
    if reports:
        worst = reports[0]
        line = (f"hottest: {worst.link}.{worst.direction} at "
                f"{worst.mean_utilization:.1%} mean / "
                f"{worst.peak_utilization:.1%} peak utilization")
        if worst.saturated_s > 0:
            windows = ", ".join(f"[{lo:.3f}s, {hi:.3f}s]"
                                for lo, hi in worst.windows[:4])
            line += (f", saturated for {worst.saturated_s:.3f} s "
                     f"({windows})")
        print(line)
    return 0


def cmd_summary(args) -> int:
    from repro.analysis.utilization import utilization_report

    if args.service is not None:
        return _cmd_summary_service(args)
    machine, recorder, result = _run_instrumented(args)
    print(_describe_run(machine, result))
    print()

    trace = machine.trace
    phase_table = Table(["phase", "wall s", "spans", "GB"],
                        title="phases (wall = last end - first start)")
    for phase, duration in trace.phase_durations().items():
        spans = trace.phase_spans(phase)
        phase_table.add_row(phase, f"{duration:.3f}", len(spans),
                            f"{trace.total_bytes(phase) / 1e9:.1f}")
    phase_table.print()

    phases = [p for p in trace.phases() if not p.startswith("Fault:")]
    actor_table = Table(["actor", *phases, "busy s"],
                        title="actor busy seconds by phase")
    for actor_report in utilization_report(trace):
        cells = [f"{actor_report.by_phase.get(p, 0.0):.3f}"
                 for p in phases]
        actor_table.add_row(actor_report.actor, *cells,
                            f"{actor_report.busy:.3f}")
    actor_table.print()

    link_table = Table(["link", "dir", "GB moved", "mean GB/s",
                        "peak util", "sat s"],
                       title="links (whole run)")
    for report in link_report(recorder)[:args.top]:
        link_table.add_row(report.link, report.direction,
                           f"{report.bytes / 1e9:.1f}",
                           f"{report.mean / 1e9:.1f}",
                           f"{report.peak_utilization:5.1%}",
                           f"{report.saturated_s:.3f}")
    link_table.print()

    occupancy = engine_occupancy(recorder)
    if occupancy:
        engine_table = Table(["engine", "busy"],
                             title="copy-engine occupancy")
        for name, fraction in occupancy.items():
            engine_table.add_row(name, f"{fraction:5.1%}")
        engine_table.print()

    counters = {name: metric for name, metric in recorder.metrics
                if name in ("flows.started", "flows.retired",
                            "flows.aborted", "kernels.launched")}
    if counters:
        print("counters: " + "  ".join(
            f"{name}={int(metric.value)}"
            for name, metric in sorted(counters.items())))
    return 0


def _cmd_summary_service(args) -> int:
    from repro.analysis.utilization import utilization_report
    from repro.obs.jobs import job_trace

    machine, recorder, report = _run_service(args)
    print(_describe_service(machine, report))
    print()

    if args.job is None:
        jobs_table = Table(
            ["job", "size", "gpus", "status", "reason", "wait s",
             "latency s"],
            title="jobs (filter with --job tenant/id)")
        for result in report.results:
            jobs_table.add_row(
                result.spec.label,
                f"{result.spec.keys * machine.scale / 1e9:.2f}B",
                ",".join(map(str, result.gpu_ids)) or "-",
                result.status, result.reason or "-",
                ("-" if result.queue_wait_s is None
                 else f"{result.queue_wait_s:.3f}"),
                ("-" if result.latency_s is None
                 else f"{result.latency_s:.3f}"))
        jobs_table.print()
        return 0

    job = _job_result(report, args.job)
    try:
        trace, root = job_trace(machine.trace, args.job,
                                job.gpu_ids if job else ())
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"job {args.job}: {job.status} on GPUs {list(job.gpu_ids)}, "
          f"queued {job.queue_wait_s:.3f} s, "
          f"ran [{root.start:.3f} s, {root.end:.3f} s]")
    print()

    phase_table = Table(["phase", "wall s", "spans", "GB"],
                        title=f"phases of job {args.job}")
    for phase, duration in trace.phase_durations().items():
        spans = trace.phase_spans(phase)
        phase_table.add_row(phase, f"{duration:.3f}", len(spans),
                            f"{trace.total_bytes(phase) / 1e9:.1f}")
    phase_table.print()

    phases = [p for p in trace.phases() if not p.startswith("Fault:")]
    actor_table = Table(["actor", *phases, "busy s"],
                        title="actor busy seconds by phase")
    for actor_report in utilization_report(trace):
        cells = [f"{actor_report.by_phase.get(p, 0.0):.3f}"
                 for p in phases]
        actor_table.add_row(actor_report.actor, *cells,
                            f"{actor_report.busy:.3f}")
    actor_table.print()

    link_table = Table(["link", "dir", "GB moved", "mean GB/s",
                        "peak util", "sat s"],
                       title="links during the job's window (machine-"
                             "wide: concurrent jobs share links)")
    for link in link_report(recorder, start=root.start,
                            end=root.end)[:args.top]:
        link_table.add_row(link.link, link.direction,
                           f"{link.bytes / 1e9:.1f}",
                           f"{link.mean / 1e9:.1f}",
                           f"{link.peak_utilization:5.1%}",
                           f"{link.saturated_s:.3f}")
    link_table.print()
    return 0


def _print_critical_path(path, top: int, tiers: bool = True) -> None:
    """Terminal rendering of one :class:`~repro.obs.critpath.CriticalPath`."""
    label = f" of {path.label}" if path.label else ""
    print(f"critical path{label}: {path.wall:.6f} s wall over "
          f"[{path.start:.6f} s, {path.end:.6f} s], "
          f"{len(path.segments)} segments summing {path.covered:.6f} s")
    table = Table(["dur s", "share", "category", "phase", "actor",
                   "detail", "window"],
                  title=f"longest critical segments (top {top})")
    for seg in sorted(path.segments, key=lambda s: -s.duration)[:top]:
        share = seg.duration / path.wall if path.wall else 0.0
        table.add_row(
            f"{seg.duration:.6f}", f"{share:5.1%}", seg.category,
            seg.phase or "-", seg.actor or "-",
            (seg.detail + (f" [{seg.tier}]" if seg.tier else ""))
            or "-",
            f"[{seg.start:.4f}, {seg.end:.4f}]")
    table.print()
    rollups = [("category", path.by_category()),
               ("phase", path.by_phase())]
    if tiers and path.by_tier():
        rollups.append(("tier", path.by_tier()))
    for name, totals in rollups:
        parts = ", ".join(
            f"{key}={seconds:.6f}s ({seconds / path.wall:.1%})"
            for key, seconds in totals.items()) or "-"
        print(f"  by {name}: {parts}")
    dominant = path.dominant_phase()
    if dominant:
        print(f"  dominant phase: {dominant}")


def cmd_critical_path(args) -> int:
    import json

    from repro.obs.critpath import (
        critical_path,
        fault_windows_of,
        job_critical_path,
        tenant_rollup,
    )

    if args.service is not None:
        machine, recorder, report = _run_service(args)
        print(_describe_service(machine, report))
        print()
        tier_of = machine.spec.topology.tier_of
        faults = fault_windows_of(machine)
        if args.job:
            job = _job_result(report, args.job)
            if job is None:
                known = ", ".join(sorted(r.spec.label
                                         for r in report.results))
                print(f"no job {args.job!r} in this episode "
                      f"(jobs: {known})", file=sys.stderr)
                return 1
            try:
                path = job_critical_path(machine.trace, recorder, job,
                                         tier_of=tier_of,
                                         fault_windows=faults)
            except ReproError as exc:
                print(str(exc), file=sys.stderr)
                return 1
            _print_critical_path(path, args.top)
            if args.json:
                with open(args.json, "w", encoding="utf-8") as handle:
                    json.dump(path.to_dict(), handle, indent=2)
                print(f"  critical path written to {args.json}")
            return 0
        paths = []
        for result in report.results:
            if result.started_s is None:
                continue
            try:
                paths.append(job_critical_path(
                    machine.trace, recorder, result, tier_of=tier_of,
                    fault_windows=faults))
            except ReproError:
                continue
        jobs_table = Table(
            ["job", "wall s", "dominant", "kernel", "link", "waits"],
            title="per-job critical paths (detail with --job tenant/id)")
        for path in paths:
            categories = path.by_category()
            waits = sum(categories.get(kind, 0.0) for kind in
                        ("queue-wait", "engine-wait", "fault"))
            jobs_table.add_row(
                path.label, f"{path.wall:.3f}",
                path.dominant_phase() or "-",
                f"{categories.get('kernel', 0.0):.3f}",
                f"{categories.get('link', 0.0):.3f}",
                f"{waits:.3f}")
        jobs_table.print()
        tenants = tenant_rollup(paths)
        tenant_table = Table(
            ["tenant", "critical s", "kernel", "link", "host",
             "queue-wait", "engine-wait", "fault"],
            title="critical seconds per tenant")
        for tenant, entry in tenants.items():
            tenant_table.add_row(
                tenant, f"{entry['total']:.3f}",
                *(f"{entry.get(kind, 0.0):.3f}" for kind in
                  ("kernel", "link", "host", "queue-wait",
                   "engine-wait", "fault")))
        tenant_table.print()
        if args.json:
            payload = {"jobs": [path.to_dict() for path in paths],
                       "tenants": tenants}
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
            print(f"  critical paths written to {args.json}")
        return 0

    code = 0
    end = None
    in_flight = None
    try:
        machine, recorder, result = _run_instrumented(args)
        print(_describe_run(machine, result))
    except _FailedRun as failed:
        from repro.obs.critpath import InFlight

        machine, recorder = failed.machine, failed.recorder
        print(f"run FAILED: {type(failed.error).__name__}: "
              f"{failed.error}", file=sys.stderr)
        for path in failed.postmortems:
            print(f"  post-mortem bundle: {path}", file=sys.stderr)
        print("critical path up to the failure:")
        code = 1
        end = machine.env.now
        if (failed.failed_phase is not None
                and failed.failed_phase_started is not None):
            in_flight = InFlight(phase=failed.failed_phase,
                                 start=failed.failed_phase_started)
    print()
    path = critical_path(machine.trace, recorder,
                         end=end,
                         tier_of=machine.spec.topology.tier_of,
                         fault_windows=fault_windows_of(machine, end=end),
                         in_flight=in_flight)
    _print_critical_path(path, args.top)
    if recorder is not None and recorder.ring is not None:
        stats = recorder.ring_stats()
        print(f"  flight recorder: {stats['events_retained']} events "
              f"retained, {stats['evicted_total']} evicted")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(path.to_dict(), handle, indent=2)
        print(f"  critical path written to {args.json}")
    return code


def cmd_metrics(args) -> int:
    from repro.obs.metrics import prometheus_text

    try:
        if args.service is not None:
            machine, recorder, _report = _run_service(args)
        else:
            machine, recorder, _result = _run_instrumented(args)
    except _FailedRun as failed:
        # The registry survives the failure; export what was measured.
        recorder = failed.recorder
        print(f"run FAILED: {type(failed.error).__name__}: "
              f"{failed.error}", file=sys.stderr)
    sys.stdout.write(prometheus_text(recorder.metrics.snapshot()))
    return 0


def cmd_postmortem(args) -> int:
    from repro.obs.postmortem import load_bundle, render_bundle

    try:
        bundle = load_bundle(args.bundle)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_bundle(bundle, top=args.top))
    return 0


def cmd_diff(args) -> int:
    try:
        result = diff_files(args.old, args.new, threshold=args.threshold)
    except ReproError as exc:
        # Malformed inputs (missing file, bad JSON, legacy schema-less
        # record) exit 2 — distinct from exit 1, a real regression.
        print(f"diff error: {exc}", file=sys.stderr)
        return 2
    print(format_diff(result, verbose=args.verbose))
    return 0 if result.ok else 1


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability over simulated multi-GPU sorting: "
                    "timelines, link telemetry, rollups, bench diffs.")
    commands = parser.add_subparsers(dest="command", required=True)

    timeline = commands.add_parser(
        "timeline", help="run a sort and write the Perfetto trace JSON")
    _add_workload_args(timeline)
    timeline.add_argument("-o", "--output", default="timeline.json",
                          help="output path (default timeline.json)")
    timeline.add_argument("--job", default=None, metavar="TENANT/ID",
                          help="with --service: write only this job's "
                               "spans")
    timeline.set_defaults(handler=cmd_timeline)

    links = commands.add_parser(
        "links", help="top-N hottest links with saturation windows")
    _add_workload_args(links)
    links.add_argument("--top", type=int, default=8)
    links.add_argument("--phase", default=None,
                       help="restrict the window to one phase "
                            "(e.g. Merge)")
    links.add_argument("--tier", choices=("intra", "inter"), default=None,
                       help="only links of one fabric tier: 'intra' "
                            "(inside a machine) or 'inter' (cluster "
                            "fabric: NICs, InfiniBand, switches)")
    links.add_argument("--saturation", type=float, default=0.95,
                       help="fraction of capacity counting as saturated")
    links.add_argument("--width", type=int, default=40,
                       help="sparkline width in columns")
    links.set_defaults(handler=cmd_links)

    summary = commands.add_parser(
        "summary", help="phase x actor x link rollup of one run")
    _add_workload_args(summary)
    summary.add_argument("--top", type=int, default=10,
                         help="links to show")
    summary.add_argument("--job", default=None, metavar="TENANT/ID",
                         help="with --service: roll up only this job")
    summary.set_defaults(handler=cmd_summary)

    critpath = commands.add_parser(
        "critical-path",
        help="the blocking chain that determined the run's wall time")
    _add_workload_args(critpath)
    critpath.add_argument("--top", type=int, default=12,
                          help="critical segments to show (default 12)")
    critpath.add_argument("--job", default=None, metavar="TENANT/ID",
                          help="with --service: one job's chain "
                               "(queue wait included)")
    critpath.add_argument("--json", default=None, metavar="PATH",
                          help="also write the chain as JSON")
    critpath.set_defaults(handler=cmd_critical_path)

    metrics = commands.add_parser(
        "metrics",
        help="run a workload and print Prometheus text exposition")
    _add_workload_args(metrics)
    metrics.set_defaults(handler=cmd_metrics)

    postmortem = commands.add_parser(
        "postmortem", help="render a saved post-mortem bundle")
    postmortem.add_argument("bundle", help="bundle JSON path")
    postmortem.add_argument("--top", type=int, default=10,
                            help="segments/windows to show (default 10)")
    postmortem.set_defaults(handler=cmd_postmortem)

    diff = commands.add_parser(
        "diff", help="compare two BENCH_*.json records")
    diff.add_argument("old")
    diff.add_argument("new")
    diff.add_argument("--threshold", type=float, default=0.10,
                      help="relative regression threshold (default 0.10)")
    diff.add_argument("-v", "--verbose", action="store_true",
                      help="also list sub-threshold drift")
    diff.set_defaults(handler=cmd_diff)

    args = parser.parse_args(argv)
    if getattr(args, "job", None) and getattr(args, "service", None) is None:
        parser.error("--job filters a service episode; add --service N")
    if getattr(args, "service", None) is not None and args.service <= 0:
        parser.error(f"--service needs a positive job count, "
                     f"got {args.service}")
    if getattr(args, "nodes", 1) > 1:
        if args.algorithm not in ("p2p", "hier"):
            parser.error(f"--nodes {args.nodes} runs the hierarchical "
                         f"sort; --algorithm {args.algorithm} only works "
                         "on one node")
        if getattr(args, "supervised", False):
            parser.error("--supervised does not run on clusters yet")
        if getattr(args, "service", None) is not None:
            parser.error("--service does not run on clusters yet")
        if getattr(args, "gpus", None) is not None:
            parser.error("--gpus does not apply to clusters: the "
                         "hierarchical sort plans per-node GPU sets")
        if (getattr(args, "kill_node", None) is not None
                and not 0 <= args.kill_node < args.nodes):
            parser.error(f"--kill-node {args.kill_node} is outside the "
                         f"{args.nodes}-node cluster")
    elif getattr(args, "algorithm", None) == "hier":
        parser.error("--algorithm hier needs a cluster; add --nodes N")
    elif getattr(args, "kill_node", None) is not None:
        parser.error("--kill-node needs a cluster; add --nodes N")
    if (getattr(args, "max_replans", None) is not None
            and args.max_replans < 0):
        parser.error(f"--max-replans must be >= 0, got {args.max_replans}")
    try:
        return args.handler(args)
    except _FailedRun as failed:
        # Verbs that can use a dead run's state catch this themselves;
        # for the rest, report the failure (and where the bundle went).
        print(f"run FAILED: {type(failed.error).__name__}: "
              f"{failed.error}", file=sys.stderr)
        for path in failed.postmortems:
            print(f"  post-mortem bundle: {path}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
