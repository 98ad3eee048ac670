//! Whole-run benchmark of the HERE replication stack.
//!
//! ```text
//! perfbench --workload <lbm-sweep|ycsb-fanout|sockperf-fine> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` it times whole `Scenario::run`s (and the scenario's
//! set-up) for `--seconds`, checks every run, and reports the end-to-end
//! metrics. With `--trace 1` it replays the same run layer by layer (see
//! [`replay`]) and reports where the wall time went. Either way it prints
//! a human-readable table, a host line, and, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is non-zero when any correctness check failed.

mod replay;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use here_core::{RunReport, Stage};
use here_sim_core::time::SimDuration;

use crate::replay::Replay;
use crate::stats::{median, quantile};
use crate::workloads::Kind;

/// Set-up is repeated after every timed run for this share of the run's
/// wall time, so that its samples span the same stretch of host time as
/// `run_s`'s; `setup_s` is the median of all of them.
const SETUP_SHARE: f64 = 0.25;
/// Fewest set-up repetitions after each timed run.
const SETUP_REPS_PER_RUN: usize = 5;
/// Fewest timed runs per invocation, whatever `--seconds` says (the
/// same-seed fingerprint check needs at least two).
const MIN_RUNS: usize = 3;
/// Fewest replay rounds of the traced run.
const MIN_ROUNDS: usize = 2;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = workloads::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        out,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Printed only: virtual-time and informational metrics that are not
    /// part of the JSON result.
    table_only: bool,
    note: String,
}

#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            table_only: false,
            note: String::new(),
        });
    }

    fn info(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            table_only: true,
            note,
        });
    }

    /// Annotates the metric pushed last.
    fn note(&mut self, note: String) {
        if let Some(m) = self.metrics.last_mut() {
            m.note = note;
        }
    }

    fn check(&mut self, what: String, ok: bool) {
        self.checks.push((what, ok));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1) && self.failed == 0
    }
}

/// Epochs a run attempted (committed or aborted).
fn epochs_attempted(report: &RunReport) -> u64 {
    report
        .stage_events
        .iter()
        .map(|e| e.seq)
        .collect::<BTreeSet<_>>()
        .len() as u64
}

/// Runs `f`, converting a panic into `None`.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Problems with one run's report, empty when it is correct.
fn report_problems(kind: Kind, report: &RunReport) -> Vec<String> {
    let mut problems = Vec::new();
    if report.checkpoints.is_empty() || report.commits.is_empty() {
        problems.push("no committed checkpoint".to_string());
    }
    if report.consistency_checks == 0 {
        problems.push("consistency was never verified".to_string());
    }
    if report.failover.is_some() {
        problems.push("unexpected failover".to_string());
    }
    if report.elapsed < kind.virtual_length() {
        problems.push(format!("run ended early at {:?}", report.elapsed));
    }
    let aborts = report.chaos.map_or(0, |c| c.epochs_aborted);
    if aborts != kind.expected_aborts() {
        problems.push(format!(
            "{aborts} aborted epochs, the fault plan forces {}",
            kind.expected_aborts()
        ));
    }
    problems
}

/// The whole runs of one invocation: their wall times (s) and the first
/// run's report.
#[derive(Default)]
struct Timed {
    /// Runs made so far, timed or not.
    runs: usize,
    walls: Vec<f64>,
    report: Option<RunReport>,
    /// Runs that panicked or failed a check.
    bad: usize,
}

/// Times one whole `Scenario::run` of `kind` at `seed` with tracing off,
/// checks its report, and requires its fingerprint to match the first
/// run's.
fn timed_run(kind: Kind, seed: u64, out: &mut Outcome, timed: &mut Timed) {
    let scenario = kind.scenario(seed);
    let start = Instant::now();
    let result = guarded(|| scenario.run());
    let wall = start.elapsed().as_secs_f64();
    timed.walls.push(wall);
    timed.runs += 1;
    let Some(report) = result else {
        let epochs = timed.report.as_ref().map_or(1, epochs_attempted);
        out.attempted += epochs;
        out.failed += epochs;
        timed.bad += 1;
        out.check(format!("run {}: Scenario::run panicked", timed.runs), false);
        return;
    };
    let epochs = epochs_attempted(&report);
    out.attempted += epochs;
    let mut problems = report_problems(kind, &report);
    if let Some(first) = &timed.report {
        if first.fingerprint() != report.fingerprint() {
            problems.push(format!(
                "fingerprint {:#x} differs from the first run's {:#x}",
                report.fingerprint(),
                first.fingerprint()
            ));
        }
    }
    if !problems.is_empty() {
        out.failed += epochs;
        timed.bad += 1;
        out.check(
            format!("run {}: {}", timed.runs, problems.join("; ")),
            false,
        );
    }
    if timed.report.is_none() {
        timed.report = Some(report);
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The virtual-time metrics of one report: exact for a seed.
fn virtual_metrics(kind: Kind, report: &RunReport, out: &mut Outcome) {
    let epochs = epochs_attempted(report);
    out.info(
        "app_ops_per_s",
        report.throughput_ops_per_sec,
        "ops/s",
        "virtual".into(),
    );
    out.info(
        "degradation_pct",
        report.mean_degradation().unwrap_or(0.0) * 100.0,
        "%",
        "virtual, mean D_T".into(),
    );
    let pauses: Vec<f64> = report.checkpoints.iter().map(|c| ms(c.pause)).collect();
    let note = format!("virtual, {} epochs", pauses.len());
    out.info(
        "pause_ms_p50",
        median(&pauses).unwrap_or(0.0),
        "ms",
        note.clone(),
    );
    out.info(
        "pause_ms_max",
        quantile(&pauses, 1.0).unwrap_or(0.0),
        "ms",
        note,
    );
    out.info(
        "staleness_ms_max",
        report.worst_staleness().map_or(0.0, ms),
        "ms",
        "virtual".into(),
    );
    let transfers: Vec<u64> = report
        .stage_events
        .iter()
        .filter(|e| e.stage == Stage::Transfer)
        .map(|e| e.bytes)
        .collect();
    let kib = transfers.iter().sum::<u64>() as f64 / 1024.0 / transfers.len().max(1) as f64;
    out.info("wire_kib_per_epoch", kib, "KiB", "virtual".into());
    if kind.emits_packets() {
        let latencies: Vec<f64> = report
            .packet_latencies
            .values()
            .iter()
            .map(|s| s * 1e3)
            .collect();
        let n = latencies.len();
        let support = |q: f64| {
            if stats::percentile_supported(n, q) {
                format!("virtual, {n} packets")
            } else {
                format!("virtual, {n} packets: fewer than 10 beyond")
            }
        };
        out.info(
            "client_latency_ms_p50",
            median(&latencies).unwrap_or(0.0),
            "ms",
            support(0.5),
        );
        out.info(
            "client_latency_ms_p99",
            quantile(&latencies, 0.99).unwrap_or(0.0),
            "ms",
            support(0.99),
        );
    }
    let aborted = report.chaos.map_or(0, |c| c.epochs_aborted);
    out.info(
        "failed_epoch_pct",
        aborted as f64 / epochs.max(1) as f64 * 100.0,
        "%",
        format!("{aborted} aborted of {epochs} attempted"),
    );
}

/// One set-up: the scenario built with a 1 ms duration and run, so that
/// it allocates the VM and replicas, builds the workload and seeds the
/// replicas. Its wall time (s), or `None` when it panicked or did not seed.
fn timed_setup(kind: Kind, seed: u64) -> Option<f64> {
    let start = Instant::now();
    let seeded = guarded(|| {
        kind.builder(seed, SimDuration::from_millis(1))
            .build()
            .expect("benchmark scenarios are valid")
            .run()
    })
    .is_some_and(|r| r.migration.is_some());
    seeded.then(|| start.elapsed().as_secs_f64())
}

/// `--trace 0`: set-up and whole-run wall times with tracing off.
fn end_to_end(args: &Args) -> Outcome {
    let kind = args.kind;
    let mut out = Outcome::default();
    let mut timed = Timed::default();
    // The first run is the process's first work, so the peak resident set
    // after it is this workload's alone. It warms up and is not timed.
    timed_run(kind, args.seed, &mut out, &mut timed);
    let peak_rss = peak_rss_mib();
    timed.walls.clear();

    let mut setups = Vec::new();
    let mut unseeded = 0;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while timed.walls.len() < MIN_RUNS || Instant::now() < deadline {
        timed_run(kind, args.seed, &mut out, &mut timed);
        let budget = timed.walls.last().copied().unwrap_or(0.0) * SETUP_SHARE;
        let slot = Instant::now();
        for rep in 0.. {
            if rep >= SETUP_REPS_PER_RUN && slot.elapsed().as_secs_f64() >= budget {
                break;
            }
            match timed_setup(kind, args.seed) {
                Some(wall) => setups.push(wall),
                None => unseeded += 1,
            }
        }
    }
    out.check(
        format!(
            "{} set-up runs seeded their replicas",
            setups.len() + unseeded
        ),
        unseeded == 0,
    );
    let Some(report) = timed.report.take() else {
        return out;
    };
    let run_s = median(&timed.walls).unwrap_or(f64::NAN);
    let dirty: u64 = report.checkpoints.iter().map(|c| c.dirty_pages).sum();
    out.check(
        format!(
            "{} runs: verify_consistency on, fingerprint {:#x} identical",
            timed.runs,
            report.fingerprint()
        ),
        timed.bad == 0,
    );

    out.metric("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
    out.metric("run_s", run_s, "s");
    out.metric("pages_per_s", dirty as f64 / run_s, "pages/s");
    out.metric("peak_rss_mib", peak_rss, "MiB");
    out.info(
        "runs",
        timed.walls.len() as f64,
        "count",
        format!(
            "run_s quartiles {:.4} / {:.4} s, after one untimed warm-up",
            quantile(&timed.walls, 0.25).unwrap_or(0.0),
            quantile(&timed.walls, 0.75).unwrap_or(0.0)
        ),
    );
    out.info(
        "setup_reps",
        setups.len() as f64,
        "count",
        format!(
            "setup_s quartiles {:.6} / {:.6} s",
            quantile(&setups, 0.25).unwrap_or(0.0),
            quantile(&setups, 0.75).unwrap_or(0.0)
        ),
    );
    virtual_metrics(kind, &report, &mut out);
    out
}

/// `--trace 1`: the layer-by-layer replay, traced and untraced, next to
/// whole untraced runs of the same seed.
fn traced(args: &Args) -> Outcome {
    let kind = args.kind;
    let mut out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut timed = Timed::default();
    let mut plain_walls = Vec::new();
    let mut traced_runs: Vec<Replay> = Vec::new();
    while traced_runs.len() < MIN_ROUNDS || Instant::now() < deadline {
        timed_run(kind, args.seed, &mut out, &mut timed);
        let Some(report) = timed.report.as_ref() else {
            return out;
        };
        for trace in [false, true] {
            let Some(replay) = guarded(|| replay::replay(kind, args.seed, report, trace)) else {
                out.attempted += 1;
                out.failed += 1;
                out.check("replay completed without panicking".into(), false);
                return out;
            };
            out.attempted += replay.counts.epochs;
            if !replay.consistent() {
                out.failed += replay.counts.epochs;
            }
            if trace {
                traced_runs.push(replay);
            } else {
                plain_walls.push(replay.wall_nanos as f64 / 1e9);
            }
        }
    }
    let report = timed.report.take().expect("at least one run");
    out.check(
        format!(
            "{} whole runs: same-seed fingerprints identical",
            timed.walls.len()
        ),
        timed.bad == 0,
    );
    out.check(
        "replayed replicas decoded every segment and equal the primary at every epoch and at the end"
            .into(),
        traced_runs.iter().all(Replay::consistent),
    );

    let breakdowns: Vec<_> = traced_runs
        .iter()
        .map(|r| trace::breakdown(&r.spans))
        .collect();
    let med = |f: &dyn Fn(usize) -> f64| -> f64 {
        let values: Vec<f64> = (0..traced_runs.len()).map(f).collect();
        median(&values).unwrap_or(f64::NAN)
    };
    let self_ms = |key: &str| med(&|i| breakdowns[i].self_nanos(key) as f64 / 1e6);
    let per = |key: &str, count: &dyn Fn(&replay::Counts) -> u64| {
        med(&|i| breakdowns[i].self_nanos(key) as f64 / count(&traced_runs[i].counts).max(1) as f64)
    };
    let counts = traced_runs[0].counts.clone();
    let chaos = report.chaos.unwrap_or_default();
    let report_harvest: u64 = report
        .stage_events
        .iter()
        .filter(|e| e.stage == Stage::Harvest)
        .map(|e| e.pages)
        .sum();

    out.metric("workloads.advance_ms", self_ms("workloads.advance"), "ms");
    out.metric("workloads.writes", counts.writes as f64, "count");
    out.metric(
        "workloads.ns_per_write",
        per("workloads.advance", &|c| c.writes),
        "ns",
    );
    out.metric(
        "hypervisor.snapshot_ms",
        self_ms("hypervisor.snapshot"),
        "ms",
    );
    out.metric("hypervisor.dirty_pages", counts.dirty_pages as f64, "count");
    out.metric(
        "hypervisor.dirty_per_write",
        counts.dirty_pages as f64 / counts.writes.max(1) as f64,
        "pages/write",
    );
    out.metric("hypervisor.verify_ms", self_ms("hypervisor.verify"), "ms");
    out.metric("hypervisor.create_ms", self_ms("hypervisor.create"), "ms");
    out.metric("transfer.harvest_ms", self_ms("transfer.harvest"), "ms");
    out.metric(
        "transfer.harvest_ns_per_page",
        per("transfer.harvest", &|c| c.collected_pages),
        "ns/page",
    );
    out.metric("dataplane.encode_ms", self_ms("dataplane.encode"), "ms");
    out.metric(
        "dataplane.encode_ns_per_page",
        per("dataplane.encode", &|c| c.encoded_pages),
        "ns/page",
    );
    out.metric(
        "dataplane.encode_bytes",
        counts.encode_bytes as f64,
        "bytes",
    );
    out.metric(
        "dataplane.lane_occupancy_pct",
        med(&|i| {
            let c = &traced_runs[i].counts;
            c.lane_busy as f64 / c.lane_capacity.max(1) as f64 * 100.0
        }),
        "%",
    );
    out.metric(
        "dataplane.steals",
        med(&|i| traced_runs[i].counts.steals as f64),
        "count",
    );
    out.metric(
        "dataplane.translate_ms",
        self_ms("dataplane.translate"),
        "ms",
    );
    out.metric("dataplane.apply_ms", self_ms("dataplane.apply"), "ms");
    out.metric(
        "dataplane.apply_ns_per_page",
        per("dataplane.apply", &|c| c.applied_pages),
        "ns/page",
    );
    out.info(
        "dataplane.apply_errors",
        counts.apply_errors as f64,
        "count",
        "any error fails the replay check".into(),
    );
    out.metric(
        "dataplane.shadow_commit_ms",
        self_ms("dataplane.shadow_commit"),
        "ms",
    );
    out.metric(
        "dataplane.pool_hit_pct",
        counts.pool_hits as f64 / (counts.pool_hits + counts.pool_misses).max(1) as f64 * 100.0,
        "%",
    );
    out.metric("period.decide_us", self_ms("period.decide") * 1e3, "us");
    out.metric("failover.ledger_us", self_ms("failover.ack") * 1e3, "us");
    out.metric("failover.commits", counts.commits as f64, "count");
    out.metric(
        "telemetry.record_us",
        self_ms("telemetry.record") * 1e3,
        "us",
    );
    out.metric("telemetry.events", counts.telemetry_events as f64, "count");
    out.metric(
        "migrate.seed_ms",
        med(&|i| breakdowns[i].layer_nanos("migrate") as f64 / 1e6),
        "ms",
    );
    out.metric("migrate.pages", counts.migrated_pages as f64, "count");
    out.metric("chaos.retries", chaos.transfer_retries as f64, "count");
    out.metric(
        "chaos.recoveries",
        chaos.transfer_recoveries as f64,
        "count",
    );
    out.metric("chaos.aborts", chaos.epochs_aborted as f64, "count");

    let epoch_walls: Vec<f64> = breakdowns
        .iter()
        .flat_map(|b| b.roots.get("epoch").cloned().unwrap_or_default())
        .map(|n| n as f64 / 1e6)
        .collect();
    out.metric(
        "epoch.wall_ms_p50",
        median(&epoch_walls).unwrap_or(f64::NAN),
        "ms",
    );
    out.metric(
        "epoch.wall_ms_p90",
        quantile(&epoch_walls, 0.9).unwrap_or(f64::NAN),
        "ms",
    );
    if !stats::percentile_supported(epoch_walls.len(), 0.9) {
        out.note("fewer than 10 epochs beyond p90".into());
    }
    out.metric("epoch.samples", epoch_walls.len() as f64, "count");

    for layer in replay::LAYERS {
        out.metric(
            layer.1,
            med(&|i| breakdowns[i].layer_nanos(layer.0) as f64 / 1e6),
            "ms",
        );
    }
    let traced_walls: Vec<f64> = traced_runs
        .iter()
        .map(|r| r.wall_nanos as f64 / 1e9)
        .collect();
    out.metric(
        "trace.driver_ms",
        median(&traced_walls).unwrap_or(f64::NAN) * 1e3,
        "ms",
    );
    out.metric(
        "trace.residual_pct",
        med(&|i| stats::residual_pct(traced_runs[i].wall_nanos, breakdowns[i].claimed)),
        "%",
    );
    out.metric(
        "trace.overhead_pct",
        stats::overhead_pct(
            median(&traced_walls).unwrap_or(f64::NAN),
            median(&plain_walls).unwrap_or(f64::NAN),
        ),
        "%",
    );
    out.metric(
        "trace.page_match_pct",
        counts.harvested_pages as f64 / report_harvest.max(1) as f64 * 100.0,
        "%",
    );
    out.check(
        format!("replay harvested exactly the session's {report_harvest} pages in every round"),
        traced_runs
            .iter()
            .all(|r| r.counts.harvested_pages == report_harvest),
    );
    out.metric(
        "session.unmirrored_pct",
        stats::unmirrored_pct(
            median(&timed.walls).unwrap_or(f64::NAN),
            median(&plain_walls).unwrap_or(f64::NAN),
        ),
        "%",
    );
    out.info(
        "rounds",
        traced_runs.len() as f64,
        "count",
        "whole run + untraced replay + traced replay".into(),
    );

    if let (Some(dir), Some(last)) = (&args.out, traced_runs.last()) {
        let path = dir.join(format!("{}-seed{}.spans.jsonl", kind.name(), args.seed));
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
            writeln!(file, "{}", host_json(args))?;
            trace::write_jsonl(&last.spans, &mut file)?;
            file.flush()
        });
        match written {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    out
}

fn host_json(args: &Args) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"host\":{{\"host_cpus\":{cpus},\"rustc\":\"{}\",\"profile\":\"{}\",\"seed\":{},\"workload\":\"{}\",\"trace\":{}}}}}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        args.seed,
        args.kind.name(),
        u8::from(args.trace)
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let correct = outcome.correct() && !outcome.metrics.is_empty();

    println!(
        "# {} seed={} trace={} seconds={}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!("{:<30} {:>18} {:<12} json note", "metric", "value", "unit");
    for m in &outcome.metrics {
        let json = if m.table_only { "" } else { "*" };
        println!(
            "{:<30} {:>18.6} {:<12} {json:<4} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for (what, ok) in &outcome.checks {
        println!("check {}: {what}", if *ok { "PASS" } else { "FAIL" });
    }
    println!(
        "verdict: {} ({} of {} epochs failed)",
        if correct { "correct" } else { "INCORRECT" },
        outcome.failed,
        outcome.attempted
    );
    println!("{}", host_json(&args));

    let mut metrics = String::new();
    for m in outcome.metrics.iter().filter(|m| !m.table_only) {
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
