//! The repository benchmark. One run measures one workload for
//! `--seconds` seconds and prints, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` records spans around the calls
//! into each layer and reports the per-layer ledger instead. See
//! `e2ebench/README.md` for the workloads and how to read the trace.
//!
//! ```text
//! afft_e2ebench --workload NAME --seed N --seconds S --trace 0|1
//!               [--server PATH] [--trace-out PATH] [--commit ID]
//! ```

mod asip;
mod engines;
mod json;
mod ledger;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use afft_net::NetClient;
use afft_num::{Complex, C64};

use crate::serve::{Mix, ServerChild, Window};
use crate::trace::Tracer;

/// Library tuning variables cleared in this process and the server
/// child, so the shipped defaults are what gets measured.
pub const CLEARED_ENV: [&str; 4] =
    ["AFFT_NO_SIMD", "AFFT_STREAM_WORKERS", "AFFT_OBS", "AFFT_WISDOM"];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["serve_bulk", "serve_interactive", "engine_sizes", "asip_table1"];

/// Frames in flight on `serve_bulk`.
pub const BULK_WINDOW: usize = 16;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Timed slices per run; latencies (and serving rates) come from the
/// quietest quarter of them.
const SLICES: usize = 40;

/// Length of the ISS probe on the workloads that do not simulate.
const ISS_PROBE: Duration = Duration::from_secs(4);

/// Seeded inputs per served channel.
const INPUTS_PER_CHANNEL: usize = 16;

/// splitmix64: every generated input comes from `--seed` through this.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `n` seeded QPSK subcarriers of unit energy.
pub fn qpsk(rng: &mut Rng, n: usize) -> Vec<C64> {
    let mut out = Vec::with_capacity(n);
    let mut bits = 0u64;
    for i in 0..n {
        if i % 32 == 0 {
            bits = rng.next_u64();
        }
        let re = if bits & 1 == 0 { 1.0 } else { -1.0 };
        let im = if bits & 2 == 0 { 1.0 } else { -1.0 };
        bits >>= 2;
        out.push(Complex::new(re, im) * std::f64::consts::FRAC_1_SQRT_2);
    }
    out
}

/// `n` seeded complex samples, each component uniform in [-1, 1).
/// The ISS runs on these: QPSK's equal magnitudes put fixed-point
/// products exactly on rounding ties, where the ISS and the golden
/// model are not bit-exact.
pub fn uniform(rng: &mut Rng, n: usize) -> Vec<C64> {
    let mut unit = || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
    (0..n).map(|_| Complex::new(unit(), unit())).collect()
}

/// Worker threads and client connections are sized to the host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `afft_net` binary (serve workloads and the ledger).
    pub server: Option<PathBuf>,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
    /// Source identity to stamp on the result.
    pub commit: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<Option<String>, String> {
        match argv.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => argv.get(i + 1).cloned().map(Some).ok_or(format!("{name} needs a value")),
        }
    };
    let workload = get("--workload")?.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    let seed =
        get("--seed")?.map_or(Ok(1), |s| s.parse().map_err(|_| format!("bad --seed {s:?}")))?;
    let seconds: f64 = get("--seconds")?
        .map_or(Ok(10.0), |s| s.parse().map_err(|_| format!("bad --seconds {s:?}")))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    let trace = match get("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        server: get("--server")?.map(PathBuf::from),
        trace_out: get("--trace-out")?.map(PathBuf::from),
        commit: get("--commit")?.unwrap_or_else(|| "unknown".to_string()),
    })
}

/// One run's result: named metrics plus the correctness tally.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    /// Operations attempted (frames, transforms or ISS runs).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Whether any output failed its correctness check.
    pub wrong: bool,
}

impl Report {
    /// Adds a metric with a one-line account of how it was measured.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, how: impl Into<String>) {
        assert!(stats::valid_metric_name(name), "metric name {name:?} breaks the schema");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.notes.push(format!("  {name:<34} {value:>14.6} {unit:<8} {}", how.into()));
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a free-form line to the human-readable part of the output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts operations and failures; a wrong answer marks the run.
    pub fn tally(&mut self, attempted: u64, failed: u64, wrong: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.wrong |= wrong > 0;
    }

    fn to_json(&self) -> String {
        let metrics = afft_obs::json::Obj::new();
        let metrics = self.metrics.iter().fold(metrics, |obj, (name, value, unit)| {
            obj.raw(
                name,
                afft_obs::json::Obj::new()
                    .raw("value", format!("{value:e}"))
                    .str("unit", unit)
                    .finish(),
            )
        });
        afft_obs::json::Obj::new()
            .bool("correct", !self.wrong)
            .num("attempted", self.attempted.max(1) as f64)
            .num("failed", self.failed as f64)
            .raw("metrics", metrics.finish())
            .finish()
    }
}

/// The quiet quarter of a run: the quarter of its timed slices that did
/// the most work. Host noise only ever slows a slice, and on a shared
/// host it comes in phases, so these are the slices the neighbours
/// disturbed least.
fn quiet_quarter(work: &[f64]) -> Vec<bool> {
    stats::top_slices(work, work.len() / 4)
}

/// In-process latencies pick their quiet quarter from this many slices
/// (50 ms in a 20 s run): their samples are short, and the host's quiet
/// moments are often shorter than a serving slice.
const FINE_SLICES: usize = 400;

/// Which of `FINE_SLICES` slices each sample that started `at_s` seconds
/// into a window of `window_s` seconds fell in, and the samples started
/// per slice.
fn fine_slices(at_s: &[f64], window_s: f64) -> (Vec<usize>, Vec<f64>) {
    let slice_s = window_s / FINE_SLICES as f64;
    let slice_of: Vec<usize> =
        at_s.iter().map(|t| ((t / slice_s) as usize).min(FINE_SLICES - 1)).collect();
    let mut work = vec![0.0; FINE_SLICES];
    for &b in &slice_of {
        work[b] += 1.0;
    }
    (slice_of, work)
}

/// Reports `latency_p50_us` and `latency_p99_us` (the tail rule's
/// percentile) over the ns samples that fell in the quiet quarter.
fn latency_metrics(
    report: &mut Report,
    what: &str,
    samples_ns: &[f64],
    slice_of: &[usize],
    work: &[f64],
) -> Result<(), String> {
    let quiet = quiet_quarter(work);
    let mut kept: Vec<f64> =
        samples_ns.iter().zip(slice_of).filter(|(_, b)| quiet[**b]).map(|(v, _)| *v).collect();
    let t = stats::tail(&mut kept).ok_or(format!("too few {what} to report a latency"))?;
    let scope =
        format!("{} {what} in the quietest {} of {} slices", t.count, work.len() / 4, work.len());
    report.metric("latency_p50_us", t.p50 / 1e3, "us", format!("median of {scope}"));
    let beyond = kept.iter().filter(|v| **v > t.tail).count();
    report.metric(
        "latency_p99_us",
        t.tail / 1e3,
        "us",
        format!("p{} of {scope} ({beyond} beyond)", t.tail_p),
    );
    Ok(())
}

fn setup_metric(report: &mut Report, times: &[f64], what: &str) {
    report.metric(
        "setup_s",
        stats::median(times),
        "s",
        format!("median of {} set-ups: {what}", times.len()),
    );
}

fn own_peak_rss(report: &mut Report) -> Result<(), String> {
    let rss = serve::proc_peak_rss_mb("/proc/self/status").ok_or("cannot read own VmHWM")?;
    report.metric("peak_rss_mb", rss, "MiB", "VmHWM of the benchmark process");
    Ok(())
}

fn delivered(report: &mut Report, attempted: u64, failed: u64, what: &str) {
    report.metric(
        "delivered_frac",
        (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64,
        "ratio",
        format!("{} of {attempted} {what} correct", attempted - failed.min(attempted)),
    );
}

/// The ISS Table I sweep, timed for `dur`: gives `table1_err` and
/// `sim_mcycles_per_s` on workloads that do not otherwise simulate. It
/// runs before the workload's own pass: right after a pass that loaded
/// both cores, host speed reads low for a while.
fn iss_probe(report: &mut Report, rng: &mut Rng, dur: Duration) -> Result<(), String> {
    let (_, engines) = asip::build(1)?;
    let mut iss = asip::Iss::new(engines, rng);
    let mut off = Tracer::new(Instant::now(), false);
    let run = asip::run(&mut iss, dur / 20, dur, &mut 0, &mut off);
    report.tally(run.attempted, run.failed, run.failed);
    table1_metrics(report, &run)
}

fn table1_metrics(report: &mut Report, run: &asip::IssRun) -> Result<(), String> {
    let cycles: Vec<String> = run.cycles.iter().map(|(n, c)| format!("{n}:{c}")).collect();
    report.metric(
        "table1_err",
        stats::table1_err(&run.cycles),
        "ratio",
        format!("max |ISS/paper - 1| over Table I; ISS cycles {}", cycles.join(" ")),
    );
    let sweep = quiet(&run.sweep_ns, "ISS sweeps")?;
    let (_, _, cycles) = run.per_sweep();
    report.metric(
        "sim_mcycles_per_s",
        cycles as f64 * 1e3 / sweep,
        "Mcycles/s",
        format!("{cycles} cycles per fastest sweep of {}", run.sweep_ns.len()),
    );
    Ok(())
}

/// The time in-process rates are computed from: the fastest of a run's
/// rounds, or an error naming what never completed. Host noise only
/// ever adds time, and on a shared host it comes in phases that can
/// cover most of a run, so the minimum tracks the code while the
/// median tracks the neighbours (Chen & Revels, arXiv:1608.04295).
fn quiet(samples: &[f64], what: &str) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("no timed {what} completed"));
    }
    Ok(stats::min(samples))
}

/// The measured part of an in-process run.
fn timed(args: &Args) -> Duration {
    Duration::from_secs_f64(args.seconds)
}

fn window(args: &Args, warm: Duration) -> Window {
    Window { warm, slice: Duration::from_secs_f64(args.seconds / SLICES as f64), slices: SLICES }
}

/// Spawns the server `SETUP_REPS` times, timing spawn to HELLO, and
/// keeps the last one.
fn start_server(
    args: &Args,
    report: Option<&mut Report>,
) -> Result<(ServerChild, NetClient), String> {
    let bin = args.server.as_ref().ok_or("--server is required for the serving workloads")?;
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let start = Instant::now();
        let child = ServerChild::spawn(bin, nproc())?;
        let client = NetClient::connect(child.addr).map_err(|e| format!("connect: {e}"))?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some((child, client));
    }
    if let Some(report) = report {
        setup_metric(report, &times, "server spawn to HELLO received");
    }
    Ok(kept.expect("at least one set-up"))
}

fn serve_workload(args: &Args, window_frames: usize) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = Rng::new(args.seed);
    let (child, mut client) = start_server(args, Some(&mut report))?;
    let mix = Arc::new(Mix::new(client.channels(), &mut rng, INPUTS_PER_CHANNEL)?);
    let engines: Vec<String> =
        mix.channels.iter().map(|c| format!("{:?}-{}:{}", c.kind, c.n, c.engine)).collect();
    report.note(format!("channels: {}", engines.join(" ")));
    iss_probe(&mut report, &mut rng, ISS_PROBE)?;
    let win = window(args, Duration::from_secs(1));
    let mut off = Tracer::new(Instant::now(), false);
    let mut seq = 0;
    let cpu0 = child.cpu_s();
    let pass = if window_frames == 1 {
        serve::run_window1(&mut client, &mix, &win, &mut seq, &mut off)?
    } else {
        serve::run_windowed(client.split(), &mix, window_frames, &win, &mut seq, &mut off)?.0
    };
    let cpu = child.cpu_s().zip(cpu0).map(|(a, b)| a - b);
    report.tally(pass.sent, pass.failed(), pass.mismatched);
    let work: Vec<f64> = pass.slice_symbols.iter().map(|s| *s as f64).collect();
    let quiet = quiet_quarter(&work);
    let quiet_s = (SLICES / 4) as f64 * pass.slice_s;
    let in_quiet =
        |per: &[u64]| per.iter().zip(&quiet).filter(|(_, q)| **q).map(|(v, _)| *v).sum::<u64>();
    report.metric(
        "symbols_per_s",
        in_quiet(&pass.slice_symbols) as f64 / quiet_s,
        "1/s",
        format!("over the quietest {} of {SLICES} slices, window {window_frames}", SLICES / 4),
    );
    report.metric(
        "points_per_s",
        in_quiet(&pass.slice_points) as f64 / quiet_s,
        "1/s",
        "subcarriers served per second, same slices",
    );
    latency_metrics(&mut report, "frames", &pass.latency_ns, &pass.latency_slice, &work)?;
    delivered(&mut report, pass.sent, pass.failed(), "frames");
    let rss = child.peak_rss_mb().ok_or("cannot read the server's VmHWM")?;
    report.metric("peak_rss_mb", rss, "MiB", "VmHWM of the afft_net child");
    if let Some(cpu) = cpu {
        report.note(format!("server cpu: {cpu:.2} s over the pass"));
    }
    Ok(report)
}

fn engine_workload(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = Rng::new(args.seed);
    let (times, mut sized) = engines::setup(&mut rng, SETUP_REPS)?;
    setup_metric(&mut report, &times, "Planner::new + plan(Estimate) + engine, all sizes");
    let picks: Vec<String> = sized.iter().map(|s| format!("{}:{}", s.n, s.engine.name())).collect();
    report.note(format!("engines: {}", picks.join(" ")));
    iss_probe(&mut report, &mut rng, ISS_PROBE)?;
    let mut off = Tracer::new(Instant::now(), false);
    let warm = Duration::from_millis(500);
    let run = engines::run(&mut sized, warm, timed(args), &mut 0, &mut off);
    report.tally(run.attempted, run.failed, run.failed);
    let round = quiet(&run.round_ns, "rounds")?;
    let calls: usize = sized.iter().map(engines::Sized::calls).sum();
    report.metric(
        "symbols_per_s",
        calls as f64 * 1e9 / round,
        "1/s",
        format!("{calls} transforms per fastest round of {}", run.round_ns.len()),
    );
    let per_size: Vec<f64> = sized
        .iter()
        .zip(&run.block_ns)
        .map(|(s, ns)| (s.calls() * s.n) as f64 * 1e9 / stats::min(ns))
        .collect();
    report.metric(
        "points_per_s",
        stats::geomean(&per_size),
        "1/s",
        "geomean over sizes of points per fastest block",
    );
    let (slice_of, work) = fine_slices(&run.round_at_s, timed(args).as_secs_f64());
    latency_metrics(&mut report, "rounds", &run.round_ns, &slice_of, &work)?;
    delivered(&mut report, run.attempted, run.failed, "transforms");
    own_peak_rss(&mut report)?;
    Ok(report)
}

fn asip_workload(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = Rng::new(args.seed);
    let (times, built) = asip::build(SETUP_REPS * 20)?;
    setup_metric(&mut report, &times, "AsipEngine::new at every Table I size");
    let mut iss = asip::Iss::new(built, &mut rng);
    let mut off = Tracer::new(Instant::now(), false);
    let t2 = asip::table2(&mut rng, &mut off)?;
    report.tally(1, u64::from(!t2.software_ok), u64::from(!t2.software_ok));
    let run = asip::run(&mut iss, Duration::from_millis(300), timed(args), &mut 0, &mut off);
    report.tally(run.attempted, run.failed, run.failed);
    let ours = run.stats1024.ok_or("no 1024-point ISS run")?.cycles;
    report.note(format!(
        "table II cycles: software {} ({:.2} s host), TI {}, Xtensa {}, array ASIP {ours}",
        t2.software.cycles, t2.software_host_s, t2.ti_cycles, t2.xtensa_cycles
    ));
    let sweep = quiet(&run.sweep_ns, "Table I sweeps")?;
    let (transforms, points, _) = run.per_sweep();
    report.metric(
        "symbols_per_s",
        transforms as f64 * 1e9 / sweep,
        "1/s",
        format!("{transforms} ISS transforms per fastest sweep of {}", run.sweep_ns.len()),
    );
    report.metric("points_per_s", points as f64 * 1e9 / sweep, "1/s", "points per fastest sweep");
    let (slice_of, work) = fine_slices(&run.sweep_at_s, timed(args).as_secs_f64());
    latency_metrics(&mut report, "Table I sweeps", &run.sweep_ns, &slice_of, &work)?;
    delivered(&mut report, run.attempted + 1, run.failed + u64::from(!t2.software_ok), "ISS runs");
    own_peak_rss(&mut report)?;
    table1_metrics(&mut report, &run)?;
    Ok(report)
}

fn main() -> ExitCode {
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("afft_e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        ledger::run(&args)
    } else {
        match args.workload.as_str() {
            "serve_bulk" => serve_workload(&args, BULK_WINDOW),
            "serve_interactive" => serve_workload(&args, 1),
            "engine_sizes" => engine_workload(&args),
            "asip_table1" => asip_workload(&args),
            _ => unreachable!("validated in parse_args"),
        }
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("afft_e2ebench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!(
        "config: workload={} seed={} seconds={} trace={} nproc={} simd={} server_workers={} \
         commit={} traffic=loopback-127.0.0.1",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        afft_core::simd::active_level().as_str(),
        nproc(),
        args.commit
    );
    for line in &report.notes {
        println!("{line}");
    }
    println!("{}", report.to_json());
    if !report.wrong {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}
