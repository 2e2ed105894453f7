//! The traced run: spans around the calls into each layer, reduced to
//! the per-layer ledger. Each layer's cost is also reported as a delta
//! over the layer below at a matched window: window 1 against window
//! 1, saturated against window 16.

use std::sync::Arc;
use std::time::{Duration, Instant};

use afft_asip::engine::registry_with_asip;
use afft_core::engine::{EngineRegistry, FftEngine};
use afft_core::ofdm::Ofdm;
use afft_core::Direction;
use afft_net::{ChannelInfo, OpKind};
use afft_num::{Complex, C64};
use afft_planner::{Planner, Strategy};
use afft_stream::{ChannelOp, ChannelSpec, StreamPipeline};

use crate::engines::SIZES;
use crate::json::{self, Value};
use crate::serve::{Mix, Window};
use crate::stats::{median, min};
use crate::trace::Tracer;
use crate::{asip, engines, nproc, qpsk, serve, start_server, Args, Report, Rng, BULK_WINDOW};

/// Spans kept from the overhead probe and from each ledger phase; the
/// clock reads continue past the cap, so the tracing cost does not
/// change. Together they bound the trace file to about 20 MB.
const PROBE_SPAN_CAP: usize = 40_000;
const PHASE_SPAN_CAP: usize = 20_000;

/// Runs the workload's own loop with tracing alternately off and on,
/// then every ledger phase, and writes the spans out.
///
/// # Errors
///
/// Any phase's failure.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = Rng::new(args.seed);
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, true);

    let probe = overhead_probe(args, &mut rng, &mut report, epoch)?;
    tracer.budget(PHASE_SPAN_CAP);
    let (planned, core_ns) = planner_and_core(&mut report, &mut tracer)?;
    regret(&mut report, &planned)?;
    tracer.budget(PHASE_SPAN_CAP);
    let ofdm_ns = ofdm_layer(&mut report, &mut tracer, &mut rng, core_ns)?;
    tracer.budget(PHASE_SPAN_CAP);
    let stream = stream_layer(&mut report, &mut tracer, &mut rng, ofdm_ns)?;
    tracer.budget(PHASE_SPAN_CAP);
    net_layer(args, &mut report, &mut tracer, &mut rng, stream)?;
    tracer.budget(PHASE_SPAN_CAP);
    asip_layer(&mut report, &mut tracer, &mut rng)?;
    report.metric(
        "trace.overhead_ratio",
        probe.ratio,
        "ratio",
        format!("traced over untraced throughput of the {} loop", args.workload),
    );

    tracer.budget(PROBE_SPAN_CAP);
    tracer.absorb(probe.tracer);
    if let Some(path) = &args.trace_out {
        tracer.write_jsonl(path).map_err(|e| format!("write {}: {e}", path.display()))?;
        report.note(format!("trace: {} spans in {}", tracer.spans().len(), path.display()));
    }
    Ok(report)
}

struct Probe {
    ratio: f64,
    tracer: Tracer,
}

/// Alternates untraced and traced slices of the workload's own loop
/// and compares their throughput.
fn overhead_probe(
    args: &Args,
    rng: &mut Rng,
    report: &mut Report,
    epoch: Instant,
) -> Result<Probe, String> {
    let slice = Duration::from_secs_f64(args.seconds / 4.0);
    let mut tracer = Tracer::new(epoch, false);
    tracer.budget(PROBE_SPAN_CAP);
    let mut rates = [Vec::new(), Vec::new()];
    match args.workload.as_str() {
        "serve_interactive" => {
            let (child, mut client) = start_server(args, None)?;
            let mix = Mix::new(client.channels(), rng, 16)?;
            let mut seq = 0;
            for i in 0..4 {
                tracer.set_enabled(i % 2 == 1);
                let win = Window { warm: Duration::from_millis(200), slice, slices: 1 };
                let pass = serve::run_window1(&mut client, &mix, &win, &mut seq, &mut tracer)?;
                report.tally(pass.sent, pass.failed(), pass.mismatched);
                rates[i % 2].push(pass.slice_symbols[0] as f64 / pass.slice_s);
            }
            drop(child);
        }
        "serve_bulk" => {
            let (child, client) = start_server(args, None)?;
            let mix = Arc::new(Mix::new(client.channels(), rng, 16)?);
            let mut halves = client.split();
            let mut seq = 0;
            for i in 0..4 {
                tracer.set_enabled(i % 2 == 1);
                let win = Window { warm: Duration::from_millis(200), slice, slices: 1 };
                let (pass, back) =
                    serve::run_windowed(halves, &mix, BULK_WINDOW, &win, &mut seq, &mut tracer)?;
                halves = back;
                report.tally(pass.sent, pass.failed(), pass.mismatched);
                rates[i % 2].push(pass.slice_symbols[0] as f64 / pass.slice_s);
            }
            drop(child);
        }
        "engine_sizes" => {
            let (_, mut sized) = engines::setup(rng, 1)?;
            for i in 0..4 {
                tracer.set_enabled(i % 2 == 1);
                let run = engines::run(
                    &mut sized,
                    Duration::from_millis(100),
                    slice,
                    &mut 0,
                    &mut tracer,
                );
                report.tally(run.attempted, run.failed, run.failed);
                rates[i % 2].push(1e9 / min(&run.round_ns));
            }
        }
        _ => {
            let (_, built) = asip::build(1)?;
            let mut iss = asip::Iss::new(built, rng);
            for i in 0..4 {
                tracer.set_enabled(i % 2 == 1);
                let run =
                    asip::run(&mut iss, Duration::from_millis(50), slice, &mut 0, &mut tracer);
                report.tally(run.attempted, run.failed, run.failed);
                rates[i % 2].push(1e9 / min(&run.sweep_ns));
            }
        }
    }
    tracer.set_enabled(false);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Ok(Probe { ratio: mean(&rates[1]) / mean(&rates[0]).max(f64::MIN_POSITIVE), tracer })
}

/// Median ns per size.
type SizeTimes = Vec<(usize, f64)>;

/// One planned size: its Estimate plan and the engine built from it.
struct Planned {
    n: usize,
    pick: String,
}

/// `planner.plan_ns`, `planner.engine_build_ns` and
/// `core.execute_ns.n*`; returns the plans and the per-size execute
/// medians.
fn planner_and_core(
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(Vec<Planned>, SizeTimes), String> {
    const REPS: usize = 3;
    let mut engines = Vec::new();
    for _ in 0..REPS {
        engines = engines::plan_all(tracer)?.1;
    }
    report.metric(
        "planner.plan_ns",
        median(&tracer.durations("planner.plan", None)),
        "ns",
        format!("median Planner::new + plan(Estimate) over {} sizes x {REPS}", SIZES.len()),
    );
    report.metric(
        "planner.engine_build_ns",
        median(&tracer.durations("planner.engine", None)),
        "ns",
        format!("median Planner::engine over {} sizes x {REPS}", SIZES.len()),
    );
    let mut core = Vec::new();
    let mut planned = Vec::new();
    let mut rng = Rng::new(0x5eed);
    for mut engine in engines {
        let n = engine.len();
        let input = qpsk(&mut rng, n);
        let mut out = vec![Complex::zero(); n];
        let calls = (1 << 19) / n;
        for c in 0..calls + 16 {
            let dir = if c % 2 == 0 { Direction::Forward } else { Direction::Inverse };
            // The first calls warm the engine's scratch; untraced.
            let t = if c >= 16 { tracer.now() } else { 0 };
            engine.execute_into(&input, &mut out, dir).map_err(|e| format!("execute {n}: {e}"))?;
            if c >= 16 {
                tracer.record("core.execute_into", 0, c as u64, n, t);
            }
        }
        let ns = median(&tracer.durations("core.execute_into", Some(n)));
        report.metric(
            &format!("core.execute_ns.n{n}"),
            ns,
            "ns",
            format!("median of {calls} calls on {}", engine.name()),
        );
        core.push((n, ns));
        planned.push(Planned { n, pick: engine.name().to_string() });
    }
    Ok((planned, core))
}

/// `planner.regret.n*`: the Estimate pick's time over the fastest
/// engine the standard registry offers at that size, all timed here.
fn regret(report: &mut Report, planned: &[Planned]) -> Result<(), String> {
    let mut rng = Rng::new(0x7e9e7);
    for p in planned {
        let n = p.n;
        let input = qpsk(&mut rng, n);
        let mut out = vec![Complex::zero(); n];
        let mut registry = EngineRegistry::standard(n).map_err(|e| e.to_string())?;
        let mut times = Vec::new();
        for engine in registry.engines_mut() {
            times.push((engine.name().to_string(), per_call_ns(engine, &input, &mut out)?));
        }
        let best = times.iter().map(|(_, t)| *t).fold(f64::INFINITY, f64::min);
        let (_, pick) = times
            .iter()
            .find(|(name, _)| *name == p.pick)
            .ok_or(format!("pick {} not in the registry at {n}", p.pick))?;
        let fastest = times.iter().find(|(_, t)| *t == best).map_or("?", |(name, _)| name.as_str());
        report.metric(
            &format!("planner.regret.n{n}"),
            pick / best,
            "ratio",
            format!("{} over {fastest} ({} engines timed)", p.pick, times.len()),
        );
    }
    Ok(())
}

/// Median per-call time of three blocks of at least 3 ms (a single
/// block for engines slower than 20 ms a call).
fn per_call_ns(engine: &mut dyn FftEngine, input: &[C64], out: &mut [C64]) -> Result<f64, String> {
    let mut blocks = Vec::new();
    engine.execute_into(input, out, Direction::Forward).map_err(|e| e.to_string())?;
    for _ in 0..3 {
        let start = Instant::now();
        let mut calls = 0u32;
        while calls < 3 || start.elapsed() < Duration::from_millis(3) {
            engine.execute_into(input, out, Direction::Forward).map_err(|e| e.to_string())?;
            calls += 1;
        }
        let per = start.elapsed().as_nanos() as f64 / f64::from(calls);
        blocks.push(per);
        if per > 20e6 {
            break;
        }
    }
    Ok(median(&blocks))
}

/// The four served channel shapes, planned exactly as `afft_net` plans
/// them.
fn served_channels() -> Result<Vec<(ChannelSpec, ChannelInfo)>, String> {
    let mut planner = Planner::new();
    let mut out = Vec::new();
    for (n, cp) in [(256usize, 64usize), (128, 32)] {
        let plan = planner.plan(n, Strategy::Estimate).map_err(|e| e.to_string())?;
        for (op, kind) in [
            (ChannelOp::Modulate { cp }, OpKind::Modulate),
            (ChannelOp::Demodulate { cp }, OpKind::Demodulate),
        ] {
            let spec = ChannelSpec::from_plan(&plan, op);
            let info = ChannelInfo {
                index: out.len() as u16,
                n: n as u32,
                input_len: spec.input_len() as u32,
                output_len: spec.output_len() as u32,
                kind,
                cp: cp as u32,
                engine: spec.engine.clone(),
            };
            out.push((spec, info));
        }
    }
    Ok(out)
}

/// `ofdm.{modulate,demodulate}_ns.n{128,256}` and `ofdm.overhead_ns`;
/// returns the mean OFDM op time over the four served shapes.
fn ofdm_layer(
    report: &mut Report,
    tracer: &mut Tracer,
    rng: &mut Rng,
    core_ns: SizeTimes,
) -> Result<f64, String> {
    const CALLS: usize = 4000;
    let mut ops = Vec::new();
    let mut at256 = Vec::new();
    for (spec, info) in served_channels()?.into_iter().step_by(2) {
        let n = spec.n;
        let cp = info.cp as usize;
        let engine = afft_planner::take_engine(EngineRegistry::standard, n, &spec.engine)
            .map_err(|e| e.to_string())?;
        let mut modem = Ofdm::with_engine(engine, cp).map_err(|e| e.to_string())?;
        let sub = qpsk(rng, n);
        let mut tx = vec![Complex::zero(); n + cp];
        let mut bins = vec![Complex::zero(); n];
        for c in 0..CALLS {
            let t = tracer.now();
            modem.modulate_into(&sub, &mut tx).map_err(|e| e.to_string())?;
            tracer.record("ofdm.modulate_into", 0, c as u64, n, t);
            let t = tracer.now();
            modem.demodulate_into(&tx, &mut bins).map_err(|e| e.to_string())?;
            tracer.record("ofdm.demodulate_into", 0, c as u64, n, t);
        }
        let wrong = bins.iter().zip(&sub).any(|(g, w)| (*g - *w).abs() > 1e-9);
        report.tally(2 * CALLS as u64, u64::from(wrong), u64::from(wrong));
        for name in ["modulate", "demodulate"] {
            let span =
                if name == "modulate" { "ofdm.modulate_into" } else { "ofdm.demodulate_into" };
            let ns = median(&tracer.durations(span, Some(n)));
            report.metric(
                &format!("ofdm.{name}_ns.n{n}"),
                ns,
                "ns",
                format!("median of {CALLS} calls on {}", spec.engine),
            );
            ops.push(ns);
            if n == 256 {
                at256.push(ns);
            }
        }
    }
    let exec256 =
        core_ns.iter().find(|(n, _)| *n == 256).map(|(_, t)| *t).ok_or("no n256 core time")?;
    report.metric(
        "ofdm.overhead_ns",
        (at256[0] + at256[1]) / 2.0 - exec256,
        "ns",
        "mean WiMAX-256 modulate/demodulate minus core.execute_ns.n256",
    );
    Ok(ops.iter().sum::<f64>() / ops.len() as f64)
}

/// What the stream layer measured, for the net layer's deltas.
#[derive(Debug, Clone, Copy)]
struct StreamCost {
    roundtrip_w1: f64,
    symbol_saturated: f64,
}

/// `stream.roundtrip_ns.w1`, `stream.overhead_ns.w1` and
/// `stream.symbol_ns.saturated` on an in-process pipeline with the
/// server's four channels and worker count.
fn stream_layer(
    report: &mut Report,
    tracer: &mut Tracer,
    rng: &mut Rng,
    ofdm_ns: f64,
) -> Result<StreamCost, String> {
    const W1_SYMBOLS: u64 = 4000;
    const SATURATED_SYMBOLS: u64 = 40_000;
    let channels = served_channels()?;
    let infos: Vec<ChannelInfo> = channels.iter().map(|(_, i)| i.clone()).collect();
    let mix = Mix::new(&infos, rng, 16)?;
    let mut builder = StreamPipeline::builder(EngineRegistry::standard).workers(nproc());
    let ids: Vec<_> = channels.into_iter().map(|(spec, _)| builder.channel(spec)).collect();
    let pipeline = builder.build().map_err(|e| e.to_string())?;
    let depth = pipeline.queue_capacity();
    let mut pool: Vec<(Vec<C64>, Vec<C64>)> = Vec::new();
    let mut wrong = 0u64;

    let submit = |seq: u64, pool: &mut Vec<(Vec<C64>, Vec<C64>)>, tracer: &mut Tracer, parent| {
        let (ch, k) = mix.slot(seq);
        let (mut input, mut output) = pool.pop().unwrap_or_default();
        input.clear();
        input.extend_from_slice(&mix.inputs[ch][k]);
        output.resize(mix.channels[ch].output_len as usize, Complex::zero());
        let t = tracer.now();
        pipeline.submit(ids[ch], input, output).map_err(|e| format!("stream submit: {e:?}"))?;
        tracer.record("stream.submit", parent, seq, mix.channels[ch].n as usize, t);
        Ok::<(), String>(())
    };
    let mut recv = |seq: u64, pool: &mut Vec<(Vec<C64>, Vec<C64>)>, tracer: &mut Tracer, parent| {
        let (ch, _) = mix.slot(seq);
        let t = tracer.now();
        let done = pipeline.recv(ids[ch]).ok_or("stream recv: channel idle")?;
        tracer.record("stream.recv", parent, seq, mix.channels[ch].n as usize, t);
        if done.error.is_some() || !mix.check(seq, &done.output) {
            wrong += 1;
        }
        pool.push((done.input, done.output));
        Ok::<(), String>(())
    };

    let mut roundtrips = Vec::new();
    for seq in 0..W1_SYMBOLS {
        let frame = tracer.reserve();
        let start = Instant::now();
        let t = tracer.stamp(start);
        submit(seq, &mut pool, tracer, frame)?;
        recv(seq, &mut pool, tracer, frame)?;
        roundtrips.push(start.elapsed().as_nanos() as f64);
        let n = mix.channels[mix.slot(seq).0].n as usize;
        tracer.record_as(frame, "stream.symbol", 0, seq, n, t, tracer.now());
    }
    let start = Instant::now();
    let first = W1_SYMBOLS;
    for seq in first..first + SATURATED_SYMBOLS {
        if seq >= first + depth as u64 {
            recv(seq - depth as u64, &mut pool, tracer, 0)?;
        }
        submit(seq, &mut pool, tracer, 0)?;
    }
    for seq in first + SATURATED_SYMBOLS - depth as u64..first + SATURATED_SYMBOLS {
        recv(seq, &mut pool, tracer, 0)?;
    }
    let saturated = start.elapsed().as_nanos() as f64 / SATURATED_SYMBOLS as f64;
    report.tally(W1_SYMBOLS + SATURATED_SYMBOLS, wrong, wrong);

    let roundtrip_w1 = median(&roundtrips);
    report.metric(
        "stream.roundtrip_ns.w1",
        roundtrip_w1,
        "ns",
        format!("median submit+recv of {W1_SYMBOLS} symbols, {} workers", pipeline.worker_count()),
    );
    report.metric(
        "stream.overhead_ns.w1",
        roundtrip_w1 - ofdm_ns,
        "ns",
        "roundtrip minus mean OFDM op",
    );
    report.metric(
        "stream.symbol_ns.saturated",
        saturated,
        "ns",
        format!("wall per symbol, {SATURATED_SYMBOLS} symbols at window {depth}"),
    );
    Ok(StreamCost { roundtrip_w1, symbol_saturated: saturated })
}

/// The `net.*` metrics and the stream stage p50s from the server's
/// STATS document.
fn net_layer(
    args: &Args,
    report: &mut Report,
    tracer: &mut Tracer,
    rng: &mut Rng,
    stream: StreamCost,
) -> Result<(), String> {
    let (child, mut client) = start_server(args, None)?;
    let mix = Arc::new(Mix::new(client.channels(), rng, 16)?);
    let mut seq = 0;
    let w1 =
        Window { warm: Duration::from_millis(200), slice: Duration::from_millis(600), slices: 1 };
    let pass = serve::run_window1(&mut client, &mix, &w1, &mut seq, tracer)?;
    report.tally(pass.sent, pass.failed(), pass.mismatched);
    let roundtrip = median(&pass.latency_ns);
    report.metric(
        "net.roundtrip_ns.w1",
        roundtrip,
        "ns",
        format!("median of {} frames at window 1", pass.latency_ns.len()),
    );
    report.metric(
        "net.overhead_ns.w1",
        roundtrip - stream.roundtrip_w1,
        "ns",
        "net roundtrip minus stream roundtrip, window 1",
    );

    tracer.budget(PHASE_SPAN_CAP);
    let w16 =
        Window { warm: Duration::from_millis(200), slice: Duration::from_millis(1500), slices: 1 };
    let cpu0 = child.cpu_s().ok_or("cannot read the server's CPU time")?;
    let (pass, _) = serve::run_windowed(client.split(), &mix, BULK_WINDOW, &w16, &mut seq, tracer)?;
    let cpu = child.cpu_s().ok_or("cannot read the server's CPU time")? - cpu0;
    report.tally(pass.sent, pass.failed(), pass.mismatched);
    let symbols = pass.slice_symbols[0].max(1) as f64;
    let symbol_ns = pass.slice_s * 1e9 / symbols;
    report.metric(
        "net.symbol_ns.w16",
        symbol_ns,
        "ns",
        format!("wall per symbol, {symbols} symbols at window {BULK_WINDOW}"),
    );
    report.metric(
        "net.overhead_ns.w16",
        symbol_ns - stream.symbol_saturated,
        "ns",
        "net window 16 minus stream saturated",
    );
    report.metric(
        "net.server_cpu_us_per_symbol",
        cpu * 1e6 / pass.sent.max(1) as f64,
        "us",
        format!("server utime+stime {cpu:.2} s over {} frames (warm-up included)", pass.sent),
    );
    stats_doc_metrics(report, &pass.stats_json)?;
    drop(child);
    Ok(())
}

/// `net.shed_ratio` and `stream.*_p50_ns` from a STATS document.
fn stats_doc_metrics(report: &mut Report, doc: &str) -> Result<(), String> {
    let v = json::parse(doc).map_err(|e| format!("STATS document: {e}"))?;
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::num).ok_or(format!("STATS lacks {k}"));
    let frames = num(&v, "frames_in")?;
    report.metric(
        "net.shed_ratio",
        num(&v, "shed")? / frames.max(1.0),
        "ratio",
        format!("shed over {frames} frames_in, whole server life"),
    );
    let channels = v
        .get("pipeline")
        .and_then(|p| p.get("channels"))
        .ok_or("STATS lacks channel histograms")?;
    for (stage, key) in [
        ("queue_wait", "queue_wait"),
        ("transform", "transform"),
        ("reorder_park", "reorder_park"),
        ("deliver", "latency"),
    ] {
        let (mut weighted, mut count) = (0.0, 0.0);
        for ch in channels.arr() {
            let h = ch.get(key).ok_or(format!("STATS lacks {key}"))?;
            let c = num(h, "count")?;
            if let Some(p50) = h.get("p50_ns").and_then(Value::num) {
                weighted += p50 * c;
                count += c;
            }
        }
        report.metric(
            &format!("stream.{stage}_p50_ns"),
            weighted / count.max(1.0),
            "ns",
            format!("sample-weighted channel p50 over {count} sampled symbols (1 in 8)"),
        );
    }
    Ok(())
}

/// `asip.*`, `baselines.*`, `sim.host_ns_per_cycle` and
/// `planner.asip_model_ratio.n1024`.
fn asip_layer(report: &mut Report, tracer: &mut Tracer, rng: &mut Rng) -> Result<(), String> {
    let (_, built) = asip::build(1)?;
    let mut iss = asip::Iss::new(built, rng);
    let run = asip::run(&mut iss, Duration::ZERO, Duration::from_millis(800), &mut 0, tracer);
    report.tally(run.attempted, run.failed, run.failed);
    for (n, cycles) in &run.cycles {
        report.metric(
            &format!("asip.cycles.n{n}"),
            *cycles as f64,
            "cycles",
            "ISS cycles through AsipEngine",
        );
    }
    let s = run.stats1024.ok_or("no 1024-point ISS run")?;
    report.metric(
        "asip.cpi.n1024",
        s.cpi(),
        "ratio",
        format!("{} cycles / {} instructions", s.cycles, s.instrs),
    );
    report.metric(
        "asip.coef_fetches.n1024",
        s.coef_fetches as f64,
        "count",
        "coefficient ROM fetches",
    );
    report.metric("asip.cache_misses.n1024", s.cache_misses() as f64, "count", "data-cache misses");
    let t2 = asip::table2(rng, tracer)?;
    report.tally(1, u64::from(!t2.software_ok), u64::from(!t2.software_ok));
    report.metric(
        "baselines.ti_speedup.n1024",
        t2.ti_cycles as f64 / s.cycles as f64,
        "ratio",
        format!("TI model {} cycles over ISS {}", t2.ti_cycles, s.cycles),
    );
    report.metric(
        "baselines.xtensa_speedup.n1024",
        t2.xtensa_cycles as f64 / s.cycles as f64,
        "ratio",
        format!("Xtensa model {} cycles over ISS {}", t2.xtensa_cycles, s.cycles),
    );
    let (_, _, cycles) = run.per_sweep();
    report.metric(
        "sim.host_ns_per_cycle",
        min(&run.sweep_ns) / cycles.max(1) as f64,
        "ns",
        format!("fastest of {} sweeps of {cycles} simulated cycles", run.sweep_ns.len()),
    );
    let plan = Planner::with_factory(registry_with_asip)
        .plan(1024, Strategy::Estimate)
        .map_err(|e| e.to_string())?;
    let model = plan
        .ranking
        .iter()
        .find_map(|r| (r.name == "asip_iss").then_some(r.modeled_cycles).flatten())
        .ok_or("the Estimate plan has no asip_iss cycle model")?;
    report.metric(
        "planner.asip_model_ratio.n1024",
        model as f64 / s.cycles as f64,
        "ratio",
        format!("closed form {model} over ISS {}", s.cycles),
    );
    Ok(())
}
