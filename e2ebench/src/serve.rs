//! The serving side of the benchmark: the shipped `afft_net` binary as
//! a child process, an in-process reference for every channel it
//! advertises, and closed-loop clients at window 1 and window W.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use afft_core::engine::EngineRegistry;
use afft_core::ofdm::Ofdm;
use afft_net::{ChannelInfo, NetClient, NetEvent, NetReceiver, NetSender, OpKind};
use afft_num::C64;
use afft_planner::take_engine;

use crate::trace::Tracer;
use crate::{qpsk, Rng, CLEARED_ENV};

/// Largest element-wise deviation a served result may show from the
/// in-process reference.
pub const SERVE_TOLERANCE: f64 = 1e-9;

/// The server binary running as a child process.
#[derive(Debug)]
pub struct ServerChild {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    // Held so the child never sees a closed stdout.
    _stdout: BufReader<ChildStdout>,
}

impl ServerChild {
    /// Starts `afft_net` on an ephemeral loopback port with `workers`
    /// pipeline workers and every other setting at its default, with
    /// the library's tuning variables cleared from its environment.
    ///
    /// # Errors
    ///
    /// Spawn failure, or a first output line without the bound address.
    pub fn spawn(bin: &Path, workers: usize) -> Result<Self, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for var in CLEARED_ENV {
            cmd.env_remove(var);
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("afft_net serving on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerChild { child, addr, _stdout: stdout }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("afft_net did not report its address (first line {line:?})"))
            }
        }
    }

    /// Peak resident set (`VmHWM`) of the child, MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        proc_peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// User plus system CPU time the child has used, seconds.
    pub fn cpu_s(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line, in clock ticks
        // (USER_HZ, 100 on Linux).
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 =
            fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
        Some(ticks as f64 / 100.0)
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/*/status` file, MiB.
pub fn proc_peak_rss_mb(path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Seeded inputs and their expected outputs for every served channel.
#[derive(Debug)]
pub struct Mix {
    /// The channel table HELLO advertised.
    pub channels: Vec<ChannelInfo>,
    /// `inputs[channel][k]`.
    pub inputs: Vec<Vec<Vec<C64>>>,
    /// `expected[channel][k]`, computed in process on the engine HELLO
    /// names.
    pub expected: Vec<Vec<Vec<C64>>>,
}

impl Mix {
    /// Builds `per_channel` seeded inputs per channel and computes each
    /// expected output with `Ofdm::with_engine` on the engine the server
    /// named.
    ///
    /// # Errors
    ///
    /// A channel that is not an OFDM modulator or demodulator, or an
    /// engine the in-process registry cannot build.
    pub fn new(
        channels: &[ChannelInfo],
        rng: &mut Rng,
        per_channel: usize,
    ) -> Result<Self, String> {
        let mut inputs = Vec::new();
        let mut expected = Vec::new();
        for info in channels {
            let n = info.n as usize;
            let cp = info.cp as usize;
            let engine = take_engine(EngineRegistry::standard, n, &info.engine)
                .map_err(|e| format!("reference engine {} at n={n}: {e}", info.engine))?;
            if !matches!(info.kind, OpKind::Modulate | OpKind::Demodulate) {
                return Err(format!(
                    "channel {} is {:?}, not an OFDM channel",
                    info.index, info.kind
                ));
            }
            let mut modem = Ofdm::with_engine(engine, cp).map_err(|e| e.to_string())?;
            let mut ins = Vec::new();
            let mut outs = Vec::new();
            for _ in 0..per_channel {
                let sub = qpsk(rng, n);
                let tx = modem.modulate(&sub).map_err(|e| e.to_string())?;
                if info.kind == OpKind::Modulate {
                    ins.push(sub);
                    outs.push(tx);
                } else {
                    outs.push(modem.demodulate(&tx).map_err(|e| e.to_string())?);
                    ins.push(tx);
                }
            }
            inputs.push(ins);
            expected.push(outs);
        }
        Ok(Mix { channels: channels.to_vec(), inputs, expected })
    }

    /// The channel and input index frame `seq` uses: channels
    /// round-robin, inputs cycling within each channel.
    pub fn slot(&self, seq: u64) -> (usize, usize) {
        let c = self.channels.len() as u64;
        let ch = (seq % c) as usize;
        (ch, ((seq / c) % self.inputs[ch].len() as u64) as usize)
    }

    /// Whether a served result matches the reference for frame `seq`.
    pub fn check(&self, seq: u64, samples: &[C64]) -> bool {
        let (ch, k) = self.slot(seq);
        let want = &self.expected[ch][k];
        want.len() == samples.len()
            && samples.iter().zip(want).all(|(g, w)| (*g - *w).abs() <= SERVE_TOLERANCE)
    }
}

/// What one closed-loop pass saw.
#[derive(Debug, Default)]
pub struct Pass {
    /// Frames submitted (warm-up included).
    pub sent: u64,
    /// `RETRY_AFTER` answers.
    pub retried: u64,
    /// `ERROR` answers.
    pub errors: u64,
    /// Results that did not match.
    pub mismatched: u64,
    /// Submit-to-result latency of frames answered inside the timed
    /// window, ns.
    pub latency_ns: Vec<f64>,
    /// The timed slice each latency sample fell in.
    pub latency_slice: Vec<usize>,
    /// Results per timed slice.
    pub slice_symbols: Vec<u64>,
    /// Subcarriers (N) per timed slice, summed over its results.
    pub slice_points: Vec<u64>,
    /// Length of one slice, seconds.
    pub slice_s: f64,
    /// The STATS document the server returned right after the window.
    pub stats_json: String,
}

impl Pass {
    /// Answers that were not a correct result.
    pub fn failed(&self) -> u64 {
        self.retried + self.errors + self.mismatched
    }

    /// Counts one answer; `expect` is the seq it must carry, when known.
    /// Returns whether it was a correct result.
    fn note(&mut self, mix: &Mix, expect: Option<u64>, ev: NetEvent) -> bool {
        match ev {
            NetEvent::Result { seq: s, samples, .. } if expect.is_none_or(|e| e == s) => {
                let good = mix.check(s, &samples);
                self.mismatched += u64::from(!good);
                good
            }
            NetEvent::Result { .. } => {
                self.mismatched += 1;
                false
            }
            NetEvent::RetryAfter { .. } => {
                self.retried += 1;
                false
            }
            NetEvent::ServerError { .. } | NetEvent::Stats { .. } => {
                self.errors += 1;
                false
            }
        }
    }
}

/// Timing of one pass: a warm-up, then `slices` slices of `slice`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Untimed lead-in.
    pub warm: Duration,
    /// Length of one timed slice.
    pub slice: Duration,
    /// Number of timed slices.
    pub slices: usize,
}

impl Window {
    fn bucket(&self, t0: Instant, at: Instant) -> Option<usize> {
        let since = at.checked_duration_since(t0)?;
        let b = (since.as_secs_f64() / self.slice.as_secs_f64()) as usize;
        (b < self.slices).then_some(b)
    }
}

fn new_pass(win: &Window) -> Pass {
    Pass {
        slice_symbols: vec![0; win.slices],
        slice_points: vec![0; win.slices],
        slice_s: win.slice.as_secs_f64(),
        ..Pass::default()
    }
}

/// Asks for STATS and reads the answer (nothing else is in flight).
fn await_stats(client: &mut NetClient, seq: u64) -> Result<String, String> {
    client.request_stats(seq).map_err(|e| e.to_string())?;
    match client.recv_event().map_err(|e| e.to_string())? {
        NetEvent::Stats { json } => Ok(json),
        other => Err(format!("expected the STATS answer, got {other:?}")),
    }
}

/// One frame in flight: submit, wait for its answer, repeat. Frame
/// sequence numbers continue from `*next_seq`.
///
/// # Errors
///
/// Socket failures.
pub fn run_window1(
    client: &mut NetClient,
    mix: &Mix,
    win: &Window,
    next_seq: &mut u64,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let mut pass = new_pass(win);
    let start = Instant::now();
    let t0 = start + win.warm;
    let end = t0 + win.slice * win.slices as u32;
    loop {
        let sent_at = Instant::now();
        if sent_at >= end {
            break;
        }
        let seq = *next_seq;
        *next_seq += 1;
        let (ch, k) = mix.slot(seq);
        let frame = tracer.reserve();
        let t_sub = tracer.stamp(sent_at);
        client.submit(ch as u16, seq, &mix.inputs[ch][k]).map_err(|e| e.to_string())?;
        tracer.record("net.submit", frame, seq, mix.channels[ch].n as usize, t_sub);
        let t_recv = tracer.now();
        let ev = client.recv_event().map_err(|e| e.to_string())?;
        let done = Instant::now();
        pass.sent += 1;
        let good = pass.note(mix, Some(seq), ev);
        if tracer.enabled() {
            let n = mix.channels[ch].n as usize;
            let id = tracer.reserve();
            tracer.record_as(id, "net.recv_event", frame, seq, n, t_recv, tracer.stamp(done));
            tracer.record_as(frame, "net.frame", 0, seq, n, t_sub, tracer.stamp(done));
        }
        if let (true, Some(b)) = (good, win.bucket(t0, done)) {
            if sent_at >= t0 {
                pass.latency_ns.push(done.duration_since(sent_at).as_nanos() as f64);
                pass.latency_slice.push(b);
            }
            pass.slice_symbols[b] += 1;
            pass.slice_points[b] += u64::from(mix.channels[ch].n);
        }
    }
    pass.stats_json = await_stats(client, u64::MAX)?;
    Ok(pass)
}

/// `window` frames in flight on one connection, split into a sender
/// and a receiver thread (the halves of one [`NetClient::split`]). The
/// sender stops at the end of the window and asks for STATS; the
/// receiver drains every answer still owed.
///
/// # Errors
///
/// Socket failures.
pub fn run_windowed(
    (mut tx, mut rx): (NetSender, NetReceiver),
    mix: &Arc<Mix>,
    window: usize,
    win: &Window,
    next_seq: &mut u64,
    tracer: &mut Tracer,
) -> Result<(Pass, (NetSender, NetReceiver)), String> {
    const RING: usize = 4096;
    assert!(window < RING, "window {window} exceeds the timestamp ring");
    let sent_at: Arc<Vec<AtomicU64>> = Arc::new((0..RING).map(|_| AtomicU64::new(0)).collect());
    let final_sent = Arc::new(AtomicU64::new(u64::MAX));
    let failed = Arc::new(AtomicBool::new(false));
    let (tok_tx, tok_rx) = mpsc::sync_channel::<()>(window);
    for _ in 0..window {
        tok_tx.send(()).expect("token channel open");
    }
    let base = Instant::now();
    let t0 = base + win.warm;
    let end = t0 + win.slice * win.slices as u32;
    let first_seq = *next_seq;
    let mut sender_tracer = Tracer::new(tracer.epoch(), tracer.enabled());
    sender_tracer.budget(tracer.room() / 3);

    let sender = {
        let mix = Arc::clone(mix);
        let sent_at = Arc::clone(&sent_at);
        let final_sent = Arc::clone(&final_sent);
        let failed = Arc::clone(&failed);
        let mut seq = first_seq;
        std::thread::spawn(move || {
            let mut result = Ok(());
            while tok_rx.recv().is_ok() {
                let now = Instant::now();
                if now >= end || failed.load(Ordering::SeqCst) {
                    break;
                }
                let (ch, k) = mix.slot(seq);
                sent_at[seq as usize % RING]
                    .store(now.duration_since(base).as_nanos() as u64, Ordering::SeqCst);
                let t_sub = sender_tracer.stamp(now);
                if let Err(e) = tx.submit(ch as u16, seq, &mix.inputs[ch][k]) {
                    result = Err(e.to_string());
                    break;
                }
                sender_tracer.record("net.submit", 0, seq, mix.channels[ch].n as usize, t_sub);
                seq += 1;
            }
            final_sent.store(seq - first_seq, Ordering::SeqCst);
            if result.is_ok() {
                result = tx.request_stats(u64::MAX).map_err(|e| e.to_string());
            }
            (result, tx, sender_tracer)
        })
    };

    let mut pass = new_pass(win);
    let mut received = 0u64;
    let mut stats_seen = false;
    let mut recv_err = None;
    while !(stats_seen && received >= final_sent.load(Ordering::SeqCst)) {
        let t_recv = tracer.now();
        let ev = match rx.recv_event() {
            Ok(ev) => ev,
            Err(e) => {
                recv_err = Some(e.to_string());
                failed.store(true, Ordering::SeqCst);
                let _ = tok_tx.try_send(());
                break;
            }
        };
        let done = Instant::now();
        if let NetEvent::Stats { json } = ev {
            pass.stats_json = json;
            stats_seen = true;
            continue;
        }
        let (seq, n) = match &ev {
            NetEvent::Result { seq, .. }
            | NetEvent::RetryAfter { seq, .. }
            | NetEvent::ServerError { seq, .. } => {
                (*seq, mix.channels[mix.slot(*seq).0].n as usize)
            }
            NetEvent::Stats { .. } => unreachable!("handled above"),
        };
        let good = pass.note(mix, None, ev);
        received += 1;
        let sent_ns = sent_at[seq as usize % RING].load(Ordering::SeqCst);
        let sent = base + Duration::from_nanos(sent_ns);
        if tracer.enabled() {
            let frame = tracer.reserve();
            let id = tracer.reserve();
            tracer.record_as(id, "net.recv_event", frame, seq, n, t_recv, tracer.stamp(done));
            tracer.record_as(frame, "net.frame", 0, seq, n, tracer.stamp(sent), tracer.stamp(done));
        }
        if let (true, Some(b)) = (good, win.bucket(t0, done)) {
            if sent >= t0 {
                pass.latency_ns.push(done.duration_since(sent).as_nanos() as f64);
                pass.latency_slice.push(b);
            }
            pass.slice_symbols[b] += 1;
            pass.slice_points[b] += n as u64;
        }
        // The sender may already have stopped; a full or closed token
        // channel is fine.
        let _ = tok_tx.try_send(());
    }
    drop(tok_tx);
    let (result, tx, sender_tracer) = sender.join().map_err(|_| "sender thread panicked")?;
    result?;
    if let Some(e) = recv_err {
        return Err(e);
    }
    tracer.absorb(sender_tracer);
    pass.sent = final_sent.load(Ordering::SeqCst);
    *next_seq = first_seq + pass.sent;
    Ok((pass, (tx, rx)))
}
