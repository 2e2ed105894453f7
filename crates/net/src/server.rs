//! The serving side: a TCP listener whose connections feed a shared
//! [`StreamPipeline`].
//!
//! # Thread shape
//!
//! One **accept thread** blocks in `accept`; each connection gets a
//! **handler thread** that reads frames through a buffered reader, and
//! that removes its own join handle from the server's list as it
//! exits, so the list holds open connections only.
//!
//! A frame runs in one of two places:
//!
//! * **On the handler thread**, when it is its connection's only
//!   unanswered frame: nothing further sits in the handler's buffered
//!   reader and none of the connection's frames are in the pool. The
//!   handler calls [`StreamPipeline::try_run`] and writes the reply
//!   itself, so a window-1 frame crosses two thread hops (client →
//!   handler → client) instead of four. Such a frame never counts
//!   toward [`max_conn_outstanding`](NetServerBuilder::max_conn_outstanding):
//!   it is answered before the handler reads on.
//! * **On the worker pool**, otherwise — a pipelined frame, or a lone
//!   one whose channel has another connection's symbols outstanding
//!   ([`SubmitError::Busy`]). The handler submits it with
//!   `try_submit`, and one **delivery thread** answers it. That thread
//!   drains the pipeline with [`StreamPipeline::recv_ready`], which
//!   hands over every completion any channel has ready in one pass,
//!   groups the drain's replies by connection, and writes each group
//!   with a single `write_all`. A batch is simply whatever is ready, so
//!   there is no batch size to tune.
//!
//! Handlers and the delivery thread meet at a per-channel *pending map*
//! (pipeline seq → submitting connection): the handler inserts under
//! the map's lock **around** the `try_submit` call, so a completion can
//! never be routed before its origin is recorded. Frames run on the
//! handler thread never enter the map.
//!
//! # Backpressure = load-shedding
//!
//! A full pipeline budget ([`SubmitError::QueueFull`]) or a connection
//! over its outstanding-frames cap is answered with a `RETRY_AFTER`
//! frame instead of queueing unboundedly — the symbol is *not* accepted
//! and its buffers go straight back to the channel's pool. Every frame
//! the pipeline *does* accept is answered eventually: a `RESULT`, an
//! `ERROR` carrying the backend's verdict, or — if a backend panic
//! poisons the pipeline — an `ERROR`, from the handler for the frame
//! it was running and from the delivery thread for pooled frames. A
//! poisoned server keeps its connections open and answers every later
//! frame with `ERROR`.
//!
//! # Buffer recycling
//!
//! Payload buffers travel with the job and come back in the completion
//! (the stream crate's own contract); whichever thread answers the
//! frame returns them to a per-channel pool the handlers draw from, and
//! handlers and the delivery thread keep their reply buffers from frame
//! to frame, so the steady-state per-frame path allocates nothing.
//!
//! # Graceful drain
//!
//! [`NetServer::shutdown`] stops accepting (waking the blocked accept
//! with one loopback connect of its own), closes the pipeline intake
//! (late frames are answered with `ERROR`), lets every handler drain
//! the frames already buffered on its socket and joins it, and only
//! then lets the delivery thread finish: it exits once no handler is
//! left to submit and every accepted completion has been written, so
//! accepted work is never dropped on the floor.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use afft_core::Direction;
use afft_num::{Complex, C64};
use afft_obs::json;
use afft_planner::RegistryFactory;
use afft_stream::{
    ChannelId, ChannelOp, ChannelSpec, Completion, RecvError, StreamPipeline, StreamStats,
    SubmitError,
};

use crate::proto::{
    self, ChannelInfo, Header, OpKind, BYTES_PER_SAMPLE, HEADER_LEN, OP_ERROR, OP_HELLO, OP_RESULT,
    OP_RETRY_AFTER, OP_STATS, OP_STATS_JSON, OP_SUBMIT,
};

/// The retry hint, in milliseconds, every `RETRY_AFTER` frame carries.
pub const RETRY_AFTER_MS: u32 = 10;
/// How often blocked reads and waits re-check the shutdown flag.
const POLL_TICK: Duration = Duration::from_millis(50);
/// Cap on pooled buffer pairs per channel — enough to cover the whole
/// submission budget without letting a burst pin memory forever.
const POOL_CAP: usize = 64;
/// Per-connection read buffer: one `read` call takes in several
/// pipelined frames (a WiMAX-256 demodulate frame is about 5 KiB).
const READ_BUF: usize = 32 * 1024;
/// The `ERROR` text for frames a backend panic left unanswerable.
const POISONED: &str = "pipeline poisoned by a backend panic";

/// Configures and launches a [`NetServer`]. Obtained from
/// [`NetServer::builder`].
#[derive(Debug)]
pub struct NetServerBuilder {
    factory: RegistryFactory,
    specs: Vec<ChannelSpec>,
    workers: usize,
    queue_depth: usize,
    max_conn_outstanding: u64,
}

impl NetServerBuilder {
    /// Worker-pool size for the underlying pipeline (see
    /// [`afft_stream::StreamBuilder::workers`]).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Pipeline-wide submission budget; a full budget is what turns
    /// into `RETRY_AFTER` frames (see
    /// [`afft_stream::StreamBuilder::queue_depth`]).
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Per-connection cap on accepted-but-unanswered frames; a
    /// connection at its cap is shed with `RETRY_AFTER` even when the
    /// pipeline has budget, so one slow reader cannot monopolise the
    /// pool or balloon the server's reply backlog.
    #[must_use]
    pub fn max_conn_outstanding(mut self, frames: u64) -> Self {
        self.max_conn_outstanding = frames.max(1);
        self
    }

    /// Registers a serving channel; returns its **wire** index (the
    /// protocol's `channel` field, advertised in `HELLO`).
    pub fn channel(&mut self, spec: ChannelSpec) -> u16 {
        self.specs.push(spec);
        (self.specs.len() - 1) as u16
    }

    /// Builds the pipeline, binds `addr` (e.g. `"127.0.0.1:0"` for an
    /// ephemeral port), and spawns the accept and delivery threads.
    ///
    /// # Errors
    ///
    /// Any pipeline construction error (bad channel spec, unknown
    /// engine) mapped to [`std::io::Error`], or the bind failure
    /// itself.
    pub fn serve(self, addr: &str) -> std::io::Result<NetServer> {
        let mut builder = StreamPipeline::builder(self.factory)
            .workers(self.workers)
            .queue_depth(self.queue_depth);
        let mut channels = Vec::with_capacity(self.specs.len());
        let mut infos = Vec::with_capacity(self.specs.len());
        for (i, spec) in self.specs.iter().enumerate() {
            channels.push(builder.channel(spec.clone()));
            let (kind, cp) = match spec.op {
                ChannelOp::Transform(Direction::Forward) => (OpKind::Forward, 0),
                ChannelOp::Transform(Direction::Inverse) => (OpKind::Inverse, 0),
                ChannelOp::Modulate { cp } => (OpKind::Modulate, cp),
                ChannelOp::Demodulate { cp } => (OpKind::Demodulate, cp),
            };
            infos.push(ChannelInfo {
                index: i as u16,
                n: spec.n as u32,
                input_len: spec.input_len() as u32,
                output_len: spec.output_len() as u32,
                kind,
                cp: cp as u32,
                engine: spec.engine.clone(),
            });
        }
        let pipeline = builder.build().map_err(std::io::Error::other)?;

        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let hello = proto::encode_hello(&infos);
        let shared = Arc::new(ServerShared {
            pipeline,
            channels,
            chan: infos.iter().map(|_| ChanState::default()).collect(),
            infos,
            hello,
            shutdown: AtomicBool::new(false),
            handlers_joined: AtomicBool::new(false),
            handlers: Arc::new(Mutex::new(Vec::new())),
            max_conn_outstanding: self.max_conn_outstanding,
            connections_live: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        });

        let delivery = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || delivery_loop(&shared))
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };

        Ok(NetServer { shared, accept, delivery, local_addr })
    }
}

/// The running server: owns the accept/delivery/handler threads and the
/// pipeline they share. See the [module docs](self) for the thread
/// shape and guarantees.
#[derive(Debug)]
pub struct NetServer {
    shared: Arc<ServerShared>,
    accept: JoinHandle<()>,
    delivery: JoinHandle<()>,
    local_addr: SocketAddr,
}

impl NetServer {
    /// Starts configuring a server over a registry factory (the same
    /// entry point the pipeline itself uses).
    pub fn builder(factory: RegistryFactory) -> NetServerBuilder {
        NetServerBuilder {
            factory,
            specs: Vec::new(),
            workers: 4,
            queue_depth: 64,
            max_conn_outstanding: 64,
        }
    }

    /// The bound address — with an ephemeral bind (`:0`), where clients
    /// should actually connect.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The admin stats document (the same JSON a `STATS` frame
    /// returns): server-level counters plus the full pipeline
    /// [`StreamStats::to_json`] snapshot, per-channel stage histograms
    /// included.
    pub fn stats_json(&self) -> String {
        admin_stats_json(&self.shared)
    }

    /// Graceful drain: stop accepting, close the pipeline intake (late
    /// frames are answered with `ERROR`), let handlers flush what their
    /// sockets already buffered and join them, then let the delivery
    /// thread answer every accepted frame and join it. Returns the
    /// pipeline's final stats. Connections close once their last
    /// response is written.
    pub fn shutdown(self) -> StreamStats {
        let NetServer { shared, accept, delivery, local_addr } = self;
        shared.shutdown.store(true, Ordering::SeqCst);
        // The accept thread is blocked in `accept`: a connect of our own
        // wakes it to see the flag. Should even that connect fail (the
        // process out of descriptors, say), the thread is left to exit on
        // the next connection rather than hang the drain.
        if TcpStream::connect(loopback(local_addr)).is_ok() {
            let _ = accept.join();
        }
        // No new connections. Close the intake so frames still arriving
        // get a definitive ERROR instead of an accept they can't have.
        shared.pipeline.close();
        let handlers = std::mem::take(&mut *shared.handlers.lock().expect("handler list poisoned"));
        for h in handlers {
            let _ = h.join();
        }
        // Handlers are gone, so nothing submits any more: the delivery
        // thread may exit once everything accepted is answered.
        shared.handlers_joined.store(true, Ordering::SeqCst);
        delivery.thread().unpark();
        let _ = delivery.join();
        // Everything accepted was delivered; the final snapshot is the
        // report. The pipeline itself is joined by its own Drop —
        // which, unlike StreamPipeline::shutdown, tolerates a poisoned
        // pool instead of re-raising the worker's panic.
        shared.pipeline.stats()
    }
}

/// Everything the accept, handler, and delivery threads share.
struct ServerShared {
    pipeline: StreamPipeline,
    /// Pipeline handles, index-aligned with `infos` and `chan`.
    channels: Vec<ChannelId>,
    infos: Vec<ChannelInfo>,
    /// Pre-encoded `HELLO` payload, one copy for every connection.
    hello: Vec<u8>,
    chan: Vec<ChanState>,
    shutdown: AtomicBool,
    /// Set by [`NetServer::shutdown`] once every handler is joined: no
    /// submission can happen after it, so a drained pipeline is final.
    handlers_joined: AtomicBool,
    /// Handler threads of open connections; each handler removes its
    /// own handle as it exits.
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    max_conn_outstanding: u64,
    /// Connections open right now.
    connections_live: AtomicU64,
    /// Connections accepted over the server's life.
    connections_accepted: AtomicU64,
    frames_in: AtomicU64,
    shed: AtomicU64,
    protocol_errors: AtomicU64,
}

impl core::fmt::Debug for ServerShared {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ServerShared").finish_non_exhaustive()
    }
}

/// Per-channel rendezvous between handlers and the delivery thread.
#[derive(Default)]
struct ChanState {
    /// pipeline seq → submitting connection. A handler inserts under
    /// this lock *around* its `try_submit`, so the delivery thread
    /// (which removes under the same lock) can never see a completion
    /// whose origin is not yet recorded.
    pending: Mutex<HashMap<u64, Pending>>,
    /// Recycled `(input, output)` buffer pairs.
    pool: Mutex<Vec<(Vec<C64>, Vec<C64>)>>,
}

/// Where an accepted symbol's answer must go.
struct Pending {
    writer: Arc<ConnWriter>,
    client_seq: u64,
}

/// The write half of a connection, shared by its handler and the
/// delivery thread. The mutex keeps frames atomic on the wire; `dead`
/// latches the first write failure so a vanished client costs at most
/// one failed write per pending answer.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    outstanding: AtomicU64,
    dead: AtomicBool,
}

impl ConnWriter {
    /// Writes already-encoded frames with one `write_all`.
    fn send_frames(&self, frames: &[u8]) {
        if self.dead.load(Ordering::SeqCst) {
            return;
        }
        let mut stream = self.stream.lock().expect("connection writer poisoned");
        if stream.write_all(frames).is_err() {
            self.dead.store(true, Ordering::SeqCst);
        }
    }

    fn send(&self, op: u8, channel: u16, seq: u64, payload: &[u8]) {
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        proto::put_frame(&mut frame, op, channel, seq, payload);
        self.send_frames(&frame);
    }

    fn send_error(&self, channel: u16, seq: u64, message: &str) {
        self.send(OP_ERROR, channel, seq, message.as_bytes());
    }
}

/// Outcome of a polled exact-length read.
enum ReadStatus {
    /// The buffer is full.
    Done,
    /// Clean EOF on a frame boundary (before the first byte).
    Eof,
    /// The peer died mid-frame.
    TruncatedEof,
    /// The shutdown flag was raised while waiting for bytes.
    Shutdown,
}

/// Reads exactly `buf.len()` bytes from a (buffered) socket whose read
/// timeout is [`POLL_TICK`], retrying timeout ticks so a frame split
/// across packets is never mis-framed — but bailing out once shutdown
/// is raised and the socket has gone quiet (anything already buffered
/// keeps draining: a tick only fires when no bytes are ready).
fn poll_read_exact(
    reader: &mut impl Read,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> std::io::Result<ReadStatus> {
    let mut at = 0;
    while at < buf.len() {
        match reader.read(&mut buf[at..]) {
            Ok(0) => return Ok(if at == 0 { ReadStatus::Eof } else { ReadStatus::TruncatedEof }),
            Ok(k) => at += k,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(ReadStatus::Shutdown);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadStatus::Done)
}

/// Where a connect reaches a listener bound to `addr`: the address
/// itself, with an unspecified bind (`0.0.0.0`, `[::]`) mapped to
/// loopback.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        let ip: IpAddr =
            if addr.is_ipv4() { Ipv4Addr::LOCALHOST.into() } else { Ipv6Addr::LOCALHOST.into() };
        addr.set_ip(ip);
    }
    addr
}

/// Blocks in `accept` and gives each connection a handler thread, until
/// [`NetServer::shutdown`] raises the flag and wakes the accept with a
/// connect of its own, which is recognised by the flag and neither
/// served nor counted.
fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _peer)) = accepted else {
            // A transient failure (out of descriptors, say): back off a
            // tick instead of spinning on it.
            std::thread::sleep(POLL_TICK);
            continue;
        };
        shared.connections_accepted.fetch_add(1, Ordering::SeqCst);
        shared.connections_live.fetch_add(1, Ordering::SeqCst);
        // Spawn and push under the list lock, so a handler that exits at
        // once still finds its handle to remove.
        let mut handlers = shared.handlers.lock().expect("handler list poisoned");
        let conn_shared = Arc::clone(shared);
        let list = Arc::clone(&shared.handlers);
        handlers.push(std::thread::spawn(move || {
            let _ = handle_conn(&conn_shared, stream);
            conn_shared.connections_live.fetch_sub(1, Ordering::SeqCst);
            // Let go of the server first: once its handle is off the
            // list, shutdown no longer joins this thread, so it must not
            // be what keeps the server alive.
            drop(conn_shared);
            let me = std::thread::current().id();
            let mut handlers = list.lock().expect("handler list poisoned");
            if let Some(at) = handlers.iter().position(|h| h.thread().id() == me) {
                // Dropping the handle detaches this thread, which is
                // exiting anyway.
                handlers.swap_remove(at);
            }
        }));
    }
}

/// One connection's read loop: `HELLO`, then frames until EOF, a
/// protocol error, or shutdown (draining what the socket already
/// buffered first).
fn handle_conn(shared: &Arc<ServerShared>, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(POLL_TICK))?;
    // Backstop against a peer that stops reading entirely: a stalled
    // response write marks the connection dead rather than wedging the
    // delivery thread, which answers every connection's pooled frames,
    // or this handler, which answers the ones it runs itself. (The
    // outstanding-frames cap sheds slow readers long before this
    // fires.)
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let writer = Arc::new(ConnWriter {
        stream: Mutex::new(stream.try_clone()?),
        outstanding: AtomicU64::new(0),
        dead: AtomicBool::new(false),
    });
    writer.send(OP_HELLO, 0, 0, &shared.hello);

    // One `read` call takes in as many pipelined frames as the socket
    // holds, instead of two calls per frame.
    let mut reader = BufReader::with_capacity(READ_BUF, stream);
    let mut hdr_bytes = [0u8; HEADER_LEN];
    let mut payload: Vec<u8> = Vec::new();
    let mut reply: Vec<u8> = Vec::new();
    loop {
        if writer.dead.load(Ordering::SeqCst) {
            return Ok(());
        }
        match poll_read_exact(&mut reader, &mut hdr_bytes, &shared.shutdown)? {
            ReadStatus::Done => {}
            ReadStatus::Eof | ReadStatus::TruncatedEof | ReadStatus::Shutdown => return Ok(()),
        }
        let header = match proto::read_header(&mut &hdr_bytes[..]) {
            Ok(h) => h,
            Err(e) => {
                // Bad magic/version/length claim: the stream cannot be
                // resynchronised. Name the problem and hang up.
                shared.protocol_errors.fetch_add(1, Ordering::SeqCst);
                writer.send_error(0, 0, &e.to_string());
                return Ok(());
            }
        };
        // The payload is bounded (read_header enforced the cap), so it
        // is always drained — even for a frame that will be refused —
        // keeping the stream framed for the next round trip.
        match poll_read_exact(
            &mut reader,
            {
                payload.clear();
                payload.resize(header.payload_len as usize, 0);
                &mut payload
            },
            &shared.shutdown,
        )? {
            ReadStatus::Done => {}
            ReadStatus::Eof | ReadStatus::TruncatedEof | ReadStatus::Shutdown => return Ok(()),
        }
        shared.frames_in.fetch_add(1, Ordering::SeqCst);
        match header.op {
            OP_SUBMIT => {
                // Nothing buffered behind this frame: the client is
                // waiting on it rather than pipelining.
                let lone = reader.buffer().is_empty();
                handle_submit(shared, &writer, &header, &payload, lone, &mut reply);
            }
            OP_STATS => {
                let doc = admin_stats_json(shared);
                writer.send(OP_STATS_JSON, header.channel, header.seq, doc.as_bytes());
            }
            other => {
                shared.protocol_errors.fetch_add(1, Ordering::SeqCst);
                writer.send_error(header.channel, header.seq, &format!("unknown op {other:#04x}"));
            }
        }
    }
}

/// A submit frame: validate and draw pooled buffers, then either run
/// the symbol on this thread and write the reply from `reply` — when
/// the frame is `lone` on its socket, none of the connection's frames
/// are in the pool, and its channel is idle — or hand it to the pool
/// with the lock-bracketed `try_submit`, for the delivery thread to
/// answer.
fn handle_submit(
    shared: &Arc<ServerShared>,
    writer: &Arc<ConnWriter>,
    header: &Header,
    payload: &[u8],
    lone: bool,
    reply: &mut Vec<u8>,
) {
    let idx = header.channel as usize;
    let Some(info) = shared.infos.get(idx) else {
        writer.send_error(header.channel, header.seq, &format!("unknown channel {idx}"));
        return;
    };
    let expected = info.input_len as usize * BYTES_PER_SAMPLE;
    if payload.len() != expected {
        // Wrong shape is recoverable: the payload was bounded and fully
        // drained, so the stream is still framed.
        writer.send_error(
            header.channel,
            header.seq,
            &format!("channel {idx} takes {expected}-byte payloads, got {}", payload.len()),
        );
        return;
    }
    // Only this handler raises the count, so a zero here stays zero
    // until it submits.
    let outstanding = writer.outstanding.load(Ordering::SeqCst);
    if outstanding >= shared.max_conn_outstanding {
        shed(shared, writer, header);
        return;
    }

    let st = &shared.chan[idx];
    let (mut input, output) = st
        .pool
        .lock()
        .expect("buffer pool poisoned")
        .pop()
        .unwrap_or_else(|| (Vec::new(), vec![Complex::zero(); info.output_len as usize]));
    proto::take_samples(payload, &mut input).expect("length validated above");
    let channel = shared.channels[idx];

    let (input, output) = if lone && outstanding == 0 {
        match shared.pipeline.try_run(channel, input, output) {
            Ok(done) => {
                reply.clear();
                put_reply(reply, header.channel, header.seq, &done);
                writer.send_frames(reply);
                recycle(st, done.input, done.output);
                return;
            }
            // Another connection's symbols are outstanding on the
            // channel: queue behind them.
            Err(SubmitError::Busy { input, output }) => (input, output),
            Err(refused) => return refuse(shared, writer, header, st, refused),
        }
    } else {
        (input, output)
    };

    // The pending insert happens under the same lock that brackets
    // try_submit: the delivery thread removes under this lock, so a
    // completion cannot be routed before its origin is recorded.
    let mut pending = st.pending.lock().expect("pending map poisoned");
    match shared.pipeline.try_submit(channel, input, output) {
        Ok(seq) => {
            pending.insert(seq, Pending { writer: Arc::clone(writer), client_seq: header.seq });
            writer.outstanding.fetch_add(1, Ordering::SeqCst);
        }
        Err(refused) => {
            drop(pending);
            refuse(shared, writer, header, st, refused);
        }
    }
}

/// Answers a refused symbol — a full pipeline with `RETRY_AFTER`,
/// anything else with an `ERROR` naming why — and recycles the buffers
/// every refusal hands back.
fn refuse(
    shared: &ServerShared,
    writer: &ConnWriter,
    header: &Header,
    st: &ChanState,
    refused: SubmitError,
) {
    let why = match &refused {
        SubmitError::QueueFull { .. } => None,
        SubmitError::Closed { .. } => Some("server is shutting down"),
        SubmitError::Poisoned { .. } => Some(POISONED),
        SubmitError::Shape { .. } => Some("internal shape mismatch"),
        SubmitError::Busy { .. } => Some("channel busy"),
    };
    let (input, output) = refused.into_buffers();
    recycle(st, input, output);
    match why {
        None => shed(shared, writer, header),
        Some(why) => writer.send_error(header.channel, header.seq, why),
    }
}

/// Answers a load-shed with `RETRY_AFTER` and counts it.
fn shed(shared: &ServerShared, writer: &ConnWriter, header: &Header) {
    shared.shed.fetch_add(1, Ordering::SeqCst);
    writer.send(OP_RETRY_AFTER, header.channel, header.seq, &RETRY_AFTER_MS.to_le_bytes());
}

/// Encodes the answer to one completion onto `bytes`: a `RESULT`
/// carrying the output samples, or an `ERROR` with the backend's
/// verdict.
fn put_reply(bytes: &mut Vec<u8>, wire: u16, client_seq: u64, done: &Completion) {
    match &done.error {
        Some(err) => {
            proto::put_frame(bytes, OP_ERROR, wire, client_seq, err.to_string().as_bytes());
        }
        None => {
            let payload_len = done.output.len() * BYTES_PER_SAMPLE;
            proto::put_header(bytes, OP_RESULT, wire, client_seq, payload_len);
            proto::put_samples(bytes, &done.output);
        }
    }
}

/// Returns a buffer pair to the channel's pool (bounded; overflow is
/// simply dropped).
fn recycle(st: &ChanState, input: Vec<C64>, output: Vec<C64>) {
    let mut pool = st.pool.lock().expect("buffer pool poisoned");
    if pool.len() < POOL_CAP {
        pool.push((input, output));
    }
}

/// The delivery thread: take whatever the pipeline has ready, write it
/// back grouped by connection, repeat. It exits only once
/// [`NetServer::shutdown`] has joined every handler and the pipeline
/// reports itself closed and drained, so a frame accepted just before
/// the intake closed is still answered.
fn delivery_loop(shared: &ServerShared) {
    let mut ready = Vec::new();
    let mut replies = Replies::default();
    loop {
        // Read before the drain: once the handlers are joined nothing
        // can submit, so a drained pipeline after this point is final.
        let handlers_joined = shared.handlers_joined.load(Ordering::SeqCst);
        match shared.pipeline.recv_ready(&mut ready, POLL_TICK) {
            Ok(0) if handlers_joined => return,
            // Closed and drained while handlers still finish their
            // sockets; shutdown unparks this thread once they are gone.
            Ok(0) => std::thread::park_timeout(POLL_TICK),
            Ok(_) => deliver(shared, &mut ready, &mut replies),
            Err(RecvError::Timeout) => {}
            Err(RecvError::Poisoned) => {
                // The remaining symbols will never complete: give every
                // waiting connection a definitive answer.
                fail_pending(shared);
                if handlers_joined {
                    return;
                }
                std::thread::park_timeout(POLL_TICK);
            }
        }
    }
}

/// Routes one drain's completions to their submitting connections,
/// writes each connection's replies with one `write_all`, and recycles
/// the payload buffers.
fn deliver(shared: &ServerShared, ready: &mut Vec<Completion>, replies: &mut Replies) {
    for done in ready.drain(..) {
        // Wire channels are registered in pipeline order.
        let idx = done.channel.index();
        let st = &shared.chan[idx];
        // The handler's insert brackets its try_submit, so the entry is
        // missing only when a poisoned pipeline's frames were already
        // failed and a surviving worker finished one late.
        let entry = st.pending.lock().expect("pending map poisoned").remove(&done.seq);
        if let Some(p) = entry {
            replies.push(p, idx as u16, &done);
        }
        recycle(st, done.input, done.output);
    }
    replies.flush();
}

/// One drain's replies, grouped by connection. The byte buffers are
/// kept from drain to drain; a drain touches at most as many
/// connections as it carries completions, so they stay bounded by the
/// pipeline's capacity.
#[derive(Default)]
struct Replies {
    /// Each connection the drain touched, its encoded frames, and how
    /// many frames those are.
    conns: Vec<(Arc<ConnWriter>, Vec<u8>, u64)>,
    /// Emptied byte buffers from earlier drains.
    spare: Vec<Vec<u8>>,
}

impl Replies {
    /// Encodes the answer to one completion onto its connection's group.
    fn push(&mut self, p: Pending, wire: u16, done: &Completion) {
        let at = match self.conns.iter().position(|(w, ..)| Arc::ptr_eq(w, &p.writer)) {
            Some(at) => at,
            None => {
                self.conns.push((p.writer, self.spare.pop().unwrap_or_default(), 0));
                self.conns.len() - 1
            }
        };
        let (_, bytes, frames) = &mut self.conns[at];
        *frames += 1;
        put_reply(bytes, wire, p.client_seq, done);
    }

    /// Writes every group with one `write_all` per connection. The
    /// outstanding count drops first: a client that has read its
    /// answers must find its cap free when it submits again.
    fn flush(&mut self) {
        for (writer, mut bytes, frames) in self.conns.drain(..) {
            writer.outstanding.fetch_sub(frames, Ordering::SeqCst);
            writer.send_frames(&bytes);
            bytes.clear();
            self.spare.push(bytes);
        }
    }
}

/// Answers every pending frame with an `ERROR`: on a poisoned pipeline
/// their symbols will never complete.
fn fail_pending(shared: &ServerShared) {
    for (idx, st) in shared.chan.iter().enumerate() {
        for (_seq, p) in st.pending.lock().expect("pending map poisoned").drain() {
            p.writer.outstanding.fetch_sub(1, Ordering::SeqCst);
            p.writer.send_error(idx as u16, p.client_seq, POISONED);
        }
    }
}

/// The admin stats document: server-level counters wrapped around the
/// pipeline's own [`StreamStats::to_json`] snapshot.
fn admin_stats_json(shared: &ServerShared) -> String {
    json::Obj::new()
        .str("server", "afft_net")
        .num("channels", shared.infos.len() as f64)
        .num("connections_live", shared.connections_live.load(Ordering::SeqCst) as f64)
        .num("connections_accepted", shared.connections_accepted.load(Ordering::SeqCst) as f64)
        .num("frames_in", shared.frames_in.load(Ordering::SeqCst) as f64)
        .num("shed", shared.shed.load(Ordering::SeqCst) as f64)
        .num("protocol_errors", shared.protocol_errors.load(Ordering::SeqCst) as f64)
        .bool("poisoned", shared.pipeline.is_poisoned())
        .raw("pipeline", shared.pipeline.stats().to_json())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use afft_core::engine::EngineRegistry;
    use std::time::Instant;

    #[test]
    fn connect_close_churn_leaves_the_handle_list_bounded() {
        let mut builder = NetServer::builder(EngineRegistry::standard).workers(1);
        builder.channel(ChannelSpec::transform(64, "radix4_dit", Direction::Forward));
        let server = builder.serve("127.0.0.1:0").expect("bind");
        let shared = &server.shared;
        let held = || shared.handlers.lock().expect("handler list poisoned").len();
        let mut most_held = 0;
        for _ in 0..200 {
            let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
            // The HELLO proves the handler is running; then hang up.
            let header = proto::read_header(&mut raw).expect("hello header");
            proto::read_payload_into(&mut raw, &header, &mut Vec::new()).expect("hello payload");
            drop(raw);
            most_held = most_held.max(held());
        }
        // Each handler exits on EOF and removes its own handle.
        let began = Instant::now();
        while held() > 0 || shared.connections_live.load(Ordering::SeqCst) > 0 {
            assert!(began.elapsed() < Duration::from_secs(10), "{} handles still held", held());
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(most_held < 100, "{most_held} handles held at once over 200 connect/close cycles");
        assert_eq!(shared.connections_accepted.load(Ordering::SeqCst), 200);
        server.shutdown();
    }
}
