//! Network-facing OFDM serving layer: the [`afft_stream`] pipeline
//! behind a TCP socket.
//!
//! Layer 5 of the stack: [`afft_core`] computes, [`afft_planner`]
//! chooses, [`afft_stream`] schedules, and this crate **serves** — a
//! length-prefixed binary-frame protocol ([`proto`]), a
//! thread-per-connection server that maps connections onto stream
//! channels ([`server`]), and a loopback client ([`client`]) so tests,
//! benches, and examples drive the real wire path.
//!
//! Design stances, in one breath: backpressure is *protocol-level*
//! (a full pipeline answers `RETRY_AFTER`, never an unbounded queue);
//! payload buffers recycle through completions (zero steady-state
//! per-frame allocation); shutdown *drains* (every accepted frame is
//! answered before the pool is joined); and the admin `STATS` frame
//! exposes the [`afft_obs`]-backed pipeline snapshot as JSON.
//!
//! ```no_run
//! use afft_core::engine::EngineRegistry;
//! use afft_net::{NetClient, NetEvent, NetServer};
//! use afft_stream::{ChannelOp, ChannelSpec};
//!
//! let mut builder = NetServer::builder(EngineRegistry::standard);
//! let ch = builder.channel(ChannelSpec {
//!     n: 256,
//!     engine: "radix4_dit".to_string(),
//!     op: ChannelOp::Modulate { cp: 64 },
//! });
//! let server = builder.serve("127.0.0.1:0").expect("bind");
//!
//! let mut client = NetClient::connect(server.local_addr()).expect("connect");
//! let subcarriers = vec![afft_num::Complex::new(1.0, 0.0); 256];
//! client.submit(ch, 7, &subcarriers).expect("submit");
//! match client.recv_event().expect("recv") {
//!     NetEvent::Result { seq, samples, .. } => assert_eq!((seq, samples.len()), (7, 320)),
//!     other => panic!("unexpected {other:?}"),
//! }
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{NetClient, NetEvent, NetReceiver, NetSender};
pub use proto::{ChannelInfo, OpKind, ProtoError};
pub use server::{NetServer, NetServerBuilder, RETRY_AFTER_MS};
