//! A loopback client for the serving binary.
//!
//! Small by design: connect, read the server's `HELLO` channel table,
//! submit sample frames, and pull typed [`NetEvent`]s back off the
//! wire. It exists so the tests, the bench harness, and the examples
//! all exercise the **real** socket path instead of calling into the
//! pipeline directly — but it is a perfectly serviceable client for
//! any process that wants transforms over TCP.
//!
//! [`NetClient::split`] separates the send and receive halves onto
//! cloned sockets so a flood writer and a drain reader can run on
//! different threads — which is exactly how a client must be shaped to
//! observe `RETRY_AFTER` load-shedding without deadlocking on its own
//! unread responses.
//!
//! Both halves are buffered: a submit is one `write` from a reused
//! frame buffer, and responses are read through a [`BufReader`], so a
//! pipelined window costs a few large socket calls rather than two per
//! frame.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use afft_num::C64;

use crate::proto::{
    self, ChannelInfo, ProtoError, OP_ERROR, OP_HELLO, OP_RESULT, OP_RETRY_AFTER, OP_STATS,
    OP_STATS_JSON, OP_SUBMIT,
};

/// One frame's worth of server response, already decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum NetEvent {
    /// A completed transform: the channel's output samples.
    Result {
        /// Wire channel the work ran on.
        channel: u16,
        /// The client's own correlation id, echoed back.
        seq: u64,
        /// Output samples (`output_len` of the channel).
        samples: Vec<C64>,
    },
    /// The server shed the frame; resubmit after the hinted delay.
    RetryAfter {
        /// Wire channel the submission targeted.
        channel: u16,
        /// The client's own correlation id, echoed back.
        seq: u64,
        /// Suggested backoff in milliseconds.
        millis: u32,
    },
    /// The server refused or failed the frame.
    ServerError {
        /// Wire channel the frame targeted (0 for connection-level
        /// protocol errors).
        channel: u16,
        /// The client's correlation id (0 for connection-level
        /// errors).
        seq: u64,
        /// Human-readable reason.
        message: String,
    },
    /// The admin stats document, answering a
    /// [`request_stats`](NetSender::request_stats).
    Stats {
        /// The JSON text (server counters + pipeline snapshot).
        json: String,
    },
}

/// The write half: submits work and stats requests.
#[derive(Debug)]
pub struct NetSender {
    stream: TcpStream,
    channels: Vec<ChannelInfo>,
    /// The frame being sent, reused across submits.
    frame: Vec<u8>,
}

/// The read half: decodes response frames into [`NetEvent`]s.
#[derive(Debug)]
pub struct NetReceiver {
    stream: BufReader<TcpStream>,
    payload: Vec<u8>,
}

/// A connected client: the two halves plus the server's channel table.
#[derive(Debug)]
pub struct NetClient {
    tx: NetSender,
    rx: NetReceiver,
}

impl NetClient {
    /// Connects and reads the server's `HELLO` channel table.
    ///
    /// # Errors
    ///
    /// Connection failure, or a malformed/non-`HELLO` first frame.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ProtoError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut rx =
            NetReceiver { stream: BufReader::new(stream.try_clone()?), payload: Vec::new() };
        let header = proto::read_header(&mut rx.stream)?;
        if header.op != OP_HELLO {
            return Err(ProtoError::Malformed(format!(
                "expected a HELLO frame, got op {:#04x}",
                header.op
            )));
        }
        proto::read_payload_into(&mut rx.stream, &header, &mut rx.payload)?;
        let channels = proto::decode_hello(&rx.payload)?;
        Ok(Self { tx: NetSender { stream, channels, frame: Vec::new() }, rx })
    }

    /// The channel table the server advertised.
    pub fn channels(&self) -> &[ChannelInfo] {
        self.tx.channels()
    }

    /// Submits one symbol; see [`NetSender::submit`].
    ///
    /// # Errors
    ///
    /// Socket write failure.
    pub fn submit(&mut self, channel: u16, seq: u64, samples: &[C64]) -> Result<(), ProtoError> {
        self.tx.submit(channel, seq, samples)
    }

    /// Asks for the admin stats document; the answer arrives as
    /// [`NetEvent::Stats`].
    ///
    /// # Errors
    ///
    /// Socket write failure.
    pub fn request_stats(&mut self, seq: u64) -> Result<(), ProtoError> {
        self.tx.request_stats(seq)
    }

    /// Blocks for the next response frame; see
    /// [`NetReceiver::recv_event`].
    ///
    /// # Errors
    ///
    /// Socket failure (including EOF) or a malformed frame.
    pub fn recv_event(&mut self) -> Result<NetEvent, ProtoError> {
        self.rx.recv_event()
    }

    /// Bounds how long [`recv_event`](Self::recv_event) blocks (`None`
    /// restores wait-forever); a timeout surfaces as
    /// [`ProtoError::Io`] with kind `WouldBlock`/`TimedOut`.
    ///
    /// # Errors
    ///
    /// The underlying `set_read_timeout` failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ProtoError> {
        self.rx.stream.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Splits into independently-owned halves on cloned sockets, so a
    /// writer thread can keep submitting while a reader thread drains.
    pub fn split(self) -> (NetSender, NetReceiver) {
        (self.tx, self.rx)
    }
}

impl NetSender {
    /// The channel table the server advertised.
    pub fn channels(&self) -> &[ChannelInfo] {
        &self.channels
    }

    /// Submits one symbol on a wire channel. `seq` is the caller's
    /// correlation id, echoed verbatim on whatever answer comes back.
    /// The frame is encoded into a buffer reused across calls and sent
    /// with one `write_all`.
    ///
    /// # Errors
    ///
    /// Socket write failure.
    pub fn submit(&mut self, channel: u16, seq: u64, samples: &[C64]) -> Result<(), ProtoError> {
        self.frame.clear();
        let payload_len = samples.len() * proto::BYTES_PER_SAMPLE;
        proto::put_header(&mut self.frame, OP_SUBMIT, channel, seq, payload_len);
        proto::put_samples(&mut self.frame, samples);
        self.stream.write_all(&self.frame)?;
        Ok(())
    }

    /// Asks for the admin stats document.
    ///
    /// # Errors
    ///
    /// Socket write failure.
    pub fn request_stats(&mut self, seq: u64) -> Result<(), ProtoError> {
        proto::write_frame(&mut self.stream, OP_STATS, 0, seq, &[])?;
        Ok(())
    }
}

impl NetReceiver {
    /// Blocks for the next response frame and decodes it. EOF (the
    /// server closed the connection) surfaces as [`ProtoError::Io`].
    ///
    /// # Errors
    ///
    /// Socket failure, or a frame that decodes to no known response
    /// op.
    pub fn recv_event(&mut self) -> Result<NetEvent, ProtoError> {
        let header = proto::read_header(&mut self.stream)?;
        proto::read_payload_into(&mut self.stream, &header, &mut self.payload)?;
        match header.op {
            OP_RESULT => {
                let mut samples = Vec::new();
                proto::take_samples(&self.payload, &mut samples)?;
                Ok(NetEvent::Result { channel: header.channel, seq: header.seq, samples })
            }
            OP_RETRY_AFTER => {
                let bytes: [u8; 4] = self.payload.as_slice().try_into().map_err(|_| {
                    ProtoError::Malformed(format!(
                        "RETRY_AFTER payload is {} bytes, want 4",
                        self.payload.len()
                    ))
                })?;
                Ok(NetEvent::RetryAfter {
                    channel: header.channel,
                    seq: header.seq,
                    millis: u32::from_le_bytes(bytes),
                })
            }
            OP_ERROR => Ok(NetEvent::ServerError {
                channel: header.channel,
                seq: header.seq,
                message: String::from_utf8_lossy(&self.payload).into_owned(),
            }),
            OP_STATS_JSON => Ok(NetEvent::Stats {
                json: String::from_utf8(self.payload.clone()).map_err(|_| {
                    ProtoError::Malformed("stats document is not UTF-8".to_string())
                })?,
            }),
            other => Err(ProtoError::Malformed(format!("unexpected response op {other:#04x}"))),
        }
    }
}
