//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is a fixed 20-byte little-endian header followed by
//! `payload_len` bytes of payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic       b"AFN1"
//!      4     1  version     1
//!      5     1  op          frame kind (OP_* constants)
//!      6     2  channel     wire channel index (u16 LE)
//!      8     8  seq         client correlation id (u64 LE), echoed back
//!     16     4  payload_len bytes of payload that follow (u32 LE)
//! ```
//!
//! `seq` is the **client's** correlation id: the server echoes it on
//! the matching `RESULT` / `RETRY_AFTER` / `ERROR` frame and never
//! interprets it, so a client may pipeline any number of frames per
//! channel and match responses however it likes. Sample payloads
//! (`SUBMIT` / `RESULT`) are packed `f64` little-endian re/im pairs —
//! [`BYTES_PER_SAMPLE`] bytes per complex point, in order.
//!
//! [`MAX_PAYLOAD`] caps `payload_len`; [`read_header`] refuses a larger
//! claim **before any allocation**, so an adversarial length prefix
//! cannot balloon server memory. Bad magic or version is a hard
//! protocol error (the connection cannot be resynchronised); a merely
//! wrong-sized payload on a known channel is recoverable — the server
//! discards the bounded payload and answers with an `ERROR` frame.

use afft_num::{Complex, C64};
use std::io::{Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"AFN1";
/// Protocol version carried in every header.
pub const VERSION: u8 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 20;
/// Upper bound on `payload_len` — checked before any allocation. 1 MiB
/// holds a 32768-point complex symbol, far beyond any registered
/// channel, while keeping a hostile length prefix harmless.
pub const MAX_PAYLOAD: u32 = 1 << 20;
/// Packed size of one complex sample (two little-endian `f64`s).
pub const BYTES_PER_SAMPLE: usize = 16;

/// Client → server: run the payload through a channel.
pub const OP_SUBMIT: u8 = 0x01;
/// Client → server: request the admin stats JSON (`channel`/`seq`
/// echoed on the reply; no payload).
pub const OP_STATS: u8 = 0x02;
/// Server → client, once per connection: the channel table
/// ([`encode_hello`] / [`decode_hello`]).
pub const OP_HELLO: u8 = 0x80;
/// Server → client: a finished symbol (packed samples payload).
pub const OP_RESULT: u8 = 0x81;
/// Server → client: load-shed refusal; payload is a `u32` LE
/// retry-after hint in milliseconds. The symbol was **not** accepted.
pub const OP_RETRY_AFTER: u8 = 0x82;
/// Server → client: a definitive failure for `seq` (UTF-8 message
/// payload). Also used at shutdown for frames that can no longer run.
pub const OP_ERROR: u8 = 0x83;
/// Server → client: the admin stats document (UTF-8 JSON payload).
pub const OP_STATS_JSON: u8 = 0x84;

/// What a channel does to a submitted payload, as advertised in the
/// `HELLO` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Forward transform, `n` points in and out.
    Forward,
    /// Inverse transform, `n` points in and out.
    Inverse,
    /// OFDM modulation: `n` subcarriers in, `n + cp` samples out.
    Modulate,
    /// OFDM demodulation: `n + cp` samples in, `n` bins out.
    Demodulate,
}

impl OpKind {
    fn code(self) -> u8 {
        match self {
            OpKind::Forward => 0,
            OpKind::Inverse => 1,
            OpKind::Modulate => 2,
            OpKind::Demodulate => 3,
        }
    }

    fn from_code(code: u8) -> Result<OpKind, ProtoError> {
        Ok(match code {
            0 => OpKind::Forward,
            1 => OpKind::Inverse,
            2 => OpKind::Modulate,
            3 => OpKind::Demodulate,
            other => return Err(ProtoError::Malformed(format!("unknown op kind {other}"))),
        })
    }
}

/// One row of the `HELLO` channel table: everything a client needs to
/// shape payloads for (and interpret results from) a wire channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelInfo {
    /// Wire channel index (the header's `channel` field).
    pub index: u16,
    /// Transform size (subcarrier count for the OFDM ops).
    pub n: u32,
    /// Samples per `SUBMIT` payload.
    pub input_len: u32,
    /// Samples per `RESULT` payload.
    pub output_len: u32,
    /// What the channel does.
    pub kind: OpKind,
    /// Cyclic-prefix length (0 for the raw transforms).
    pub cp: u32,
    /// The engine serving the channel.
    pub engine: String,
}

/// A decoded frame header (magic and version already validated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Frame kind, one of the `OP_*` constants.
    pub op: u8,
    /// Wire channel index.
    pub channel: u16,
    /// Client correlation id.
    pub seq: u64,
    /// Payload bytes following the header (`<= MAX_PAYLOAD`).
    pub payload_len: u32,
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed (including EOF mid-frame).
    Io(std::io::Error),
    /// The first four bytes were not [`MAGIC`] — the peer is not
    /// speaking this protocol, or the stream lost sync. Unrecoverable.
    BadMagic([u8; 4]),
    /// Unsupported protocol version. Unrecoverable.
    BadVersion(u8),
    /// The header claimed more than [`MAX_PAYLOAD`] bytes; refused
    /// before any allocation. Unrecoverable (the payload length cannot
    /// be trusted for a skip).
    Oversized(u32),
    /// Structurally invalid payload (bad sample packing, truncated
    /// table, unknown op kind).
    Malformed(String),
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> ProtoError {
        ProtoError::Io(e)
    }
}

impl core::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "socket error: {e}"),
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::Oversized(len) => {
                write!(f, "payload length {len} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            ProtoError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Serialises a header into its 20 wire bytes.
pub fn encode_header(header: &Header) -> [u8; HEADER_LEN] {
    let mut bytes = [0u8; HEADER_LEN];
    bytes[0..4].copy_from_slice(&MAGIC);
    bytes[4] = VERSION;
    bytes[5] = header.op;
    bytes[6..8].copy_from_slice(&header.channel.to_le_bytes());
    bytes[8..16].copy_from_slice(&header.seq.to_le_bytes());
    bytes[16..20].copy_from_slice(&header.payload_len.to_le_bytes());
    bytes
}

/// Reads and validates one header: magic, version, and the
/// [`MAX_PAYLOAD`] cap — the cap is enforced **here**, before any
/// payload buffer exists, so a hostile length prefix costs nothing.
///
/// # Errors
///
/// [`ProtoError::Io`] (including EOF), [`ProtoError::BadMagic`],
/// [`ProtoError::BadVersion`], or [`ProtoError::Oversized`].
pub fn read_header(r: &mut impl Read) -> Result<Header, ProtoError> {
    let mut bytes = [0u8; HEADER_LEN];
    r.read_exact(&mut bytes)?;
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    if bytes[4] != VERSION {
        return Err(ProtoError::BadVersion(bytes[4]));
    }
    let payload_len = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    if payload_len > MAX_PAYLOAD {
        return Err(ProtoError::Oversized(payload_len));
    }
    Ok(Header {
        op: bytes[5],
        channel: u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes")),
        seq: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
        payload_len,
    })
}

/// Reads a (cap-checked) header's payload into `buf`, reusing its
/// capacity — the steady-state read path allocates nothing once the
/// buffer has grown to the connection's largest frame.
pub fn read_payload_into(
    r: &mut impl Read,
    header: &Header,
    buf: &mut Vec<u8>,
) -> Result<(), ProtoError> {
    buf.clear();
    buf.resize(header.payload_len as usize, 0);
    r.read_exact(buf)?;
    Ok(())
}

/// Writes one frame — header plus payload — with a single `write_all`
/// of one contiguous buffer, so a frame costs one `write` call on a
/// socket that takes it whole and is never interleaved with another
/// writer's bytes as long as callers serialise on the stream (the
/// server wraps each connection in a write mutex). Hot paths append
/// frames to a reused buffer with [`put_header`] / [`put_frame`]
/// instead.
pub fn write_frame(
    w: &mut impl Write,
    op: u8,
    channel: u16,
    seq: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    put_frame(&mut frame, op, channel, seq, payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Appends a frame header announcing `payload_len` bytes to `out`; the
/// caller appends exactly that many payload bytes next (for a sample
/// payload, with [`put_samples`]).
pub fn put_header(out: &mut Vec<u8>, op: u8, channel: u16, seq: u64, payload_len: usize) {
    debug_assert!(payload_len as u64 <= MAX_PAYLOAD as u64, "oversized outbound frame");
    let payload_len = payload_len as u32;
    out.extend_from_slice(&encode_header(&Header { op, channel, seq, payload_len }));
}

/// Appends one whole frame — header plus payload — to `out`.
pub fn put_frame(out: &mut Vec<u8>, op: u8, channel: u16, seq: u64, payload: &[u8]) {
    put_header(out, op, channel, seq, payload.len());
    out.extend_from_slice(payload);
}

/// Packs complex samples onto the end of `payload` (re then im, `f64`
/// little-endian each).
pub fn put_samples(payload: &mut Vec<u8>, samples: &[C64]) {
    let start = payload.len();
    payload.resize(start + samples.len() * BYTES_PER_SAMPLE, 0);
    for (bytes, s) in payload[start..].chunks_exact_mut(BYTES_PER_SAMPLE).zip(samples) {
        bytes[..8].copy_from_slice(&s.re.to_le_bytes());
        bytes[8..].copy_from_slice(&s.im.to_le_bytes());
    }
}

/// Unpacks a sample payload into `out` (cleared first, capacity
/// reused).
///
/// # Errors
///
/// [`ProtoError::Malformed`] if the byte count is not a whole number of
/// samples.
pub fn take_samples(payload: &[u8], out: &mut Vec<C64>) -> Result<(), ProtoError> {
    if !payload.len().is_multiple_of(BYTES_PER_SAMPLE) {
        return Err(ProtoError::Malformed(format!(
            "sample payload of {} bytes is not a multiple of {BYTES_PER_SAMPLE}",
            payload.len()
        )));
    }
    out.clear();
    out.reserve(payload.len() / BYTES_PER_SAMPLE);
    for pair in payload.chunks_exact(BYTES_PER_SAMPLE) {
        let re = f64::from_le_bytes(pair[0..8].try_into().expect("8 bytes"));
        let im = f64::from_le_bytes(pair[8..16].try_into().expect("8 bytes"));
        out.push(Complex::new(re, im));
    }
    Ok(())
}

/// Encodes the `HELLO` channel table: `u16` row count, then per row the
/// fixed fields and a length-prefixed engine name.
pub fn encode_hello(channels: &[ChannelInfo]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(channels.len() as u16).to_le_bytes());
    for ch in channels {
        out.extend_from_slice(&ch.index.to_le_bytes());
        out.extend_from_slice(&ch.n.to_le_bytes());
        out.extend_from_slice(&ch.input_len.to_le_bytes());
        out.extend_from_slice(&ch.output_len.to_le_bytes());
        out.push(ch.kind.code());
        out.extend_from_slice(&ch.cp.to_le_bytes());
        let name = ch.engine.as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
    }
    out
}

/// Decodes a `HELLO` payload back into the channel table.
///
/// # Errors
///
/// [`ProtoError::Malformed`] on truncation, trailing bytes, an unknown
/// op kind, or a non-UTF-8 engine name.
pub fn decode_hello(payload: &[u8]) -> Result<Vec<ChannelInfo>, ProtoError> {
    let truncated = || ProtoError::Malformed("truncated channel table".to_string());
    let mut at = 0usize;
    let mut grab = |len: usize| -> Result<&[u8], ProtoError> {
        let slice = payload.get(at..at + len).ok_or_else(truncated)?;
        at += len;
        Ok(slice)
    };
    let count = u16::from_le_bytes(grab(2)?.try_into().expect("2 bytes"));
    let mut channels = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let index = u16::from_le_bytes(grab(2)?.try_into().expect("2 bytes"));
        let n = u32::from_le_bytes(grab(4)?.try_into().expect("4 bytes"));
        let input_len = u32::from_le_bytes(grab(4)?.try_into().expect("4 bytes"));
        let output_len = u32::from_le_bytes(grab(4)?.try_into().expect("4 bytes"));
        let kind = OpKind::from_code(grab(1)?[0])?;
        let cp = u32::from_le_bytes(grab(4)?.try_into().expect("4 bytes"));
        let name_len = u16::from_le_bytes(grab(2)?.try_into().expect("2 bytes")) as usize;
        let engine = core::str::from_utf8(grab(name_len)?)
            .map_err(|_| ProtoError::Malformed("engine name is not UTF-8".to_string()))?
            .to_string();
        channels.push(ChannelInfo { index, n, input_len, output_len, kind, cp, engine });
    }
    if at != payload.len() {
        return Err(ProtoError::Malformed("trailing bytes after channel table".to_string()));
    }
    Ok(channels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_through_the_wire_bytes() {
        let header = Header { op: OP_SUBMIT, channel: 7, seq: 0xdead_beef_1234, payload_len: 96 };
        let bytes = encode_header(&header);
        assert_eq!(bytes.len(), HEADER_LEN);
        let back = read_header(&mut &bytes[..]).unwrap();
        assert_eq!(back, header);
    }

    #[test]
    fn bad_magic_and_version_are_hard_errors() {
        let mut bytes =
            encode_header(&Header { op: OP_SUBMIT, channel: 0, seq: 0, payload_len: 0 });
        bytes[0] = b'X';
        assert!(matches!(read_header(&mut &bytes[..]), Err(ProtoError::BadMagic(_))));
        let mut bytes =
            encode_header(&Header { op: OP_SUBMIT, channel: 0, seq: 0, payload_len: 0 });
        bytes[4] = 9;
        assert!(matches!(read_header(&mut &bytes[..]), Err(ProtoError::BadVersion(9))));
    }

    #[test]
    fn oversized_length_prefix_is_refused_at_the_header() {
        // An adversarial 4 GiB claim must die in read_header — before
        // read_payload_into (and its allocation) can ever run.
        let mut bytes =
            encode_header(&Header { op: OP_SUBMIT, channel: 0, seq: 0, payload_len: 0 });
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_header(&mut &bytes[..]), Err(ProtoError::Oversized(u32::MAX))));
        // The cap itself is fine.
        bytes[16..20].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
        assert_eq!(read_header(&mut &bytes[..]).unwrap().payload_len, MAX_PAYLOAD);
    }

    #[test]
    fn truncated_frames_surface_as_io_errors() {
        let bytes = encode_header(&Header { op: OP_SUBMIT, channel: 0, seq: 0, payload_len: 0 });
        assert!(matches!(read_header(&mut &bytes[..10]), Err(ProtoError::Io(_))));
        let header = Header { op: OP_SUBMIT, channel: 0, seq: 0, payload_len: 32 };
        let mut buf = Vec::new();
        let short = [0u8; 16];
        assert!(matches!(
            read_payload_into(&mut &short[..], &header, &mut buf),
            Err(ProtoError::Io(_))
        ));
    }

    #[test]
    fn samples_round_trip_and_reject_ragged_payloads() {
        let samples: Vec<C64> =
            (0..5).map(|i| Complex::new(i as f64 + 0.25, -(i as f64) * 0.5)).collect();
        let mut payload = Vec::new();
        put_samples(&mut payload, &samples);
        assert_eq!(payload.len(), 5 * BYTES_PER_SAMPLE);
        let mut back = Vec::new();
        take_samples(&payload, &mut back).unwrap();
        assert_eq!(back, samples);
        assert!(matches!(
            take_samples(&payload[..payload.len() - 3], &mut back),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn hello_table_round_trips_and_rejects_truncation() {
        let table = vec![
            ChannelInfo {
                index: 0,
                n: 256,
                input_len: 256,
                output_len: 320,
                kind: OpKind::Modulate,
                cp: 64,
                engine: "radix4_simd".to_string(),
            },
            ChannelInfo {
                index: 1,
                n: 128,
                input_len: 160,
                output_len: 128,
                kind: OpKind::Demodulate,
                cp: 32,
                engine: "mixed_radix".to_string(),
            },
        ];
        let payload = encode_hello(&table);
        assert_eq!(decode_hello(&payload).unwrap(), table);
        assert!(matches!(
            decode_hello(&payload[..payload.len() - 1]),
            Err(ProtoError::Malformed(_))
        ));
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(matches!(decode_hello(&trailing), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn whole_frames_round_trip_through_write_frame() {
        let mut wire = Vec::new();
        let mut payload = Vec::new();
        put_samples(&mut payload, &[Complex::new(1.0, -2.0)]);
        write_frame(&mut wire, OP_RESULT, 3, 42, &payload).unwrap();
        let mut cursor = &wire[..];
        let header = read_header(&mut cursor).unwrap();
        assert_eq!((header.op, header.channel, header.seq), (OP_RESULT, 3, 42));
        let mut body = Vec::new();
        read_payload_into(&mut cursor, &header, &mut body).unwrap();
        assert_eq!(body, payload);
    }

    /// A sink that takes every `write` whole and counts the calls — the
    /// shape of a socket with send-buffer room.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_makes_one_write_call_per_frame() {
        let mut payload = Vec::new();
        put_samples(&mut payload, &[Complex::new(0.5, -0.25); 320]);
        let bodies: [&[u8]; 3] = [&payload, &[], b"bad channel"];
        let mut sink = CountingWriter::default();
        for (seq, body) in bodies.into_iter().enumerate() {
            write_frame(&mut sink, OP_RESULT, 1, seq as u64, body).unwrap();
            assert_eq!(sink.writes, seq + 1, "frame {seq} took more than one write");
        }
        // The concatenated frames parse back, and put_frame builds the
        // same bytes for a reused buffer.
        let mut cursor = &sink.bytes[..];
        let mut rebuilt = Vec::new();
        for (seq, body) in bodies.into_iter().enumerate() {
            let header = read_header(&mut cursor).unwrap();
            assert_eq!((header.seq, header.payload_len as usize), (seq as u64, body.len()));
            let mut got = Vec::new();
            read_payload_into(&mut cursor, &header, &mut got).unwrap();
            assert_eq!(got, body);
            put_frame(&mut rebuilt, OP_RESULT, 1, seq as u64, body);
        }
        assert!(cursor.is_empty());
        assert_eq!(rebuilt, sink.bytes);
    }
}
