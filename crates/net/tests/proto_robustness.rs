//! The frame decoder against hostile bytes, driven by a seeded loop:
//! arbitrary byte streams, valid frame streams with random byte flips
//! and truncations, and arbitrary `HELLO` and sample payloads.
//!
//! Nothing may panic. Every header `read_header` accepts sits on the
//! right magic and version and claims at most `MAX_PAYLOAD` bytes, the
//! frames before the first damaged byte decode exactly as sent, and a
//! stream cut inside a frame surfaces as `Err`, never as a frame.

use afft_net::proto::{
    decode_hello, encode_hello, put_frame, put_samples, read_header, read_payload_into,
    take_samples, ChannelInfo, Header, OpKind, ProtoError, BYTES_PER_SAMPLE, HEADER_LEN, MAGIC,
    MAX_PAYLOAD, VERSION,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 2000;

fn random_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| rng.gen()).collect()
}

/// One decoded frame and the stream offset its header started at.
type Frame = (usize, Header, Vec<u8>);

/// Reads frames off `wire` the way a connection handler does, until the
/// stream ends cleanly (`Ok`) or the decoder refuses it (`Err`, with
/// the frames accepted before). Checks every accepted header against
/// the raw bytes it came from.
fn drain(wire: &[u8]) -> Result<Vec<Frame>, (Vec<Frame>, ProtoError)> {
    let mut cursor = wire;
    let mut frames = Vec::new();
    while !cursor.is_empty() {
        let at = wire.len() - cursor.len();
        let header = match read_header(&mut cursor) {
            Ok(header) => header,
            Err(e) => return Err((frames, e)),
        };
        assert_eq!(wire[at..at + 4], MAGIC, "accepted a header without the magic at {at}");
        assert_eq!(wire[at + 4], VERSION, "accepted a header of another version at {at}");
        assert!(header.payload_len <= MAX_PAYLOAD, "accepted {} bytes", header.payload_len);
        let mut payload = Vec::new();
        if let Err(e) = read_payload_into(&mut cursor, &header, &mut payload) {
            return Err((frames, e));
        }
        assert_eq!(payload.len(), header.payload_len as usize);
        frames.push((at, header, payload));
    }
    Ok(frames)
}

/// A valid stream of one to four frames with random fields and
/// payloads, and the frames as sent.
fn valid_stream(rng: &mut StdRng) -> (Vec<u8>, Vec<Frame>) {
    let mut wire = Vec::new();
    let mut sent = Vec::new();
    for _ in 0..rng.gen_range(1..=4) {
        let payload = random_bytes(rng, 96);
        let header = Header {
            op: rng.gen(),
            channel: rng.gen(),
            seq: rng.gen(),
            payload_len: payload.len() as u32,
        };
        sent.push((wire.len(), header, payload.clone()));
        put_frame(&mut wire, header.op, header.channel, header.seq, &payload);
    }
    (wire, sent)
}

#[test]
fn arbitrary_byte_streams_never_yield_an_invalid_header() {
    let mut rng = StdRng::seed_from_u64(0xa5f1);
    for _ in 0..CASES {
        let mut wire = random_bytes(&mut rng, 160);
        // Half the streams open with a valid magic and version, so the
        // length cap and the payload read are reached, not just the
        // magic check.
        if wire.len() >= HEADER_LEN && rng.gen_bool(0.5) {
            wire[..4].copy_from_slice(&MAGIC);
            wire[4] = VERSION;
        }
        // Any outcome but a panic or an invalid accepted header is
        // fine; `drain` checks the headers.
        let _ = drain(&wire);
    }
}

#[test]
fn flipped_bytes_leave_the_frames_before_them_intact() {
    let mut rng = StdRng::seed_from_u64(0xa5f3);
    for _ in 0..CASES {
        let (mut wire, sent) = valid_stream(&mut rng);
        let mut first = wire.len();
        for _ in 0..rng.gen_range(1..=4) {
            let at = rng.gen_range(0..wire.len());
            wire[at] ^= rng.gen_range(1..=255u8);
            first = first.min(at);
        }
        let frames = match drain(&wire) {
            Ok(frames) | Err((frames, _)) => frames,
        };
        // Every frame that ends before the first flip decodes as sent.
        let intact = sent
            .iter()
            .take_while(|(at, h, _)| at + HEADER_LEN + h.payload_len as usize <= first)
            .count();
        assert!(frames.len() >= intact, "lost an intact frame: {} < {intact}", frames.len());
        assert_eq!(frames[..intact], sent[..intact]);
    }
}

#[test]
fn a_stream_cut_inside_a_frame_is_an_error() {
    let mut rng = StdRng::seed_from_u64(0xa5f4);
    for _ in 0..CASES {
        let (wire, sent) = valid_stream(&mut rng);
        let cut = rng.gen_range(1..wire.len());
        if sent.iter().any(|(at, _, _)| *at == cut) {
            continue; // a frame boundary: a clean, shorter stream
        }
        match drain(&wire[..cut]) {
            Err((frames, ProtoError::Io(e))) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                let whole = sent.iter().filter(|(at, _, _)| *at < cut).count() - 1;
                assert_eq!(frames, sent[..whole]);
            }
            other => panic!("cut at {cut} of {}: {other:?}", wire.len()),
        }
    }
}

#[test]
fn arbitrary_payloads_decode_or_error_without_panicking() {
    let mut rng = StdRng::seed_from_u64(0xa5f5);
    let table = vec![ChannelInfo {
        index: 3,
        n: 128,
        input_len: 160,
        output_len: 128,
        kind: OpKind::Demodulate,
        cp: 32,
        engine: "radix4_simd".to_string(),
    }];
    let hello = encode_hello(&table);
    let mut samples = Vec::new();
    for _ in 0..CASES {
        // Pure noise, and a valid table with flipped bytes or cut short.
        let mut payload =
            if rng.gen_bool(0.5) { random_bytes(&mut rng, 96) } else { hello.clone() };
        if rng.gen_bool(0.5) && !payload.is_empty() {
            let at = rng.gen_range(0..payload.len());
            payload[at] ^= rng.gen_range(1..=255u8);
        } else {
            payload.truncate(rng.gen_range(0..=payload.len()));
        }
        // A decoded table is the one its bytes encode.
        if let Ok(decoded) = decode_hello(&payload) {
            assert_eq!(encode_hello(&decoded), payload);
        }
        // Whole samples decode bit-exactly; a ragged tail is refused.
        match take_samples(&payload, &mut samples) {
            Ok(()) => {
                let mut again = Vec::new();
                put_samples(&mut again, &samples);
                assert_eq!(again, payload);
            }
            Err(ProtoError::Malformed(_)) => {
                assert!(!payload.len().is_multiple_of(BYTES_PER_SAMPLE))
            }
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert_eq!(decode_hello(&hello).unwrap(), table);
}
