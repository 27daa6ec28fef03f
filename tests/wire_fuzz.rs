//! Frame-decode fuzz: the wire decoder must survive arbitrary damage.
//!
//! Mirrors the PR 6 WAL torn-tail fuzz at the network layer. A provider
//! reads frames straight off untrusted sockets, so for a valid frame:
//!
//! * every truncation offset must yield "need more bytes" — never a
//!   panic, never a fabricated frame;
//! * every single-bit flip must yield either a typed [`FrameError`]
//!   (magic/length/CRC/kind) or a *different-but-valid* decode only when
//!   the flip landed in the token/payload AND the CRC still matched —
//!   which CRC-32 makes impossible for single-bit damage;
//! * the decoder must never read past the bytes it was given (enforced
//!   structurally: it only sees what `extend` passed in).
//!
//! Inside a frame that passed its CRC sits a payload a Byzantine peer
//! chose. The packed row block is the one part of it whose counts are
//! not byte lengths, so it gets the same treatment: truncations, bit
//! flips and garbage decode to a typed error or to a block no larger
//! than the bytes that carried it.

use dasp_net::{
    batch_items, decode_batch, encode_frame, BatchFrameBuilder, Frame, FrameDecoder, FrameError,
    FrameKind,
};
use dasp_server::proto::{Request, Response, Row, RowBlock};
use proptest::prelude::*;

fn sample_frames() -> Vec<(u64, FrameKind, Vec<u8>)> {
    vec![
        (0, FrameKind::Request, Vec::new()),
        (1, FrameKind::Response, vec![0x42]),
        (u64::MAX, FrameKind::Request, vec![0u8; 9]),
        (
            0xDEAD_BEEF,
            FrameKind::Response,
            (0..255u8).collect::<Vec<u8>>(),
        ),
        (7, FrameKind::Request, vec![0xFF; 1024]),
    ]
}

fn decode_all(bytes: &[u8]) -> Result<Vec<Frame>, FrameError> {
    let mut dec = FrameDecoder::new();
    dec.extend(bytes);
    let mut out = Vec::new();
    loop {
        match dec.next_frame()? {
            Some(f) => out.push(f),
            None => return Ok(out),
        }
    }
}

#[test]
fn every_truncation_is_incomplete_not_panic() {
    for (token, kind, payload) in sample_frames() {
        let wire = encode_frame(token, kind, &payload);
        for cut in 0..wire.len() {
            let result = decode_all(&wire[..cut]);
            match result {
                Ok(frames) => assert!(
                    frames.is_empty(),
                    "truncation at {cut}/{} fabricated a frame",
                    wire.len()
                ),
                Err(e) => panic!("truncation at {cut}/{} errored: {e}", wire.len()),
            }
        }
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    for (token, kind, payload) in sample_frames() {
        let wire = encode_frame(token, kind, &payload);
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut damaged = wire.clone();
                damaged[byte] ^= 1u8 << bit;
                match decode_all(&damaged) {
                    // A flip in the length field can make the frame
                    // "incomplete" (larger length) — acceptable: the
                    // decoder waits for bytes that never come, a clean
                    // stall, not a bad decode. Anything that *does*
                    // decode must not silently differ from the original.
                    Ok(frames) => {
                        for f in &frames {
                            assert!(
                                f.token == token && f.kind == kind && f.payload == payload,
                                "bit flip at byte {byte} bit {bit} produced a DIFFERENT \
                                 valid frame (CRC collision?)"
                            );
                        }
                        assert!(
                            frames.len() <= 1,
                            "bit flip at byte {byte} bit {bit} produced {} frames",
                            frames.len()
                        );
                    }
                    Err(
                        FrameError::BadMagic(_)
                        | FrameError::BadLength { .. }
                        | FrameError::BadCrc { .. }
                        | FrameError::BadKind(_)
                        | FrameError::BadBatch { .. },
                    ) => {}
                }
            }
        }
    }
}

#[test]
fn flips_inside_body_always_caught_by_crc() {
    // Flips strictly inside the CRC-protected body (token/kind/payload)
    // can never decode: CRC-32 detects all single-bit errors.
    let wire = encode_frame(99, FrameKind::Request, b"crc-protected-body");
    for byte in 12..wire.len() {
        for bit in 0..8 {
            let mut damaged = wire.clone();
            damaged[byte] ^= 1u8 << bit;
            match decode_all(&damaged) {
                Err(FrameError::BadCrc { .. }) => {}
                // The kind byte is checked after CRC fails first here.
                other => panic!("body flip at byte {byte} bit {bit}: {other:?}"),
            }
        }
    }
}

#[test]
fn damage_between_frames_poisons_the_stream_once() {
    // Two valid frames with a corrupt one in the middle: the decoder
    // yields the first frame, then a typed error — and after an error
    // the stream is dead (callers close the connection), so the third
    // frame is never decoded from a corrupt stream.
    let a = encode_frame(1, FrameKind::Request, b"first");
    let mut b = encode_frame(2, FrameKind::Request, b"second");
    let c = encode_frame(3, FrameKind::Request, b"third");
    b[14] ^= 0x10; // body damage → CRC mismatch
    let mut stream = Vec::new();
    stream.extend_from_slice(&a);
    stream.extend_from_slice(&b);
    stream.extend_from_slice(&c);

    let mut dec = FrameDecoder::new();
    dec.extend(&stream);
    let first = dec.next_frame().expect("first frame ok").expect("present");
    assert_eq!(first.token, 1);
    assert!(dec.next_frame().is_err(), "damage must surface as an error");
}

fn encode_batch(kind: FrameKind, subs: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut b = BatchFrameBuilder::begin(&mut out, kind);
    for (token, payload) in subs {
        b.push(*token, payload);
    }
    b.finish();
    out
}

#[test]
fn batch_every_truncation_is_incomplete_or_typed_error() {
    // Truncating the *stream* mid-batch must stall cleanly (the frame
    // header promises more bytes); truncating the decoded *body* must
    // yield a typed BadBatch from the sub-iterator — never a panic and
    // never a fabricated sub-message.
    let subs: Vec<(u64, Vec<u8>)> = vec![
        (0, Vec::new()),
        (u64::MAX, vec![0xAB; 3]),
        (7, (0..100u8).collect()),
    ];
    for kind in [FrameKind::BatchRequest, FrameKind::BatchResponse] {
        let wire = encode_batch(kind, &subs);
        for cut in 0..wire.len() {
            match decode_all(&wire[..cut]) {
                Ok(frames) => assert!(
                    frames.is_empty(),
                    "batch truncation at {cut}/{} fabricated a frame",
                    wire.len()
                ),
                Err(e) => panic!("batch truncation at {cut}/{} errored: {e}", wire.len()),
            }
        }
        // Whole frame decodes; now truncate the *body* at every offset.
        let frame = decode_all(&wire).expect("intact").remove(0);
        for cut in 0..frame.payload.len() {
            match decode_batch(&frame.payload[..cut]) {
                Ok(items) => assert!(
                    items.len() <= subs.len(),
                    "body truncation at {cut} fabricated sub-messages"
                ),
                Err(FrameError::BadBatch { .. }) => {}
                Err(e) => panic!("body truncation at {cut}: unexpected error {e}"),
            }
        }
    }
}

#[test]
fn batch_every_single_bit_flip_is_rejected_or_equivalent() {
    // Frame-level CRC guards the whole batch body: any flip inside the
    // envelope is a typed error, and anything that still decodes must be
    // byte-identical to the original (length-field flips can only stall).
    let subs: Vec<(u64, Vec<u8>)> = vec![(1, b"alpha".to_vec()), (2, b"bravo".to_vec())];
    let wire = encode_batch(FrameKind::BatchRequest, &subs);
    for byte in 0..wire.len() {
        for bit in 0..8 {
            let mut damaged = wire.clone();
            damaged[byte] ^= 1u8 << bit;
            match decode_all(&damaged) {
                Ok(frames) => {
                    for f in &frames {
                        let items = decode_batch(&f.payload).expect("decodable batch");
                        assert_eq!(
                            items, subs,
                            "bit flip at byte {byte} bit {bit} produced DIFFERENT sub-messages"
                        );
                    }
                }
                Err(
                    FrameError::BadMagic(_)
                    | FrameError::BadLength { .. }
                    | FrameError::BadCrc { .. }
                    | FrameError::BadKind(_)
                    | FrameError::BadBatch { .. },
                ) => {}
            }
        }
    }
}

#[test]
fn batch_at_decoder_body_cap_decodes_and_one_past_is_rejected() {
    // A batch body exactly at the decoder's configured cap is accepted;
    // one byte past it is a typed BadLength before any allocation.
    const CAP: u32 = 4096;
    // The cap counts the whole CRC-protected body: outer token + kind
    // (9 bytes) plus one sub's token + length prefix (12 bytes).
    let fixed = 9 + 8 + 4;
    let payload = vec![0x5A; CAP as usize - fixed];
    let wire = encode_batch(FrameKind::BatchRequest, &[(42, payload.clone())]);

    let mut dec = FrameDecoder::with_max_body(CAP);
    dec.extend(&wire);
    let frame = dec.next_frame().expect("at cap").expect("present");
    assert_eq!(decode_batch(&frame.payload).unwrap(), vec![(42, payload)]);

    let over = encode_batch(
        FrameKind::BatchRequest,
        &[(42, vec![0x5A; CAP as usize - fixed + 1])],
    );
    let mut dec = FrameDecoder::with_max_body(CAP);
    dec.extend(&over);
    assert!(matches!(
        dec.next_frame(),
        Err(FrameError::BadLength { .. })
    ));
}

fn sample_block() -> RowBlock {
    let mut block = RowBlock::with_capacity(40, 3);
    for i in 0..40u64 {
        let wide = i128::MAX - i128::from(i) * 0x0123_4567_89ab_cdef;
        block.push(i * i + 3, &[wide, -(i as i128), 1 << (i % 60)]);
    }
    block
}

/// Whatever decodes took at least a byte per id and per share.
fn assert_bounded(block: &RowBlock, bytes: usize) {
    assert!(block.len() <= bytes);
    assert!(block.len() * block.cols().len() <= bytes);
    assert!(block.cols().iter().all(|col| col.len() == block.len()));
}

#[test]
fn row_block_every_truncation_is_a_typed_error() {
    let wire = Response::Rows(sample_block()).encode();
    assert_eq!(
        Response::decode(&wire),
        Ok(Response::Rows(sample_block())),
        "intact"
    );
    for cut in 0..wire.len() {
        assert!(
            Response::decode(&wire[..cut]).is_err(),
            "truncation at {cut}/{} decoded",
            wire.len()
        );
    }
}

#[test]
fn row_block_every_single_bit_flip_errors_or_stays_bounded() {
    let rows = sample_block().to_rows();
    let wires = [
        Response::Rows(sample_block()).encode(),
        Request::Insert {
            table: "t".into(),
            rows: rows.clone(),
        }
        .encode(),
        Response::Joined(rows.iter().cloned().zip(rows.iter().cloned()).collect()).encode(),
    ];
    for wire in wires {
        for bit in 0..wire.len() * 8 {
            let mut damaged = wire.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            if let Ok(Response::Rows(block)) = Response::decode(&damaged) {
                assert_bounded(&block, damaged.len());
            }
            if let Ok(Request::Insert { rows, .. }) = Request::decode(&damaged) {
                let shares: usize = rows.iter().map(|r: &Row| r.shares.len()).sum();
                assert!(rows.len() <= damaged.len() && shares <= damaged.len());
            }
        }
    }
}

proptest! {
    #[test]
    fn prop_row_block_garbage_never_panics_or_overallocates(
        body in proptest::collection::vec(any::<u8>(), 0..512),
        counts in proptest::collection::vec(any::<u64>(), 2),
    ) {
        if let Ok(block) = RowBlock::decode(&body) {
            assert_bounded(&block, body.len());
        }
        // The same garbage behind counts that promise anything at all.
        let mut promised = Vec::new();
        for mut count in counts {
            while count >= 0x80 {
                promised.push(count as u8 | 0x80);
                count >>= 7;
            }
            promised.push(count as u8);
        }
        promised.extend(&body);
        if let Ok(block) = RowBlock::decode(&promised) {
            assert_bounded(&block, promised.len());
        }
    }

    #[test]
    fn prop_batch_roundtrip_zero_one_many(
        subs in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..200)),
            0..24,
        )
    ) {
        for kind in [FrameKind::BatchRequest, FrameKind::BatchResponse] {
            let wire = encode_batch(kind, &subs);
            let frame = decode_all(&wire).expect("intact batch").remove(0);
            prop_assert_eq!(frame.kind, kind);
            prop_assert_eq!(frame.token, subs.len() as u64);
            prop_assert_eq!(decode_batch(&frame.payload).expect("subs"), subs.clone());
        }
    }

    #[test]
    fn prop_batch_garbage_body_never_panics(body in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Arbitrary bytes fed to the sub-iterator: each item is Ok or a
        // typed BadBatch, and the iterator fuses after the first error.
        let mut saw_err = false;
        for item in batch_items(&body) {
            prop_assert!(!saw_err, "iterator yielded past an error");
            if item.is_err() {
                saw_err = true;
            }
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    // Deterministic pseudo-random garbage (xorshift), sliced at varying
    // chunk boundaries: the decoder errors or stays incomplete, never
    // panics or loops forever.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut garbage = vec![0u8; 8192];
    for b in garbage.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *b = state as u8;
    }
    for chunk in [1usize, 3, 7, 64, 8192] {
        let mut dec = FrameDecoder::new();
        let mut dead = false;
        for piece in garbage.chunks(chunk) {
            if dead {
                break;
            }
            dec.extend(piece);
            match dec.next_frame() {
                Ok(Some(_)) => panic!("garbage decoded as a frame"),
                Ok(None) => {}
                Err(_) => dead = true,
            }
        }
        assert!(dead, "8 KiB of garbage never produced a typed error");
    }
}
