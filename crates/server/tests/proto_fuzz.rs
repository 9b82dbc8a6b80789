//! Byte-level fuzzing of the wire protocol.
//!
//! The framing and codec layers are the daemon's attack surface: every
//! byte that arrives off a socket flows through `read_frame` /
//! `FrameDecoder` and then `Request::decode` (and the client's
//! `Response::decode`). These properties prove the layer's two safety
//! contracts over thousands of adversarial inputs:
//!
//! 1. **No panics**: arbitrary bytes — truncated, oversized, garbage
//!    opcodes, torn at arbitrary chunk boundaries — produce `Ok` or a
//!    clean `io::Error`, never a panic or an unbounded allocation.
//! 2. **Exact roundtrips**: every value of every request/response
//!    variant survives encode→decode bit-for-bit.
//!
//! The proptest shim draws cases from a deterministic per-(test, case)
//! stream, so any failure here reproduces identically on every machine.

use faascache_platform::sharded::{InvokeOutcome, InvokerStats, Outcomes};
use faascache_server::http::{HttpParseError, HttpParser, MAX_BODY_BYTES, MAX_HEADER_BYTES};
use faascache_server::proto::{self, FrameDecoder, Request, Response, MAX_FRAME};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::{self, Read};

/// A reader that hands out its bytes in caller-chosen chunk sizes, then
/// reports EOF — models a peer whose TCP segments fragment arbitrarily.
struct Chunked {
    data: Vec<u8>,
    cuts: Vec<usize>,
    pos: usize,
    turn: usize,
}

impl Chunked {
    fn new(data: Vec<u8>, cuts: Vec<usize>) -> Self {
        Chunked {
            data,
            cuts,
            pos: 0,
            turn: 0,
        }
    }
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let chunk = if self.cuts.is_empty() {
            buf.len()
        } else {
            let c = self.cuts[self.turn % self.cuts.len()];
            self.turn += 1;
            c.clamp(1, buf.len())
        };
        let n = chunk.min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Function names drawn from the registration charset
/// (`[A-Za-z0-9._-]{1,24}`), built by hand because the proptest shim has
/// no regex strategies.
fn fn_name_strategy() -> impl Strategy<Value = String> {
    const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
    collection::vec(any::<u8>(), 1..24).prop_map(|bytes| {
        bytes
            .iter()
            .map(|b| CHARSET[*b as usize % CHARSET.len()] as char)
            .collect()
    })
}

/// Tenant names drawn from the registration charset, including the empty
/// string (the wire encoding for "default tenant").
fn tenant_strategy() -> impl Strategy<Value = String> {
    const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
    collection::vec(any::<u8>(), 0..24).prop_map(|bytes| {
        bytes
            .iter()
            .map(|b| CHARSET[*b as usize % CHARSET.len()] as char)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1536))]

    #[test]
    fn request_decode_never_panics(bytes in collection::vec(any::<u8>(), 0..64)) {
        let _ = Request::decode(&bytes);
    }

    #[test]
    fn response_decode_never_panics(bytes in collection::vec(any::<u8>(), 0..96)) {
        let _ = Response::decode(&bytes);
    }

    #[test]
    fn accepted_request_bytes_reencode_to_the_same_value(
        bytes in collection::vec(any::<u8>(), 0..32)
    ) {
        // Whatever decode accepts must reencode into bytes that decode
        // back to the same value: no lossy acceptance.
        if let Ok(request) = Request::decode(&bytes) {
            let redecoded = Request::decode(&request.encode()).expect("canonical bytes");
            prop_assert_eq!(redecoded, request);
        }
    }

    #[test]
    fn request_roundtrips_are_exact(function in any::<u32>(), key in any::<u64>()) {
        let variants = [
            Request::Invoke { function },
            Request::InvokeKeyed { function, key },
            Request::Stats,
            Request::Shutdown,
            Request::Ping,
        ];
        for request in variants {
            prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request);
        }
    }

    #[test]
    fn response_roundtrips_are_exact(
        warm in any::<u64>(),
        cold in any::<u64>(),
        mix in any::<u64>(),
        msg_bytes in collection::vec(any::<u8>(), 0..48),
    ) {
        // Error payloads are UTF-8 on the wire; lossy-convert the raw
        // bytes first so the expected value is itself representable.
        let msg = String::from_utf8_lossy(&msg_bytes).into_owned();
        let mut variants = vec![
            Response::Stats(InvokerStats {
                outcomes: Outcomes::from([
                    warm,
                    cold,
                    mix,
                    mix.rotate_left(16),
                    mix.rotate_left(24) ^ warm ^ cold,
                ]),
                evictions: mix.rotate_left(32) ^ warm,
                prewarms: mix.rotate_left(48) ^ cold,
                migrations: mix.rotate_left(8) ^ warm ^ cold,
            }),
            Response::ShutdownStarted,
            Response::Pong,
            Response::Error(msg),
        ];
        variants.extend(InvokeOutcome::ALL.map(Response::Invoked));
        for response in variants {
            prop_assert_eq!(
                Response::decode(&response.encode()).unwrap(),
                response.clone(),
                "variant {:?}", response
            );
        }
    }

    #[test]
    fn read_frame_never_panics_on_arbitrary_streams(
        bytes in collection::vec(any::<u8>(), 0..256),
        cuts in collection::vec(1usize..16, 0..8),
    ) {
        let mut stream = Chunked::new(bytes, cuts);
        // Drain every frame the stream yields; errors are fine, panics
        // and infinite loops are not (the byte budget bounds the loop).
        for _ in 0..64 {
            match proto::read_frame(&mut stream) {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    #[test]
    fn frames_reassemble_across_arbitrary_chunking(
        payload in collection::vec(any::<u8>(), 0..512),
        cuts in collection::vec(1usize..8, 1..6),
    ) {
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, &payload).unwrap();
        let mut stream = Chunked::new(wire, cuts);
        let got = proto::read_frame(&mut stream).unwrap().expect("one frame");
        prop_assert_eq!(got, payload);
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_without_allocation(
        extra in 1usize..1_000_000,
    ) {
        let len = (MAX_FRAME + extra).min(u32::MAX as usize) as u32;
        let mut wire = Vec::from(len.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let err = proto::read_frame(&mut io::Cursor::new(wire)).unwrap_err();
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    // ---- incremental codec (the reactor's resumable FrameDecoder) ----
    //
    // The epoll serving core cannot block on a frame boundary, so it
    // decodes through `FrameDecoder::feed` from whatever bytes the
    // socket yielded. These properties pin the decoder to the blocking
    // reference: same frames out, regardless of how the bytes arrive.

    #[test]
    fn incremental_decoder_byte_at_a_time_matches_blocking_reader(
        payloads in collection::vec(collection::vec(any::<u8>(), 0..64), 0..8),
    ) {
        let mut wire = Vec::new();
        for payload in &payloads {
            proto::write_frame(&mut wire, payload).unwrap();
        }

        // Reference: the blocking reader over the whole stream.
        let mut cursor = io::Cursor::new(wire.clone());
        let mut expected = Vec::new();
        while let Some(frame) = proto::read_frame(&mut cursor).unwrap() {
            expected.push(frame);
        }
        prop_assert_eq!(&expected, &payloads);

        // Incremental: one byte per feed call, worst-case resumption.
        let mut decoder = FrameDecoder::new();
        let mut out = VecDeque::new();
        for byte in &wire {
            decoder.feed(std::slice::from_ref(byte), &mut out).unwrap();
        }
        prop_assert!(!decoder.is_mid_frame(), "stream ends on a boundary");
        let got: Vec<Vec<u8>> = out.into_iter().collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn incremental_decoder_is_chunking_invariant(
        payloads in collection::vec(collection::vec(any::<u8>(), 0..96), 1..6),
        cuts in collection::vec(1usize..16, 1..8),
    ) {
        let mut wire = Vec::new();
        for payload in &payloads {
            proto::write_frame(&mut wire, payload).unwrap();
        }

        let mut decoder = FrameDecoder::new();
        let mut out = VecDeque::new();
        let mut pos = 0usize;
        let mut turn = 0usize;
        while pos < wire.len() {
            let take = cuts[turn % cuts.len()].min(wire.len() - pos);
            turn += 1;
            decoder.feed(&wire[pos..pos + take], &mut out).unwrap();
            pos += take;
        }
        prop_assert!(!decoder.is_mid_frame());
        let got: Vec<Vec<u8>> = out.into_iter().collect();
        prop_assert_eq!(got, payloads);
    }

    #[test]
    fn incremental_decoder_never_panics_on_garbage(
        bytes in collection::vec(any::<u8>(), 0..256),
        cuts in collection::vec(1usize..16, 1..8),
    ) {
        // Arbitrary bytes: either they decode (possibly to zero frames,
        // leaving a partial in the buffer) or feed returns a clean
        // error; it must never panic, loop, or over-allocate. Once an
        // error is reported the reactor closes the connection, so no
        // post-error behavior is specified.
        let mut decoder = FrameDecoder::new();
        let mut out = VecDeque::new();
        let mut pos = 0usize;
        let mut turn = 0usize;
        while pos < bytes.len() {
            let take = cuts[turn % cuts.len()].min(bytes.len() - pos);
            turn += 1;
            if decoder.feed(&bytes[pos..pos + take], &mut out).is_err() {
                break;
            }
            pos += take;
        }
    }

    #[test]
    fn incremental_decoder_rejects_oversized_prefixes(
        extra in 1usize..1_000_000,
    ) {
        let len = (MAX_FRAME + extra).min(u32::MAX as usize) as u32;
        let mut decoder = FrameDecoder::new();
        let mut out = VecDeque::new();
        // The prefix alone must trip the guard before any payload
        // arrives: the decoder may never allocate for a hostile length.
        let err = decoder.feed(&len.to_le_bytes(), &mut out).unwrap_err();
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        prop_assert!(out.is_empty());
    }

    #[test]
    fn register_roundtrips_are_exact(
        name in fn_name_strategy(),
        tenant in tenant_strategy(),
        mem_mb in any::<u32>(),
        warm_us in any::<u64>(),
        cold_us in any::<u64>(),
        (function, created) in (any::<u32>(), any::<bool>()),
    ) {
        // The tenant rides the frame tail, empty meaning "default": both
        // the empty and the populated form must survive bit-for-bit.
        let request = Request::Register { name, mem_mb, warm_us, cold_us, tenant };
        prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request.clone());
        let response = Response::Registered { function, created };
        prop_assert_eq!(Response::decode(&response.encode()).unwrap(), response.clone());
    }

    #[test]
    fn register_decoder_never_panics_on_arbitrary_tenant_bytes(
        name in fn_name_strategy(),
        tail in collection::vec(any::<u8>(), 0..64),
    ) {
        // Adversarial register frames: a well-formed fixed section with
        // arbitrary bytes where the tenant belongs. The decoder must
        // either accept (valid UTF-8 tail) or reject cleanly — and what
        // it accepts must reencode canonically. Never a panic.
        let mut frame = vec![0x06u8];
        frame.extend_from_slice(&64u32.to_le_bytes());
        frame.extend_from_slice(&500u64.to_le_bytes());
        frame.extend_from_slice(&250_000u64.to_le_bytes());
        frame.push(name.len() as u8);
        frame.extend_from_slice(name.as_bytes());
        frame.extend_from_slice(&tail);
        match Request::decode(&frame) {
            Ok(request) => {
                let Request::Register { tenant, .. } = &request else {
                    panic!("opcode 0x06 decoded to non-Register: {request:?}");
                };
                prop_assert_eq!(tenant.as_bytes(), &tail[..]);
                prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request);
            }
            Err(_) => prop_assert!(std::str::from_utf8(&tail).is_err()),
        }
    }

    #[test]
    fn set_quota_roundtrips_are_exact(
        tenant in tenant_strategy(),
        inflight in any::<u64>(),
        mem_mb in any::<u64>(),
        live in any::<bool>(),
    ) {
        // The quota opcode rejects an empty tenant (there is no "default
        // tenant quota" on the wire — that is a boot flag); non-empty
        // tenants must survive bit-for-bit.
        let request = Request::SetTenantQuota {
            tenant: tenant.clone(), inflight, mem_mb,
        };
        if tenant.is_empty() {
            prop_assert!(Request::decode(&request.encode()).is_err());
        } else {
            prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request.clone());
        }
        let response = Response::QuotaSet { live };
        prop_assert_eq!(Response::decode(&response.encode()).unwrap(), response.clone());
    }

    #[test]
    fn set_quota_decoder_never_panics_on_arbitrary_tenant_bytes(
        inflight in any::<u64>(),
        mem_mb in any::<u64>(),
        tail in collection::vec(any::<u8>(), 0..48),
    ) {
        // Adversarial quota frames: a well-formed fixed section with
        // arbitrary bytes where the tenant belongs.
        let mut frame = vec![0x07u8];
        frame.extend_from_slice(&inflight.to_le_bytes());
        frame.extend_from_slice(&mem_mb.to_le_bytes());
        frame.extend_from_slice(&tail);
        match Request::decode(&frame) {
            Ok(request) => {
                let Request::SetTenantQuota { tenant, .. } = &request else {
                    panic!("opcode 0x07 decoded to non-SetTenantQuota: {request:?}");
                };
                prop_assert_eq!(tenant.as_bytes(), &tail[..]);
                prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request);
            }
            Err(_) => prop_assert!(tail.is_empty() || std::str::from_utf8(&tail).is_err()),
        }
    }

    // ---- HTTP gateway parser (the second attack surface) -------------
    //
    // The `--http-listen` listener feeds raw socket bytes through
    // `HttpParser::feed`, so it inherits the same contracts as the
    // binary framing layer: no panics on garbage, chunking invariance,
    // limits enforced before buffering, and no byte bleed between
    // pipelined requests.

    #[test]
    fn http_parser_never_panics_on_arbitrary_bytes(
        bytes in collection::vec(any::<u8>(), 0..512),
        cuts in collection::vec(1usize..16, 1..8),
    ) {
        let mut parser = HttpParser::new();
        let mut out = VecDeque::new();
        let mut pos = 0usize;
        let mut turn = 0usize;
        while pos < bytes.len() {
            let take = cuts[turn % cuts.len()].min(bytes.len() - pos);
            turn += 1;
            if parser.feed(&bytes[pos..pos + take], &mut out).is_err() {
                break;
            }
            pos += take;
        }
    }

    #[test]
    fn http_parser_byte_at_a_time_matches_bulk_delivery(
        requests in collection::vec(
            (
                fn_name_strategy(),
                collection::vec(any::<u8>(), 0..48),
                (any::<bool>(), any::<u64>()).prop_map(|(some, k)| some.then_some(k)),
            ),
            1..5,
        ),
    ) {
        let mut wire = Vec::new();
        for (name, body, key) in &requests {
            wire.extend_from_slice(format!("POST /invoke/{name} HTTP/1.1\r\n").as_bytes());
            if let Some(key) = key {
                wire.extend_from_slice(format!("Idempotency-Key: {key}\r\n").as_bytes());
            }
            wire.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
            wire.extend_from_slice(body);
        }

        let mut bulk = HttpParser::new();
        let mut bulk_out = VecDeque::new();
        bulk.feed(&wire, &mut bulk_out).expect("bulk parse");
        prop_assert!(!bulk.is_mid_request());

        let mut trickle = HttpParser::new();
        let mut trickle_out = VecDeque::new();
        for byte in &wire {
            trickle.feed(std::slice::from_ref(byte), &mut trickle_out).expect("trickle parse");
        }
        prop_assert!(!trickle.is_mid_request());

        prop_assert_eq!(bulk_out.len(), requests.len());
        let bulk_vec: Vec<_> = bulk_out.into_iter().collect();
        let trickle_vec: Vec<_> = trickle_out.into_iter().collect();
        prop_assert_eq!(&bulk_vec, &trickle_vec);
        for (req, (name, body, key)) in bulk_vec.iter().zip(&requests) {
            prop_assert_eq!(&req.target, &format!("/invoke/{name}"));
            prop_assert_eq!(&req.body, body);
            prop_assert_eq!(&req.idem_key, key);
        }
    }

    #[test]
    fn http_parser_rejects_oversized_bodies_before_buffering(
        extra in 1usize..1_000_000,
    ) {
        let len = MAX_BODY_BYTES + extra;
        let head = format!("POST /invoke/0 HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
        let mut parser = HttpParser::new();
        let mut out = VecDeque::new();
        // The declared length alone must trip the 413 — the parser may
        // never allocate for a hostile Content-Length.
        let err = parser.feed(head.as_bytes(), &mut out).unwrap_err();
        prop_assert_eq!(err, HttpParseError::BodyTooLarge);
        prop_assert_eq!(err.status(), 413);
        prop_assert!(out.is_empty());
    }

    #[test]
    fn http_parser_rejects_oversized_header_blocks(
        pad in 1usize..2_048,
        cut in 1usize..64,
    ) {
        // A header block that never terminates: the parser must give up
        // with 431 once MAX_HEADER_BYTES have arrived, not buffer on.
        let mut wire = Vec::from(&b"GET /healthz HTTP/1.1\r\n"[..]);
        while wire.len() <= MAX_HEADER_BYTES + pad {
            wire.extend_from_slice(b"X-Filler: yes\r\n");
        }
        let mut parser = HttpParser::new();
        let mut out = VecDeque::new();
        let mut result = Ok(());
        for chunk in wire.chunks(cut) {
            result = parser.feed(chunk, &mut out);
            if result.is_err() {
                break;
            }
        }
        let err = result.unwrap_err();
        prop_assert_eq!(err, HttpParseError::HeadersTooLarge);
        prop_assert_eq!(err.status(), 431);
        prop_assert!(out.is_empty());
    }

    #[test]
    fn http_429_retry_after_formatting_is_exact(
        secs in (any::<bool>(), 0u64..100_000).prop_map(|(some, s)| some.then_some(s)),
        body in collection::vec(any::<u8>(), 0..64),
    ) {
        // The throttle response advertises its backoff via Retry-After;
        // the header must appear exactly when requested, carry the exact
        // value, and leave the rest of the response (status line,
        // Content-Length framing) untouched.
        let mut wire = Vec::new();
        faascache_server::http::write_response_with(
            &mut wire, 429, "application/json", &body, false, secs,
        );
        let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").expect("header end") + 4;
        let head = std::str::from_utf8(&wire[..head_end]).expect("ascii head");
        prop_assert!(head.starts_with("HTTP/1.1 429 "), "{head}");
        prop_assert!(head.contains(&format!("Content-Length: {}\r\n", body.len())), "{head}");
        match secs {
            Some(s) => prop_assert!(head.contains(&format!("\r\nRetry-After: {s}\r\n")), "{head}"),
            None => prop_assert!(!head.contains("Retry-After"), "{head}"),
        }
        prop_assert_eq!(&wire[head_end..], &body[..]);
    }

    #[test]
    fn unknown_tenants_map_to_the_default_quota(
        named in collection::vec((fn_name_strategy(), any::<u64>(), any::<u64>()), 0..6),
        probe in fn_name_strategy(),
        default_inflight in any::<u64>(),
    ) {
        use faascache_platform::tenant::{TenantQuota, TenantQuotas};
        let mut quotas = TenantQuotas::unlimited();
        quotas.default = TenantQuota { inflight: default_inflight, mem_mb: u64::MAX };
        for (name, inflight, mem_mb) in &named {
            quotas.set(name, TenantQuota { inflight: *inflight, mem_mb: *mem_mb });
        }
        let got = quotas.quota_for(&probe);
        match named.iter().rev().find(|(name, _, _)| *name == probe) {
            // Last set() for a name wins; everything else is default.
            Some((_, inflight, mem_mb)) => {
                prop_assert_eq!(got, TenantQuota { inflight: *inflight, mem_mb: *mem_mb });
            }
            None => prop_assert_eq!(got, quotas.default),
        }
    }

    #[test]
    fn http_parser_never_bleeds_bytes_across_pipelined_requests(
        first_body in collection::vec(any::<u8>(), 0..128),
        boundary_cut in 0usize..16,
    ) {
        // The first body is raw bytes — including sequences that look
        // like header terminators or request lines. Content-Length is
        // the only boundary; the follow-up request must parse intact
        // even when the TCP segmentation splits right at the boundary.
        let mut wire = Vec::new();
        wire.extend_from_slice(
            format!("POST /invoke/1 HTTP/1.1\r\nContent-Length: {}\r\n\r\n", first_body.len())
                .as_bytes(),
        );
        wire.extend_from_slice(&first_body);
        let boundary = wire.len();
        wire.extend_from_slice(b"GET /metrics HTTP/1.1\r\n\r\n");

        let mut parser = HttpParser::new();
        let mut out = VecDeque::new();
        let split = boundary.saturating_sub(boundary_cut);
        parser.feed(&wire[..split], &mut out).expect("first segment");
        parser.feed(&wire[split..], &mut out).expect("second segment");

        prop_assert_eq!(out.len(), 2);
        let first = out.pop_front().unwrap();
        let second = out.pop_front().unwrap();
        prop_assert_eq!(first.target.as_str(), "/invoke/1");
        prop_assert_eq!(first.body, first_body);
        prop_assert_eq!(second.target.as_str(), "/metrics");
        prop_assert_eq!(second.method.as_str(), "GET");
        prop_assert!(second.body.is_empty());
        prop_assert!(!parser.is_mid_request());
    }
}
