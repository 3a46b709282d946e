//! Property tests for the wire codec: every variant round-trips, and
//! hostile frames — truncated, bit-flipped, oversized, or pure byte
//! soup — come back as typed [`metricsd::wire::WireError`]s, never as
//! a panic. This is the codec half of the chaos-hardening story: the
//! fault injector can only be survivable if decode failures are
//! recoverable values.

use metricsd::wire::{
    CpuKeyframe, FrameDecoder, Header, HistSummary, MetricValue, Request, Response, SloHealth,
    TraceCtx, WireError, MAX_FRAME, PROTO_VERSION,
};
use proptest::prelude::*;

/// Request variants `request_from` builds.
const REQUESTS: u8 = 10;

/// Build one of every request variant from a generated value pool.
fn request_from(sel: u8, a: u64, b: u64, c: u32, d: u8, e: u16) -> Request {
    match sel % REQUESTS {
        0 => Request::Hello { proto: e },
        1 => Request::Subscribe {
            cpu_mask: a,
            metrics: d,
        },
        2 => Request::Read {
            sub_id: c,
            submit_ns: b,
        },
        3 => Request::Close,
        4 => Request::GetSelfMetrics,
        5 => Request::Resume { session_token: a },
        6 => Request::StreamDeltas { every_pumps: c },
        7 => Request::AckTick { tick: a },
        8 => Request::QueryRange {
            series: d % 10,
            agg: d % 6,
            start_tick: a,
            end_tick: b,
            max_points: c,
        },
        _ => Request::GetHealth,
    }
}

/// A header from the same value pool.
fn header_from(a: u64, c: u32, d: u8) -> Header {
    Header {
        seq: c,
        trace: TraceCtx {
            trace_id: a,
            parent_span: c.rotate_left(7),
            sampled: d & 1 == 1,
        },
    }
}

/// Response variants `response_from` builds.
const RESPONSES: u8 = 13;

/// Build one of every response variant from a generated value pool.
#[allow(clippy::too_many_arguments)]
fn response_from(
    sel: u8,
    a: u64,
    b: u64,
    c: u32,
    d: u8,
    e: u16,
    s: String,
    vals: Vec<MetricValue>,
) -> Response {
    match sel % RESPONSES {
        0 => Response::Welcome {
            session_id: a,
            proto: PROTO_VERSION,
            n_cpus: c,
            tick_ns: b,
            session_token: a ^ b,
        },
        1 => Response::Subscribed {
            sub_id: c,
            base_tick: b,
        },
        2 => Response::Counters {
            sub_id: c,
            tick: a,
            time_ns: b,
            latency_ns: a ^ b,
            quality: d % 3,
            values: vals,
        },
        3 => Response::Err { code: e, msg: s },
        4 => Response::Evicted { reason: s },
        5 => Response::Closed,
        6 => Response::SelfMetrics {
            counters: vec![(s, a)],
            hists: vec![HistSummary {
                name: "read_latency_ns".to_string(),
                count: a,
                min: b,
                max: a | b,
                p50: a,
                p90: b,
                p99: a,
            }],
        },
        7 => Response::Resumed {
            session_id: a,
            session_token: b,
            cur_tick: a ^ b,
            gap_pumps: b,
        },
        8 => Response::TickKeyframe {
            tick: a,
            time_ns: b,
            temp_mc: a as i64,
            energy_uj: b ^ a,
            crc: a.rotate_left(17),
            cpus: vec![
                CpuKeyframe {
                    online: d & 1 == 1,
                    instructions: a,
                    cycles: b,
                },
                CpuKeyframe {
                    online: d & 2 == 2,
                    instructions: u64::MAX - a,
                    cycles: 0,
                },
            ],
        },
        9 => Response::TickDelta {
            base_tick: a,
            tick: a.wrapping_add(1),
            d_time_ns: b,
            temp_mc: b as i64,
            d_energy_uj: a as i64,
            crc: b.rotate_left(33),
            cpu_deltas: vec![(a as i64, -(c as i64)), (i64::MIN, i64::MAX)],
        },
        10 => Response::Overloaded {
            retry_after_pumps: c,
        },
        11 => Response::RangeReply {
            series: d % 10,
            agg: d % 6,
            tier: d % 4,
            count: a,
            min: b.min(a),
            max: b.max(a),
            points: vec![(a, b), (b, a ^ c as u64)],
        },
        _ => Response::Health {
            pumps: a,
            slos: vec![
                SloHealth {
                    kind: d % 3,
                    target: a,
                    window_pumps: c,
                    breaches: b,
                    last_breach_pump: a ^ b,
                    worst: b,
                    exemplar_trace_id: a & !1,
                },
                SloHealth {
                    kind: 2,
                    target: u64::MAX - a,
                    window_pumps: c ^ 1,
                    breaches: 0,
                    last_breach_pump: 0,
                    worst: 0,
                    exemplar_trace_id: 0,
                },
            ],
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every request variant survives encode → decode unchanged, with
    /// and without the header.
    #[test]
    fn requests_round_trip(
        sel in 0u8..REQUESTS,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in 0u32..u32::MAX,
        d in 0u8..u8::MAX,
        e in 0u16..u16::MAX,
    ) {
        let req = request_from(sel, a, b, c, d, e);
        let frame = req.encode();
        prop_assert_eq!(Request::decode_framed(&frame).unwrap(), (None, req.clone()));
        let header = header_from(a, c, d);
        let frame = req.encode_with(&header);
        prop_assert_eq!(Request::decode_framed(&frame).unwrap(), (Some(header), req));
    }

    /// Every response variant survives encode → decode unchanged, with
    /// and without the header.
    #[test]
    fn responses_round_trip(
        sel in 0u8..RESPONSES,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in 0u32..u32::MAX,
        d in 0u8..u8::MAX,
        e in 0u16..u16::MAX,
        s in "[ -~]{0,24}",
        vals in proptest::collection::vec(
            (0u8..8, 0u64..u64::MAX).prop_map(|(metric, value)| MetricValue { metric, value }),
            0..6,
        ),
    ) {
        let resp = response_from(sel, a, b, c, d, e, s, vals);
        let frame = resp.encode();
        prop_assert_eq!(Response::decode_framed(&frame).unwrap(), (None, resp.clone()));
        let header = header_from(a, c, d);
        let frame = resp.encode_with(&header);
        prop_assert_eq!(Response::decode_framed(&frame).unwrap(), (Some(header), resp));
    }

    /// Any strict prefix of a RangeReply or Health frame is a typed
    /// error too — the new observability responses half-decode as
    /// little as every older variant.
    #[test]
    fn truncated_observability_responses_are_typed_errors(
        sel in RESPONSES - 2..RESPONSES,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in 0u32..u32::MAX,
        d in 0u8..u8::MAX,
        cut in 0.0f64..1.0,
    ) {
        let frame = response_from(sel, a, b, c, d, 1, String::new(), Vec::new()).encode();
        let keep = (frame.len() as f64 * cut) as usize;
        prop_assert!(keep < frame.len());
        prop_assert!(Response::decode(&frame[..keep]).is_err());
    }

    /// Any strict prefix of a valid frame is a typed error: the length
    /// prefix no longer matches, so nothing partial ever half-decodes.
    #[test]
    fn truncated_frames_are_typed_errors(
        sel in 0u8..REQUESTS,
        a in 0u64..u64::MAX,
        c in 0u32..u32::MAX,
        cut in 0.0f64..1.0,
        headed in 0u8..2,
    ) {
        let req = request_from(sel, a, a ^ 3, c, 7, 1);
        let frame = if headed == 1 {
            req.encode_with(&header_from(a, c, 7))
        } else {
            req.encode()
        };
        let keep = (frame.len() as f64 * cut) as usize;
        prop_assert!(keep < frame.len());
        prop_assert!(Request::decode(&frame[..keep]).is_err());
        prop_assert!(Response::decode(&frame[..keep]).is_err());
    }

    /// A single flipped bit anywhere in a valid frame never panics the
    /// decoder — it yields a typed error or another well-formed value.
    /// In a header frame, any flip outside the length prefix fails to
    /// decode or fails the checksum: it never passes with a different
    /// tag, seq, trace context or payload.
    #[test]
    fn bit_flips_never_panic(
        sel in 0u8..REQUESTS,
        a in 0u64..u64::MAX,
        c in 0u32..u32::MAX,
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let req = request_from(sel, a, a ^ 5, c, 3, 2);
        let mut frame = req.encode();
        let i = (frame.len() as f64 * pos) as usize % frame.len();
        frame[i] ^= 1 << bit;
        let _ = Request::decode(&frame);
        let _ = Response::decode(&frame);

        let mut frame = req.encode_with(&header_from(a, c, 3));
        let i = 4 + (((frame.len() - 4) as f64 * pos) as usize % (frame.len() - 4));
        frame[i] ^= 1 << bit;
        prop_assert!(Request::decode_framed(&frame).is_err(), "flip at byte {}", i);
        prop_assert!(Response::decode_framed(&frame).is_err(), "flip at byte {}", i);
        if frame[4] & metricsd::wire::HEADER_BIT != 0 {
            prop_assert_eq!(Request::decode_framed(&frame), Err(WireError::CHECKSUM));
        }
    }

    /// A length prefix past MAX_FRAME is refused outright, whatever
    /// the buffer behind it claims.
    #[test]
    fn oversized_headers_are_refused(
        over in 1u32..1024,
        tag in 0u8..u8::MAX,
        body in proptest::collection::vec(0u8..u8::MAX, 1..32),
    ) {
        let len = MAX_FRAME as u32 + over;
        let mut frame = len.to_le_bytes().to_vec();
        frame.push(tag);
        frame.extend_from_slice(&body);
        prop_assert!(Request::decode(&frame).is_err());
        prop_assert!(Response::decode(&frame).is_err());
    }

    /// Arbitrary byte soup — any length, any contents — never panics
    /// either decoder.
    #[test]
    fn byte_soup_never_panics(
        body in proptest::collection::vec(0u8..u8::MAX, 0..64),
    ) {
        let _ = Request::decode(&body);
        let _ = Response::decode(&body);
        // Same soup behind a self-consistent length prefix: exercises
        // the per-variant field decoders, not just the header check.
        let mut framed = (body.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&body);
        let _ = Request::decode(&framed);
        let _ = Response::decode(&framed);
    }

    /// Pipelined decode, part 1: a run of frames chopped at arbitrary
    /// byte boundaries — including mid-prefix and mid-payload splits,
    /// and chunks carrying several whole frames at once — reassembles
    /// to exactly the original frame sequence in order.
    #[test]
    fn frame_decoder_survives_arbitrary_chunking(
        sels in proptest::collection::vec(0u8..REQUESTS, 1..8),
        a in 0u64..u64::MAX,
        c in 0u32..u32::MAX,
        cuts in proptest::collection::vec(0usize..4096, 0..12),
    ) {
        let frames: Vec<Vec<u8>> = sels
            .iter()
            .map(|&sel| request_from(sel, a, a ^ 9, c, 5, 3).encode())
            .collect();
        let stream: Vec<u8> = frames.concat();
        // Cut points anywhere in the stream, dedup'd and sorted: every
        // chunk between neighbours becomes one `feed`.
        let mut points: Vec<usize> = cuts.iter().map(|&x| x % (stream.len() + 1)).collect();
        points.push(0);
        points.push(stream.len());
        points.sort_unstable();
        points.dedup();
        let mut dec = FrameDecoder::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for w in points.windows(2) {
            dec.feed(&stream[w[0]..w[1]]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        prop_assert_eq!(&got, &frames);
        prop_assert_eq!(dec.buffered(), 0);
        // Every reassembled frame still decodes to the request it was.
        for (f, &sel) in got.iter().zip(&sels) {
            prop_assert_eq!(
                Request::decode(f).unwrap(),
                request_from(sel, a, a ^ 9, c, 5, 3)
            );
        }
    }

    /// Pipelined decode, part 2: byte-at-a-time delivery — the worst
    /// possible read pattern — yields the same frames as one big read.
    #[test]
    fn frame_decoder_byte_at_a_time_matches_bulk(
        sels in proptest::collection::vec(0u8..REQUESTS, 1..5),
        a in 0u64..u64::MAX,
        c in 0u32..u32::MAX,
    ) {
        let frames: Vec<Vec<u8>> = sels
            .iter()
            .map(|&sel| request_from(sel, a, !a, c, 1, 8).encode())
            .collect();
        let stream: Vec<u8> = frames.concat();

        let mut bulk = FrameDecoder::new();
        bulk.feed(&stream);
        let mut bulk_got = Vec::new();
        while let Some(f) = bulk.next_frame().unwrap() {
            bulk_got.push(f);
        }

        let mut drip = FrameDecoder::new();
        let mut drip_got = Vec::new();
        for b in &stream {
            drip.feed(std::slice::from_ref(b));
            while let Some(f) = drip.next_frame().unwrap() {
                drip_got.push(f);
            }
        }
        prop_assert_eq!(&bulk_got, &frames);
        prop_assert_eq!(&drip_got, &frames);
    }

    /// Pipelined decode, part 3: valid frames followed by garbage.
    /// Every leading frame is recovered intact; the garbage either
    /// waits as an incomplete frame (plausible prefix) or surfaces as
    /// the decoder's sticky typed error (oversized prefix) — never a
    /// panic, and never a torn or invented frame.
    #[test]
    fn frame_decoder_trailing_garbage_never_desyncs(
        sels in proptest::collection::vec(0u8..REQUESTS, 1..5),
        a in 0u64..u64::MAX,
        c in 0u32..u32::MAX,
        garbage in proptest::collection::vec(0u8..u8::MAX, 1..48),
    ) {
        let frames: Vec<Vec<u8>> = sels
            .iter()
            .map(|&sel| request_from(sel, a, a ^ 0xFF, c, 9, 4).encode())
            .collect();
        let mut stream: Vec<u8> = frames.concat();
        stream.extend_from_slice(&garbage);
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut errored = false;
        loop {
            match dec.next_frame() {
                Ok(Some(f)) => got.push(f),
                Ok(None) => break,
                Err(_) => {
                    errored = true;
                    // Sticky: the error repeats rather than resyncing
                    // into the garbage.
                    prop_assert!(dec.next_frame().is_err());
                    break;
                }
            }
        }
        // All the real frames arrived before anything else happened.
        prop_assert!(got.len() >= frames.len());
        prop_assert_eq!(&got[..frames.len()], &frames[..]);
        // Any extra "frame" must be a self-consistent slice of the
        // garbage tail (the decoder cannot tell it from a real one);
        // each still carries a sane length prefix.
        for extra in &got[frames.len()..] {
            prop_assert!(extra.len() >= 4);
            let len = u32::from_le_bytes([extra[0], extra[1], extra[2], extra[3]]) as usize;
            prop_assert_eq!(extra.len(), 4 + len);
        }
        let _ = errored;
    }
}
