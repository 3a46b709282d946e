//! Trace exporters: Chrome trace-event JSON and a compact text dump.
//!
//! The JSON flavour is the classic `{"traceEvents": [...]}` array format
//! understood by Perfetto and `chrome://tracing`. Each [`Track`] becomes
//! one named thread under a single process: tick begin/end pairs map to
//! `"B"`/`"E"` duration events, everything else to `"i"` instants with
//! the payload in `args`. Timestamps are sim-nanoseconds rendered as
//! fractional microseconds (the unit both UIs expect).
//!
//! The writer is manual string assembly so this crate stays dependency
//! free; `jsonw::validate` in the bench bins is the external check that
//! the output is well-formed.

use crate::{span, EventKind, TraceEvent};

/// One named event stream (a CPU, "kernel", "hw", "papi", the daemon's
/// "serve" track).
#[derive(Debug, Clone)]
pub struct Track {
    pub name: String,
    pub events: Vec<TraceEvent>,
}

impl Track {
    pub fn new(name: impl Into<String>, events: Vec<TraceEvent>) -> Track {
        Track {
            name: name.into(),
            events,
        }
    }
}

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Sim-ns rendered as microseconds with nanosecond precision.
fn push_ts(out: &mut String, t_ns: u64) {
    out.push_str(&format!("{}.{:03}", t_ns / 1000, t_ns % 1000));
}

fn push_event(out: &mut String, tid: usize, e: &TraceEvent) {
    let (name, ph) = match e.kind {
        EventKind::TickBegin => ("tick", "B"),
        EventKind::TickEnd => ("tick", "E"),
        // Causal spans render as duration slices named by hop so a
        // request reads as `rpc:client` / `rpc:serve` bars in Perfetto.
        EventKind::SpanBegin => (span::hop_name(e.code), "B"),
        EventKind::SpanEnd => (span::hop_name(e.code), "E"),
        k => (k.name(), "i"),
    };
    out.push_str("{\"name\":\"");
    push_escaped(out, name);
    out.push_str("\",\"cat\":\"sim\",\"ph\":\"");
    out.push_str(ph);
    out.push_str("\",\"pid\":1,\"tid\":");
    out.push_str(&tid.to_string());
    out.push_str(",\"ts\":");
    push_ts(out, e.t_ns);
    if ph == "i" {
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(&format!(
        ",\"args\":{{\"code\":{},\"a\":{},\"b\":{}}}}}",
        e.code, e.a, e.b
    ));
}

/// Render tracks as Chrome trace-event JSON (Perfetto-loadable).
pub fn chrome_trace_json(tracks: &[Track]) -> String {
    let total: usize = tracks.iter().map(|t| t.events.len()).sum();
    let mut out = String::with_capacity(64 + tracks.len() * 96 + total * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (i, track) in tracks.iter().enumerate() {
        let tid = i + 1;
        if !first {
            out.push(',');
        }
        first = false;
        // Thread-name metadata event labels the integer tid in the UI.
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\""
        ));
        push_escaped(&mut out, &track.name);
        out.push_str("\"}}");
        for e in &track.events {
            out.push(',');
            push_event(&mut out, tid, e);
        }
    }
    push_flow_events(&mut out, tracks);
    out.push_str("]}");
    out
}

/// Stitch causal spans into Perfetto flow arrows: every `SpanBegin`
/// participates in the flow of its primary id (`a`) and, when nonzero,
/// the secondary id it joins (`b` — e.g. a daemon serve span joining the
/// snapshot flow it read from). A flow with ≥ 2 participating slices
/// emits `"s"` (start) at the earliest, `"t"` steps between, and `"f"`
/// with `"bp":"e"` at the last, all bound to the enclosing span slice by
/// matching (pid, tid, ts).
fn push_flow_events(out: &mut String, tracks: &[Track]) {
    use std::collections::BTreeMap;
    // flow id -> [(t_ns, tid, scan order)] in deterministic track order.
    let mut flows: BTreeMap<u64, Vec<(u64, usize, usize)>> = BTreeMap::new();
    let mut order = 0usize;
    for (i, track) in tracks.iter().enumerate() {
        let tid = i + 1;
        for e in &track.events {
            if e.kind != EventKind::SpanBegin {
                continue;
            }
            for id in [e.a, e.b] {
                if id != 0 {
                    flows.entry(id).or_default().push((e.t_ns, tid, order));
                }
            }
            order += 1;
        }
    }
    for (id, mut hops) in flows {
        if hops.len() < 2 {
            continue;
        }
        hops.sort();
        let last = hops.len() - 1;
        for (i, (t_ns, tid, _)) in hops.into_iter().enumerate() {
            let ph = if i == 0 {
                "s"
            } else if i == last {
                "f"
            } else {
                "t"
            };
            out.push_str(&format!(
                ",{{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"{ph}\",\"id\":{id},\"pid\":1,\"tid\":{tid},\"ts\":"
            ));
            push_ts(out, t_ns);
            if ph == "f" {
                out.push_str(",\"bp\":\"e\"");
            }
            out.push('}');
        }
    }
}

/// Compact per-track text dump of the last `last_n` events — the
/// post-mortem format stashed by [`crate::postmortem`].
pub fn text_dump(tracks: &[Track], last_n: usize) -> String {
    let mut out = String::new();
    for track in tracks {
        let skip = track.events.len().saturating_sub(last_n);
        out.push_str(&format!(
            "== {} ({} events{}) ==\n",
            track.name,
            track.events.len(),
            if skip > 0 {
                format!(", last {last_n}")
            } else {
                String::new()
            }
        ));
        for e in &track.events[skip..] {
            out.push_str(&format!(
                "{:>14} ns  {:<22} code={} a={} b={}\n",
                e.t_ns,
                e.kind.name(),
                e.code,
                e.a,
                e.b
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tracks() -> Vec<Track> {
        vec![
            Track::new(
                "cpu0",
                vec![
                    TraceEvent {
                        t_ns: 1_000_000,
                        kind: EventKind::TickBegin,
                        code: 0,
                        a: 1,
                        b: 0,
                    },
                    TraceEvent {
                        t_ns: 2_000_000,
                        kind: EventKind::TickEnd,
                        code: 0,
                        a: 1,
                        b: 0,
                    },
                ],
            ),
            Track::new(
                "kernel",
                vec![TraceEvent {
                    t_ns: 1_500_123,
                    kind: EventKind::SchedMigrate,
                    code: 3,
                    a: 7,
                    b: 0,
                }],
            ),
        ]
    }

    #[test]
    fn chrome_json_has_tracks_spans_and_instants() {
        let json = chrome_trace_json(&sample_tracks());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"cpu0\""));
        assert!(json.contains("\"kernel\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":1500.123"));
        assert!(json.contains("\"sched_migrate\""));
    }

    #[test]
    fn chrome_json_escapes_strings() {
        let t = Track::new(
            "we\"ird\\name",
            vec![TraceEvent {
                t_ns: 0,
                kind: EventKind::DaemonPump,
                code: 0,
                a: 0,
                b: 0,
            }],
        );
        let json = chrome_trace_json(&[t]);
        assert!(json.contains("we\\\"ird\\\\name"));
    }

    fn span(t_ns: u64, kind: EventKind, code: u32, a: u64, b: u64) -> TraceEvent {
        TraceEvent {
            t_ns,
            kind,
            code,
            a,
            b,
        }
    }

    #[test]
    fn spans_render_as_named_slices_with_flow_arrows() {
        let rpc = span::rpc_trace_id(0xf00, 1);
        let snap = span::snapshot_flow_id(9);
        let tracks = vec![
            Track::new(
                "client",
                vec![
                    span(100, EventKind::SpanBegin, span::CLIENT, rpc, 0),
                    span(900, EventKind::SpanEnd, span::CLIENT, rpc, 0),
                ],
            ),
            Track::new(
                "serve",
                vec![
                    span(300, EventKind::SpanBegin, span::SERVE, rpc, snap),
                    span(400, EventKind::SpanEnd, span::SERVE, rpc, snap),
                ],
            ),
            Track::new(
                "collector",
                vec![
                    span(10, EventKind::SpanBegin, span::COLLECTOR, snap, 0),
                    span(20, EventKind::SpanEnd, span::COLLECTOR, snap, 0),
                ],
            ),
        ];
        let json = chrome_trace_json(&tracks);
        assert!(json.contains("\"rpc:client\""));
        assert!(json.contains("\"rpc:serve\""));
        assert!(json.contains("\"collect\""));
        // The RPC flow has 2 hops and the snapshot flow 2 hops: one
        // "s" + one "f" each, no "t" steps.
        assert_eq!(json.matches("\"ph\":\"s\",\"id\":").count(), 2);
        assert_eq!(json.matches("\"ph\":\"f\",\"id\":").count(), 2);
        assert!(json.contains(&format!("\"id\":{rpc}")));
        assert!(json.contains(&format!("\"id\":{snap}")));
        assert!(json.contains("\"bp\":\"e\""));
    }

    #[test]
    fn single_hop_spans_emit_no_flow() {
        let t = Track::new(
            "client",
            vec![
                span(1, EventKind::SpanBegin, span::CLIENT, 42, 0),
                span(2, EventKind::SpanEnd, span::CLIENT, 42, 0),
            ],
        );
        let json = chrome_trace_json(&[t]);
        assert!(!json.contains("\"cat\":\"flow\""), "lone span, no arrow");
    }

    #[test]
    fn three_hop_flow_has_a_step_in_the_middle() {
        let id = 44u64;
        let tracks: Vec<Track> = (0..3)
            .map(|i| {
                Track::new(
                    format!("hop{i}"),
                    vec![span(
                        100 * (i as u64 + 1),
                        EventKind::SpanBegin,
                        span::REACTOR,
                        id,
                        0,
                    )],
                )
            })
            .collect();
        let json = chrome_trace_json(&tracks);
        assert_eq!(json.matches("\"ph\":\"s\",\"id\":44").count(), 1);
        assert_eq!(json.matches("\"ph\":\"t\",\"id\":44").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\",\"id\":44").count(), 1);
    }

    #[test]
    fn text_dump_names_every_kind() {
        // One event of every kind: the dump must never print a raw
        // discriminant (the pre-fix failure mode for late additions).
        let events: Vec<TraceEvent> = crate::ALL_EVENT_KINDS
            .iter()
            .enumerate()
            .map(|(i, &k)| span(i as u64, k, 0, 0, 0))
            .collect();
        let dump = text_dump(&[Track::new("all", events)], usize::MAX);
        for &k in crate::ALL_EVENT_KINDS {
            assert!(dump.contains(k.name()), "dump missing {:?}", k.name());
        }
    }

    #[test]
    fn text_dump_limits_to_last_n() {
        let events: Vec<TraceEvent> = (0..10)
            .map(|t| TraceEvent {
                t_ns: t,
                kind: EventKind::DaemonServe,
                code: 0,
                a: t,
                b: 0,
            })
            .collect();
        let dump = text_dump(&[Track::new("daemon", events)], 3);
        assert!(dump.contains("10 events, last 3"));
        assert!(dump.contains("a=9"));
        assert!(!dump.contains("a=6\n"), "older events trimmed");
    }
}
