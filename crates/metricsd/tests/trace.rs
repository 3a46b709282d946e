//! Flight-recorder coverage for the chaos-recovery event kinds, and
//! ledger cross-checks between the three independent observers of a
//! chaotic run: the client's stats, the client/daemon trace rings, and
//! the daemon's self-metrics registry. Events and counters come from
//! the same code paths, so within one observer the counts must agree
//! *exactly*; across the loss-boundary (client vs daemon under chaos)
//! the daemon may see recoveries the client never learned of — never
//! the reverse.

use metricsd::queue::ClientPipe;
use metricsd::wire::{metrics, Request, Response};
use metricsd::{ChaosConfig, ChaosTransport, Daemon, DaemonConfig, ResilientClient};
use simcpu::machine::MachineSpec;
use simos::kernel::{Kernel, KernelConfig, KernelHandle};
use simtrace::{EventKind, TraceConfig, TraceSink, Track};

/// Kernel with tracing on, so the daemon gets live flight recorders.
fn boot_traced() -> KernelHandle {
    Kernel::boot_handle(
        MachineSpec::raptor_lake_i7_13700(),
        KernelConfig {
            trace: TraceConfig::enabled_with_cap(4096),
            ..KernelConfig::default()
        },
    )
}

fn count_kind(tracks: &[Track], track_prefix: &str, kind: EventKind) -> u64 {
    tracks
        .iter()
        .filter(|t| t.name.starts_with(track_prefix))
        .flat_map(|t| t.events.iter())
        .filter(|e| e.kind == kind)
        .count() as u64
}

fn self_counter(daemon: &Daemon, name: &str) -> u64 {
    daemon
        .self_metrics()
        .counters()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

/// Drive one resilient client through a subscribe and a fixed number
/// of lockstep read rounds, panicking on anything except success.
fn drive_reads<T, F>(c: &mut ResilientClient<T, F>, daemon: &mut Daemon, rounds: u64)
where
    T: metricsd::Transport,
    F: FnMut() -> Option<T>,
{
    assert!(c.begin(&Request::Subscribe {
        cpu_mask: 0b101,
        metrics: metrics::INSTRUCTIONS | metrics::CYCLES,
    }));
    let mut sub_id = 0;
    let mut pending = true;
    for round in 0..rounds {
        if !pending && c.is_idle() && round % 2 == 0 {
            assert!(c.begin(&Request::Read {
                sub_id,
                submit_ns: 0,
            }));
            pending = true;
        }
        c.step();
        assert!(!c.take_session_lost(), "session survives the whole run");
        if let Some(done) = c.take_done() {
            match done.expect("rpc succeeds") {
                Response::Subscribed { sub_id: id, .. } => sub_id = id,
                Response::Counters { .. } => {}
                other => panic!("unexpected reply {other:?}"),
            }
            pending = false;
        }
        daemon.pump();
    }
    // Ride out any in-flight RPC so every ledger is settled.
    let mut settle = 0;
    while !c.is_idle() {
        settle += 1;
        assert!(settle < 2000, "client settled");
        c.step();
        if let Some(done) = c.take_done() {
            done.expect("rpc succeeds");
        }
        daemon.pump_quiescent();
    }
}

/// Chaos run (reset-heavy link): ConnReset/ClientRetry land in the
/// client's ring, SessionResume/ConnReset(park) in the daemon's, and
/// every ring agrees exactly with its sibling counters.
#[test]
fn chaos_recovery_events_land_in_both_flight_recorders() {
    let mut daemon = Daemon::new(boot_traced(), DaemonConfig::default());
    let connector = daemon.connector();
    let chaos = ChaosConfig::preset("reset").unwrap();
    let mut attempt = 0u64;
    let mut c = ResilientClient::new(
        move || {
            attempt += 1;
            Some(ChaosTransport::new(
                connector.connect(),
                chaos.with_seed(0xC0FFEE ^ attempt.wrapping_mul(0x9e3779b97f4a7c15)),
            ))
        },
        5,
    );
    c.set_trace(TraceSink::new(&TraceConfig::enabled_with_cap(4096)));

    drive_reads(&mut c, &mut daemon, 160);
    let stats = c.stats();
    assert!(stats.conn_resets > 0, "the reset preset actually reset");
    assert!(stats.resumes > 0, "at least one park → resume cycle ran");

    // Client ring ↔ client stats: same code path, exact agreement.
    let client_tracks = [Track::new("client", c.trace().events())];
    assert_eq!(
        count_kind(&client_tracks, "client", EventKind::ConnReset),
        stats.conn_resets
    );
    assert_eq!(
        count_kind(&client_tracks, "client", EventKind::ClientRetry),
        stats.retries
    );

    // Daemon rings ↔ daemon registry: parks are recorded on the daemon
    // track (reap time), resumes on the serving track.
    let tracks = daemon.trace_tracks();
    assert_eq!(
        count_kind(&tracks, "daemon", EventKind::ConnReset),
        self_counter(&daemon, "conn_parks")
    );
    assert_eq!(
        count_kind(&tracks, "serve", EventKind::SessionResume),
        self_counter(&daemon, "sessions_resumed")
    );

    // Across the loss boundary the daemon leads, never trails: a
    // Resumed reply can be lost in flight, a resume cannot happen
    // without the daemon serving it.
    assert!(self_counter(&daemon, "sessions_resumed") >= stats.resumes);
    assert!(self_counter(&daemon, "conn_parks") >= stats.resumes);
}

/// Overload run on a loss-free link: every shed is traced, counted,
/// and observed — three ledgers, one number.
#[test]
fn load_sheds_are_traced_and_all_ledgers_agree() {
    let mut daemon = Daemon::new(
        boot_traced(),
        DaemonConfig {
            pump_budget: 1,
            ..DaemonConfig::default()
        },
    );
    let connector = daemon.connector();
    let mut clients: Vec<ResilientClient<ClientPipe, _>> = (0..3)
        .map(|i| {
            let conn = connector.clone();
            ResilientClient::new(move || Some(conn.connect()), i)
        })
        .collect();

    for c in clients.iter_mut() {
        assert!(c.begin(&Request::Subscribe {
            cpu_mask: 1,
            metrics: metrics::CYCLES,
        }));
    }
    let mut sub_ids = vec![0u32; clients.len()];
    for round in 0..120u64 {
        for (i, c) in clients.iter_mut().enumerate() {
            if c.is_idle() && sub_ids[i] != 0 {
                assert!(c.begin(&Request::Read {
                    sub_id: sub_ids[i],
                    submit_ns: 0,
                }));
            }
            c.step();
            if let Some(done) = c.take_done() {
                if let Response::Subscribed { sub_id, .. } = done.expect("rpc succeeds") {
                    sub_ids[i] = sub_id;
                }
            }
        }
        let _ = round;
        daemon.pump();
    }
    let mut settle = 0;
    while clients.iter().any(|c| !c.is_idle()) {
        settle += 1;
        assert!(settle < 2000, "fleet settled");
        for c in clients.iter_mut() {
            c.step();
            if let Some(done) = c.take_done() {
                done.expect("rpc succeeds");
            }
        }
        daemon.pump_quiescent();
    }
    daemon.pump_quiescent();

    let client_overloads: u64 = clients.iter().map(|c| c.stats().overloads).sum();
    let shed_counter = self_counter(&daemon, "reqs_shed");
    let shed_events = count_kind(&daemon.trace_tracks(), "serve", EventKind::LoadShed);
    assert!(shed_counter > 0, "budget 1 under 3 eager clients must shed");
    assert_eq!(shed_counter, shed_events, "registry ↔ trace ring");
    assert_eq!(
        shed_counter, client_overloads,
        "loss-free link: daemon sheds == client-observed overloads"
    );
    assert_eq!(
        self_counter(&daemon, "evictions"),
        0,
        "shedding never evicts"
    );
}
