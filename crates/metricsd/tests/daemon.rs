//! Integration tests: many clients, fault degradation, backpressure
//! eviction, TCP end-to-end, fleet-versus-single-session determinism,
//! the virtual serving clock, the park/resume + overload-shedding
//! machinery underneath the resilient client, and dispatch under
//! arbitrary request sequences.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use metricsd::queue::ClientPipe;
use metricsd::wire::{errcode, metrics, Header, Request, Response, TraceCtx};
use metricsd::{
    ClientError, Daemon, DaemonConfig, MetricsClient, Transport, RESUME_TTL_PUMPS,
    RETRY_AFTER_PUMPS, STALL_GRACE_PUMPS,
};
use proptest::prelude::*;
use simcpu::machine::MachineSpec;
use simcpu::phase::Phase;
use simcpu::types::{CpuId, CpuMask};
use simos::faults::{FaultKind, FaultPlan};
use simos::kernel::{Kernel, KernelConfig, KernelHandle};
use simos::task::{Op, ScriptedProgram};

fn boot(faults: Option<FaultPlan>) -> KernelHandle {
    let kernel = Kernel::boot_handle(MachineSpec::raptor_lake_i7_13700(), KernelConfig::default());
    {
        let mut k = kernel.lock();
        for cpu in [0usize, 4, 16, 17] {
            k.spawn(
                &format!("w{cpu}"),
                Box::new(ScriptedProgram::new([
                    Op::Compute(Phase::scalar(u64::MAX / 4)),
                    Op::Exit,
                ])),
                CpuMask::from_cpus([cpu]),
                0,
            );
        }
        if let Some(plan) = faults {
            k.install_faults(&plan);
        }
    }
    kernel
}

/// Run the daemon on a background thread, pumping until told to stop;
/// returns (connector, stop flag, join handle yielding the daemon after
/// one final pump, so its self-metrics gauges cover every pump before).
fn background_daemon(
    daemon: Daemon,
) -> (
    metricsd::Connector,
    Arc<AtomicBool>,
    std::thread::JoinHandle<Daemon>,
) {
    let connector = daemon.connector();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let handle = std::thread::spawn(move || {
        let mut daemon = daemon;
        while !stop2.load(Ordering::Relaxed) {
            daemon.pump();
            std::thread::sleep(Duration::from_micros(500));
        }
        daemon.pump();
        daemon
    });
    (connector, stop, handle)
}

#[test]
fn many_concurrent_clients_over_blocking_rpc() {
    let daemon = Daemon::new(boot(None), DaemonConfig::default());
    let (connector, stop, handle) = background_daemon(daemon);

    let mut clients: Vec<_> = (0..32)
        .map(|_| MetricsClient::new(connector.connect()))
        .collect();
    for c in clients.iter_mut() {
        c.hello().expect("hello");
        assert_eq!(c.n_cpus, 24);
    }

    let mut subs = Vec::new();
    for (i, c) in clients.iter_mut().enumerate() {
        subs.push(
            c.subscribe(1 << (i % 24), metrics::INSTRUCTIONS | metrics::CYCLES)
                .expect("subscribe"),
        );
    }
    // Counters advance between two spaced reads on the busy CPU.
    let first = match clients[0].read(subs[0]).expect("read") {
        Response::Counters { values, .. } => values[0].value,
        _ => unreachable!(),
    };
    std::thread::sleep(Duration::from_millis(30));
    let second = match clients[0].read(subs[0]).expect("read") {
        Response::Counters {
            values, quality, ..
        } => {
            assert_eq!(quality, 0, "healthy machine reads are quality Ok");
            values[0].value
        }
        _ => unreachable!(),
    };
    assert!(second > first, "instructions advance: {first} -> {second}");

    for c in clients.iter_mut() {
        c.close().expect("close");
    }
    stop.store(true, Ordering::Relaxed);
    let daemon = handle.join().unwrap();
    assert_eq!(
        self_counter(&daemon, "sessions"),
        0,
        "closed sessions were reaped"
    );
    assert!(self_counter(&daemon, "reads_served") >= 32 * 3);
}

#[test]
fn hotplugged_cpu_degrades_quality_without_hanging() {
    // CPU 17 goes down at 100ms for 150ms; reads over it must come back
    // promptly with quality Lost while down, Scaled after recovery.
    let kernel = boot(Some(FaultPlan::new(3).at(
        100_000_000,
        FaultKind::CpuOffline {
            cpu: CpuId(17),
            down_ns: Some(150_000_000),
        },
    )));
    let mut daemon = Daemon::new(
        kernel,
        DaemonConfig {
            ticks_per_pump: 20, // 20ms of sim per pump
            ..DaemonConfig::default()
        },
    );
    let connector = daemon.connector();
    let mut c = MetricsClient::new(connector.connect());

    c.post(&Request::Hello {
        proto: metricsd::PROTO_VERSION,
    })
    .unwrap();
    daemon.pump();
    assert!(matches!(c.take().unwrap(), Response::Welcome { .. }));
    c.post(&Request::Subscribe {
        cpu_mask: (1 << 16) | (1 << 17),
        metrics: metrics::INSTRUCTIONS,
    })
    .unwrap();
    daemon.pump();
    let sub_id = match c.take().unwrap() {
        Response::Subscribed { sub_id, .. } => sub_id,
        other => panic!("wanted Subscribed, got {other:?}"),
    };

    let mut saw_lost = false;
    let mut final_quality = 0;
    for _ in 0..20 {
        c.post(&Request::Read {
            sub_id,
            submit_ns: 0,
        })
        .unwrap();
        daemon.pump();
        match c.take().expect("read never hangs") {
            Response::Counters { quality, .. } => {
                if quality == 2 {
                    saw_lost = true;
                }
                final_quality = quality;
            }
            other => panic!("wanted Counters, got {other:?}"),
        }
    }
    assert!(saw_lost, "offline window surfaced as ReadQuality::Lost");
    assert_eq!(
        final_quality, 1,
        "after recovery the disturbed window reads as Scaled"
    );
}

#[test]
fn slow_consumer_is_evicted_daemon_keeps_serving() {
    let mut daemon = Daemon::new(boot(None), DaemonConfig::default());
    let connector = daemon.connector();
    let mut healthy = MetricsClient::new(connector.connect());
    let mut slow = MetricsClient::new(connector.connect_with_outbox_cap(2));

    for c in [&mut healthy, &mut slow] {
        c.post(&Request::Hello {
            proto: metricsd::PROTO_VERSION,
        })
        .unwrap();
    }
    daemon.pump();
    assert!(matches!(healthy.take().unwrap(), Response::Welcome { .. }));
    assert!(matches!(slow.take().unwrap(), Response::Welcome { .. }));

    for c in [&mut healthy, &mut slow] {
        c.post(&Request::Subscribe {
            cpu_mask: 1,
            metrics: metrics::ALL,
        })
        .unwrap();
    }
    slow.post(&Request::StreamDeltas { every_pumps: 1 })
        .unwrap();
    daemon.pump();
    let healthy_sub = match healthy.take().unwrap() {
        Response::Subscribed { sub_id, .. } => sub_id,
        other => panic!("{other:?}"),
    };
    // Slow stops draining here; its outbox (cap 2) holds the two acks,
    // every delta-stream push after them is refused, and it stays full.

    for _ in 0..STALL_GRACE_PUMPS + 4 {
        healthy
            .post(&Request::Read {
                sub_id: healthy_sub,
                submit_ns: 0,
            })
            .unwrap();
        daemon.pump();
        assert!(
            matches!(healthy.take().unwrap(), Response::Counters { .. }),
            "healthy session keeps being served while the slow one stalls"
        );
    }
    assert_eq!(
        self_counter(&daemon, "evictions"),
        1,
        "slow consumer was evicted"
    );

    // The eviction notice is force-pushed at the tail of its queue.
    let mut saw_evicted = false;
    loop {
        match slow.try_take() {
            Ok(Some(Response::Evicted { .. })) | Err(ClientError::Evicted { .. }) => {
                saw_evicted = true;
                break;
            }
            Ok(Some(_)) => continue,
            Ok(None) | Err(_) => break,
        }
    }
    assert!(saw_evicted, "evicted session learns its fate");
    // Its connection is dead for good.
    assert!(slow
        .post(&Request::Read {
            sub_id: 1,
            submit_ns: 0
        })
        .is_err());
}

#[test]
fn protocol_errors_are_answered_not_dropped() {
    let mut daemon = Daemon::new(boot(None), DaemonConfig::default());
    let connector = daemon.connector();
    let mut c = MetricsClient::new(connector.connect());

    // Not hello'ed yet.
    c.post(&Request::GetSelfMetrics).unwrap();
    daemon.pump();
    match c.take().unwrap() {
        Response::Err { code, .. } => assert_eq!(code, metricsd::wire::errcode::NOT_HELLOED),
        other => panic!("{other:?}"),
    }
    // Wrong protocol version.
    c.post(&Request::Hello { proto: 999 }).unwrap();
    daemon.pump();
    match c.take().unwrap() {
        Response::Err { code, .. } => assert_eq!(code, metricsd::wire::errcode::BAD_PROTO),
        other => panic!("{other:?}"),
    }
    c.post(&Request::Hello {
        proto: metricsd::PROTO_VERSION,
    })
    .unwrap();
    daemon.pump();
    assert!(matches!(c.take().unwrap(), Response::Welcome { .. }));

    // Garbage bytes become a BAD_FRAME error, not a hang or a panic.
    let pipe_garbage: Vec<u8> = vec![3, 0, 0, 0, 0xff, 1, 2];
    use metricsd::Transport;
    let mut t = connector.connect();
    // (fresh pipe: garbage on the main session would be fine too, but
    // this also proves un-hello'ed sessions get frame errors first)
    t.send(pipe_garbage).unwrap();
    daemon.pump();
    let frame = t.recv(Duration::from_secs(1)).expect("error reply");
    match Response::decode(&frame).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, metricsd::wire::errcode::BAD_FRAME),
        other => panic!("{other:?}"),
    }

    // Unknown subscription.
    c.post(&Request::Read {
        sub_id: 404,
        submit_ns: 0,
    })
    .unwrap();
    // Empty CPU mask.
    c.post(&Request::Subscribe {
        cpu_mask: 0,
        metrics: metrics::INSTRUCTIONS,
    })
    .unwrap();
    daemon.pump();
    match c.take().unwrap() {
        Response::Err { code, .. } => assert_eq!(code, metricsd::wire::errcode::NO_SUCH_SUB),
        other => panic!("{other:?}"),
    }
    match c.take().unwrap() {
        Response::Err { code, .. } => assert_eq!(code, metricsd::wire::errcode::EMPTY_MASK),
        other => panic!("{other:?}"),
    }
}

/// A version-skewed peer gets the typed unknown-tag error, not a frame
/// error: protocol 2's retired request tags and protocol 1's are refused
/// by tag, before any payload is read. A known tag whose payload is cut
/// short is still a bad frame.
#[test]
fn unknown_request_tags_get_the_typed_error() {
    let mut daemon = Daemon::new(boot(None), DaemonConfig::default());
    let mut t = daemon.connector().connect();
    let mut reply_code = |t: &mut ClientPipe, frame: Vec<u8>| {
        t.send(frame).unwrap();
        daemon.pump();
        match Response::decode(&t.recv(Duration::from_secs(1)).expect("reply")).unwrap() {
            Response::Err { code, .. } => code,
            other => panic!("{other:?}"),
        }
    };
    for tag in [0x02, 0x03, 0x06, 0x07, 0x08, 0x09, 0x0d, 0x10] {
        let code = reply_code(&mut t, vec![1, 0, 0, 0, tag]);
        assert_eq!(code, errcode::UNKNOWN_TAG, "tag {tag:#04x}");
    }
    let read = Request::Read {
        sub_id: 1,
        submit_ns: 0,
    }
    .encode();
    let mut cut = read[..read.len() - 2].to_vec();
    cut[0] -= 2;
    assert_eq!(reply_code(&mut t, cut), errcode::BAD_FRAME);
}

#[test]
fn tcp_end_to_end() {
    let daemon = Daemon::new(boot(None), DaemonConfig::default());
    let listener = metricsd::tcp::Listener::spawn(daemon.connector(), "127.0.0.1:0").expect("bind");
    let addr = listener.addr();
    let (_connector, stop, handle) = background_daemon(daemon);

    let mut c =
        MetricsClient::new(metricsd::tcp::TcpTransport::connect(addr).expect("connect loopback"));
    c.hello().expect("hello over tcp");
    assert_eq!(c.n_cpus, 24);
    let sub = c
        .subscribe(0b11, metrics::INSTRUCTIONS | metrics::ENERGY_PKG)
        .expect("subscribe");
    std::thread::sleep(Duration::from_millis(20));
    match c.read(sub).expect("read over tcp") {
        Response::Counters { values, .. } => {
            assert_eq!(values.len(), 2);
            assert!(values.iter().any(|v| v.metric == metrics::INSTRUCTIONS));
        }
        other => panic!("{other:?}"),
    }
    let (counters, _) = c.self_metrics().expect("self-metrics over tcp");
    assert!(counters.iter().any(|(name, v)| name == "pumps" && *v > 0));
    c.close().expect("close over tcp");

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap();
}

#[test]
fn fleet_of_sessions_matches_one_session_holding_every_subscription() {
    // Mini in-test rerun of loadgen's serial-reference invariant:
    // identical kernels, 24 sessions with one subscription each vs one
    // session holding all 24, same lockstep schedule → identical final
    // values.
    const SUBS: usize = 24;
    let kernel = || {
        boot(Some(
            FaultPlan::new(11)
                .at(
                    40_000_000,
                    FaultKind::CpuOffline {
                        cpu: CpuId(17),
                        down_ns: Some(60_000_000),
                    },
                )
                .at(60_000_000, FaultKind::SysfsFlaky { dur_ns: 30_000_000 }),
        ))
    };
    let subscribe = |i: usize| Request::Subscribe {
        cpu_mask: (1 << (i % 24)) | (1 << 17),
        metrics: 1 + (i % 7) as u8,
    };
    // Subscription i goes to client `owner(i)`; returns the final
    // values per subscription.
    let run = |mut daemon: Daemon, n_clients: usize| -> Vec<Vec<(u8, u64)>> {
        let owner = |i: usize| i % n_clients;
        let connector = daemon.connector();
        let mut clients: Vec<_> = (0..n_clients)
            .map(|_| MetricsClient::new(connector.connect()))
            .collect();
        for c in clients.iter_mut() {
            c.post(&Request::Hello {
                proto: metricsd::PROTO_VERSION,
            })
            .unwrap();
        }
        daemon.pump();
        for c in clients.iter_mut() {
            c.take().unwrap();
        }
        for i in 0..SUBS {
            clients[owner(i)].post(&subscribe(i)).unwrap();
        }
        daemon.pump();
        let subs: Vec<u32> = (0..SUBS)
            .map(|i| match clients[owner(i)].take().unwrap() {
                Response::Subscribed { sub_id, .. } => sub_id,
                other => panic!("{other:?}"),
            })
            .collect();
        for _ in 0..8 {
            daemon.pump();
        }
        for (i, &sub_id) in subs.iter().enumerate() {
            clients[owner(i)]
                .post(&Request::Read {
                    sub_id,
                    submit_ns: 0,
                })
                .unwrap();
        }
        daemon.pump();
        (0..SUBS)
            .map(|i| match clients[owner(i)].take().unwrap() {
                Response::Counters { sub_id, values, .. } => {
                    assert_eq!(sub_id, subs[i], "replies come back in request order");
                    values.into_iter().map(|v| (v.metric, v.value)).collect()
                }
                other => panic!("{other:?}"),
            })
            .collect()
    };
    let fleet = run(Daemon::new(kernel(), DaemonConfig::default()), SUBS);
    let single = run(
        Daemon::new(
            kernel(),
            DaemonConfig {
                max_requests_per_pump: SUBS as u32,
                ..DaemonConfig::default()
            },
        ),
        1,
    );
    assert_eq!(
        fleet, single,
        "a fleet of sessions serves the values one session holding every subscription gets"
    );
    assert!(
        fleet
            .iter()
            .flat_map(|v| v.iter())
            .any(|(_, value)| *value > 0),
        "the comparison is not vacuous"
    );
}

#[test]
fn one_serve_queue_per_pump_orders_the_virtual_clock() {
    // Every request served in a pump queues behind the ones served
    // before it in that pump, whichever session sent them: two reads
    // posted with the same submit time complete serve_ns apart.
    let cfg = DaemonConfig::default();
    let serve_ns = cfg.serve_ns;
    assert!(serve_ns > 0, "the default config models a serving cost");
    let mut daemon = Daemon::new(boot(None), cfg);
    let connector = daemon.connector();
    let mut clients: Vec<_> = (0..2)
        .map(|_| MetricsClient::new(connector.connect()))
        .collect();
    for c in clients.iter_mut() {
        c.post(&Request::Hello {
            proto: metricsd::PROTO_VERSION,
        })
        .unwrap();
    }
    daemon.pump();
    for c in clients.iter_mut() {
        c.take().unwrap();
        c.post(&Request::Subscribe {
            cpu_mask: 1,
            metrics: metrics::INSTRUCTIONS,
        })
        .unwrap();
    }
    daemon.pump();
    let subs: Vec<u32> = clients
        .iter_mut()
        .map(|c| match c.take().unwrap() {
            Response::Subscribed { sub_id, .. } => sub_id,
            other => panic!("{other:?}"),
        })
        .collect();
    for (c, &sub_id) in clients.iter_mut().zip(&subs) {
        c.post(&Request::Read {
            sub_id,
            submit_ns: 0,
        })
        .unwrap();
    }
    daemon.pump();
    let latencies: Vec<u64> = clients
        .iter_mut()
        .map(|c| match c.take().unwrap() {
            Response::Counters { latency_ns, .. } => latency_ns,
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(
        latencies[1],
        latencies[0] + serve_ns,
        "the second session's read is served after the first's"
    );
}

/// The frame header for an untraced RPC with sequence id `seq`.
fn seq_header(seq: u32) -> Header {
    Header {
        seq,
        trace: TraceCtx::default(),
    }
}

/// Send one RPC with a checksummed seq header, pump, and return the
/// header reply (skipping any interleaved pushes).
fn seq_rpc(t: &mut ClientPipe, daemon: &mut Daemon, seq: u32, req: &Request) -> Response {
    t.send(req.encode_with(&seq_header(seq))).unwrap();
    daemon.pump();
    recv_seq(t, seq)
}

fn recv_seq(t: &mut ClientPipe, seq: u32) -> Response {
    loop {
        let frame = t.recv(Duration::from_secs(1)).expect("reply");
        match Response::decode_framed(&frame).unwrap() {
            (Some(h), resp) => {
                assert_eq!(h, seq_header(seq), "reply echoes the request header");
                return resp;
            }
            _ => continue, // stream pushes, eviction notices, …
        }
    }
}

fn self_counter(daemon: &Daemon, name: &str) -> u64 {
    daemon
        .self_metrics()
        .counters()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

#[test]
fn dead_transport_parks_and_resume_restores_the_session() {
    let mut daemon = Daemon::new(boot(None), DaemonConfig::default());
    let connector = daemon.connector();
    let mut t = connector.connect();

    let token = match seq_rpc(
        &mut t,
        &mut daemon,
        1,
        &Request::Hello {
            proto: metricsd::PROTO_VERSION,
        },
    ) {
        Response::Welcome { session_token, .. } => session_token,
        other => panic!("{other:?}"),
    };
    let sub_id = match seq_rpc(
        &mut t,
        &mut daemon,
        2,
        &Request::Subscribe {
            cpu_mask: 0b11,
            metrics: metrics::INSTRUCTIONS,
        },
    ) {
        Response::Subscribed { sub_id, .. } => sub_id,
        other => panic!("{other:?}"),
    };
    let read_tick = match seq_rpc(
        &mut t,
        &mut daemon,
        3,
        &Request::Read {
            sub_id,
            submit_ns: 0,
        },
    ) {
        Response::Counters { tick, quality, .. } => {
            assert_eq!(quality, 0, "healthy read before the loss");
            tick
        }
        other => panic!("{other:?}"),
    };

    // Unclean death: no Close, the transport just disappears. The next
    // pump reaps the session into the parked table instead of dropping
    // its subscriptions.
    t.shutdown();
    daemon.pump();
    assert_eq!(daemon.parked_count(), 1, "dead session parked, not lost");
    daemon.pump();

    let mut t2 = connector.connect();
    match seq_rpc(
        &mut t2,
        &mut daemon,
        4,
        &Request::Resume {
            session_token: token,
        },
    ) {
        Response::Resumed {
            session_token,
            gap_pumps,
            cur_tick,
            ..
        } => {
            assert_eq!(
                session_token, token,
                "the token survives so repeated deaths keep resuming"
            );
            assert!(gap_pumps >= 1, "the missed window is explicit");
            assert!(cur_tick > read_tick);
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(daemon.parked_count(), 0);

    // The subscription survived, but the gap is not silent: its reads
    // are Scaled. Subscribing again re-baselines.
    match seq_rpc(
        &mut t2,
        &mut daemon,
        5,
        &Request::Read {
            sub_id,
            submit_ns: 0,
        },
    ) {
        Response::Counters { quality, .. } => {
            assert_eq!(quality, 1, "resumed subscription reads as Scaled")
        }
        other => panic!("{other:?}"),
    }
    let fresh = match seq_rpc(
        &mut t2,
        &mut daemon,
        6,
        &Request::Subscribe {
            cpu_mask: 0b11,
            metrics: metrics::INSTRUCTIONS,
        },
    ) {
        Response::Subscribed { sub_id: fresh, .. } => fresh,
        other => panic!("{other:?}"),
    };
    assert_ne!(fresh, sub_id, "the resumed session keeps its sub ids");
    for (seq, id, want) in [(7, fresh, 0), (8, sub_id, 1)] {
        match seq_rpc(
            &mut t2,
            &mut daemon,
            seq,
            &Request::Read {
                sub_id: id,
                submit_ns: 0,
            },
        ) {
            Response::Counters { quality, .. } => {
                assert_eq!(quality, want, "fresh reads Ok, resumed still Scaled")
            }
            other => panic!("{other:?}"),
        }
    }

    daemon.pump();
    assert_eq!(self_counter(&daemon, "conn_parks"), 1);
    assert_eq!(self_counter(&daemon, "sessions_resumed"), 1);
}

#[test]
fn reply_cache_dedups_reissues_even_across_a_resume() {
    let mut daemon = Daemon::new(boot(None), DaemonConfig::default());
    let connector = daemon.connector();
    let mut t = connector.connect();

    let token = match seq_rpc(
        &mut t,
        &mut daemon,
        1,
        &Request::Hello {
            proto: metricsd::PROTO_VERSION,
        },
    ) {
        Response::Welcome { session_token, .. } => session_token,
        other => panic!("{other:?}"),
    };

    // The same Subscribe frame twice (a paranoid client reissuing into
    // a slow link): one application, two identical replies.
    let sub_frame = Request::Subscribe {
        cpu_mask: 1,
        metrics: metrics::CYCLES,
    }
    .encode_with(&seq_header(2));
    t.send(sub_frame.clone()).unwrap();
    t.send(sub_frame.clone()).unwrap();
    daemon.pump();
    let first = recv_seq(&mut t, 2);
    let second = recv_seq(&mut t, 2);
    assert_eq!(first, second, "reissue served from the reply cache");
    let sub_id = match first {
        Response::Subscribed { sub_id, .. } => sub_id,
        other => panic!("{other:?}"),
    };

    // Kill the transport and resume: the reply cache is part of the
    // parked state, so a reissue from before the death still dedups
    // instead of double-subscribing.
    t.shutdown();
    daemon.pump();
    let mut t2 = connector.connect();
    assert!(matches!(
        seq_rpc(
            &mut t2,
            &mut daemon,
            3,
            &Request::Resume {
                session_token: token,
            },
        ),
        Response::Resumed { .. }
    ));
    t2.send(sub_frame).unwrap();
    daemon.pump();
    match recv_seq(&mut t2, 2) {
        Response::Subscribed { sub_id: again, .. } => {
            assert_eq!(again, sub_id, "pre-death reissue dedups after resume")
        }
        other => panic!("{other:?}"),
    }

    daemon.pump();
    assert_eq!(self_counter(&daemon, "dup_reissues"), 2);
}

#[test]
fn overload_sheds_typed_replies_and_never_evicts() {
    let mut daemon = Daemon::new(
        boot(None),
        DaemonConfig {
            pump_budget: 1,
            ..DaemonConfig::default()
        },
    );
    let connector = daemon.connector();
    let mut t = connector.connect();

    assert!(matches!(
        seq_rpc(
            &mut t,
            &mut daemon,
            1,
            &Request::Hello {
                proto: metricsd::PROTO_VERSION,
            },
        ),
        Response::Welcome { .. }
    ));
    let sub_id = match seq_rpc(
        &mut t,
        &mut daemon,
        2,
        &Request::Subscribe {
            cpu_mask: 1,
            metrics: metrics::ALL,
        },
    ) {
        Response::Subscribed { sub_id, .. } => sub_id,
        other => panic!("{other:?}"),
    };

    // Three reads into a budget of one: one served with its header,
    // two shed with a *plain* typed Overloaded (the shed is pre-decode,
    // so it cannot echo a seq — and the client holds one RPC in
    // flight, so attribution is unambiguous).
    for seq in [3, 4, 5] {
        t.send(
            Request::Read {
                sub_id,
                submit_ns: 0,
            }
            .encode_with(&seq_header(seq)),
        )
        .unwrap();
    }
    daemon.pump();
    let mut served = 0;
    let mut shed = 0;
    while let Some(frame) = t.try_recv() {
        match Response::decode_framed(&frame).unwrap() {
            (Some(_), Response::Counters { .. }) => served += 1,
            (None, Response::Overloaded { retry_after_pumps }) => {
                assert_eq!(
                    retry_after_pumps, RETRY_AFTER_PUMPS,
                    "the backoff hint rides along"
                );
                shed += 1;
            }
            other => panic!("{other:?}"),
        }
    }
    assert_eq!((served, shed), (1, 2));

    // Shed requests were never applied, so reissuing them is safe and
    // eventually drains: budget one per pump.
    for seq in [4, 5] {
        assert!(matches!(
            seq_rpc(
                &mut t,
                &mut daemon,
                seq,
                &Request::Read {
                    sub_id,
                    submit_ns: 0,
                },
            ),
            Response::Counters { .. }
        ));
    }

    daemon.pump();
    assert_eq!(self_counter(&daemon, "reqs_shed"), 2);
    assert_eq!(
        self_counter(&daemon, "evictions"),
        0,
        "overload never evicts"
    );
    assert_eq!(
        self_counter(&daemon, "sessions"),
        1,
        "the session is still live"
    );
}

#[test]
fn parked_sessions_expire_after_ttl() {
    let mut daemon = Daemon::new(boot(None), DaemonConfig::default());
    let connector = daemon.connector();
    let mut t = connector.connect();

    let token = match seq_rpc(
        &mut t,
        &mut daemon,
        1,
        &Request::Hello {
            proto: metricsd::PROTO_VERSION,
        },
    ) {
        Response::Welcome { session_token, .. } => session_token,
        other => panic!("{other:?}"),
    };
    t.shutdown();
    daemon.pump();
    assert_eq!(daemon.parked_count(), 1);

    // Sit past the TTL; the parked state is reaped for good.
    for _ in 0..RESUME_TTL_PUMPS + 2 {
        daemon.pump_quiescent();
    }
    assert_eq!(daemon.parked_count(), 0, "stale parked session reaped");
    assert_eq!(self_counter(&daemon, "parked_reaped"), 1);

    let mut t2 = connector.connect();
    match seq_rpc(
        &mut t2,
        &mut daemon,
        2,
        &Request::Resume {
            session_token: token,
        },
    ) {
        Response::Err { code, .. } => {
            assert_eq!(code, errcode::NO_SUCH_TOKEN, "expiry is a typed refusal")
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn delta_stream_pushes_keyframe_then_deltas_and_mirror_tracks() {
    use metricsd::{MirrorOutcome, StreamMirror};

    let mut daemon = Daemon::new(boot(None), DaemonConfig::default());
    let connector = daemon.connector();
    let mut t = connector.connect();

    t.send(
        Request::Hello {
            proto: metricsd::PROTO_VERSION,
        }
        .encode(),
    )
    .unwrap();
    daemon.pump();
    let frame = t.recv(Duration::from_secs(1)).expect("welcome");
    assert!(matches!(
        Response::decode(&frame).unwrap(),
        Response::Welcome { .. }
    ));

    t.send(Request::StreamDeltas { every_pumps: 1 }.encode())
        .unwrap();
    daemon.pump();
    let frame = t.recv(Duration::from_secs(1)).expect("stream ack");
    assert!(matches!(
        Response::decode(&frame).unwrap(),
        Response::Subscribed { .. }
    ));

    // Every subsequent pump pushes exactly one stream frame: a keyframe
    // first (no base yet), bit-exact deltas afterwards.
    let mut mirror = StreamMirror::new();
    let mut last_snap = None;
    for _ in 0..6 {
        last_snap = Some(daemon.pump());
        while let Some(frame) = t.try_recv() {
            let resp = Response::decode(&frame).unwrap();
            match mirror.apply(&resp) {
                MirrorOutcome::Applied => {}
                MirrorOutcome::NeedKeyframe => panic!("healthy stream desynced: {resp:?}"),
                MirrorOutcome::NotStream => panic!("unexpected non-stream push: {resp:?}"),
            }
        }
    }
    let snap = last_snap.unwrap();
    assert!(mirror.synced, "mirror synced after healthy stream");
    assert_eq!(mirror.keyframes, 1, "exactly one keyframe to bootstrap");
    assert_eq!(mirror.deltas, 5, "every later pump arrived as a delta");
    assert_eq!(mirror.desyncs, 0);
    assert_eq!(mirror.tick, snap.tick, "mirror caught up to the daemon");
    assert_eq!(mirror.time_ns, snap.time_ns);
    assert_eq!(mirror.energy_uj, snap.energy_pkg_uj);
    let want: Vec<(u64, u64)> = snap
        .cpus
        .iter()
        .map(|c| (c.instructions, c.cycles))
        .collect();
    assert_eq!(mirror.cpus, want, "per-CPU counters reconstructed exactly");

    // A client nack (AckTick 0) forces the next push back to a keyframe.
    t.send(Request::AckTick { tick: 0 }.encode()).unwrap();
    daemon.pump();
    daemon.pump();
    let mut saw_keyframe = false;
    while let Some(frame) = t.try_recv() {
        let resp = Response::decode(&frame).unwrap();
        if matches!(resp, Response::TickKeyframe { .. }) {
            saw_keyframe = true;
        }
        match mirror.apply(&resp) {
            MirrorOutcome::Applied | MirrorOutcome::NotStream => {}
            MirrorOutcome::NeedKeyframe => panic!("nack recovery desynced: {resp:?}"),
        }
    }
    assert!(saw_keyframe, "nack forced a fresh keyframe");
    assert!(mirror.synced);
    assert_eq!(mirror.desyncs, 0);
}

#[test]
fn counter_wrap_before_open_serves_the_unfaulted_counts() {
    use metricsd::{MirrorOutcome, StreamMirror};

    // Installed at boot, the wrap fault fires before the collector opens
    // its events: every register starts within 1,000 counts of the
    // 48-bit limit, and the busy CPUs' wrap in the first tick. `read()`
    // returns 64-bit counts, so the per-CPU instructions and cycles the
    // daemon streams equal an unfaulted daemon's, pump for pump.
    let served = |faults: Option<FaultPlan>| -> Vec<Vec<(u64, u64)>> {
        let mut daemon = Daemon::new(boot(faults), DaemonConfig::default());
        let mut c = MetricsClient::new(daemon.connector().connect());
        c.post(&Request::Hello {
            proto: metricsd::PROTO_VERSION,
        })
        .unwrap();
        daemon.pump();
        assert!(matches!(c.take().unwrap(), Response::Welcome { .. }));
        c.post(&Request::StreamDeltas { every_pumps: 1 }).unwrap();
        daemon.pump();
        let mut mirror = StreamMirror::new();
        (0..8)
            .map(|_| {
                daemon.pump();
                while let Some(resp) = c.try_take().unwrap() {
                    if let MirrorOutcome::NeedKeyframe = mirror.apply(&resp) {
                        panic!("healthy stream desynced: {resp:?}");
                    }
                }
                assert!(mirror.synced);
                mirror.cpus.clone()
            })
            .collect()
    };
    let clean = served(None);
    let wrapped = served(Some(
        FaultPlan::new(5).at(0, FaultKind::CounterWrap { headroom: 1_000 }),
    ));
    assert_eq!(wrapped, clean, "the wrap fault changed served counts");
    assert!(
        clean.iter().all(|cpus| cpus[0].0 > 0 && cpus[0].1 > 0),
        "cpu0 counts instructions and cycles every pump"
    );
}

#[test]
fn flipped_seq_bit_is_refused_and_the_reissue_applies_once() {
    let mut daemon = Daemon::new(boot(None), DaemonConfig::default());
    let connector = daemon.connector();
    let mut t = connector.connect();
    assert!(matches!(
        seq_rpc(
            &mut t,
            &mut daemon,
            1,
            &Request::Hello {
                proto: metricsd::PROTO_VERSION,
            },
        ),
        Response::Welcome { .. }
    ));

    // Bit 2 of the seq flips in transit (seq 2 would read as seq 6).
    // The seq follows the length prefix, the tag and the crc.
    let frame = Request::Subscribe {
        cpu_mask: 0b11,
        metrics: metrics::INSTRUCTIONS,
    }
    .encode_with(&seq_header(2));
    let mut flipped = frame.clone();
    flipped[4 + 1 + 8] ^= 1 << 2;
    t.send(flipped).unwrap();
    daemon.pump();
    let reply = t.recv(Duration::from_secs(1)).expect("refusal");
    match Response::decode_framed(&reply).unwrap() {
        (None, Response::Err { code, .. }) => assert_eq!(code, errcode::BAD_CHECKSUM),
        other => panic!("wanted a plain BAD_CHECKSUM, got {other:?}"),
    }

    // The client reissues the intact frame: one subscription, sub 1.
    t.send(frame).unwrap();
    daemon.pump();
    assert!(matches!(
        recv_seq(&mut t, 2),
        Response::Subscribed { sub_id: 1, .. }
    ));
    match seq_rpc(
        &mut t,
        &mut daemon,
        3,
        &Request::Read {
            sub_id: 2,
            submit_ns: 0,
        },
    ) {
        Response::Err { code, .. } => assert_eq!(code, errcode::NO_SUCH_SUB),
        other => panic!("a second subscription exists: {other:?}"),
    }
    daemon.pump();
    assert_eq!(self_counter(&daemon, "bad_checksums"), 1);
}

/// Request variants `fuzz_request` builds.
const FUZZ_REQUESTS: u8 = 10;

/// One well-formed request for the dispatch proptest. `Resume` always
/// names `token`, the live parked session's.
fn fuzz_request(sel: u8, a: u64, b: u64, c: u32, token: u64) -> Request {
    match sel % FUZZ_REQUESTS {
        0 => Request::Hello {
            proto: if c.is_multiple_of(4) {
                c as u16
            } else {
                metricsd::PROTO_VERSION
            },
        },
        1 => Request::Subscribe {
            cpu_mask: a,
            metrics: c as u8,
        },
        2 => Request::Read {
            sub_id: c % 4,
            submit_ns: b,
        },
        3 => Request::Close,
        4 => Request::GetSelfMetrics,
        5 => Request::Resume {
            session_token: token,
        },
        6 => Request::StreamDeltas { every_pumps: c % 3 },
        7 => Request::AckTick { tick: b },
        8 => Request::QueryRange {
            series: c as u8,
            agg: (c >> 8) as u8,
            start_tick: a,
            end_tick: b,
            max_points: c,
        },
        _ => Request::GetHealth,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary well-formed request sequences, with or without a
    /// header, against a daemon holding a parked session: every
    /// `Resume` names the live token, and some steps kill the fuzzing
    /// transport so the session parks again. The daemon never panics
    /// and keeps answering a second session's reads.
    #[test]
    fn arbitrary_requests_and_resumes_never_wedge_the_daemon(
        ops in proptest::collection::vec(
            (0u8..FUZZ_REQUESTS + 2, 0u64..u64::MAX, 0u64..u64::MAX, 0u32..u32::MAX, 0u32..4),
            1..24,
        ),
    ) {
        let mut daemon = Daemon::new(boot(None), DaemonConfig::default());
        let connector = daemon.connector();

        let mut t = connector.connect();
        let token = match seq_rpc(
            &mut t,
            &mut daemon,
            1,
            &Request::Hello {
                proto: metricsd::PROTO_VERSION,
            },
        ) {
            Response::Welcome { session_token, .. } => session_token,
            other => panic!("{other:?}"),
        };
        seq_rpc(
            &mut t,
            &mut daemon,
            2,
            &Request::Subscribe {
                cpu_mask: 1,
                metrics: metrics::ALL,
            },
        );
        t.shutdown();
        daemon.pump();
        prop_assert_eq!(daemon.parked_count(), 1);

        let mut healthy = MetricsClient::new(connector.connect());
        healthy
            .post(&Request::Hello {
                proto: metricsd::PROTO_VERSION,
            })
            .unwrap();
        healthy
            .post(&Request::Subscribe {
                cpu_mask: 1,
                metrics: metrics::INSTRUCTIONS,
            })
            .unwrap();
        daemon.pump();
        prop_assert!(matches!(healthy.take().unwrap(), Response::Welcome { .. }));
        let healthy_sub = match healthy.take().unwrap() {
            Response::Subscribed { sub_id, .. } => sub_id,
            other => panic!("{other:?}"),
        };

        let mut t = connector.connect();
        for (sel, a, b, c, seq) in ops {
            if sel >= FUZZ_REQUESTS {
                // Transport death: the session parks under its token
                // (the original one, once a Resume has restored it).
                t.shutdown();
                daemon.pump();
                t = connector.connect();
                continue;
            }
            let req = fuzz_request(sel, a, b, c, token);
            let frame = match seq {
                0 => req.encode(),
                seq => req.encode_with(&Header {
                    seq,
                    trace: TraceCtx {
                        trace_id: a | 2,
                        parent_span: 0,
                        sampled: b & 1 == 1,
                    },
                }),
            };
            // A closed or evicted session refuses frames; that is fine.
            let _ = t.send(frame);
            healthy
                .post(&Request::Read {
                    sub_id: healthy_sub,
                    submit_ns: 0,
                })
                .unwrap();
            daemon.pump();
            while let Some(reply) = t.try_recv() {
                prop_assert!(Response::decode(&reply).is_ok(), "undecodable reply");
            }
            prop_assert!(
                matches!(healthy.take().unwrap(), Response::Counters { .. }),
                "the second session keeps being served"
            );
        }
    }
}
