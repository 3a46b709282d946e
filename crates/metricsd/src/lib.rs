//! metricsd — a multi-client counter-serving daemon over the simulated
//! kernel.
//!
//! Many tools want the same counters at the same time; giving each its
//! own `Papi` instance over `Arc<Mutex<Kernel>>` serialises every read
//! on the kernel lock and perturbs the very counts being measured. This
//! crate inverts the arrangement: a single [`snapshot::Collector`] does
//! exactly one kernel pass per pump (the batching window), publishes an
//! immutable [`snapshot::TickSnapshot`] to a [`snapshot::SnapshotCache`],
//! and the [`server::Daemon`] answers every client session from that
//! snapshot without touching the kernel lock. The wire carries only
//! the verbs its clients send; the hardware description stays with PAPI
//! (`papi_avail --json`).
//!
//! Because sessions never touch the kernel, the kernel-op sequence —
//! and therefore every served count — depends only on the pump schedule,
//! not on how many sessions exist or how subscriptions are spread over
//! them. `loadgen` exploits this: a fleet of sessions digests
//! bit-identically to one serial session holding every subscription.
//!
//! Transports: an in-process [`queue::ClientPipe`] (bounded frame queues
//! in both directions, explicit backpressure, slow-consumer eviction)
//! and a TCP-loopback listener ([`tcp`]) speaking the same
//! length-prefixed [`wire`] protocol.

//!
//! Chaos hardening (see DESIGN.md §11): [`chaos`] injects deterministic
//! seeded transport faults over any [`client::Transport`]; [`resilient`]
//! is the reconnecting, resuming client that rides them out via the
//! checksummed frame [`wire::Header`], idempotent reissue, and the
//! daemon's parked-session resume table; the server side answers
//! overload with typed `Overloaded` sheds instead of eviction. The
//! `chaosbench` binary proves the invariant: counter digests under every
//! fault mix are bit-identical to the fault-free run.

//!
//! Serving (DESIGN.md §14): the pump thread serves one session table
//! inline, in admission order. Sessions flag their inboxes via an
//! atomic readiness bit, and idle sessions are skipped without touching
//! a lock. Subscribers get
//! counter pushes from one verb, delta-encoded streaming
//! ([`wire::Request::StreamDeltas`]): one pre-encoded keyframe/delta
//! pair per pump shared by every subscriber, with client-side
//! [`client::StreamMirror`] reconstruction and CRC self-validation.
//! Daemon-wide counters live in one ledger, the self-metrics registry
//! ([`server::Daemon::self_metrics`], `GetSelfMetrics` on the wire).

pub mod chaos;
pub mod client;
pub mod history;
pub mod queue;
pub mod resilient;
pub mod server;
pub mod snapshot;
pub mod tcp;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosStats, ChaosTransport};
pub use client::{ClientError, MetricsClient, MirrorOutcome, StreamMirror, Transport};
pub use history::{Breach, History, RangeResult, Rollup, SloKind, SloSpec};
pub use resilient::{ResilientClient, ResilientStats};
pub use server::{
    Connector, Daemon, DaemonConfig, RESUME_TTL_PUMPS, RETRY_AFTER_PUMPS, STALL_GRACE_PUMPS,
};
pub use snapshot::{Collector, CpuCounters, SnapshotCache, StreamFrames, TickSnapshot};
pub use wire::{CpuKeyframe, FrameDecoder, HistSummary, Request, Response, PROTO_VERSION};
