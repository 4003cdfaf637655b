//! The serving front-end: acceptor, bounded worker pool, and per-tenant
//! admission governor.
//!
//! Topology (thread-per-core with MPMC handoff — the vendored crossbeam
//! channel is cloneable on both ends, so every worker pulls from one
//! bounded queue):
//!
//! ```text
//!  conn threads ──Job{request, reply}──▶ bounded MPMC ──▶ worker pool
//!       ▲                                                   │
//!       └────────────── reply channel (cap 1) ◀─────────────┘
//!  governor thread: polls every tenant's rate vs. quota, walks ladders
//! ```
//!
//! Each connection thread reads one frame at a time and waits for the
//! reply before reading the next, so responses on a connection are always
//! in request order. The queue bound is the server's backpressure: when
//! `try_send` reports full, the connection answers `Overloaded`
//! immediately instead of letting a hot client grow an unbounded backlog.

use crate::io::{read_frame, write_frame};
use crate::protocol::{
    decode_request, encode_response, ErrorCode, Request, Response, WireServerStats,
};
use crate::registry::{RegistryError, TenantRegistry};
use crate::tenant::AdmissionPolicy;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use ustream_common::{Result, UStreamError};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing requests (default 4).
    pub workers: usize,
    /// Bound of the request queue; a full queue answers `Overloaded`
    /// (default 256).
    pub queue_capacity: usize,
    /// Lock shards in the tenant registry (default 16).
    pub buckets: usize,
    /// Largest accepted/emitted frame (default 8 MiB).
    pub max_frame_bytes: usize,
    /// Socket read timeout; doubles as the idle poll so connection
    /// threads notice a shutdown within this bound (default 500 ms).
    pub read_deadline_ms: u64,
    /// Socket write timeout for responses (default 5 000 ms).
    pub write_deadline_ms: u64,
    /// How long a connection waits for a worker's reply before answering
    /// `deadline` (default 30 000 ms).
    pub reply_deadline_ms: u64,
    /// Governor poll interval (default 100 ms).
    pub governor_poll_ms: u64,
    /// Per-tenant admission policy (quota + ladder).
    pub admission: AdmissionPolicy,
    /// Where `Request::Checkpoint` and the final drain checkpoint land;
    /// `None` disables persistence.
    pub checkpoint_path: Option<PathBuf>,
    /// Restore the whole tenant map from this `USRVMAP` checkpoint at
    /// boot; `None` starts empty.
    pub restore_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 256,
            buckets: 16,
            max_frame_bytes: crate::protocol::DEFAULT_MAX_FRAME_BYTES,
            read_deadline_ms: 500,
            write_deadline_ms: 5_000,
            reply_deadline_ms: 30_000,
            governor_poll_ms: 100,
            admission: AdmissionPolicy::default(),
            checkpoint_path: None,
            restore_path: None,
        }
    }
}

impl ServeConfig {
    /// First invalid-field description, if any.
    fn problem(&self) -> Option<String> {
        if self.workers == 0 {
            return Some("workers must be positive".into());
        }
        if self.queue_capacity == 0 {
            return Some("queue_capacity must be positive".into());
        }
        if self.read_deadline_ms == 0 || self.write_deadline_ms == 0 || self.reply_deadline_ms == 0
        {
            return Some("deadlines must be positive".into());
        }
        if self.governor_poll_ms == 0 {
            return Some("governor_poll_ms must be positive".into());
        }
        None
    }
}

/// One queued request plus the channel its answer goes back on.
struct Job {
    req: Request,
    reply: Sender<Response>,
}

/// State shared by every thread of one server instance.
struct ServerState {
    config: ServeConfig,
    registry: TenantRegistry,
    /// Set once by `shutdown_drain` (or a wire `Shutdown`); every loop
    /// polls it.
    stop: AtomicBool,
    /// A client asked for shutdown over the wire; the host (CLI) decides
    /// when to act on it.
    shutdown_requested: AtomicBool,
    /// Live connection threads.
    conns: AtomicUsize,
    /// Jobs handed to the pool but not yet answered.
    inflight: AtomicUsize,
    /// Total frames served.
    frames: AtomicU64,
    /// Total points offered to admission across all tenants.
    points: AtomicU64,
    /// Jobs refused because the queue was full.
    jobs_rejected: AtomicU64,
}

impl ServerState {
    fn stopping(&self) -> bool {
        // relaxed-ok: stop is a level flag polled in loops; no ordering
        // dependency on other state.
        self.stop.load(Ordering::Relaxed)
    }

    fn stats(&self) -> WireServerStats {
        WireServerStats {
            tenants: self.registry.len() as u64,
            // relaxed-ok: monotone statistics counters, read for reporting.
            frames: self.frames.load(Ordering::Relaxed),
            // relaxed-ok: monotone statistics counters, read for reporting.
            points: self.points.load(Ordering::Relaxed),
            // relaxed-ok: monotone statistics counters, read for reporting.
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            workers: self.config.workers,
            queue_capacity: self.config.queue_capacity,
            kernel_backend: umicro::kernel::simd::active().name().to_string(),
        }
    }

    /// Executes one request against the registry (worker-thread context).
    fn execute(&self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::CreateTenant { name, spec } => match self.registry.create(&name, spec) {
                Ok(()) => Response::Created,
                Err(e) => registry_error(e),
            },
            Request::RemoveTenant { name } => {
                if self.registry.remove(&name) {
                    Response::Removed
                } else {
                    registry_error(RegistryError::NoSuchTenant)
                }
            }
            Request::Ingest { name, points } => {
                let offered = points.len() as u64;
                self.points.fetch_add(offered, Ordering::Relaxed); // relaxed-ok: monotone statistics counter
                let policy = *self.registry.policy();
                match self
                    .registry
                    .with_tenant(&name, |t| t.ingest(points, &policy))
                {
                    Ok(out) => Response::Ingested {
                        accepted: out.accepted,
                        sampled_out: out.sampled_out,
                        shed: out.shed,
                        rejected: out.rejected,
                        stage: out.stage.as_u8(),
                    },
                    Err(e) => registry_error(e),
                }
            }
            Request::HorizonClusters { name, horizon } => {
                match self
                    .registry
                    .with_tenant(&name, |t| t.horizon_clusters(horizon))
                {
                    Ok(Ok((clusters, total_weight))) => Response::Clusters {
                        clusters,
                        total_weight,
                    },
                    Ok(Err(e)) => horizon_error(e),
                    Err(e) => registry_error(e),
                }
            }
            Request::MacroCluster { name, k, seed } => {
                if k == 0 {
                    return Response::Error {
                        code: ErrorCode::InvalidRequest,
                        message: "k must be positive".into(),
                    };
                }
                match self
                    .registry
                    .with_tenant(&name, |t| t.macro_cluster(k, seed))
                {
                    Ok(mac) => Response::Macro {
                        centroids: mac.centroids,
                        weights: mac.weights,
                        ssq: mac.ssq,
                    },
                    Err(e) => registry_error(e),
                }
            }
            Request::TenantStats { name } => {
                match self.registry.with_tenant(&name, |t| t.stats()) {
                    Ok(stats) => Response::TenantStats { stats },
                    Err(e) => registry_error(e),
                }
            }
            Request::ServerStats => Response::ServerStats {
                stats: self.stats(),
            },
            Request::Checkpoint => match &self.config.checkpoint_path {
                Some(path) => match self.registry.checkpoint(path) {
                    Ok(bytes) => Response::CheckpointWritten { bytes },
                    Err(e) => Response::Error {
                        code: ErrorCode::Internal,
                        message: format!("checkpoint failed: {e}"),
                    },
                },
                None => Response::Error {
                    code: ErrorCode::InvalidRequest,
                    message: "server has no checkpoint path configured".into(),
                },
            },
            Request::Shutdown => {
                // relaxed-ok: level flag; the host polls it.
                self.shutdown_requested.store(true, Ordering::Relaxed);
                Response::ShuttingDown
            }
        }
    }
}

fn registry_error(e: RegistryError) -> Response {
    let (code, message) = match &e {
        RegistryError::NoSuchTenant => (ErrorCode::NoSuchTenant, e.to_string()),
        RegistryError::TenantExists => (ErrorCode::TenantExists, e.to_string()),
        RegistryError::Invalid(cause) => (ErrorCode::InvalidRequest, cause.to_string()),
    };
    Response::Error { code, message }
}

fn horizon_error(e: UStreamError) -> Response {
    let code = match e {
        UStreamError::HorizonUnavailable { .. } => ErrorCode::HorizonUnavailable,
        _ => ErrorCode::Internal,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

/// A running server; dropping the handle leaves the threads serving, so
/// call [`Server::shutdown_drain`] for a clean stop.
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    job_tx: Sender<Job>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    governor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and spins up the
    /// acceptor, worker pool and governor.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServeConfig) -> Result<Server> {
        if let Some(problem) = config.problem() {
            return Err(UStreamError::InvalidConfig(problem));
        }
        let registry = match &config.restore_path {
            Some(path) => TenantRegistry::restore(path, config.buckets, config.admission)?,
            None => TenantRegistry::new(config.buckets, config.admission)?,
        };
        let listener = TcpListener::bind(addr).map_err(UStreamError::Io)?;
        let local = listener.local_addr().map_err(UStreamError::Io)?;
        listener.set_nonblocking(true).map_err(UStreamError::Io)?;

        let (job_tx, job_rx) = bounded::<Job>(config.queue_capacity);
        let state = Arc::new(ServerState {
            config,
            registry,
            stop: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            frames: AtomicU64::new(0),
            points: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
        });

        let mut workers = Vec::with_capacity(state.config.workers);
        for i in 0..state.config.workers {
            let rx = job_rx.clone();
            let st = Arc::clone(&state);
            let handle = std::thread::Builder::new()
                .name(format!("usrv-worker-{i}"))
                .spawn(move || run_worker(&rx, &st))
                .map_err(UStreamError::Io)?;
            workers.push(handle);
        }

        let governor = {
            let st = Arc::clone(&state);
            std::thread::Builder::new()
                .name("usrv-governor".into())
                .spawn(move || run_governor(&st))
                .map_err(UStreamError::Io)?
        };

        let acceptor = {
            let st = Arc::clone(&state);
            let tx = job_tx.clone();
            std::thread::Builder::new()
                .name("usrv-acceptor".into())
                .spawn(move || run_acceptor(&listener, &st, &tx))
                .map_err(UStreamError::Io)?
        };

        Ok(Server {
            state,
            addr: local,
            job_tx,
            acceptor: Some(acceptor),
            workers,
            governor: Some(governor),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Aggregate server statistics.
    pub fn stats(&self) -> WireServerStats {
        self.state.stats()
    }

    /// Whether a client sent `Request::Shutdown` over the wire.
    pub fn shutdown_requested(&self) -> bool {
        // relaxed-ok: level flag set once, polled by the host loop.
        self.state.shutdown_requested.load(Ordering::Relaxed)
    }

    /// Direct registry access for hosts embedding the server (tests, the
    /// bench harness, the CLI's pre-seeding path).
    pub fn registry(&self) -> &TenantRegistry {
        &self.state.registry
    }

    /// Writes an atomic whole-tenant-map checkpoint now.
    pub fn checkpoint(&self) -> Result<u64> {
        match &self.state.config.checkpoint_path {
            Some(path) => self.state.registry.checkpoint(path),
            None => Err(UStreamError::InvalidConfig(
                "server has no checkpoint path configured".into(),
            )),
        }
    }

    /// Stops accepting, drains queued work, joins every thread, flushes a
    /// final snapshot per tenant, and writes the final checkpoint (when a
    /// path is configured).
    ///
    /// Fails with [`UStreamError::DeadlineExceeded`] when live connections
    /// or queued jobs outlast `deadline`; the stop flag stays set, so a
    /// retry with a longer deadline finishes the job.
    pub fn shutdown_drain(mut self, deadline: Duration) -> Result<WireServerStats> {
        let started = Instant::now();
        // relaxed-ok: level flag; every loop polls it within one timeout.
        self.state.stop.store(true, Ordering::Relaxed);

        // Wait out live connections and in-flight jobs.
        loop {
            // relaxed-ok: gauge counters polled in a loop.
            let conns = self.state.conns.load(Ordering::Relaxed);
            // relaxed-ok: gauge counters polled in a loop.
            let inflight = self.state.inflight.load(Ordering::Relaxed);
            if conns == 0 && inflight == 0 {
                break;
            }
            if started.elapsed() >= deadline {
                return Err(UStreamError::DeadlineExceeded {
                    waited_ms: started.elapsed().as_millis() as u64,
                });
            }
            // lint:allow(no-sleep): drain poll loop, bounded by the caller's deadline
            std::thread::sleep(Duration::from_millis(5));
        }

        drop(self.job_tx);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.governor.take() {
            let _ = h.join();
        }

        self.state.registry.flush_all();
        if let Some(path) = &self.state.config.checkpoint_path {
            self.state.registry.checkpoint(path)?;
        }
        if started.elapsed() >= deadline {
            return Err(UStreamError::DeadlineExceeded {
                waited_ms: started.elapsed().as_millis() as u64,
            });
        }
        Ok(self.state.stats())
    }
}

/// Accept loop: non-blocking accept with a short sleep, so the stop flag
/// is honoured within milliseconds and no thread blocks in `accept`.
fn run_acceptor(listener: &TcpListener, state: &Arc<ServerState>, job_tx: &Sender<Job>) {
    while !state.stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // relaxed-ok: gauge counter; drain re-polls until zero.
                state.conns.fetch_add(1, Ordering::Relaxed);
                let st = Arc::clone(state);
                let tx = job_tx.clone();
                let spawned =
                    std::thread::Builder::new()
                        .name("usrv-conn".into())
                        .spawn(move || {
                            run_conn(stream, &st, &tx);
                            // relaxed-ok: gauge counter; drain re-polls until zero.
                            st.conns.fetch_sub(1, Ordering::Relaxed);
                        });
                if spawned.is_err() {
                    // relaxed-ok: gauge counter; undo the optimistic add.
                    state.conns.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // lint:allow(no-sleep): non-blocking accept poll, keeps shutdown latency ~5 ms
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // Transient accept failure (e.g. EMFILE); back off briefly.
                // lint:allow(no-sleep): accept-error backoff.
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Per-connection loop: read frame → enqueue job → await reply → write
/// frame. Strictly sequential per connection, so response order matches
/// request order.
fn run_conn(mut stream: TcpStream, state: &Arc<ServerState>, job_tx: &Sender<Job>) {
    let cfg = &state.config;
    let read_deadline = Duration::from_millis(cfg.read_deadline_ms);
    let write_deadline = Duration::from_millis(cfg.write_deadline_ms);
    let reply_deadline = Duration::from_millis(cfg.reply_deadline_ms);
    loop {
        let payload = match read_frame(&mut stream, cfg.max_frame_bytes, read_deadline) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean close at a frame boundary
            Err(UStreamError::DeadlineExceeded { .. }) => {
                // Idle connection: keep listening unless the server is
                // shutting down.
                if state.stopping() {
                    return;
                }
                continue;
            }
            Err(_) => return, // truncated / corrupt / dead socket
        };
        // relaxed-ok: monotone statistics counter.
        state.frames.fetch_add(1, Ordering::Relaxed);

        let response = match decode_request(&payload) {
            Ok(req) => dispatch(req, state, job_tx, reply_deadline),
            Err(e) => Response::Error {
                code: ErrorCode::InvalidRequest,
                message: e.to_string(),
            },
        };

        if !respond(&mut stream, &response, cfg.max_frame_bytes, write_deadline) {
            return;
        }
    }
}

/// Hands a request to the worker pool and waits for the answer.
fn dispatch(
    req: Request,
    state: &Arc<ServerState>,
    job_tx: &Sender<Job>,
    reply_deadline: Duration,
) -> Response {
    let (reply_tx, reply_rx) = bounded::<Response>(1);
    match job_tx.try_send(Job {
        req,
        reply: reply_tx,
    }) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            // relaxed-ok: monotone statistics counter.
            state.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            return Response::Error {
                code: ErrorCode::Overloaded,
                message: "request queue is full; retry with backoff".into(),
            };
        }
        Err(TrySendError::Disconnected(_)) => {
            return Response::Error {
                code: ErrorCode::Internal,
                message: "worker pool is gone".into(),
            };
        }
    }
    // relaxed-ok: gauge counter; the worker decrements after replying.
    state.inflight.fetch_add(1, Ordering::Relaxed);
    match reply_rx.recv_timeout(reply_deadline) {
        Ok(resp) => resp,
        Err(_) => Response::Error {
            code: ErrorCode::Deadline,
            message: format!("no worker reply within {} ms", reply_deadline.as_millis()),
        },
    }
}

/// Encodes and writes one response frame; `false` means the connection is
/// beyond saving.
fn respond(stream: &mut TcpStream, response: &Response, max: usize, deadline: Duration) -> bool {
    let frame = match encode_response(response, max) {
        Ok(f) => f,
        Err(_) => {
            // Response larger than the frame bound (a huge cluster list):
            // degrade to a typed error the client can act on.
            let fallback = Response::Error {
                code: ErrorCode::Internal,
                message: format!("response exceeds the {max}-byte frame bound"),
            };
            match encode_response(&fallback, max) {
                Ok(f) => f,
                Err(_) => return false,
            }
        }
    };
    write_frame(stream, &frame, deadline).is_ok()
}

/// Worker loop: execute jobs until the queue closes and the stop flag is
/// up.
fn run_worker(job_rx: &Receiver<Job>, state: &Arc<ServerState>) {
    loop {
        match job_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(job) => {
                let response = state.execute(job.req);
                // A connection that gave up waiting dropped its receiver;
                // that is its problem, not ours.
                let _ = job.reply.send(response);
                // relaxed-ok: gauge counter paired with dispatch's add.
                state.inflight.fetch_sub(1, Ordering::Relaxed);
            }
            Err(RecvTimeoutError::Timeout) => {
                if state.stopping() {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Governor loop: every poll interval, measure each tenant's ingest rate
/// against its quota and walk the degradation ladder.
fn run_governor(state: &Arc<ServerState>) {
    let poll = Duration::from_millis(state.config.governor_poll_ms);
    let mut last = Instant::now();
    while !state.stopping() {
        // lint:allow(no-sleep): governor cadence, a config knob; stop flag re-checked every tick
        std::thread::sleep(poll);
        let now = Instant::now();
        let elapsed = now.duration_since(last).as_secs_f64();
        last = now;
        let _transitions = state.registry.governor_sweep(elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use crate::protocol::{TenantSpec, WirePoint};

    fn test_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            buckets: 4,
            read_deadline_ms: 100,
            ..ServeConfig::default()
        }
    }

    fn boot() -> (Server, ServeClient) {
        let server = Server::bind("127.0.0.1:0", test_config()).unwrap();
        let client = ServeClient::connect(server.addr()).unwrap();
        (server, client)
    }

    fn points(dims: usize, from: u64, n: u64) -> Vec<WirePoint> {
        (from..from + n)
            .map(|t| WirePoint {
                values: (0..dims).map(|d| (t % 10) as f64 + d as f64).collect(),
                errors: vec![0.1; dims],
                timestamp: t,
            })
            .collect()
    }

    #[test]
    fn full_session_over_the_wire() {
        let (server, mut client) = boot();
        assert!(matches!(
            client.request(&Request::Ping).unwrap(),
            Response::Pong
        ));

        let spec = TenantSpec {
            snapshot_every: 32,
            ..TenantSpec::new(8, 2)
        };
        assert!(matches!(
            client
                .request(&Request::CreateTenant {
                    name: "acme".into(),
                    spec: spec.clone(),
                })
                .unwrap(),
            Response::Created
        ));
        match client
            .request(&Request::CreateTenant {
                name: "acme".into(),
                spec,
            })
            .unwrap()
        {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::TenantExists),
            other => panic!("expected TenantExists, got {other:?}"),
        }

        match client
            .request(&Request::Ingest {
                name: "acme".into(),
                points: points(2, 1, 500),
            })
            .unwrap()
        {
            Response::Ingested { accepted, .. } => assert_eq!(accepted, 500),
            other => panic!("expected Ingested, got {other:?}"),
        }

        match client
            .request(&Request::HorizonClusters {
                name: "acme".into(),
                horizon: 100,
            })
            .unwrap()
        {
            Response::Clusters {
                clusters,
                total_weight,
            } => {
                assert!(!clusters.is_empty());
                assert!(total_weight > 0.0);
            }
            other => panic!("expected Clusters, got {other:?}"),
        }

        match client
            .request(&Request::MacroCluster {
                name: "acme".into(),
                k: 3,
                seed: 42,
            })
            .unwrap()
        {
            Response::Macro {
                centroids, weights, ..
            } => {
                assert_eq!(centroids.len(), 3);
                assert_eq!(weights.len(), 3);
            }
            other => panic!("expected Macro, got {other:?}"),
        }

        match client
            .request(&Request::TenantStats {
                name: "acme".into(),
            })
            .unwrap()
        {
            Response::TenantStats { stats } => {
                assert_eq!(stats.points_processed, 500);
                assert!(stats.num_clusters > 0);
            }
            other => panic!("expected TenantStats, got {other:?}"),
        }

        match client.request(&Request::ServerStats).unwrap() {
            Response::ServerStats { stats } => {
                assert_eq!(stats.tenants, 1);
                assert!(stats.frames >= 6);
            }
            other => panic!("expected ServerStats, got {other:?}"),
        }

        drop(client);
        let stats = server.shutdown_drain(Duration::from_secs(10)).unwrap();
        assert_eq!(stats.points, 500);
    }

    #[test]
    fn unknown_tenant_and_bad_requests_get_typed_errors() {
        let (server, mut client) = boot();
        match client
            .request(&Request::Ingest {
                name: "ghost".into(),
                points: points(2, 1, 3),
            })
            .unwrap()
        {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::NoSuchTenant),
            other => panic!("expected NoSuchTenant, got {other:?}"),
        }
        match client
            .request(&Request::MacroCluster {
                name: "ghost".into(),
                k: 0,
                seed: 1,
            })
            .unwrap()
        {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::InvalidRequest),
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
        drop(client);
        server.shutdown_drain(Duration::from_secs(10)).unwrap();
    }

    #[test]
    fn removing_one_tenant_mid_stream_leaves_the_others_untouched() {
        let (server, mut client) = boot();
        for name in ["keep-a", "victim", "keep-b"] {
            client
                .create_tenant(
                    name,
                    TenantSpec {
                        snapshot_every: 32,
                        ..TenantSpec::new(8, 2)
                    },
                )
                .unwrap();
        }
        // Interleave batches across all three, kill "victim" mid-stream,
        // keep streaming to the survivors.
        for round in 0u64..6 {
            for name in ["keep-a", "victim", "keep-b"] {
                if round >= 3 && name == "victim" {
                    continue;
                }
                let resp = client
                    .request(&Request::Ingest {
                        name: name.into(),
                        points: points(2, round * 100 + 1, 100),
                    })
                    .unwrap();
                if round == 3 && name == "keep-a" {
                    // Kill the victim between survivor batches.
                    assert!(matches!(
                        client
                            .request(&Request::RemoveTenant {
                                name: "victim".into()
                            })
                            .unwrap(),
                        Response::Removed
                    ));
                }
                match resp {
                    Response::Ingested { accepted, .. } => assert_eq!(accepted, 100),
                    other => panic!("expected Ingested, got {other:?}"),
                }
            }
        }
        // Survivors answer every query with all six rounds of data.
        for name in ["keep-a", "keep-b"] {
            match client
                .request(&Request::TenantStats { name: name.into() })
                .unwrap()
            {
                Response::TenantStats { stats } => {
                    assert_eq!(stats.points_processed, 600, "{name} lost data");
                }
                other => panic!("expected TenantStats, got {other:?}"),
            }
            match client
                .request(&Request::MacroCluster {
                    name: name.into(),
                    k: 2,
                    seed: 7,
                })
                .unwrap()
            {
                Response::Macro { centroids, .. } => assert_eq!(centroids.len(), 2),
                other => panic!("expected Macro, got {other:?}"),
            }
        }
        // The victim is really gone.
        match client
            .request(&Request::TenantStats {
                name: "victim".into(),
            })
            .unwrap()
        {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::NoSuchTenant),
            other => panic!("expected NoSuchTenant, got {other:?}"),
        }
        drop(client);
        server.shutdown_drain(Duration::from_secs(10)).unwrap();
    }

    #[test]
    fn wire_checkpoint_survives_a_server_restart() {
        let mut path = std::env::temp_dir();
        path.push(format!("usrv_restart_{}.ckpt", std::process::id()));
        let config = ServeConfig {
            checkpoint_path: Some(path.clone()),
            ..test_config()
        };

        let server = Server::bind("127.0.0.1:0", config.clone()).unwrap();
        let mut client = ServeClient::connect(server.addr()).unwrap();
        client
            .create_tenant(
                "durable",
                TenantSpec {
                    snapshot_every: 32,
                    ..TenantSpec::new(8, 2)
                },
            )
            .unwrap();
        client
            .request(&Request::Ingest {
                name: "durable".into(),
                points: points(2, 1, 400),
            })
            .unwrap();
        match client.request(&Request::Checkpoint).unwrap() {
            Response::CheckpointWritten { bytes } => assert!(bytes > 0),
            other => panic!("expected CheckpointWritten, got {other:?}"),
        }
        drop(client);
        server.shutdown_drain(Duration::from_secs(10)).unwrap();

        // A fresh server restores the whole tenant map from the file.
        let registry =
            crate::registry::TenantRegistry::restore(&path, config.buckets, config.admission)
                .unwrap();
        let stats = registry.with_tenant("durable", |t| t.stats()).unwrap();
        assert_eq!(stats.points_processed, 400);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shutdown_request_over_the_wire_sets_the_host_flag() {
        let (server, mut client) = boot();
        assert!(!server.shutdown_requested());
        assert!(matches!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        assert!(server.shutdown_requested());
        drop(client);
        server.shutdown_drain(Duration::from_secs(10)).unwrap();
    }

    #[test]
    fn drain_deadline_miss_is_typed() {
        let server = Server::bind("127.0.0.1:0", test_config()).unwrap();
        // Hold a raw TCP connection open (never sends a frame, never
        // closes): the conn thread stays alive past a zero-ish deadline.
        let _hold = std::net::TcpStream::connect(server.addr()).unwrap();
        // Give the acceptor time to register the connection.
        std::thread::sleep(Duration::from_millis(200));
        let err = server.shutdown_drain(Duration::from_millis(1)).unwrap_err();
        assert!(
            matches!(err, UStreamError::DeadlineExceeded { .. }),
            "expected DeadlineExceeded, got {err}"
        );
    }

    #[test]
    fn invalid_config_is_rejected_up_front() {
        let bad = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        assert!(Server::bind("127.0.0.1:0", bad).is_err());
        let bad = ServeConfig {
            admission: AdmissionPolicy {
                quota_points_per_sec: 0,
                ..AdmissionPolicy::default()
            },
            ..ServeConfig::default()
        };
        assert!(Server::bind("127.0.0.1:0", bad).is_err());
    }
}
