//! `serve-mixed`: the multi-tenant server on loopback under a closed loop
//! of mixed ingest and queries.
//!
//! An in-process `Server` (2 workers) holds 1000 tenants (d=2, 8
//! micro-clusters, a snapshot every 256 ticks). One `ServeClient`
//! connection walks the tenants round by round: one 50-record `Ingest`,
//! then one query rotating through `TenantStats`, `HorizonClusters` and
//! `MacroCluster` (k=3). The loop is closed because `ServeClient::request`
//! blocks until the reply.
//!
//! One connection, not two: with two, each request waits behind a share
//! of the other connection's work on two cores, so the query latency
//! spread over 35–110 µs (quartiles) and its median swung with the
//! scheduler and the host's load more than with the program.
//!
//! The traced pass swaps `ServeClient` for the same four steps it runs
//! (`encode_request`, `write_frame`, `read_frame`, `decode_response`) on
//! a raw socket, with a clock read between each.

use crate::common::{
    median_secs, metric, note_error, peak_rss_mb, probe, sampled, sliced, Pool, Report, RunCfg,
    Samples, Series,
};
use crate::probes::{self, Shape};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use ustream_common::backoff::splitmix64;
use ustream_serve::io::{read_frame, write_frame};
use ustream_serve::protocol::{
    decode_response, encode_request, ErrorCode, Request, Response, TenantSpec, WirePoint,
    DEFAULT_MAX_FRAME_BYTES, HEADER_LEN,
};
use ustream_serve::{AdmissionPolicy, ServeClient, ServeConfig, Server, Tenant};

const TENANTS: usize = 1000;
/// Connections, each driven by its own thread (see the module comment).
const CONNS: usize = 1;
const WORKERS: usize = 2;
const DIMS: usize = 2;
const N_MICRO: usize = 8;
const BATCH: usize = 50;
const SNAPSHOT_EVERY: u64 = 256;
const HORIZON: u64 = 32;
const MACRO_K: usize = 3;
const MACRO_SEED: u64 = 7;
/// Ingest-only rounds before timing: past the first snapshot (tick 256)
/// plus the horizon, so every timed horizon query has a base snapshot.
const WARM_ROUNDS: u64 = 7;
/// Every this-many-th tenant is replayed against an in-process reference.
const SAMPLE_EVERY: usize = 25;
const SETUP_REPS: usize = 5;
const POOL_BATCHES: u64 = 512;
const IO_DEADLINE: Duration = Duration::from_secs(30);

fn spec() -> TenantSpec {
    TenantSpec {
        snapshot_every: SNAPSHOT_EVERY,
        ..TenantSpec::new(N_MICRO, DIMS)
    }
}

fn name(t: usize) -> String {
    format!("t{t:04}")
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

struct Inputs {
    pool: Pool,
    seed: u64,
}

impl Inputs {
    /// Tenant `t`'s batch for round `r`: a pooled batch picked by hash,
    /// stamped with the tenant's own ticks.
    fn batch(&self, t: usize, r: u64) -> Vec<WirePoint> {
        let k = splitmix64(self.seed ^ ((t as u64) << 24) ^ r) % POOL_BATCHES;
        let tick0 = r * BATCH as u64;
        (0..BATCH as u64)
            .map(|i| self.pool.wire(k * BATCH as u64 + i, tick0 + i + 1))
            .collect()
    }
}

fn query(t: usize, r: u64) -> Request {
    let name = name(t);
    match (t as u64 + r) % 3 {
        0 => Request::TenantStats { name },
        1 => Request::HorizonClusters {
            name,
            horizon: HORIZON,
        },
        _ => Request::MacroCluster {
            name,
            k: MACRO_K,
            seed: MACRO_SEED,
        },
    }
}

/// One connection: the plain client, or a raw socket for the traced pass.
enum Client {
    Plain(ServeClient),
    Traced(TcpStream),
}

#[derive(Default)]
struct Spans {
    encode: Samples,
    roundtrip: Samples,
    decode: Samples,
    bytes: u64,
}

impl Client {
    fn call(&mut self, req: &Request, spans: &mut Spans) -> Result<Response, String> {
        match self {
            Client::Plain(c) => c.request(req).map_err(|e| e.to_string()),
            Client::Traced(stream) => {
                let t0 = Instant::now();
                let frame =
                    encode_request(req, DEFAULT_MAX_FRAME_BYTES).map_err(|e| e.to_string())?;
                let t1 = Instant::now();
                write_frame(stream, &frame, IO_DEADLINE).map_err(|e| e.to_string())?;
                let payload = read_frame(stream, DEFAULT_MAX_FRAME_BYTES, IO_DEADLINE)
                    .map_err(|e| e.to_string())?
                    .ok_or("server closed the connection")?;
                let t2 = Instant::now();
                let resp = decode_response(&payload).map_err(|e| e.to_string())?;
                let t3 = Instant::now();
                spans.encode.push((t1 - t0).as_secs_f64() * 1e6);
                spans.roundtrip.push((t2 - t1).as_secs_f64() * 1e6);
                spans.decode.push((t3 - t2).as_secs_f64() * 1e6);
                spans.bytes += (frame.len() + HEADER_LEN + payload.len()) as u64;
                Ok(resp)
            }
        }
    }
}

/// A connection's share of the tenants and where it is in its rounds.
struct Conn {
    client: Client,
    tenants: Vec<usize>,
    next: Vec<u64>,
    cursor: usize,
}

struct Tally {
    ingest: Series,
    query: Series,
    /// Records per completed ingest.
    points: Series,
    ops: u64,
    failed: u64,
    errors: Vec<String>,
    /// Query answers of sampled tenants, `(tenant, round, answer)`.
    recorded: Vec<(usize, u64, Response)>,
    spans: Spans,
}

impl Tally {
    fn new(origin: Instant) -> Self {
        Self {
            ingest: Series::new(origin),
            query: Series::new(origin),
            points: Series::new(origin),
            ops: 0,
            failed: 0,
            errors: Vec::new(),
            recorded: Vec::new(),
            spans: Spans::default(),
        }
    }
}

fn ingest_ok(resp: &Response) -> bool {
    matches!(resp, Response::Ingested { accepted, sampled_out: 0, shed: 0, rejected: 0, .. }
        if *accepted == BATCH as u64)
}

fn query_ok(req: &Request, resp: &Response) -> bool {
    matches!(
        (req, resp),
        (Request::TenantStats { .. }, Response::TenantStats { .. })
            | (Request::HorizonClusters { .. }, Response::Clusters { .. })
            | (Request::MacroCluster { .. }, Response::Macro { .. })
    )
}

impl Conn {
    /// Closed loop until `deadline`: ingest then query, tenant after
    /// tenant; stops only between pairs, so every tenant's history is a
    /// whole number of rounds.
    fn drive(&mut self, inputs: &Inputs, origin: Instant, deadline: Instant) -> Tally {
        let mut tally = Tally::new(origin);
        while Instant::now() < deadline {
            let j = self.cursor;
            let (t, r) = (self.tenants[j], self.next[j]);
            let ingest = Request::Ingest {
                name: name(t),
                points: inputs.batch(t, r),
            };
            let q = query(t, r);
            let t0 = Instant::now();
            let resp = self.client.call(&ingest, &mut tally.spans);
            tally.ingest.since(t0);
            tally.ops += 1;
            tally.points.record(BATCH as u64);
            if !matches!(&resp, Ok(r) if ingest_ok(r)) {
                tally.failed += 1;
                note_error(
                    &mut tally.errors,
                    format!("ingest to {}: {resp:?}", name(t)),
                );
            }
            let t0 = Instant::now();
            let resp = self.client.call(&q, &mut tally.spans);
            tally.query.since(t0);
            tally.ops += 1;
            match resp {
                Ok(resp) if query_ok(&q, &resp) => {
                    if t % SAMPLE_EVERY == 0 {
                        tally.recorded.push((t, r, resp));
                    }
                }
                other => {
                    tally.failed += 1;
                    note_error(&mut tally.errors, format!("{q:?}: {other:?}"));
                }
            }
            self.next[j] += 1;
            self.cursor = (j + 1) % self.tenants.len();
        }
        tally
    }

    fn warm(&mut self, inputs: &Inputs) -> Result<(), String> {
        let mut spans = Spans::default();
        for j in 0..self.tenants.len() {
            let t = self.tenants[j];
            for r in 0..WARM_ROUNDS {
                let req = Request::Ingest {
                    name: name(t),
                    points: inputs.batch(t, r),
                };
                let resp = self.client.call(&req, &mut spans)?;
                if !ingest_ok(&resp) {
                    return Err(format!("warm-up ingest to {}: {resp:?}", name(t)));
                }
            }
            self.next[j] = WARM_ROUNDS;
        }
        Ok(())
    }
}

/// Binds a server and creates every tenant over its connections.
/// Returns the server, its connections and the set-up time.
fn boot() -> Result<(Server, Vec<Conn>, f64), String> {
    let t0 = Instant::now();
    let server = Server::bind("127.0.0.1:0", config()).map_err(|e| e.to_string())?;
    let addr = server.addr();
    let conns = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn(move || -> Result<Conn, String> {
                    let mut client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
                    let tenants: Vec<usize> = (c..TENANTS).step_by(CONNS).collect();
                    for &t in &tenants {
                        client
                            .create_tenant(&name(t), spec())
                            .map_err(|e| e.to_string())?;
                    }
                    Ok(Conn {
                        client: Client::Plain(client),
                        next: vec![0; tenants.len()],
                        tenants,
                        cursor: 0,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "connection thread panicked".to_string())?
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let secs = t0.elapsed().as_secs_f64();
    match conns {
        Ok(c) => Ok((server, c, secs)),
        Err(e) => {
            let _ = server.shutdown_drain(Duration::from_secs(10));
            Err(e)
        }
    }
}

/// Runs every connection for `secs`, each on its own thread.
fn pass(conns: &mut [Conn], inputs: &Inputs, secs: f64) -> Result<(Tally, f64), String> {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let tallies = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| s.spawn(move || c.drive(inputs, t0, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "connection thread panicked".to_string())
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let elapsed = t0.elapsed().as_secs_f64();
    let mut total = Tally::new(t0);
    for t in tallies {
        total.ingest.extend(t.ingest);
        total.query.extend(t.query);
        total.points.extend(t.points);
        total.ops += t.ops;
        total.failed += t.failed;
        for e in t.errors {
            note_error(&mut total.errors, e);
        }
        total.recorded.extend(t.recorded);
        total.spans.encode.extend(t.spans.encode);
        total.spans.roundtrip.extend(t.spans.roundtrip);
        total.spans.decode.extend(t.spans.decode);
        total.spans.bytes += t.spans.bytes;
    }
    Ok((total, elapsed))
}

/// What the server must have answered, from an in-process tenant.
fn expected(tenant: &mut Tenant, req: &Request) -> Response {
    match req {
        Request::HorizonClusters { horizon, .. } => match tenant.horizon_clusters(*horizon) {
            Ok((clusters, total_weight)) => Response::Clusters {
                clusters,
                total_weight,
            },
            Err(e) => Response::Error {
                code: ErrorCode::HorizonUnavailable,
                message: e.to_string(),
            },
        },
        Request::MacroCluster { k, seed, .. } => {
            let m = tenant.macro_cluster(*k, *seed);
            Response::Macro {
                centroids: m.centroids,
                weights: m.weights,
                ssq: m.ssq,
            }
        }
        _ => Response::TenantStats {
            stats: tenant.stats(),
        },
    }
}

/// Replays sampled tenants into in-process `Tenant`s and compares every
/// recorded answer, then one final `HorizonClusters` from the live
/// server, bit for bit.
fn reference_check(
    rep: &mut Report,
    inputs: &Inputs,
    conns: &mut [Conn],
    recorded: &[(usize, u64, Response)],
) -> Result<(), String> {
    let policy = AdmissionPolicy::default();
    let final_q = |t: usize| Request::HorizonClusters {
        name: name(t),
        horizon: HORIZON,
    };
    for c in conns.iter_mut() {
        let mut spans = Spans::default();
        for (j, &t) in c.tenants.iter().enumerate() {
            if t % SAMPLE_EVERY != 0 {
                continue;
            }
            let mut tenant = Tenant::new(spec()).map_err(|e| e.to_string())?;
            let answers: Vec<&(usize, u64, Response)> =
                recorded.iter().filter(|(rt, _, _)| *rt == t).collect();
            let mut mismatches = 0u64;
            for r in 0..c.next[j] {
                tenant.ingest(inputs.batch(t, r), &policy);
                if r < WARM_ROUNDS {
                    continue;
                }
                let want = expected(&mut tenant, &query(t, r));
                match answers.iter().find(|(_, ar, _)| *ar == r) {
                    Some((_, _, got)) if *got == want => {}
                    _ => mismatches += 1,
                }
            }
            let live = c.client.call(&final_q(t), &mut spans)?;
            if live != expected(&mut tenant, &final_q(t)) {
                mismatches += 1;
            }
            rep.check(
                format!(
                    "tenant {} ({} rounds, {} answers) equals an in-process Tenant",
                    name(t),
                    c.next[j],
                    answers.len()
                ),
                mismatches,
            );
        }
    }
    Ok(())
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let inputs = Inputs {
        pool: Pool::new(cfg.seed, (POOL_BATCHES as usize) * BATCH, DIMS, 6, 4.0, 0.2),
        seed: cfg.seed,
    };
    let mut rep = Report::default();

    let mut setup = Vec::new();
    let mut live = None;
    for i in 0..SETUP_REPS {
        let (server, conns, secs) = boot()?;
        setup.push(secs);
        if i + 1 == SETUP_REPS {
            live = Some((server, conns));
        } else {
            drop(conns);
            server
                .shutdown_drain(Duration::from_secs(30))
                .map_err(|e| e.to_string())?;
        }
    }
    let (server, mut conns) = live.ok_or("no server booted")?;
    let result = drive_all(cfg, &inputs, &server, &mut conns, &mut rep);
    let addr = server.addr();
    drop(conns);
    let drained = server.shutdown_drain(Duration::from_secs(30));
    result?;
    drained.map_err(|e| format!("server on {addr} did not drain: {e}"))?;
    rep.add(metric("setup_s", median_secs(&setup), "s"));
    Ok(rep)
}

fn drive_all(
    cfg: &RunCfg,
    inputs: &Inputs,
    server: &Server,
    conns: &mut [Conn],
    rep: &mut Report,
) -> Result<(), String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| s.spawn(move || c.warm(inputs)))
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| "warm-up thread panicked".to_string())?
        })
    })?;

    let mut recorded = Vec::new();
    for (traced, secs) in cfg.passes() {
        if traced {
            reconnect(conns, server.addr(), true)?;
        }
        let (tally, elapsed) = pass(conns, inputs, secs)?;
        let pps = tally.points.rate(elapsed);
        rep.attempted += tally.ops;
        rep.failed += tally.failed;
        rep.errors.extend(tally.errors);
        recorded.extend(tally.recorded);
        if traced {
            rep.add(metric("points_per_s.traced", pps, "1/s"));
            let sp = &tally.spans;
            rep.add(sampled("serve.client.encode_us", &sp.encode, 0.5, "us"));
            rep.add(sampled(
                "serve.client.roundtrip_us",
                &sp.roundtrip,
                0.5,
                "us",
            ));
            rep.add(sampled("serve.client.decode_us", &sp.decode, 0.5, "us"));
            rep.add(metric(
                "wire_bytes_per_point",
                sp.bytes as f64 / tally.points.total().max(1.0),
                "B",
            ));
            rep.add(sliced("trace.ingest_p50_us", &tally.ingest, 0.5, elapsed, "us"));
        } else {
            rep.add(metric("points_per_s", pps, "1/s"));
            rep.add(metric("points_per_s.untraced", pps, "1/s"));
            rep.add(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
            // Per slice, like `points_per_s`: one connection's latencies
            // are tight, so a host stall over part of the pass could move a
            // whole-pass p99 several-fold.
            rep.add(sliced("write_p50_us", &tally.ingest, 0.5, elapsed, "us"));
            rep.add(sliced("write_p99_us", &tally.ingest, 0.99, elapsed, "us"));
            rep.add(sliced("read_p50_us", &tally.query, 0.5, elapsed, "us"));
            rep.add(sliced("read_p99_us", &tally.query, 0.99, elapsed, "us"));
        }
    }
    if cfg.trace {
        reconnect(conns, server.addr(), false)?;
        layers(cfg, inputs, server, rep)?;
    }
    reference_check(rep, inputs, conns, &recorded)
}

/// Replaces every connection's client, keeping its tenants and rounds.
fn reconnect(conns: &mut [Conn], addr: SocketAddr, traced: bool) -> Result<(), String> {
    for c in conns.iter_mut() {
        c.client = if traced {
            let s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            Client::Traced(s)
        } else {
            Client::Plain(ServeClient::connect(addr).map_err(|e| e.to_string())?)
        };
    }
    Ok(())
}

/// Per-layer figures of the traced run: the live server's ping, lookup
/// and counters, the layer probes at this shape, and what the layers
/// leave unexplained of the traced ingest median.
fn layers(cfg: &RunCfg, inputs: &Inputs, server: &Server, rep: &mut Report) -> Result<(), String> {
    let mut client = ServeClient::connect(server.addr()).map_err(|e| e.to_string())?;
    let ping = probe(2_000, 1, || client.ping().is_ok());
    rep.add(sampled("serve.ping_us", &ping, 0.5, "us"));
    let stats = server.stats();
    rep.add(metric("serve.frames", stats.frames as f64, "count"));
    rep.add(metric(
        "serve.jobs_rejected",
        stats.jobs_rejected as f64,
        "count",
    ));

    let shape = Shape {
        label: "serve-mixed",
        dims: DIMS,
        n_micro: N_MICRO,
        batch: BATCH,
        tenants: TENANTS,
        shards: 1,
        macro_k: MACRO_K,
        pool: &inputs.pool,
        tmp: &cfg.tmp,
    };
    for m in probes::run(&shape)? {
        rep.add(m);
    }
    // The live registry's lookup replaces the probe's (same tenant count).
    let names: Vec<String> = (0..TENANTS).map(name).collect();
    let mut i = 0usize;
    let lookup = probe(400, 64, || {
        i = (i + 7) % names.len();
        server.registry().with_tenant(&names[i], |_| ()).is_ok()
    });
    rep.add(sampled("serve.registry.lookup_us", &lookup, 0.5, "us"));

    // One ingest = client encode + (socket, connection thread, job queue
    // and worker: the ping) + server decode + registry lookup + tenant
    // ingest + client decode of the reply.
    let explained = [
        "serve.client.encode_us",
        "serve.ping_us",
        "serve.protocol.decode_us",
        "serve.registry.lookup_us",
        "serve.tenant.ingest_us",
        "serve.client.decode_us",
    ];
    let attributed: f64 = explained.iter().map(|n| rep.get(n)).sum();
    rep.add(metric(
        "unattributed_us",
        rep.get("trace.ingest_p50_us") - attributed,
        "us",
    ));
    rep.notes.push(format!(
        "unattributed_us = trace.ingest_p50_us - ({})",
        explained.join(" + ")
    ));
    Ok(())
}
