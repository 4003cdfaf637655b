//! Layer probes: each layer's public entry point timed in isolation, at
//! the calling workload's shape (dimensionality, cluster budget, batch
//! size). Every workload runs the full set, so each per-layer figure
//! exists for all three and a change to one layer can be seen moving on
//! the workload whose path runs it and staying put on the others.

use crate::common::{metric, probe, sampled, Metric, Pool, Samples};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use umicro::{Ecf, HorizonAnalyzer, OnlineClusterer, UMicro, UMicroConfig};
use ustream_distrib::protocol::encode_site_request;
use ustream_distrib::{DeltaFrame, SiteRequest, Wal};
use ustream_engine::{EngineBuilder, ValidationPolicy};
use ustream_serve::protocol::{
    decode_frame, decode_request, encode_request, Request, TenantSpec, DEFAULT_MAX_FRAME_BYTES,
};
use ustream_serve::{AdmissionPolicy, Tenant, TenantRegistry};
use ustream_snapshot::PyramidConfig;

/// The shape of one workload, as the probes need it.
pub struct Shape<'a> {
    pub label: &'static str,
    pub dims: usize,
    /// Micro-cluster budget of one clusterer (per shard or per site).
    pub n_micro: usize,
    /// Records per request, `push_slice` call or epoch.
    pub batch: usize,
    /// Tenants the registry holds.
    pub tenants: usize,
    /// Engine shards (1 where the workload runs no sharded engine).
    pub shards: usize,
    pub macro_k: usize,
    pub pool: &'a Pool,
    pub tmp: &'a Path,
}

/// Tenant probe geometry: the serving defaults, and a horizon the first
/// warm snapshot always covers.
const PROBE_SNAPSHOT_EVERY: u64 = 256;
const PROBE_HORIZON: u64 = 32;

fn us(name: &str, s: &Samples) -> Metric {
    sampled(name, s, 0.5, "us")
}

fn ns(name: &str, s: &Samples) -> Metric {
    let mut m = sampled(name, s, 0.5, "ns");
    m.value *= 1e3;
    m
}

fn wire_batch(shape: &Shape, round: u64) -> Vec<ustream_serve::protocol::WirePoint> {
    let base = round * shape.batch as u64;
    (0..shape.batch as u64)
        .map(|i| shape.pool.wire(base + i, base + i + 1))
        .collect()
}

/// Runs every probe and returns the per-layer figures.
pub fn run(shape: &Shape) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    codec(shape, &mut out)?;
    tenant(shape, &mut out)?;
    registry(shape, &mut out)?;
    core(shape, &mut out)?;
    validate(shape, &mut out)?;
    distrib(shape, &mut out)?;
    Ok(out)
}

/// `serve.protocol.*`: the USRV codec on this workload's batch as an
/// `Ingest` request.
fn codec(shape: &Shape, out: &mut Vec<Metric>) -> Result<(), String> {
    let req = Request::Ingest {
        name: "t0000".into(),
        points: wire_batch(shape, 0),
    };
    let max = DEFAULT_MAX_FRAME_BYTES;
    let frame = encode_request(&req, max).map_err(|e| e.to_string())?;
    let payload = decode_frame(&frame, max).map_err(|e| e.to_string())?;
    if decode_request(payload).map_err(|e| e.to_string())? != req {
        return Err("USRV codec round trip changed the request".into());
    }
    out.push(us(
        "serve.protocol.encode_us",
        &probe(400, 1, || encode_request(&req, max)),
    ));
    out.push(us(
        "serve.protocol.decode_us",
        &probe(400, 1, || decode_request(payload)),
    ));
    out.push(metric(
        "serve.protocol.bytes_per_point",
        frame.len() as f64 / shape.batch as f64,
        "B",
    ));
    Ok(())
}

fn tenant_spec(shape: &Shape) -> TenantSpec {
    TenantSpec {
        snapshot_every: PROBE_SNAPSHOT_EVERY,
        ..TenantSpec::new(shape.n_micro, shape.dims)
    }
}

/// `serve.tenant.*`: one in-process tenant fed this workload's batches.
fn tenant(shape: &Shape, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut t = Tenant::new(tenant_spec(shape)).map_err(|e| e.to_string())?;
    let policy = AdmissionPolicy::default();
    let warm = (2 * PROBE_SNAPSHOT_EVERY / shape.batch as u64).max(2) + 1;
    for r in 0..warm {
        t.ingest(wire_batch(shape, r), &policy);
    }
    let mut ingest = Samples::default();
    let mut horizon = Samples::default();
    for r in warm..warm + 200 {
        let batch = wire_batch(shape, r);
        let t0 = Instant::now();
        let outcome = t.ingest(batch, &policy);
        ingest.since(t0);
        if outcome.accepted != shape.batch as u64 {
            return Err(format!("tenant probe accepted {}", outcome.accepted));
        }
        let t0 = Instant::now();
        let answer = t.horizon_clusters(PROBE_HORIZON);
        horizon.since(t0);
        answer.map_err(|e| format!("tenant probe horizon: {e}"))?;
    }
    out.push(us("serve.tenant.ingest_us", &ingest));
    out.push(us("serve.tenant.horizon_us", &horizon));
    Ok(())
}

/// `serve.registry.lookup_us`: `with_tenant` with a no-op closure on a
/// registry holding this workload's tenant count.
fn registry(shape: &Shape, out: &mut Vec<Metric>) -> Result<(), String> {
    let reg = TenantRegistry::new(16, AdmissionPolicy::default()).map_err(|e| e.to_string())?;
    let names: Vec<String> = (0..shape.tenants).map(|t| format!("t{t:04}")).collect();
    for n in &names {
        reg.create(n, tenant_spec(shape))
            .map_err(|e| e.to_string())?;
    }
    let mut i = 0usize;
    let s = probe(400, 64, || {
        i = (i + 7) % names.len();
        reg.with_tenant(&names[i], |_| ()).is_ok()
    });
    out.push(us("serve.registry.lookup_us", &s));
    Ok(())
}

/// `core.*`, `snapshot.record_us` and `kmeans.macro_us` on one clusterer
/// at this workload's shape.
fn core(shape: &Shape, out: &mut Vec<Metric>) -> Result<(), String> {
    let cfg = UMicroConfig::new(shape.n_micro, shape.dims).map_err(|e| e.to_string())?;
    let mut alg = UMicro::new(cfg);
    let warm = (shape.n_micro * 8) as u64;
    for i in 0..warm {
        alg.insert(&shape.pool.point(i, i + 1));
    }
    const CHUNK: u64 = 32;
    let mut insert = Samples::default();
    let mut isolation = Samples::default();
    let mut next = warm;
    for _ in 0..200 {
        let pts: Vec<_> = (next..next + CHUNK)
            .map(|i| shape.pool.point(i, i + 1))
            .collect();
        next += CHUNK;
        let t0 = Instant::now();
        for p in &pts {
            std::hint::black_box(alg.isolation(p));
        }
        isolation.push(t0.elapsed().as_secs_f64() * 1e6 / CHUNK as f64);
        let t0 = Instant::now();
        for p in &pts {
            std::hint::black_box(alg.insert(p));
        }
        insert.push(t0.elapsed().as_secs_f64() * 1e6 / CHUNK as f64);
    }
    out.push(ns("core.insert_ns", &insert));
    out.push(ns("core.isolation_ns", &isolation));

    // The merged view a query reads spans every shard's clusters.
    let merged_cfg =
        UMicroConfig::new(shape.n_micro * shape.shards, shape.dims).map_err(|e| e.to_string())?;
    let mut merged = UMicro::new(merged_cfg);
    for i in 0..(shape.n_micro * shape.shards * 8) as u64 {
        merged.insert(&shape.pool.point(i, i + 1));
    }
    let mut hz = HorizonAnalyzer::new(PyramidConfig::default());
    let mut t = merged.points_processed();
    let record = probe(300, 1, || {
        t += 1;
        let snap = merged.snapshot_at(t);
        hz.record_snapshot(t, snap);
    });
    out.push(us("snapshot.record_us", &record));
    let mut seed = 0u64;
    let kmeans = probe(200, 1, || {
        seed += 1;
        merged.macro_cluster(shape.macro_k, seed)
    });
    out.push(us("kmeans.macro_us", &kmeans));
    Ok(())
}

/// `engine.validate_ns`: `validate::check_point` is private to the
/// engine, so validation is priced as the producer-side `push_slice`
/// difference between a `Reject` engine and one with validation off,
/// per record.
fn validate(shape: &Shape, out: &mut Vec<Metric>) -> Result<(), String> {
    let build = |policy: Option<ValidationPolicy>| {
        let cfg = UMicroConfig::new(shape.n_micro, shape.dims).map_err(|e| e.to_string())?;
        EngineBuilder::new(cfg)
            .shards(1)
            .novelty_factor(None)
            .channel_capacity(4_096)
            .validation(policy)
            .build()
            .map_err(|e| e.to_string())
    };
    let checked = build(Some(ValidationPolicy::Reject))?;
    let unchecked = build(None)?;
    let batches: Vec<Vec<_>> = (0..256u64)
        .map(|b| {
            let base = b * shape.batch as u64;
            (base..base + shape.batch as u64)
                .map(|i| shape.pool.point(i, i + 1))
                .collect()
        })
        .collect();
    let mut with = Samples::default();
    let mut without = Samples::default();
    for b in &batches {
        let t0 = Instant::now();
        checked.push_slice(b).map_err(|e| e.to_string())?;
        with.since(t0);
        let t0 = Instant::now();
        unchecked.push_slice(b).map_err(|e| e.to_string())?;
        without.since(t0);
    }
    checked.shutdown();
    unchecked.shutdown();
    let per_point = (with.median() - without.median()) / shape.batch as f64;
    let mut m = metric("engine.validate_ns", per_point * 1e3, "ns");
    m.samples = Some(with.len());
    out.push(m);
    Ok(())
}

/// The delta frame a site ships for the change from `before` to `after`:
/// every cluster whose summary changed, and every id that went away.
pub fn delta_frame(
    site: u64,
    seq: u64,
    before: &BTreeMap<u64, Ecf>,
    after: &BTreeMap<u64, Ecf>,
    points: u64,
) -> DeltaFrame {
    DeltaFrame {
        site,
        seq,
        full: false,
        updates: after
            .iter()
            .filter(|(id, ecf)| before.get(*id) != Some(*ecf))
            .map(|(id, ecf)| (*id, ecf.clone()))
            .collect(),
        removes: before
            .keys()
            .filter(|id| !after.contains_key(id))
            .copied()
            .collect(),
        points,
        last_tick: points,
    }
}

fn cluster_map(alg: &UMicro) -> BTreeMap<u64, Ecf> {
    alg.micro_clusters()
        .iter()
        .map(|mc| (mc.id, mc.ecf.clone()))
        .collect()
}

/// The frame a site would ship after one batch at this shape.
fn one_batch_delta(alg: &mut UMicro, pool: &Pool, batch: usize, seq: u64) -> DeltaFrame {
    let before = cluster_map(alg);
    let start = alg.points_processed();
    for i in start..start + batch as u64 {
        alg.insert(&pool.point(i, i + 1));
    }
    delta_frame(0, seq, &before, &cluster_map(alg), alg.points_processed())
}

/// `distrib.protocol.encode_us` and `distrib.wal.append_us` on delta
/// frames of one batch at this shape, appended to a scratch WAL.
fn distrib(shape: &Shape, out: &mut Vec<Metric>) -> Result<(), String> {
    let cfg = UMicroConfig::new(shape.n_micro, shape.dims).map_err(|e| e.to_string())?;
    let mut alg = UMicro::new(cfg);
    let warm = (shape.n_micro * 8) as u64;
    for i in 0..warm {
        alg.insert(&shape.pool.point(i, i + 1));
    }
    let frames: Vec<DeltaFrame> = (0..100u64)
        .map(|k| one_batch_delta(&mut alg, shape.pool, shape.batch, k + 1))
        .collect();
    let requests: Vec<SiteRequest> = frames
        .iter()
        .map(|f| SiteRequest::Delta { frame: f.clone() })
        .collect();
    let mut k = 0usize;
    let encode = probe(400, 1, || {
        k = (k + 1) % requests.len();
        encode_site_request(&requests[k], DEFAULT_MAX_FRAME_BYTES)
    });
    out.push(us("distrib.protocol.encode_us", &encode));
    let (append, _) = wal_append(
        &frames,
        &shape.tmp.join(format!("probe-{}.wal", shape.label)),
    )?;
    out.push(us("distrib.wal.append_us", &append));
    Ok(())
}

/// Appends `frames` to a fresh WAL at `path` (timing each append, fsync
/// included), then times a full replay of it; the file is removed
/// afterwards. Returns the append samples and the replay time in ms.
pub fn wal_append(frames: &[DeltaFrame], path: &Path) -> Result<(Samples, f64), String> {
    let p = path.to_string_lossy().into_owned();
    let mut wal = Wal::create(&p).map_err(|e| e.to_string())?;
    let mut s = Samples::default();
    for f in frames {
        let t0 = Instant::now();
        wal.append(f).map_err(|e| e.to_string())?;
        s.since(t0);
    }
    drop(wal);
    let t0 = Instant::now();
    let replayed = ustream_distrib::wal::replay(&p).map_err(|e| e.to_string())?;
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&p);
    if replayed.records != frames.len() as u64 {
        return Err(format!(
            "scratch WAL replayed {} of {} records",
            replayed.records,
            frames.len()
        ));
    }
    Ok((s, replay_ms))
}
