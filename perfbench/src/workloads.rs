//! The four workloads. Their timed phases call only the public façade
//! (`FlatDb::{reader, query, writer}`, `Snapshot::{range, knn}`,
//! `Writer::{apply, compact}`, `ShardedDb::{range_query, knn_query}`)
//! and the stats getters; everything below the façade is left to the
//! traced binary, reached through [`Inspect`].
//!
//! A run is [`ROUNDS`] rounds. Each round builds a fresh database (the
//! timed build gives `setup_s`), settles it untimed, and measures it for
//! an equal share of `--seconds`.

use crate::report::{percentile, ratio, Metric};
use crate::setup::{
    hit_ids, knn_answer, neighbor_dists, par_map, range_answer, ChurnScript, Inputs, ELEMENTS,
};
use crate::trace::{Span, SpanBuf};
use crate::Args;
use flat_core::{
    DbOptions, Durability, FlatDb, FlatError, FlatOptions, Neighbor, ShardOptions, ShardedDb,
    WriteOp,
};
use flat_geom::{Aabb, Point3};
use flat_rtree::{Hit, LeafLayout};
use flat_storage::{
    FileStore, IoStats, MemStore, Page, PageId, PageKind, PageStore, SchedulerConfig, StorageError,
    PAGE_SIZE,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Rounds per run (one build each).
pub const ROUNDS: usize = 5;
/// Closed-loop read clients on `read_warm` and `sharded_read`.
pub const CLIENTS: usize = 2;

/// `read_warm` and `churn`: pool pages, larger than the whole index.
pub const WARM_POOL_PAGES: usize = 1 << 14;
/// `read_warm` script: SN ranges, kNN probes, LSS ranges.
pub const WARM_SCRIPT: (usize, usize, usize) = (480, 96, 2);

/// `read_cold`: pool pages, about an eighth of the index.
pub const COLD_POOL_PAGES: usize = 900;
/// `read_cold` script length (SN ranges).
pub const COLD_SCRIPT: usize = 1024;
/// Queries per `run_batch` call on `read_cold`.
pub const COLD_BATCH: usize = 16;

/// `churn`: elements deleted and re-inserted per step (0.1 %).
pub const CHURN_PER_STEP: usize = ELEMENTS / 1000;
/// `churn`: steps committed per second of `--seconds`. A round's steps
/// end with a `Writer::compact`, so every round is one whole
/// delta-growth cycle.
pub const CHURN_STEPS_PER_SECOND: f64 = 16.0;
/// `churn`: the flush policy.
pub const CHURN_DURABILITY: Durability = Durability::WalCheckpoint { every_batches: 8 };
/// `churn`: the reader's SN script.
pub const CHURN_SCRIPT: usize = 256;
/// `churn`: SN queries the reader runs beside each commit (about as long
/// as one commit).
pub const CHURN_READS_PER_STEP: usize = 32;

/// `sharded_read`: shards.
pub const SHARDS: usize = 4;
/// `sharded_read`: pool pages per shard, about 1/32 of a shard's pages.
pub const SHARD_POOL_PAGES: usize = 56;
/// `sharded_read` script: SN ranges, kNN probes.
pub const SHARD_SCRIPT: (usize, usize) = (400, 100);

/// Kind of a timed read request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One structural-neighborhood range query.
    Sn,
    /// One large-subvolume range query.
    Lss,
    /// One kNN query.
    Knn,
    /// One `run_batch` call of [`COLD_BATCH`] SN queries.
    Batch,
}

impl OpKind {
    /// Short label used in metric and span names.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Sn => "sn",
            OpKind::Lss => "lss",
            OpKind::Knn => "knn",
            OpKind::Batch => "batch",
        }
    }

    fn span(self) -> &'static str {
        match self {
            OpKind::Sn => "op.sn",
            OpKind::Lss => "op.lss",
            OpKind::Knn => "op.knn",
            OpKind::Batch => "op.batch",
        }
    }
}

/// One timed read request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// What was asked.
    pub kind: OpKind,
    /// Latency in milliseconds.
    pub ms: f64,
    /// Round the request ran in.
    pub round: usize,
    /// Queries of the request whose answers matched the key.
    pub ok: u32,
    /// Whether spans were recorded for it (traced runs trace every
    /// other request, so the two halves give the tracing overhead).
    pub traced: bool,
}

/// One timed `Writer::apply`.
#[derive(Debug, Clone, Copy)]
pub struct Commit {
    /// Latency in milliseconds.
    pub ms: f64,
    /// Whether the checkpoint cadence fired inside this commit.
    pub checkpoint: bool,
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Time of each round's build call.
    pub builds_s: Vec<f64>,
    /// Timed read requests.
    pub samples: Vec<Sample>,
    /// Wall time of each round's read phase.
    pub round_wall_s: Vec<f64>,
    /// Operations attempted, reads, writes and end-of-run checks alike.
    pub attempted: u64,
    /// Operations that errored or answered differently from the key.
    pub failed: u64,
    /// Store bytes at the end of the run.
    pub store_bytes: u64,
    /// Live elements at the end of the run.
    pub live_elements: u64,
    /// Timed commits (`churn`).
    pub commits: Vec<Commit>,
    /// Timed compactions, ms (`churn`).
    pub compacts_ms: Vec<f64>,
    /// Elements deleted plus inserted (`churn`).
    pub write_elements: u64,
    /// Reopen time (ms) and replayed batches of the end-of-run recovery.
    pub recovery: Option<(f64, usize)>,
    /// Counters read from the public stats getters.
    pub layer: BTreeMap<String, f64>,
    /// Spans (traced runs only).
    pub spans: Vec<Span>,
}

impl Outcome {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Elements written per second of writer busy time: commits,
    /// checkpoints and compactions, but not the waits for the reader.
    pub fn write_eps(&self) -> f64 {
        let busy_ms: f64 =
            self.commits.iter().map(|c| c.ms).sum::<f64>() + self.compacts_ms.iter().sum::<f64>();
        ratio(self.write_elements as f64 * 1e3, busy_ms)
    }

    /// Latencies (ms) of the samples of `kind`, or of all when `None`.
    pub fn latencies(&self, kind: Option<OpKind>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| kind.is_none_or(|k| s.kind == k))
            .map(|s| s.ms)
            .collect()
    }

    /// Median over rounds of `f(the round's samples, its wall time)`.
    fn per_round(&self, f: impl Fn(&[Sample], f64) -> f64) -> f64 {
        let mut rounds = vec![Vec::new(); self.round_wall_s.len()];
        for s in &self.samples {
            rounds[s.round].push(*s);
        }
        let values: Vec<f64> = rounds
            .iter()
            .zip(&self.round_wall_s)
            .map(|(r, &wall)| f(r, wall))
            .collect();
        percentile(&values, 50.0)
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order. Read metrics
    /// are medians over rounds, so a burst of outside load during one
    /// round does not move them. The tail is p95: a `read_cold` round
    /// completes a few hundred batches, too few for p99.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<Metric> {
        let latency = |p: f64| {
            move |r: &[Sample], _: f64| percentile(&r.iter().map(|s| s.ms).collect::<Vec<_>>(), p)
        };
        let qps = |r: &[Sample], wall: f64| ratio(r.iter().map(|s| s.ok as f64).sum(), wall);
        vec![
            Metric::new("setup_s", percentile(&self.builds_s, 50.0), "s"),
            Metric::new("read_qps", self.per_round(qps), "ops/s"),
            Metric::new("read_p50_ms", self.per_round(latency(50.0)), "ms"),
            Metric::new("read_p95_ms", self.per_round(latency(95.0)), "ms"),
            Metric::new(
                "space_bytes_per_elem",
                ratio(self.store_bytes as f64, self.live_elements as f64),
                "B",
            ),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    }

    /// Human-readable lines, one per operation metric this workload
    /// exercised (with its sample count): per-kind latency, commit
    /// latency, write throughput and the failed-operation ratio.
    pub fn print_operations(&self) {
        let line = |name: String, value: f64, unit: &str, n: usize| {
            println!("  {name:<40} {value:>16.4} {unit} (n={n})");
        };
        for kind in [OpKind::Sn, OpKind::Lss, OpKind::Knn, OpKind::Batch] {
            let l = self.latencies(Some(kind));
            if !l.is_empty() {
                let label = kind.label();
                line(
                    format!("{label}_p50_ms"),
                    percentile(&l, 50.0),
                    "ms",
                    l.len(),
                );
                line(
                    format!("{label}_p99_ms"),
                    percentile(&l, 99.0),
                    "ms",
                    l.len(),
                );
            }
        }
        if !self.commits.is_empty() {
            let c: Vec<f64> = self.commits.iter().map(|c| c.ms).collect();
            line("commit_p50_ms".into(), percentile(&c, 50.0), "ms", c.len());
            line("commit_p95_ms".into(), percentile(&c, 95.0), "ms", c.len());
            let eps = self.write_eps();
            line("write_eps".into(), eps, "elements/s", c.len());
        }
        let failed = ratio(self.failed as f64, self.attempted as f64);
        line(
            "failed_op_ratio".into(),
            failed,
            "ratio",
            self.attempted as usize,
        );
    }
}

/// Hooks the traced binary uses to inspect a workload's database after
/// its last round; the timed binary passes [`NoInspect`].
pub trait Inspect {
    /// Called with a `FlatDb` workload's database.
    fn flat_db<S: PageStore + Send + Sync>(&mut self, _db: &FlatDb<S>, _inputs: &Inputs) {}
}

/// No inspection.
pub struct NoInspect;

impl Inspect for NoInspect {}

/// Runs `args.workload`.
pub fn run<I: Inspect>(args: &Args, traced: bool, inspect: &mut I) -> Outcome {
    let round = args.seconds / ROUNDS as u32;
    match args.workload.as_str() {
        "read_warm" => read_warm(args.seed, round, traced, inspect),
        "read_cold" => read_cold(args.seed, round, traced, inspect),
        "churn" => {
            let steps = CHURN_STEPS_PER_SECOND * round.as_secs_f64();
            churn(args.seed, (steps.round() as usize).max(1), traced, inspect)
        }
        "sharded_read" => sharded_read(args.seed, round, traced),
        other => unreachable!("Args::parse admitted unknown workload {other}"),
    }
}

/// Times `build` alone, recording it as this round's setup time.
fn timed_build<D>(out: &mut Outcome, build: impl FnOnce() -> D) -> D {
    let t = Instant::now();
    let db = build();
    out.builds_s.push(t.elapsed().as_secs_f64());
    db
}

fn with_ids(domain: Option<Aabb>) -> FlatOptions {
    FlatOptions {
        layout: LeafLayout::WithIds,
        domain,
        ..FlatOptions::default()
    }
}

/// Pool counters per read query, from an [`IoStats`] delta.
fn pool_counters(layer: &mut BTreeMap<String, f64>, io: &IoStats, ops: u64) {
    for kind in [
        PageKind::SeedInner,
        PageKind::SeedLeaf,
        PageKind::ObjectPage,
    ] {
        layer.insert(
            format!("pool.logical_reads_per_op.{}", kind.label()),
            ratio(io.kind(kind).logical_reads as f64, ops as f64),
        );
    }
    layer.insert(
        "pool.physical_reads_per_op".into(),
        ratio(io.total_physical_reads() as f64, ops as f64),
    );
    layer.insert("pool.hit_rate".into(), io.hit_rate());
}

// ---------------------------------------------------------------- scripts

#[derive(Debug, Clone, Copy)]
enum Op {
    Range(OpKind, usize),
    Knn(usize),
}

/// A read script with its answer key.
struct Script {
    ranges: Vec<Aabb>,
    range_key: Vec<Vec<u64>>,
    knn: Vec<(Point3, usize)>,
    knn_key: Vec<Vec<f64>>,
    ops: Vec<Op>,
}

enum Raw {
    Hits(Vec<Hit>),
    Neighbors(Vec<Neighbor>),
}

impl Script {
    /// Every query of `inputs`, evenly interleaved by kind.
    fn new(inputs: &Inputs) -> Script {
        let ranges: Vec<Aabb> = inputs.sn.iter().chain(&inputs.lss).copied().collect();
        let range_key = par_map(&ranges, |q| range_answer(&inputs.entries, q));
        let knn_key = par_map(&inputs.knn, |(p, k)| knn_answer(&inputs.entries, *p, *k));
        let spread = |n: usize| (0..n).map(move |i| (i as f64 + 0.5) / n as f64);
        let sn = inputs.sn.len();
        let mut keyed: Vec<(f64, Op)> = spread(sn)
            .enumerate()
            .map(|(i, f)| (f, Op::Range(OpKind::Sn, i)))
            .chain(
                spread(inputs.lss.len())
                    .enumerate()
                    .map(|(i, f)| (f, Op::Range(OpKind::Lss, sn + i))),
            )
            .chain(
                spread(inputs.knn.len())
                    .enumerate()
                    .map(|(i, f)| (f, Op::Knn(i))),
            )
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        Script {
            ranges,
            range_key,
            knn: inputs.knn.clone(),
            knn_key,
            ops: keyed.into_iter().map(|(_, op)| op).collect(),
        }
    }

    fn check(&self, op: Op, raw: &Raw) -> bool {
        match (op, raw) {
            (Op::Range(_, i), Raw::Hits(h)) => hit_ids(h) == self.range_key[i],
            (Op::Knn(i), Raw::Neighbors(n)) => neighbor_dists(n) == self.knn_key[i],
            _ => false,
        }
    }
}

fn kind_of(op: Op) -> OpKind {
    match op {
        Op::Range(kind, _) => kind,
        Op::Knn(_) => OpKind::Knn,
    }
}

/// What one façade call returned: when the snapshot pin finished (if
/// the call took one), the span name of the query call, and the answer.
struct Call {
    pinned: Option<Instant>,
    layer: &'static str,
    raw: Result<Raw, FlatError>,
}

/// A span buffer for `client` of `round`, when tracing.
fn span_buf(traced: bool, origin: Instant, round: usize, client: usize) -> Option<SpanBuf> {
    traced.then(|| SpanBuf::new(origin, (round * 8 + client) as u64))
}

/// Runs [`CLIENTS`] closed-loop clients over `script` for `seconds`.
/// Client `c` starts `c/CLIENTS` of the way into the script.
fn read_clients(
    out: &mut Outcome,
    round: usize,
    script: &Script,
    seconds: Duration,
    traced: bool,
    exec: impl Fn(Op) -> Call + Sync,
) {
    let origin = Instant::now();
    let barrier = Barrier::new(CLIENTS);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, exec) = (&barrier, &exec);
                s.spawn(move || {
                    let mut buf = span_buf(traced, origin, round, c);
                    let mut samples = Vec::new();
                    let mut failed = 0u64;
                    let n = script.ops.len();
                    let mut i = c * n / CLIENTS;
                    barrier.wait();
                    let start = Instant::now();
                    while start.elapsed() < seconds {
                        let op = script.ops[i % n];
                        i += 1;
                        let t0 = Instant::now();
                        let call = exec(op);
                        let t2 = Instant::now();
                        let ok = call.raw.as_ref().is_ok_and(|r| script.check(op, r));
                        failed += !ok as u64;
                        let kind = kind_of(op);
                        let trace_this = buf.is_some() && i.is_multiple_of(2);
                        if let (Some(buf), true) = (buf.as_mut(), trace_this) {
                            let req = buf.request();
                            let root = buf.record(kind.span(), req, None, t0, t2);
                            let t1 = call.pinned.unwrap_or(t0);
                            if call.pinned.is_some() {
                                buf.record("db.reader", req, Some(root), t0, t1);
                            }
                            buf.record(call.layer, req, Some(root), t1, t2);
                        }
                        samples.push(Sample {
                            kind,
                            ms: (t2 - t0).as_secs_f64() * 1e3,
                            round,
                            ok: ok as u32,
                            traced: trace_this,
                        });
                    }
                    (samples, failed, start.elapsed(), buf.map(|b| b.spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("read client panicked"))
            .collect()
    });
    let mut wall = 0.0f64;
    for (samples, failed, elapsed, spans) in results {
        out.attempted += samples.len() as u64;
        out.failed += failed;
        out.samples.extend(samples);
        wall = wall.max(elapsed.as_secs_f64());
        out.spans.extend(spans.unwrap_or_default());
    }
    out.round_wall_s.push(wall);
}

/// Runs every script op once, untimed, so caches and lazy state settle.
fn warm_up(script: &Script, exec: impl Fn(Op) -> Call) {
    for &op in &script.ops {
        let _ = exec(op);
    }
}

fn snapshot_call<S: PageStore>(db: &FlatDb<S>, script: &Script, op: Op) -> Call {
    let snapshot = db.reader();
    let pinned = Some(Instant::now());
    let (layer, raw) = match op {
        Op::Range(_, i) => (
            "snapshot.range",
            snapshot.range(&script.ranges[i]).map(Raw::Hits),
        ),
        Op::Knn(i) => {
            let (p, k) = script.knn[i];
            ("snapshot.knn", snapshot.knn(p, k).map(Raw::Neighbors))
        }
    };
    Call { pinned, layer, raw }
}

// ---------------------------------------------------------------- read_warm

fn read_warm<I: Inspect>(seed: u64, round_s: Duration, traced: bool, inspect: &mut I) -> Outcome {
    let (sn, knn, lss) = WARM_SCRIPT;
    let inputs = Inputs::generate(seed, sn, lss, knn);
    let script = Script::new(&inputs);
    let options = DbOptions {
        index: with_ids(None),
        pool_pages: WARM_POOL_PAGES,
        ..DbOptions::default()
    };
    let mut out = Outcome::default();
    let mut io = IoStats::new();
    for round in 0..ROUNDS {
        let mut db = FlatDb::create_in_memory(options);
        let entries = inputs.entries.clone();
        timed_build(&mut out, || {
            db.build_from(entries).expect("in-memory build")
        });
        warm_up(&script, |op| snapshot_call(&db, &script, op));
        db.reset_stats();
        read_clients(&mut out, round, &script, round_s, traced, |op| {
            snapshot_call(&db, &script, op)
        });
        io.accumulate(&db.io_stats());
        if round + 1 == ROUNDS {
            out.store_bytes = db.store().size_bytes();
            out.live_elements = db.num_live_elements();
            inspect.flat_db(&db, &inputs);
        }
    }
    pool_counters(&mut out.layer, &io, out.samples.len() as u64);
    out
}

// ---------------------------------------------------------------- read_cold

/// A directory under the working directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `.perfbench_tmp/<name>-<pid>`.
    pub fn new(name: &str) -> ScratchDir {
        let dir = Path::new(".perfbench_tmp").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        ScratchDir(dir)
    }

    /// A path inside the directory.
    pub fn join(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench_tmp"); // only if now empty
    }
}

/// Sums of the engine's per-batch counters.
#[derive(Default)]
struct EngineSums {
    batches: u64,
    fetched: u64,
    requested: u64,
    hints: u64,
    io: IoStats,
}

fn read_cold<I: Inspect>(seed: u64, round_s: Duration, traced: bool, inspect: &mut I) -> Outcome {
    let inputs = Inputs::generate(seed, COLD_SCRIPT, 0, 0);
    let script = Script::new(&inputs);
    let batches: Vec<Vec<Aabb>> = script
        .ranges
        .chunks(COLD_BATCH)
        .map(|c| c.to_vec())
        .collect();
    let dir = ScratchDir::new("read_cold");
    let options = DbOptions {
        index: with_ids(None),
        pool_pages: COLD_POOL_PAGES,
        ..DbOptions::default()
    };
    let mut out = Outcome::default();
    let mut sums = EngineSums::default();
    let mut io = IoStats::new();
    for round in 0..ROUNDS {
        let path = dir.join("index.db");
        let _ = std::fs::remove_file(&path);
        let mut db = FlatDb::create(FileStore::create(&path).expect("create file"), options);
        let entries = inputs.entries.clone();
        timed_build(&mut out, || db.build_from(entries).expect("file build"));
        for batch in &batches {
            let _ = db.query().ranges(batch.iter().copied()).run_batch();
        }
        db.reset_stats();
        let mut buf = span_buf(traced, Instant::now(), round, 0);
        let start = Instant::now();
        let mut b = 0usize;
        while start.elapsed() < round_s {
            let first = (b % batches.len()) * COLD_BATCH;
            let batch = &batches[b % batches.len()];
            b += 1;
            let t0 = Instant::now();
            let result = db.query().ranges(batch.iter().copied()).run_batch();
            let t1 = Instant::now();
            let trace_this = buf.is_some() && b.is_multiple_of(2);
            if let (Some(buf), true) = (buf.as_mut(), trace_this) {
                let req = buf.request();
                let root = buf.record(OpKind::Batch.span(), req, None, t0, t1);
                buf.record("query.run_batch", req, Some(root), t0, t1);
            }
            let mut verified = 0u32;
            match result {
                Ok(outcome) => {
                    sums.batches += 1;
                    sums.fetched += outcome.pages_fetched;
                    sums.requested += outcome.page_requests;
                    sums.hints += outcome.prefetch_hints;
                    sums.io.accumulate(&outcome.io);
                    for (j, hits) in outcome.results.iter().enumerate() {
                        let ok = hit_ids(hits) == script.range_key[first + j];
                        out.check(ok);
                        verified += ok as u32;
                    }
                }
                Err(_) => {
                    out.attempted += batch.len() as u64;
                    out.failed += batch.len() as u64;
                }
            }
            out.samples.push(Sample {
                kind: OpKind::Batch,
                ms: (t1 - t0).as_secs_f64() * 1e3,
                round,
                ok: verified,
                traced: trace_this,
            });
        }
        out.round_wall_s.push(start.elapsed().as_secs_f64());
        out.spans.extend(buf.map(|b| b.spans).unwrap_or_default());
        io.accumulate(&db.io_stats());
        if round + 1 == ROUNDS {
            out.store_bytes = db.store().size_bytes();
            out.live_elements = db.num_live_elements();
            inspect.flat_db(&db, &inputs);
        }
    }
    let queries: u64 = out.samples.iter().map(|s| s.ok as u64).sum();
    let n = sums.batches as f64;
    let layer = &mut out.layer;
    pool_counters(layer, &io, queries);
    layer.insert(
        "engine.pages_fetched_per_batch".into(),
        ratio(sums.fetched as f64, n),
    );
    layer.insert(
        "engine.dedup_ratio".into(),
        1.0 - ratio(sums.fetched as f64, sums.requested as f64),
    );
    layer.insert(
        "engine.prefetch_hints_per_batch".into(),
        ratio(sums.hints as f64, n),
    );
    let prefetched = sums.io.total_prefetch_reads() as f64;
    layer.insert(
        "engine.prefetch_hit_ratio".into(),
        ratio(sums.io.total_prefetch_hits() as f64, prefetched),
    );
    layer.insert(
        "engine.prefetch_evicted_ratio".into(),
        ratio(sums.io.total_prefetch_evicted() as f64, prefetched),
    );
    out
}

// ---------------------------------------------------------------- churn

/// A `Writer::apply([Delete, Insert])` group counts two logged batches
/// toward the checkpoint cadence, a compaction one.
const LOGGED_PER_STEP: usize = 2;

/// Bytes of one user entry: six `f64` bounds and a `u64` id.
const ENTRY_BYTES: u64 = 56;

fn churn<I: Inspect>(seed: u64, steps: usize, traced: bool, inspect: &mut I) -> Outcome {
    let inputs = Inputs::generate(seed, CHURN_SCRIPT, 0, 0);
    let script = ChurnScript::generate(
        &inputs.entries,
        inputs.domain,
        &inputs.sn,
        steps,
        CHURN_PER_STEP,
        seed,
    );
    let final_key = par_map(&inputs.sn, |q| range_answer(&script.final_live, q));
    let options = DbOptions {
        pool_pages: WARM_POOL_PAGES,
        ..DbOptions::updatable(inputs.domain).with_durability(CHURN_DURABILITY)
    };
    let mut out = Outcome::default();
    let mut io = IoStats::new();
    let (mut cow_pages, mut retained_max, mut deferred_max) = (0u64, 0usize, 0usize);
    let mut db = None;
    for round in 0..ROUNDS {
        drop(db.take());
        let mut fresh = FlatDb::create_durable(MemStore::new(), options).expect("durable store");
        let entries = inputs.entries.clone();
        timed_build(&mut out, || {
            fresh.build_from(entries).expect("durable build")
        });
        // Promote to the delta index and fill the cache before timing.
        drop(fresh.writer().expect("updatable database"));
        for q in &inputs.sn {
            let _ = fresh.reader().range(q);
        }
        fresh.reset_stats();
        let version0 = fresh.version_stats();
        let w = churn_round(&mut out, &fresh, &inputs, &script, round, traced);
        io.accumulate(&fresh.io_stats());
        cow_pages += fresh.version_stats().cow_pages - version0.cow_pages;
        retained_max = retained_max.max(w.retained_max);
        deferred_max = deferred_max.max(w.deferred_max);
        db = Some(fresh);
    }
    let db = db.expect("ROUNDS > 0");

    let commits = (out.commits.len() + out.compacts_ms.len()) as f64;
    let writes = io.total_writes();
    let layer = &mut out.layer;
    pool_counters(layer, &io, out.samples.len() as u64);
    layer.insert(
        "versioned.cow_pages_per_batch".into(),
        ratio(cow_pages as f64, commits),
    );
    layer.insert(
        "versioned.retained_versions_max".into(),
        retained_max as f64,
    );
    layer.insert("versioned.deferred_frees_max".into(), deferred_max as f64);
    layer.insert(
        "writer.pages_written_per_batch".into(),
        ratio(writes as f64, commits),
    );
    layer.insert(
        "writer.write_amp".into(),
        ratio(
            (writes * PAGE_SIZE as u64) as f64,
            (out.write_elements * ENTRY_BYTES) as f64,
        ),
    );

    // End of run: every query against the final live set, the delta
    // invariants, then a crash-style reopen that must answer the same.
    let reader = db.reader();
    for (q, key) in inputs.sn.iter().zip(&final_key) {
        let ok = reader.range(q).is_ok_and(|h| hit_ids(&h) == *key);
        out.check(ok);
    }
    drop(reader);
    out.check(matches!(db.check_invariants(), Ok(Some(_))));
    out.check(db.num_live_elements() == script.final_live.len() as u64);
    out.store_bytes = db.store().size_bytes();
    out.live_elements = db.num_live_elements();
    inspect.flat_db(&db, &inputs);
    let store = db.into_store();
    let t = Instant::now();
    match FlatDb::open_durable(store, options) {
        Ok((recovered, report)) => {
            out.recovery = Some((t.elapsed().as_secs_f64() * 1e3, report.replayed));
            let reader = recovered.reader();
            for (q, key) in inputs.sn.iter().zip(&final_key) {
                let ok = reader.range(q).is_ok_and(|h| hit_ids(&h) == *key);
                out.check(ok);
            }
        }
        Err(_) => out.check(false),
    }
    out
}

/// Writer-side results of one churn round.
#[derive(Default)]
struct WriterResult {
    retained_max: usize,
    deferred_max: usize,
}

/// One round: a writer thread commits the step script, then compacts.
/// Beside each commit a reader thread runs [`CHURN_READS_PER_STEP`] SN
/// queries on fresh snapshots, and the two meet at a barrier before the
/// next step, so every round overlaps reads and writes the same way;
/// during the compaction the reader runs until the writer is done. Every
/// read is checked against the state its snapshot saw.
fn churn_round<S: PageStore + Send + Sync>(
    out: &mut Outcome,
    db: &FlatDb<S>,
    inputs: &Inputs,
    script: &ChurnScript,
    round: usize,
    traced: bool,
) -> WriterResult {
    // (epoch, committed steps), appended by the writer after each commit.
    let epochs = Mutex::new(vec![(db.epoch(), 0usize)]);
    let done = AtomicBool::new(false);
    let step_done = Barrier::new(2);
    let origin = Instant::now();
    let (writer, reader) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut w = WriterResult::default();
            let mut buf = span_buf(traced, origin, round, 1);
            let mut commits = Vec::new();
            let mut compacts_ms = Vec::new();
            let (mut elements, mut failed) = (0u64, 0u64);
            let mut logged = 0usize;
            let mut timed =
                |name: &'static str,
                 layer: &'static str,
                 f: &mut dyn FnMut() -> Result<usize, FlatError>| {
                    let t0 = Instant::now();
                    let r = f();
                    let t1 = Instant::now();
                    if let Some(buf) = buf.as_mut() {
                        let req = buf.request();
                        let root = buf.record(name, req, None, t0, t1);
                        buf.record(layer, req, Some(root), t0, t1);
                    }
                    r.map(|n| (n, (t1 - t0).as_secs_f64() * 1e3))
                };
            for (i, step) in script.steps.iter().enumerate() {
                if failed == 0 {
                    let mut ops = Some(vec![
                        WriteOp::Delete(step.deletes.clone()),
                        WriteOp::Insert(step.inserts.clone()),
                    ]);
                    let result = timed("op.commit", "writer.apply", &mut || {
                        let ops = ops.take().expect("one apply per step");
                        db.writer()?.apply(ops).map(|n| n.iter().sum())
                    });
                    match result {
                        Ok((n, ms)) => {
                            elements += n as u64;
                            logged += LOGGED_PER_STEP;
                            let checkpoint = logged >= 8;
                            if checkpoint {
                                logged = 0;
                            }
                            commits.push(Commit { ms, checkpoint });
                            epochs.lock().expect("epoch log").push((db.epoch(), i + 1));
                            w.sample(db);
                        }
                        Err(_) => failed += 1,
                    }
                }
                step_done.wait();
            }
            if failed == 0 {
                match timed("op.compact", "writer.compact", &mut || {
                    db.writer()?.compact().map(|_| 0)
                }) {
                    Ok((_, ms)) => compacts_ms.push(ms),
                    Err(_) => failed += 1,
                }
                w.sample(db);
            }
            done.store(true, Ordering::Release);
            let attempted = commits.len() as u64 + compacts_ms.len() as u64 + failed;
            let spans = buf.map(|b| b.spans).unwrap_or_default();
            (w, commits, compacts_ms, elements, attempted, failed, spans)
        });
        let reader = s.spawn(|| {
            let mut buf = span_buf(traced, origin, round, 2);
            let mut samples: Vec<Sample> = Vec::new();
            let mut pending = Vec::new();
            let mut i = 0usize;
            let mut read_one = || {
                let q = i % inputs.sn.len();
                i += 1;
                let t0 = Instant::now();
                let snapshot = db.reader();
                let t1 = Instant::now();
                let epoch = snapshot.epoch();
                let result = snapshot.range(&inputs.sn[q]);
                drop(snapshot);
                let t2 = Instant::now();
                let trace_this = buf.is_some() && i.is_multiple_of(2);
                if let (Some(buf), true) = (buf.as_mut(), trace_this) {
                    let req = buf.request();
                    let root = buf.record(OpKind::Sn.span(), req, None, t0, t2);
                    buf.record("db.reader", req, Some(root), t0, t1);
                    buf.record("snapshot.range", req, Some(root), t1, t2);
                }
                samples.push(Sample {
                    kind: OpKind::Sn,
                    ms: (t2 - t0).as_secs_f64() * 1e3,
                    round,
                    ok: 0,
                    traced: trace_this,
                });
                if let Ok(hits) = result {
                    pending.push((samples.len() - 1, q, epoch, hit_ids(&hits)));
                }
            };
            // Busy time only: the waits for the writer at each step do
            // not count toward the reader's throughput.
            let mut busy = Duration::ZERO;
            for _ in &script.steps {
                let t = Instant::now();
                for _ in 0..CHURN_READS_PER_STEP {
                    read_one();
                }
                busy += t.elapsed();
                step_done.wait();
            }
            let t = Instant::now();
            while !done.load(Ordering::Acquire) {
                read_one();
            }
            busy += t.elapsed();
            // The writer has logged every epoch by now.
            let log = epochs.lock().expect("epoch log");
            for (at, q, epoch, ids) in pending {
                let k = steps_at(&log, epoch);
                samples[at].ok = k.is_some_and(|k| script.answer(q, k) == ids) as u32;
            }
            (samples, busy.as_secs_f64(), buf.map(|b| b.spans))
        });
        (
            writer.join().expect("writer panicked"),
            reader.join().expect("reader panicked"),
        )
    });
    let (w, commits, compacts_ms, elements, attempted, failed, write_spans) = writer;
    let (samples, wall, spans) = reader;
    out.attempted += samples.len() as u64 + attempted;
    out.failed += samples.iter().filter(|s| s.ok == 0).count() as u64 + failed;
    out.samples.extend(samples);
    out.round_wall_s.push(wall);
    out.spans.extend(spans.unwrap_or_default());
    out.spans.extend(write_spans);
    out.commits.extend(commits);
    out.compacts_ms.extend(compacts_ms);
    out.write_elements += elements;
    w
}

/// Committed steps visible at `epoch`, from the writer's log.
fn steps_at(log: &[(u64, usize)], epoch: u64) -> Option<usize> {
    log.iter().rev().find(|(e, _)| *e <= epoch).map(|&(_, k)| k)
}

impl WriterResult {
    fn sample<S: PageStore>(&mut self, db: &FlatDb<S>) {
        let v = db.version_stats();
        self.retained_max = self.retained_max.max(v.retained_versions);
        self.deferred_max = self.deferred_max.max(v.deferred_frees);
    }
}

// ---------------------------------------------------------------- sharded_read

/// A [`MemStore`] that publishes its size, so the benchmark can read the
/// space each shard uses after handing the store to `ShardedDb::build`.
struct CountedStore {
    inner: MemStore,
    pages: Arc<AtomicU64>,
}

impl PageStore for CountedStore {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        let id = self.inner.alloc()?;
        self.pages.store(self.inner.num_pages(), Ordering::Relaxed);
        Ok(id)
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<(), StorageError> {
        self.inner.write_page(id, page)
    }

    fn read_page(&self, id: PageId, out: &mut Page) -> Result<(), StorageError> {
        self.inner.read_page(id, out)
    }

    fn free_page(&mut self, id: PageId) -> Result<(), StorageError> {
        self.inner.free_page(id)
    }

    fn free_pages(&self) -> Vec<PageId> {
        self.inner.free_pages()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
}

fn sharded_read(seed: u64, round_s: Duration, traced: bool) -> Outcome {
    let (sn, knn) = SHARD_SCRIPT;
    let inputs = Inputs::generate(seed, sn, 0, knn);
    let script = Script::new(&inputs);
    let options = ShardOptions {
        index: with_ids(Some(inputs.domain)),
        pool_pages: SHARD_POOL_PAGES,
        scheduler: SchedulerConfig::default(),
    };
    let mut out = Outcome::default();
    let mut io = IoStats::new();
    let mut sched = flat_storage::SchedulerStats::default();
    for round in 0..ROUNDS {
        let mut sizes = Vec::new();
        let entries = inputs.entries.clone();
        let db = timed_build(&mut out, || {
            ShardedDb::build(SHARDS, entries, options, |_| {
                let pages = Arc::new(AtomicU64::new(0));
                sizes.push(Arc::clone(&pages));
                CountedStore {
                    inner: MemStore::new(),
                    pages,
                }
            })
            .expect("sharded build")
        });
        let exec = |op: Op| {
            let (layer, raw) = match op {
                Op::Range(_, i) => (
                    "shard.range_query",
                    db.range_query(&script.ranges[i]).map(Raw::Hits),
                ),
                Op::Knn(i) => {
                    let (p, k) = script.knn[i];
                    ("shard.knn_query", db.knn_query(p, k).map(Raw::Neighbors))
                }
            };
            Call {
                pinned: None,
                layer,
                raw,
            }
        };
        warm_up(&script, exec);
        db.reset_stats();
        read_clients(&mut out, round, &script, round_s, traced, exec);
        io.accumulate(&db.io_stats());
        sched.accumulate(&db.scheduler_stats());
        out.store_bytes = sizes
            .iter()
            .map(|p| p.load(Ordering::Relaxed) * PAGE_SIZE as u64)
            .sum();
        out.live_elements = db.num_live_elements();
    }
    let ops = out.samples.len() as u64;
    let layer = &mut out.layer;
    pool_counters(layer, &io, ops);
    layer.insert(
        "scheduler.demand_wait_us_mean".into(),
        sched.mean_demand_wait_us(),
    );
    layer.insert(
        "scheduler.demand_service_us_mean".into(),
        sched.mean_demand_service_us(),
    );
    layer.insert(
        "scheduler.coalesced_ratio".into(),
        ratio(
            sched.demand_coalesced as f64,
            (sched.demand_submitted + sched.demand_coalesced) as f64,
        ),
    );
    layer.insert(
        "scheduler.prefetch_dropped_ratio".into(),
        ratio(
            sched.prefetch_dropped as f64,
            (sched.prefetch_submitted + sched.prefetch_dropped) as f64,
        ),
    );
    layer.insert("scheduler.hit_rate".into(), io.hit_rate());
    layer.insert(
        "scheduler.logical_reads_per_op".into(),
        ratio(io.total_logical_reads() as f64, ops as f64),
    );
    out
}
