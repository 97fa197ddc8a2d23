//! Traced run: one workload with spans recorded around each façade call,
//! plus the layer probes; prints the per-layer metrics.
//!
//! `perfbench_trace --workload <name> [--seed <n>] [--seconds <s>]`
//!
//! Every other request is traced, so the traced and untraced halves of
//! one run give `trace.overhead_pct`. Spans are kept in memory and
//! written to `.perfbench_out/spans-<workload>.jsonl` when the run ends.
//! A metric a workload does not exercise reads 0.

mod probes;

use perfbench::report::{percentile, print_result, ratio, Metric};
use perfbench::trace::{durations_us, write_jsonl};
use perfbench::workloads::{run, OpKind, Outcome};
use perfbench::Args;
use probes::{storage_stacks, Probes};
use std::collections::BTreeMap;
use std::path::Path;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
const PER_LAYER: &[(&str, &str)] = &[
    ("db.reader_us", "us"),
    ("op.sn_p50_ms", "ms"),
    ("op.sn_p99_ms", "ms"),
    ("op.lss_p50_ms", "ms"),
    ("op.lss_p99_ms", "ms"),
    ("op.knn_p50_ms", "ms"),
    ("op.knn_p99_ms", "ms"),
    ("op.batch_p50_ms", "ms"),
    ("op.batch_p99_ms", "ms"),
    ("query.records_per_query", "count"),
    ("query.object_pages_per_query", "count"),
    ("query.seed_probe_pages_per_query", "count"),
    ("query.results_per_query", "count"),
    ("query.hit_ratio", "ratio"),
    ("knn.records_expanded_per_query", "count"),
    ("knn.pruned_ratio", "ratio"),
    ("knn.object_pages_per_query", "count"),
    ("pool.logical_reads_per_op.seed-inner", "count"),
    ("pool.logical_reads_per_op.seed-leaf", "count"),
    ("pool.logical_reads_per_op.object", "count"),
    ("pool.physical_reads_per_op", "count"),
    ("pool.hit_rate", "ratio"),
    ("engine.pages_fetched_per_batch", "count"),
    ("engine.dedup_ratio", "ratio"),
    ("engine.prefetch_hints_per_batch", "count"),
    ("engine.prefetch_hit_ratio", "ratio"),
    ("engine.prefetch_evicted_ratio", "ratio"),
    ("versioned.cow_pages_per_batch", "count"),
    ("versioned.retained_versions_max", "count"),
    ("versioned.deferred_frees_max", "count"),
    ("writer.commit_p50_ms", "ms"),
    ("writer.commit_p95_ms", "ms"),
    ("writer.write_eps", "elements/s"),
    ("writer.plain_commit_ms", "ms"),
    ("durable.checkpoint_commit_ms", "ms"),
    ("delta.compact_ms", "ms"),
    ("writer.pages_written_per_batch", "count"),
    ("writer.write_amp", "ratio"),
    ("durable.recovery_ms", "ms"),
    ("durable.replayed_batches", "count"),
    ("scheduler.demand_wait_us_mean", "us"),
    ("scheduler.demand_service_us_mean", "us"),
    ("scheduler.coalesced_ratio", "ratio"),
    ("scheduler.prefetch_dropped_ratio", "ratio"),
    ("scheduler.hit_rate", "ratio"),
    ("scheduler.logical_reads_per_op", "count"),
    ("phase.seed_us", "us"),
    ("phase.read_us.seed-inner", "us"),
    ("phase.read_us.seed-leaf", "us"),
    ("phase.read_us.object", "us"),
    ("phase.compute_us", "us"),
    ("store.read_ns.mem", "ns"),
    ("store.read_ns.file", "ns"),
    ("store.read_ns.concurrent", "ns"),
    ("store.read_ns.versioned", "ns"),
    ("store.read_ns.scheduler", "ns"),
    ("store.read_ns.durable", "ns"),
    ("store.miss_ns.concurrent", "ns"),
    ("store.miss_ns.versioned", "ns"),
    ("store.miss_ns.scheduler", "ns"),
    ("trace.overhead_pct", "%"),
];

fn main() {
    let args = Args::parse().unwrap_or_else(|e| {
        eprintln!("perfbench_trace: {e}");
        std::process::exit(2);
    });
    let mut probes = Probes {
        phase_split: args.workload == "read_warm",
        ..Probes::default()
    };
    let outcome = run(&args, true, &mut probes);
    let mut values = probes.values;
    values.extend(outcome.layer.clone());
    from_run(&outcome, &mut values);
    storage_stacks(&mut values);

    let path = Path::new(".perfbench_out").join(format!("spans-{}.jsonl", args.workload));
    if let Err(e) = write_jsonl(&path, &outcome.spans) {
        eprintln!("spans not written: {e}");
    }
    println!(
        "workload {} seed {} (traced, {} spans)",
        args.workload,
        args.seed,
        outcome.spans.len()
    );
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    print_result(
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        &metrics,
    );
}

/// Metrics taken from the run's samples and spans.
fn from_run(outcome: &Outcome, values: &mut BTreeMap<String, f64>) {
    let reader = durations_us(&outcome.spans, "db.reader");
    values.insert("db.reader_us".into(), percentile(&reader, 50.0));
    for kind in [OpKind::Sn, OpKind::Lss, OpKind::Knn, OpKind::Batch] {
        let l = outcome.latencies(Some(kind));
        let label = kind.label();
        values.insert(format!("op.{label}_p50_ms"), percentile(&l, 50.0));
        values.insert(format!("op.{label}_p99_ms"), percentile(&l, 99.0));
    }

    let all: Vec<f64> = outcome.commits.iter().map(|c| c.ms).collect();
    let on_cadence = |checkpoint: bool| -> Vec<f64> {
        outcome
            .commits
            .iter()
            .filter(|c| c.checkpoint == checkpoint)
            .map(|c| c.ms)
            .collect()
    };
    values.insert("writer.commit_p50_ms".into(), percentile(&all, 50.0));
    values.insert("writer.commit_p95_ms".into(), percentile(&all, 95.0));
    values.insert("writer.write_eps".into(), outcome.write_eps());
    values.insert(
        "writer.plain_commit_ms".into(),
        percentile(&on_cadence(false), 50.0),
    );
    values.insert(
        "durable.checkpoint_commit_ms".into(),
        percentile(&on_cadence(true), 50.0),
    );
    values.insert(
        "delta.compact_ms".into(),
        percentile(&outcome.compacts_ms, 50.0),
    );
    if let Some((ms, replayed)) = outcome.recovery {
        values.insert("durable.recovery_ms".into(), ms);
        values.insert("durable.replayed_batches".into(), replayed as f64);
    }

    // Tracing overhead: traced against untraced requests of the
    // workload's main kind, interleaved within this one run.
    let main = if outcome.samples.iter().any(|s| s.kind == OpKind::Batch) {
        OpKind::Batch
    } else {
        OpKind::Sn
    };
    let half = |traced: bool| -> Vec<f64> {
        outcome
            .samples
            .iter()
            .filter(|s| s.kind == main && s.traced == traced)
            .map(|s| s.ms)
            .collect()
    };
    let untraced = percentile(&half(false), 50.0);
    values.insert(
        "trace.overhead_pct".into(),
        ratio(percentile(&half(true), 50.0) - untraced, untraced) * 100.0,
    );
}
