//! Inputs made from the seed, and the brute-force answer key every timed
//! operation is checked against.

use flat_bench::datasets::DensitySweep;
use flat_bench::Scale;
use flat_core::Neighbor;
use flat_data::update::{ChurnConfig, ChurnWorkload, UpdateStep};
use flat_data::workload::{knn_queries, KnnConfig};
use flat_geom::{Aabb, Point3};
use flat_rtree::{Entry, Hit};
use std::collections::HashMap;

/// Elements in every workload: the densest step of the harness sweep.
pub const ELEMENTS: usize = 450_000;

/// The neuron model and the read scripts over it.
pub struct Inputs {
    /// The fixed tiling domain of the model.
    pub domain: Aabb,
    /// The model's segments, ids `0..ELEMENTS`.
    pub entries: Vec<Entry>,
    /// Structural-neighborhood (small) range queries.
    pub sn: Vec<Aabb>,
    /// Large-subvolume range queries.
    pub lss: Vec<Aabb>,
    /// kNN probes, `k` in 8..=64.
    pub knn: Vec<(Point3, usize)>,
}

impl Inputs {
    /// Generates the model and `sn`/`lss`/`knn` queries from `seed`.
    pub fn generate(seed: u64, sn: usize, lss: usize, knn: usize) -> Inputs {
        let mut scale = Scale::default_scale();
        scale.seed = seed;
        assert_eq!(scale.max_density(), ELEMENTS, "harness sweep changed size");
        let sweep = DensitySweep::generate(&scale);
        let domain = sweep.domain();
        let entries = sweep.at(ELEMENTS);
        drop(sweep);
        scale.queries = sn;
        let sn = scale.sn_workload(&domain);
        scale.queries = lss;
        let lss = scale.lss_workload(&domain);
        let knn = knn_queries(
            &domain,
            &KnnConfig {
                count: knn,
                k_range: (8, 64),
                seed: seed ^ 0x4b4e_4e00,
            },
        );
        Inputs {
            domain,
            entries,
            sn,
            lss,
            knn,
        }
    }
}

/// Sorted ids of the entries intersecting `query`.
pub fn range_answer(entries: &[Entry], query: &Aabb) -> Vec<u64> {
    let mut ids: Vec<u64> = entries
        .iter()
        .filter(|e| query.intersects(&e.mbr))
        .map(|e| e.id)
        .collect();
    ids.sort_unstable();
    ids
}

/// The `k` smallest squared distances from `point`, ascending. Distances
/// and not ids are the key: ties at the k-th distance may legally break
/// either way.
pub fn knn_answer(entries: &[Entry], point: Point3, k: usize) -> Vec<f64> {
    let mut d: Vec<f64> = entries
        .iter()
        .map(|e| e.mbr.distance_sq_to_point(&point))
        .collect();
    let k = k.min(d.len());
    if k < d.len() {
        d.select_nth_unstable_by(k, f64::total_cmp);
    }
    let mut nearest = d[..k].to_vec();
    nearest.sort_unstable_by(f64::total_cmp);
    nearest
}

/// Sorted ids of a range answer, for comparison with the key.
pub fn hit_ids(hits: &[Hit]) -> Vec<u64> {
    let mut ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
    ids.sort_unstable();
    ids
}

/// Distances of a kNN answer (already ascending), for comparison.
pub fn neighbor_dists(neighbors: &[Neighbor]) -> Vec<f64> {
    neighbors.iter().map(|n| n.dist_sq).collect()
}

/// Computes `f` over `items` on two threads, keeping the order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mid = items.len() / 2;
    let (a, b) = items.split_at(mid);
    std::thread::scope(|s| {
        let left = s.spawn(|| a.iter().map(&f).collect::<Vec<R>>());
        let mut right: Vec<R> = b.iter().map(&f).collect();
        let mut out = left.join().expect("answer-key thread panicked");
        out.append(&mut right);
        out
    })
}

/// A precomputed churn script plus, for each read query, the lifetime of
/// every element that intersects it, so a read on a snapshot taken after
/// any number of committed steps can be checked exactly.
pub struct ChurnScript {
    /// One delete+re-insert group per step.
    pub steps: Vec<UpdateStep>,
    /// The live population after the last step.
    pub final_live: Vec<Entry>,
    /// Per query: `(id, first step visible, first step gone)`, sorted by
    /// id. Step `k` means "after `k` committed steps".
    lifetimes: Vec<Vec<(u64, u32, u32)>>,
}

impl ChurnScript {
    /// Generates `steps` steps replacing `per_step` elements each.
    pub fn generate(
        entries: &[Entry],
        domain: Aabb,
        queries: &[Aabb],
        steps: usize,
        per_step: usize,
        seed: u64,
    ) -> ChurnScript {
        let mut churn = ChurnWorkload::new(
            entries.to_vec(),
            domain,
            ChurnConfig::steady(per_step, seed ^ 0x4348_5552),
        );
        let steps: Vec<UpdateStep> = (0..steps).map(|_| churn.step()).collect();
        let final_live = churn.live().to_vec();
        let mut gone: HashMap<u64, u32> = HashMap::new();
        let mut born: Vec<(Entry, u32)> = entries.iter().map(|e| (*e, 0)).collect();
        for (i, step) in steps.iter().enumerate() {
            let k = i as u32 + 1;
            gone.extend(step.deletes.iter().map(|&id| (id, k)));
            born.extend(step.inserts.iter().map(|e| (*e, k)));
        }
        let lifetimes = par_map(queries, |q| {
            let mut life: Vec<(u64, u32, u32)> = born
                .iter()
                .filter(|(e, _)| q.intersects(&e.mbr))
                .map(|(e, from)| (e.id, *from, gone.get(&e.id).copied().unwrap_or(u32::MAX)))
                .collect();
            life.sort_unstable();
            life
        });
        ChurnScript {
            steps,
            final_live,
            lifetimes,
        }
    }

    /// Sorted ids query `q` must return after `k` committed steps.
    pub fn answer(&self, q: usize, k: usize) -> Vec<u64> {
        let k = k as u32;
        self.lifetimes[q]
            .iter()
            .filter(|&&(_, from, to)| from <= k && k < to)
            .map(|&(id, _, _)| id)
            .collect()
    }
}
