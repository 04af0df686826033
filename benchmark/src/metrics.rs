//! The metric registry (the one list `BENCHMARK.json` mirrors), order
//! statistics, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
pub struct MetricDef {
    /// Name as printed in the result line.
    pub name: &'static str,
    /// Unit as printed in the result line.
    pub unit: &'static str,
    /// What the number is, and where it comes from.
    pub about: &'static str,
}

const fn m(name: &'static str, unit: &'static str, about: &'static str) -> MetricDef {
    MetricDef { name, unit, about }
}

/// Metrics a user of the system sees, measured with tracing off. Every
/// workload reports every one of them.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "median set-up (at least 3, repeated for at least 3 s): input generation, backend/server construction and warm-up"),
    m("op_p50_ms", "ms", "median host wall of one operation: a whole decomposition, or on serve-burst one burst from first submit to last answered ticket"),
    m("jobs_per_s", "1/s", "decompositions completed per second of measurement (a served job is one decomposition)"),
    m("rel_error", "1", "final ||X - X^||/||X|| (serve-burst: median over the job pool); bit-identical across operations"),
    m("peak_rss_mib", "MiB", "peak resident memory through set-up and measurement (getrusage ru_maxrss of a child process started from the small launcher process, so no build tool's memory is counted)"),
];

/// Metrics of single layers, from the traced run (`--trace 1`). A metric
/// of a layer the workload does not reach reads 0. Counts and byte figures
/// are exact; byte figures are computed from operand shapes or read from
/// calling-thread counters, as each entry says. Modeled α–β times carry the
/// unit `s_virtual` and are never mixed with host time.
pub const PER_LAYER: &[MetricDef] = &[
    // hooi-large: tensor / linalg / core::executor.
    m("executor.init_s", "s", "hooi-large: HOSVD init (full-tensor Grams + EVDs) per decomposition"),
    m("tensor.gram_s", "s", "hooi-large: time in Gram calls (init + sweeps) per decomposition"),
    m("tensor.gram_calls", "count", "hooi-large: Gram calls per decomposition"),
    m("tensor.gram_gflops", "GFLOP/s", "hooi-large: Gram rate, flops computed as |X|*(L_n+1): the kernel builds the lower triangle only"),
    m("tensor.ttm_s", "s", "hooi-large: time in TTM calls per decomposition"),
    m("tensor.ttm_calls", "count", "hooi-large: TTM calls per decomposition"),
    m("tensor.ttm_gflops", "GFLOP/s", "hooi-large: TTM rate, flops computed as 2*|X|*K"),
    m("linalg.evd_s", "s", "hooi-large: EVD truncation time per decomposition (init calls + in-sweep share of SweepStats::svd)"),
    m("linalg.evd_calls", "count", "hooi-large: EVD truncations per decomposition"),
    m("linalg.peak_gflops", "GFLOP/s", "all: best packed-GEMM rate on a cache-resident 256^3 product over host_cores threads"),
    m("tensor.ttm_roofline_frac", "1", "hooi-large: tensor.ttm_gflops / linalg.peak_gflops"),
    m("tensor.gram_roofline_frac", "1", "hooi-large: tensor.gram_gflops / linalg.peak_gflops"),
    m("linalg.bytes_packed", "B", "hooi-large: pack-buffer bytes per decomposition, calling thread only"),
    m("executor.residual_s", "s", "hooi-large: decomposition time outside Gram, TTM and EVD"),
    m("executor.seq_decompose_s", "s", "hooi-large: the same decomposition on SeqBackend (single-threaded baseline)"),
    // ooc-tiled: core::outofcore / tensor::view.
    m("outofcore.init_s", "s", "ooc-tiled: sthosvd_outofcore per decomposition"),
    m("outofcore.sweep_s", "s", "ooc-tiled: hooi_sweep_outofcore, all sweeps of one decomposition"),
    m("outofcore.residual_s", "s", "ooc-tiled: decomposition time outside the two calls"),
    m("tensor.view_bytes_copied", "B", "ooc-tiled: copy_into bytes per decomposition, calling thread only"),
    m("outofcore.pool_peak_bytes", "B", "ooc-tiled: largest pooled workspace bytes seen between calls (at most the cap by construction: TtmWorkspace::recycle enforces it)"),
    m("outofcore.heap_growth_bytes", "B", "ooc-tiled: peak live heap bytes (all threads, counting allocator) above the level a decomposition started at, max over the run's decompositions; checked against cap + 2 tiles"),
    m("outofcore.cap_bytes", "B", "ooc-tiled: the workspace pool cap (a quarter of the tensor)"),
    m("outofcore.incore_decompose_s", "s", "ooc-tiled: in-core full_recompute of the same tensor"),
    // dist-p4096: core::plan.
    m("plan.dp_s", "s", "dist-p4096: the engine's joint grid x tree x order DP, called standalone with the engine's inputs"),
    m("plan.grid_candidates", "count", "dist-p4096: plan::grid::candidate_grids count"),
    m("plan.predicted_comm_s", "s_virtual", "dist-p4096: planner's alpha-beta comm wall prediction per sweep"),
    // dist-p4096: core::engine / distsim / mesh.
    m("engine.sim_s", "s", "dist-p4096: host wall of the mesh run minus plan.dp_s"),
    m("engine.sim_us_per_rank_sweep", "us", "dist-p4096: engine.sim_s per rank per sweep"),
    m("distsim.virtual_comm_s", "s_virtual", "dist-p4096: executed alpha-beta comm wall per sweep, max over ranks (SweepStats::comm_wall)"),
    m("distsim.ttm_comm_s", "s_virtual", "dist-p4096: TTM reduce-scatter share of one sweep's modeled comm"),
    m("distsim.regrid_comm_s", "s_virtual", "dist-p4096: regrid share of one sweep's modeled comm"),
    m("distsim.gram_comm_s", "s_virtual", "dist-p4096: Gram share of one sweep's modeled comm"),
    m("distsim.volume_elems", "elements", "dist-p4096: elements communicated in the run (run-level ledger)"),
    m("distsim.ttm_volume_elems", "elements", "dist-p4096: ledger TTM reduce-scatter elements"),
    m("distsim.regrid_volume_elems", "elements", "dist-p4096: ledger regrid elements"),
    m("distsim.gram_volume_elems", "elements", "dist-p4096: ledger Gram elements"),
    m("distsim.other_volume_elems", "elements", "dist-p4096: ledger elements of other traffic"),
    m("distsim.rank_cpu_s", "s", "dist-p4096: rank thread CPU in TTM and Gram+EVD, per-phase max over ranks, summed over sweeps"),
    m("mesh.workers", "count", "dist-p4096: worker threads the mesh multiplexed its ranks over"),
    // serve-burst: core::serve / plan::cache. The server's own counters
    // come from a fresh server that serves only the traced half.
    m("serve.submit_ms_p50", "ms", "serve-burst: median Server::submit call"),
    m("serve.batches", "count", "serve-burst: batches executed in the traced half (its own server)"),
    m("serve.batch_jobs_mean", "count", "serve-burst: jobs per batch"),
    m("serve.multi_job_batch_share", "1", "serve-burst: batches holding more than one job"),
    m("serve.coalesced_share", "1", "serve-burst: jobs that shared an identical job's execution"),
    m("serve.sweeps_saved_share", "1", "serve-burst: 1 - executed/requested sweeps"),
    m("plan_cache.hit_rate", "1", "serve-burst: plan cache hits / lookups"),
    m("plan_cache.misses", "count", "serve-burst: plan cache misses"),
    m("serve.sweep_ms_p50", "ms", "serve-burst: median per-job sweep wall from the returned SweepStats"),
    m("serve.queue_depth_hwm", "count", "serve-burst: queue depth high-water mark"),
    m("serve.workspace_hwm_bytes", "B", "serve-burst: pooled workspace high-water mark"),
    m("serve.rejected", "count", "serve-burst: submissions refused"),
    m("serve.burst_tail_ms", "ms", "serve-burst: burst latency at serve.burst_tail_pct (untraced)"),
    m("serve.burst_tail_pct", "%", "serve-burst: highest percentile with at least 10 bursts beyond it"),
    m("serve.bursts", "count", "serve-burst: bursts behind the tail figure"),
    // all workloads.
    m("trace.overhead_share", "1", "all: traced / untraced median operation time - 1"),
];

/// Median of `xs` (mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `xs` that still has at least `beyond` samples
/// above it, as `(percentile, value)`; `None` when there are too few.
pub fn tail(xs: &[f64], beyond: usize) -> Option<(f64, f64)> {
    if xs.len() <= beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len() - 1 - beyond;
    Some((100.0 * (idx + 1) as f64 / v.len() as f64, v[idx]))
}

/// Metric values of one run, by registry name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `name`; it must be a registered metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unregistered metric {name}"
        );
        self.0.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Render the result line: every metric of `defs` (end-to-end or
/// per-layer), unset per-layer metrics reading 0. Non-finite values make
/// the line report `correct: false`.
pub fn result_line(
    defs: &[MetricDef],
    values: &Values,
    mut correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let mut metrics = String::new();
    for (i, d) in defs.iter().enumerate() {
        let mut v = values.get(d.name).unwrap_or(0.0);
        if !v.is_finite() {
            correct = false;
            v = 0.0;
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_num(v),
            d.unit
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

/// A finite `f64` as a JSON number with every digit of its shortest
/// round-trip form (`{:?}` prints e.g. `4449354.0` or `1e-7`).
pub fn json_num(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn tail_keeps_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), Some((90.0, 90.0)));
        assert_eq!(tail(&xs[..10], 10), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}

#[cfg(test)]
mod mirror {
    use super::*;

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`, in order.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |chunk: &str, f: &str| {
            let i = chunk.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
            chunk[i..i + chunk[i..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|c| (field(c, "name"), field(c, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(listed(&json, key), want, "{key} differs from the registry");
        }
    }
}
