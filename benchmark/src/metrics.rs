//! The metric tables — the one place a metric's name, unit, direction and
//! bound are written — and `BENCHMARK.json`, which is generated from them
//! (`benchmark manifest`; a unit test keeps the committed file equal).

use crate::workload::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the baseline's median by which the
    /// metric may worsen before a change is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a caller of the stack sees. Every workload reports every one (the
/// driver's contract): on the four workloads without a scan stream a
/// point op is a scan of one key, so there the `scan_*` metrics repeat
/// `ops_per_s`, `p50_ns` and `p99_ns`. Failures are not a metric here
/// because a metric may never read 0: they are the `failed`/`attempted`
/// pair of every result, and any failure makes the run incorrect.
pub const END_TO_END: &[MetricDef] = &[
    e2e("ops_per_s", "ops/s", Higher, 0.25),
    e2e("p50_ns", "ns", Lower, 0.25),
    e2e("p99_ns", "ns", Lower, 0.25),
    e2e("scan_keys_per_s", "keys/s", Higher, 0.25),
    e2e("scan_p50_ns", "ns", Lower, 0.25),
    e2e("scan_p99_ns", "ns", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Measured from outside each layer, in the traced run. `0` means the
/// layer does no such work on that workload (and the prediction for any
/// change is that it stays `0`).
pub const PER_LAYER: &[MetricDef] = &[
    // netsvc
    layer("netsvc.send_ns_per_op", "ns/op", Lower),
    layer("netsvc.flush_ns_per_op", "ns/op", Lower),
    layer("netsvc.recv_ns_per_op", "ns/op", Lower),
    layer("netsvc.codec_ns_per_op", "ns/op", Lower),
    layer("netsvc.batch_mean_ops", "ops", Higher),
    layer("netsvc.server_cpu_ns_per_op", "ns/op", Lower),
    layer("netsvc.client_cpu_ns_per_op", "ns/op", Lower),
    layer("netsvc.sys_cpu_share", "share", Lower),
    layer("netsvc.self_ns_per_op", "ns/op", Lower),
    layer("netsvc.rtt_p50_ns", "ns/op", Lower),
    layer("netsvc.p99_ns", "ns/op", Lower),
    layer("netsvc.scan_first_window_ns", "ns/op", Lower),
    layer("netsvc.scan_frames_per_scan", "count", Lower),
    layer("netsvc.session_errors", "count", Lower),
    layer("netsvc.scans_rejected", "count", Lower),
    layer("netsvc.shed_sessions", "count", Lower),
    // conc-set
    layer("conc-set.dyn_ns_per_op", "ns/op", Lower),
    layer("conc-set.sharded_ns_per_op", "ns/op", Lower),
    layer("conc-set.scan_ns_per_key", "ns/op", Lower),
    layer("conc-set.scan_retry_share", "share", Lower),
    // trees / multiset
    layer("trees.direct_ns_per_op", "ns/op", Lower),
    layer("multiset.direct_ns_per_op", "ns/op", Lower),
    layer("trees.get_ns", "ns/op", Lower),
    layer("trees.insert_ns", "ns/op", Lower),
    layer("trees.remove_ns", "ns/op", Lower),
    layer("multiset.insert_ns", "ns/op", Lower),
    layer("multiset.remove_ns", "ns/op", Lower),
    layer("trees.height", "count", Lower),
    layer("trees.scaling_2t", "ratio", Higher),
    layer("multiset.scaling_2t", "ratio", Higher),
    // llx-scx
    layer("llx-scx.scx_allocs_per_op", "count", Lower),
    layer("llx-scx.pool_hit_rate", "share", Higher),
    layer("llx-scx.pool_defers_per_op", "count", Lower),
    layer("llx-scx.pool_handoffs_per_op", "count", Lower),
    layer("llx-scx.llx_per_op", "count", Lower),
    layer("llx-scx.scx_per_op", "count", Lower),
    layer("llx-scx.scx_abort_share", "share", Lower),
    layer("llx-scx.llx_fail_share", "share", Lower),
    layer("llx-scx.helps_per_op", "count", Lower),
    layer("llx-scx.cas_per_commit", "count", Lower),
    layer("llx-scx.writes_per_commit", "count", Lower),
    layer("llx-scx.llx_scx_ns", "ns/op", Lower),
    // crossbeam-epoch (shim)
    layer("crossbeam-epoch.pin_ns", "ns/op", Lower),
    layer("crossbeam-epoch.queued_reclaims_max", "count", Lower),
    layer("crossbeam-epoch.drain_ms", "ms", Lower),
    // process and the benchmark itself
    layer("proc.rss_peak_mb", "MB", Lower),
    layer("proc.cpu_ns_per_op", "ns/op", Lower),
    layer("proc.runq_wait_share", "share", Lower),
    layer("proc.host_spin_ref", "M/s", Higher),
    layer("bench.slice_iqr_share", "share", Lower),
    layer("bench.latency_samples", "count", Higher),
    layer("bench.trace_overhead_share", "share", Lower),
];

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 18;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains(['"', '\n', '\\']));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }
}
