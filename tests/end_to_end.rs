//! Cross-crate integration tests: workload generators → schedulers → CMP
//! simulator, checking the paper's headline qualitative results on
//! scaled-down inputs.

use ccs::prelude::*;

/// Scaled-down "default-P" configuration matching a scaled-down workload.
fn scaled_default(cores: usize, scale: u64) -> CmpConfig {
    CmpConfig::default_with_cores(cores).unwrap().scaled(scale)
}

/// A paper benchmark built through the workload registry for one design
/// point.
fn build(name: &str, scale: u64, l2_bytes: u64, cores: usize) -> Computation {
    WorkloadRegistry::global()
        .build(name, &BuildCtx::new(scale, l2_bytes, cores))
        .expect("paper benchmark registered")
}

#[test]
fn mergesort_pdf_beats_ws_on_misses_and_time() {
    // Scale 1/64 with 16 cores is the smallest setting at which the paper's
    // constructive-sharing effect is comfortably visible (the shared L2 must
    // be large relative to a handful of task working sets); the experiment
    // binaries default to scale 1/32.
    let scale = 64;
    let cores = 16;
    let cfg = scaled_default(cores, scale);
    let comp = build("mergesort", scale, cfg.l2.capacity, cores);
    let pdf = simulate(&comp, &cfg, "pdf");
    let ws = simulate(&comp, &cfg, "ws");
    assert_eq!(pdf.instructions, ws.instructions);
    assert!(
        (pdf.l2.misses as f64) < ws.l2.misses as f64 * 0.95,
        "PDF must miss at least 5% less: pdf {} vs ws {}",
        pdf.l2.misses,
        ws.l2.misses
    );
    assert!(
        pdf.cycles < ws.cycles,
        "PDF must be faster: pdf {} vs ws {}",
        pdf.cycles,
        ws.cycles
    );
}

#[test]
fn hashjoin_pdf_reduces_l2_misses() {
    let scale = 256;
    let cfg = scaled_default(8, scale);
    let comp = build("hashjoin", scale, cfg.l2.capacity, 8);
    let pdf = simulate(&comp, &cfg, "pdf");
    let ws = simulate(&comp, &cfg, "ws");
    assert!(
        pdf.l2_mpki() <= ws.l2_mpki() * 1.02,
        "PDF mpki {} vs WS mpki {}",
        pdf.l2_mpki(),
        ws.l2_mpki()
    );
    assert!(pdf.cycles <= ws.cycles * 102 / 100);
}

#[test]
fn lu_has_small_miss_ratio_and_similar_performance() {
    let scale = 256;
    let cfg = scaled_default(4, scale);
    let lu = build("lu", scale, cfg.l2.capacity, 4);
    let pdf = simulate(&lu, &cfg, "pdf");
    let ws = simulate(&lu, &cfg, "ws");
    // LU is the compute-dense, small-working-set representative: its L2
    // misses per 1000 instructions sit well below Hash Join's, its bandwidth
    // demand is modest, and PDF ≈ WS in execution time (Section 5.1).
    let hj = build("hashjoin", scale, cfg.l2.capacity, 4);
    let hj_pdf = simulate(&hj, &cfg, "pdf");
    assert!(
        pdf.l2_mpki() < hj_pdf.l2_mpki() / 2.0,
        "LU mpki {} should be well below Hash Join's {}",
        pdf.l2_mpki(),
        hj_pdf.l2_mpki()
    );
    assert!(
        pdf.bandwidth_utilization < hj_pdf.bandwidth_utilization,
        "LU must be less bandwidth-hungry than Hash Join"
    );
    let ratio = pdf.cycles as f64 / ws.cycles as f64;
    assert!(
        ratio < 1.05,
        "LU: PDF and WS should perform alike, ratio {ratio}"
    );
}

#[test]
fn parallel_speedup_is_meaningful() {
    let scale = 256;
    let cfg = scaled_default(8, scale);
    let comp = build("mergesort", scale, cfg.l2.capacity, 8);
    let mut seq_cfg = cfg.clone();
    seq_cfg.num_cores = 1;
    let seq = simulate(&comp, &seq_cfg, "pdf");
    let par = simulate(&comp, &cfg, "pdf");
    let speedup = par.speedup_over(&seq);
    assert!(speedup > 2.0, "8-core speedup too low: {speedup}");
    assert!(speedup <= 8.5, "super-linear speedup is a bug: {speedup}");
}

#[test]
fn schedulers_agree_on_single_core() {
    let scale = 512;
    let cfg = scaled_default(1, scale);
    let comp = build("mergesort", scale, cfg.l2.capacity, 1);
    let pdf = simulate(&comp, &cfg, "pdf");
    let ws = simulate(&comp, &cfg, "ws");
    assert_eq!(
        pdf.cycles, ws.cycles,
        "one core leaves no scheduling freedom"
    );
    assert_eq!(pdf.l2.misses, ws.l2.misses);
}

#[test]
fn finer_granularity_helps_pdf_more_than_ws() {
    // Figure 6's qualitative shape: as tasks shrink, PDF's misses improve
    // while WS's stay roughly flat, so the PDF:WS miss ratio improves.
    let scale = 128;
    let cfg = scaled_default(16, scale);
    let n_items = (32u64 << 20) / scale;
    let coarse_ws = cfg.l2.capacity; // task working set ≈ whole L2
    let fine_ws = cfg.l2.capacity / 32;

    let ratio = |task_ws: u64| {
        let comp = ccs::workloads::mergesort::build(
            &MergesortParams::new(n_items).with_task_working_set(task_ws),
        );
        let pdf = simulate(&comp, &cfg, "pdf");
        let ws = simulate(&comp, &cfg, "ws");
        pdf.l2.misses as f64 / ws.l2.misses.max(1) as f64
    };

    let coarse_ratio = ratio(coarse_ws);
    let fine_ratio = ratio(fine_ws);
    assert!(
        fine_ratio <= coarse_ratio + 0.02,
        "finer tasks should improve PDF relative to WS: coarse {coarse_ratio}, fine {fine_ratio}"
    );
    assert!(
        fine_ratio < 1.0,
        "with fine tasks PDF must beat WS: {fine_ratio}"
    );
}

#[test]
fn bandwidth_utilization_grows_with_cores_for_hashjoin() {
    let scale = 256;
    let comp4 = build("hashjoin", scale, scaled_default(4, scale).l2.capacity, 4);
    let r4 = simulate(&comp4, &scaled_default(4, scale), "pdf");
    let comp16 = build("hashjoin", scale, scaled_default(16, scale).l2.capacity, 16);
    let r16 = simulate(&comp16, &scaled_default(16, scale), "pdf");
    assert!(
        r16.bandwidth_utilization > r4.bandwidth_utilization,
        "more cores must push bandwidth utilisation up: {} vs {}",
        r16.bandwidth_utilization,
        r4.bandwidth_utilization
    );
}

#[test]
fn sensitivity_overrides_affect_results() {
    let scale = 512;
    let cfg = scaled_default(8, scale);
    let comp = build("mergesort", scale, cfg.l2.capacity, 8);
    let base = simulate(&comp, &cfg, "pdf");
    let slow_mem = simulate(&comp, &cfg.clone().with_memory_latency(1100), "pdf");
    assert!(slow_mem.cycles > base.cycles);
    let fast_l2 = simulate(&comp, &cfg.clone().with_l2_hit_latency(7), "pdf");
    assert!(fast_l2.cycles <= base.cycles);
}

#[test]
fn pdf_on_slow_l2_vs_ws_on_fast_l2() {
    // The Figure 4 headline: PDF with a 19-cycle monolithic L2 holds its own
    // against WS with a 7-cycle L2 for cache-sensitive workloads.
    let scale = 256;
    let cfg = scaled_default(8, scale);
    let comp = build("mergesort", scale, cfg.l2.capacity, 8);
    let pdf_slow = simulate(&comp, &cfg.clone().with_l2_hit_latency(19), "pdf");
    let ws_fast = simulate(&comp, &cfg.clone().with_l2_hit_latency(7), "ws");
    assert!(
        (pdf_slow.cycles as f64) < ws_fast.cycles as f64 * 1.10,
        "PDF@19c {} should be within 10% of (or beat) WS@7c {}",
        pdf_slow.cycles,
        ws_fast.cycles
    );
}
