//! Row-distribution ablation: the guided row chunks on an adversarially
//! skewed R-MAT, across a scale sweep, a thread sweep, and with and
//! without a cross-call workspace pool. Power-law inputs concentrate the
//! flops in a few hub rows, and after a degree-descending relabeling those
//! hubs sit in the *first* contiguous block — the worst case for
//! equal-row chunking, the case dynamic claiming is for.
//!
//! Every timed product is cross-checked for CSR equality against the
//! one-thread single-chunk output (the partition must never change
//! results). Per-run output includes the per-thread busy-time spread
//! (max/mean) and the wall-clock speedup over the unpooled one-thread
//! product.
//! Emits CSV on stdout, an aligned table on stderr, and — for the CI perf
//! lane — a JSON report at `MSPGEMM_SCHED_JSON`.
//!
//! Environment knobs (defaults keep the run CI-sized):
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `MSPGEMM_SCHED_SCALES` | comma list of R-MAT scales | 11,12,13 |
//! | `MSPGEMM_SCHED_THREADS` | comma list of thread counts | 1,2,4,8 |
//! | `MSPGEMM_SCHED_JSON` | write the JSON report to this path | (none) |
//! | `MSPGEMM_REPS` | timing repetitions (best-of) | 3 |

use masked_spgemm::{
    masked_mxm_with_opts, Algorithm, ExecOpts, ExecStats, MaskMode, Phases, WsPool,
};
use mspgemm_bench::banner;
use mspgemm_gen::RmatParams;
use mspgemm_harness::report::Table;
use mspgemm_harness::{busy_spread, env_usize, env_usize_list, time_best, with_threads};
use mspgemm_sparse::ops::permute::{degree_descending_permutation, permute_symmetric};
use mspgemm_sparse::semiring::PlusPairU64;
use mspgemm_sparse::Csr;

struct Row {
    scale: u32,
    nrows: usize,
    nnz: usize,
    threads: usize,
    pooled: bool,
    seconds: f64,
    speedup_vs_1t: f64,
    busy_ratio: f64,
    busy_threads: usize,
}

/// A skewed test input: R-MAT with boosted top-left quadrant probability,
/// relabeled in degree-descending order so the hub rows occupy one
/// contiguous prefix — equal-row chunking's adversary.
fn skewed_rmat(scale: u32) -> Csr<()> {
    let params = RmatParams {
        a: 0.65,
        b: 0.15,
        c: 0.15,
        edge_factor: 16,
    };
    let g = mspgemm_gen::rmat_symmetric(scale, params, 7);
    let perm = degree_descending_permutation(&g);
    permute_symmetric(&g, &perm).pattern()
}

fn main() {
    banner(
        "abl_schedule",
        "guided row chunks x threads x workspace pool on skewed R-MAT",
    );
    let reps = env_usize("MSPGEMM_REPS", 3).max(1);
    let scales = env_usize_list("MSPGEMM_SCHED_SCALES", "11,12,13");
    let threads_list = env_usize_list("MSPGEMM_SCHED_THREADS", "1,2,4,8");

    let mut rows: Vec<Row> = Vec::new();
    for &scale in &scales {
        let a = skewed_rmat(scale as u32);
        let mask = a.clone();
        // plus_pair over the pattern: the triangle-counting product shape,
        // so row cost tracks structure rather than value arithmetic.
        let run = |opts: &ExecOpts<'_>| {
            masked_mxm_with_opts::<PlusPairU64, ()>(
                &mask,
                &a,
                &a,
                Algorithm::Hash,
                MaskMode::Mask,
                Phases::One,
                opts,
            )
            .expect("masked product failed")
        };
        let (one_thread_secs, reference) =
            with_threads(1, || time_best(reps, || run(&ExecOpts::default())));
        for &t in &threads_list {
            for pooled in [false, true] {
                let pool = WsPool::new();
                let stats = ExecStats::new();
                let opts = ExecOpts {
                    ws_pool: pooled.then_some(&pool),
                    stats: Some(&stats),
                    deadline: None,
                };
                let (secs, c) = with_threads(t, || time_best(reps, || run(&opts)));
                assert_eq!(
                    c, reference,
                    "rmat{scale}@{t}t pooled={pooled}: CSR diverged from the single chunk"
                );
                let sp = busy_spread(&stats.busy_seconds());
                rows.push(Row {
                    scale: scale as u32,
                    nrows: a.nrows(),
                    nnz: a.nnz(),
                    threads: t,
                    pooled,
                    seconds: secs,
                    speedup_vs_1t: one_thread_secs / secs.max(1e-12),
                    busy_ratio: sp.as_ref().map_or(1.0, |s| s.ratio()),
                    busy_threads: sp.as_ref().map_or(0, |s| s.threads),
                });
            }
        }
    }

    let headers = [
        "scale",
        "nrows",
        "nnz",
        "threads",
        "pooled",
        "seconds",
        "speedup_vs_1t",
        "busy_max_over_mean",
        "busy_threads",
    ];
    let mut table = Table::new(&headers);
    for r in &rows {
        table.row(&[
            r.scale.to_string(),
            r.nrows.to_string(),
            r.nnz.to_string(),
            r.threads.to_string(),
            r.pooled.to_string(),
            format!("{:.6}", r.seconds),
            format!("{:.2}", r.speedup_vs_1t),
            format!("{:.2}", r.busy_ratio),
            r.busy_threads.to_string(),
        ]);
    }
    print!("{}", table.to_csv());
    eprint!("{}", table.to_text());

    let obs = obs_overhead(scales[0] as u32, reps);
    eprintln!(
        "obs overhead: disabled span {:.1} ns, {} spans/product -> {:.5}% of the \
         product ({:.6} s); traced/untraced wall ratio {:.3}",
        obs.disabled_span_ns,
        obs.spans_per_product,
        obs.disabled_overhead_frac * 100.0,
        obs.product_seconds,
        obs.enabled_over_disabled,
    );
    assert!(
        obs.disabled_overhead_frac < 0.02,
        "disabled-path observability overhead {:.5} must stay under 2%",
        obs.disabled_overhead_frac
    );

    let fault = fault_overhead(scales[0] as u32, obs.product_seconds);
    eprintln!(
        "fault overhead: disarmed fire {:.1} ns, {} fires/product -> {:.5}% of the \
         product",
        fault.disabled_fire_ns,
        fault.fires_per_product,
        fault.disabled_overhead_frac * 100.0,
    );
    assert!(
        fault.disabled_overhead_frac < 0.02,
        "disarmed-failpoint overhead {:.5} must stay under 2%",
        fault.disabled_overhead_frac
    );

    if let Ok(json_path) = std::env::var("MSPGEMM_SCHED_JSON") {
        std::fs::write(&json_path, report_json(&rows, &obs, &fault))
            .unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        eprintln!("json report: {json_path}");
    }
}

struct ObsOverhead {
    /// Cost of one `mspgemm_obs::span` call with tracing off.
    disabled_span_ns: f64,
    /// Span count one traced product emits (measured, not assumed).
    spans_per_product: usize,
    /// Untraced product wall time the overhead is charged against.
    product_seconds: f64,
    /// spans_per_product × disabled_span_ns as a fraction of the product —
    /// the whole cost this PR's instrumentation adds when tracing is off.
    disabled_overhead_frac: f64,
    /// Interleaved best-of wall ratio traced / untraced (≈1 expected at
    /// these sizes; the trace buffer is a mutex push per span).
    enabled_over_disabled: f64,
}

/// Quantify what the phase spans cost this bench when nobody is tracing:
/// time the disabled `span()` call directly, count the spans one traced
/// product actually emits, and charge their product against the untraced
/// wall time. Also cross-checks that tracing does not
/// change the computed CSR.
fn obs_overhead(scale: u32, reps: usize) -> ObsOverhead {
    use std::time::Instant;
    let tracer = mspgemm_obs::trace::global();
    tracer.set_enabled(false);

    // The disabled fast path, amortized over a large call count.
    let probes = 2_000_000u32;
    let t0 = Instant::now();
    for _ in 0..probes {
        let _s = mspgemm_obs::span("obs-probe");
    }
    let disabled_span_ns = t0.elapsed().as_secs_f64() * 1e9 / probes as f64;

    let a = skewed_rmat(scale);
    let mask = a.clone();
    let run = |opts: &ExecOpts<'_>| {
        masked_mxm_with_opts::<PlusPairU64, ()>(
            &mask,
            &a,
            &a,
            Algorithm::Hash,
            MaskMode::Mask,
            Phases::One,
            opts,
        )
        .expect("masked product failed")
    };
    let opts = ExecOpts::default();

    // Interleave untraced/traced reps so drift hits both sides equally;
    // keep the best of each side (same convention as `time_best`).
    let mut secs_off = f64::INFINITY;
    let mut secs_on = f64::INFINITY;
    let mut c_off = None;
    let mut c_on = None;
    let mut spans_per_product = 0usize;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        c_off = Some(run(&opts));
        secs_off = secs_off.min(t0.elapsed().as_secs_f64());

        tracer.drain();
        tracer.set_enabled(true);
        let t0 = Instant::now();
        c_on = Some(run(&opts));
        let on = t0.elapsed().as_secs_f64();
        tracer.set_enabled(false);
        secs_on = secs_on.min(on);
        spans_per_product = tracer.drain().len();
    }
    assert_eq!(c_on, c_off, "tracing must not change the product");

    ObsOverhead {
        disabled_span_ns,
        spans_per_product,
        product_seconds: secs_off,
        disabled_overhead_frac: (spans_per_product as f64 * disabled_span_ns)
            / (secs_off * 1e9).max(1.0),
        enabled_over_disabled: secs_on / secs_off.max(1e-12),
    }
}

struct FaultOverhead {
    /// Cost of one `mspgemm_fault::fire` call with nothing armed.
    disabled_fire_ns: f64,
    /// Failpoint sites one product actually crosses (measured via
    /// `hits`, not assumed).
    fires_per_product: usize,
    /// fires_per_product × disabled_fire_ns as a fraction of the
    /// untraced product — the whole disarmed cost of the
    /// fault-injection hooks.
    disabled_overhead_frac: f64,
}

/// Quantify what the kernel failpoints cost when nothing is armed: time
/// the disarmed `fire()` call directly (one relaxed atomic load), count
/// the sites one product crosses by arming benign zero-delay tasks, and
/// charge their product against the same untraced wall time the
/// obs bound uses. Also cross-checks that armed-but-benign failpoints
/// do not change the computed CSR.
fn fault_overhead(scale: u32, product_seconds: f64) -> FaultOverhead {
    use std::time::Instant;
    mspgemm_fault::clear();

    // The disarmed fast path, amortized over a large call count.
    let probes = 2_000_000u32;
    let t0 = Instant::now();
    for _ in 0..probes {
        std::hint::black_box(mspgemm_fault::fire(std::hint::black_box("fault-probe")));
    }
    let disabled_fire_ns = t0.elapsed().as_secs_f64() * 1e9 / probes as f64;

    let a = skewed_rmat(scale);
    let mask = a.clone();
    let run = || {
        masked_mxm_with_opts::<PlusPairU64, ()>(
            &mask,
            &a,
            &a,
            Algorithm::Hash,
            MaskMode::Mask,
            Phases::One,
            &ExecOpts::default(),
        )
        .expect("masked product failed")
    };
    let reference = run();
    // Zero-delay tasks fire at every site (so `hits` counts them) but
    // perturb nothing.
    mspgemm_fault::configure("kernel.numeric=delay(0);kernel.symbolic=delay(0)").unwrap();
    let armed = run();
    let fires_per_product =
        (mspgemm_fault::hits("kernel.numeric") + mspgemm_fault::hits("kernel.symbolic")) as usize;
    mspgemm_fault::clear();
    assert_eq!(
        armed, reference,
        "armed failpoints must not change the product"
    );
    assert!(fires_per_product > 0, "the product must cross a failpoint");

    FaultOverhead {
        disabled_fire_ns,
        fires_per_product,
        disabled_overhead_frac: (fires_per_product as f64 * disabled_fire_ns)
            / (product_seconds * 1e9).max(1.0),
    }
}

/// The perf-trajectory artifact the CI benchmark-smoke lane uploads:
/// one record per (scale, threads, pooled), plus the observability
/// and fault-injection overhead blocks backing the <2% disabled-path
/// acceptance bounds.
fn report_json(rows: &[Row], obs: &ObsOverhead, fault: &FaultOverhead) -> String {
    let mut out = String::from("{\n  \"bench\": \"abl_schedule\",\n");
    out.push_str(&format!(
        "  \"obs_overhead\": {{\"disabled_span_ns\": {:.2}, \"spans_per_product\": {}, \
         \"product_seconds\": {:.9}, \"disabled_overhead_frac\": {:.8}, \
         \"enabled_over_disabled\": {:.4}, \"bound_frac\": 0.02}},\n",
        obs.disabled_span_ns,
        obs.spans_per_product,
        obs.product_seconds,
        obs.disabled_overhead_frac,
        obs.enabled_over_disabled,
    ));
    out.push_str(&format!(
        "  \"fault_overhead\": {{\"disabled_fire_ns\": {:.2}, \"fires_per_product\": {}, \
         \"disabled_overhead_frac\": {:.8}, \"bound_frac\": 0.02}},\n",
        fault.disabled_fire_ns, fault.fires_per_product, fault.disabled_overhead_frac,
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"rmat{}\", \"nrows\": {}, \"nnz\": {}, \
             \"threads\": {}, \"pooled\": {}, \"seconds\": {:.9}, \
             \"speedup_vs_1t\": {:.3}, \"busy_max_over_mean\": {:.3}, \
             \"busy_threads\": {}}}{}\n",
            r.scale,
            r.nrows,
            r.nnz,
            r.threads,
            r.pooled,
            r.seconds,
            r.speedup_vs_1t,
            r.busy_ratio,
            r.busy_threads,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
