//! Microbenchmarks for the accumulators' per-row operations — mask load,
//! product accumulation, gather: the §5 cost centers, isolated from the
//! row driver — in two parts:
//!
//! 1. the criterion group `accumulator_row` (MSA / Hash / MCA on two row
//!    shapes), driving MSA and Hash through `accumulate_row`, the row
//!    entry the numeric kernels call;
//! 2. the **admitted-ratio sweep** (runs only when `MSPGEMM_ACCUM_PRODUCTS`
//!    or `MSPGEMM_ACCUM_JSON` is set): `accumulate_row`'s two-stage
//!    filter-then-accumulate loop against the §5.1 per-product reference
//!    (`Accumulator::insert_with` once per product — the numeric loop the
//!    kernels ran before the split) at admitted ratios 1 / 13 / 50 /
//!    100 %. The split removes the mask-test branch, which is a coin flip
//!    at mid ratios and free at the extremes, so the sweep records where
//!    it stops paying: on this L1-resident random mask MSA's split reads
//!    0.8–0.9× of the per-product loop at 1 % admitted and 0.6× at 100 %,
//!    1.4–1.5× at 13 % and 2.8–3.0× at 50 %. Hash never loses: 1.3–1.4×
//!    at 1 %, 1.8–1.9× at 13 %, 2.6–3.1× at 50 % and 1.1–1.2× at 100 %
//!    (three runs at 200000 products, over the no-wrap `(slot, found)`
//!    probe both drives share). No benchmark workload follows the losing
//!    ends end to end (`docs/ARCHITECTURE.md`, "kernel hot path"), so the
//!    row entry always filters. Both drives must gather the same row
//!    before a timing counts.
//!
//! The sweep emits CSV on stdout, an aligned table on stderr, and — for
//! the CI perf lane — a JSON report at `MSPGEMM_ACCUM_JSON`.
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `MSPGEMM_ACCUM_PRODUCTS` | products per timed output row | 1000000 |
//! | `MSPGEMM_ACCUM_JSON` | write the JSON report to this path | (none) |
//! | `MSPGEMM_REPS` | timing repetitions (best-of) | 5 |

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use masked_spgemm::accumulator::hash::HashAccum;
use masked_spgemm::accumulator::mca::Mca;
use masked_spgemm::accumulator::msa::Msa;
use masked_spgemm::accumulator::Accumulator;
use mspgemm_harness::report::{json_escape, Table};
use mspgemm_harness::{env_usize, time_best};
use mspgemm_sparse::Idx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NCOLS: usize = 1 << 16;

/// A synthetic row workload: `mask_len` allowed keys, `hits` products that
/// land on allowed keys, and `misses` products that are masked out.
struct RowWork {
    mask: Vec<Idx>,
    products: Vec<Idx>,
}

fn make_work(mask_len: usize, hits: usize, misses: usize) -> RowWork {
    // Evenly spread the mask; hits cycle through it; misses fall between.
    let stride = (NCOLS / (mask_len + 1)).max(2) as Idx;
    let mask: Vec<Idx> = (0..mask_len as Idx).map(|i| i * stride).collect();
    let mut products = Vec::with_capacity(hits + misses);
    for i in 0..hits {
        products.push(mask[i % mask_len]);
    }
    for i in 0..misses {
        products.push((i as Idx % (mask_len as Idx)) * stride + 1);
    }
    products.sort_unstable_by_key(|&j| j.wrapping_mul(2654435761)); // pseudo-shuffle
    RowWork { mask, products }
}

fn bench_accumulators(c: &mut Criterion) {
    let mut group = c.benchmark_group("accumulator_row");
    for &(mask_len, hits, misses) in &[(64usize, 256usize, 256usize), (1024, 4096, 4096)] {
        let work = make_work(mask_len, hits, misses);
        let label = format!("m{mask_len}_h{hits}_x{misses}");
        let ones = vec![1.0f64; work.products.len()];

        group.bench_with_input(BenchmarkId::new("msa", &label), &work, |b, w| {
            let mut acc: Msa<f64> = Msa::new(NCOLS);
            let mut out_c = vec![0 as Idx; w.mask.len()];
            let mut out_v = vec![0.0f64; w.mask.len()];
            b.iter(|| {
                acc.begin_row();
                acc.load_mask(&w.mask);
                acc.accumulate_row(&w.products, &ones, |v| v, |a, b| a + b);
                black_box(acc.gather_into(&w.mask, &mut out_c, &mut out_v))
            });
        });

        group.bench_with_input(BenchmarkId::new("hash", &label), &work, |b, w| {
            let mut acc: HashAccum<f64> = HashAccum::new();
            let mut out_c = vec![0 as Idx; w.mask.len()];
            let mut out_v = vec![0.0f64; w.mask.len()];
            b.iter(|| {
                acc.begin_row(w.mask.len());
                for &j in &w.mask {
                    acc.mark_allowed(j);
                }
                acc.accumulate_row(&w.products, &ones, |v| v, |a, b| a + b);
                black_box(acc.gather_into(&w.mask, &mut out_c, &mut out_v))
            });
        });

        group.bench_with_input(BenchmarkId::new("mca", &label), &work, |b, w| {
            // MCA is rank-indexed: precompute each product's mask rank
            // (the row kernel gets this from its merge; here we isolate
            // the accumulator cost).
            let ranks: Vec<Option<usize>> = w
                .products
                .iter()
                .map(|j| w.mask.binary_search(j).ok())
                .collect();
            let mut acc: Mca<f64> = Mca::new();
            let mut out_c = vec![0 as Idx; w.mask.len()];
            let mut out_v = vec![0.0f64; w.mask.len()];
            b.iter(|| {
                acc.begin_row(w.mask.len());
                for r in ranks.iter().flatten() {
                    acc.accumulate(*r, 1.0, |a, b| a + b);
                }
                black_box(acc.gather_into(&w.mask, &mut out_c, &mut out_v))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_accumulators);

/// Matrix width of the sweep: the benchmark's R-MAT 13, whose state bytes
/// fit L1 — the regime where the mask-test branch, not a cache miss, is
/// what a product costs.
const SWEEP_NCOLS: usize = 1 << 13;
/// B-row length of the sweep (R-MAT 13 at 16 draws per vertex averages
/// ~25 entries a row, hubs far more; products concentrate in long rows).
const SWEEP_B_ROW: usize = 64;
const ADMITTED_PERCENT: [usize; 4] = [1, 13, 50, 100];

/// One output row's inputs: a mask admitting `percent` % of the columns
/// (chosen at random, so the mask test is as unpredictable as the ratio
/// allows) and enough sorted random B rows to form `products` products.
struct SweepWork {
    mask: Vec<Idx>,
    b_rows: Vec<(Vec<Idx>, Vec<f64>)>,
}

fn sweep_work(percent: usize, products: usize, rng: &mut StdRng) -> SweepWork {
    let mask: Vec<Idx> = (0..SWEEP_NCOLS as Idx)
        .filter(|_| rng.gen_range(0..100) < percent)
        .collect();
    let b_rows = (0..products.div_ceil(SWEEP_B_ROW))
        .map(|_| {
            let mut cols: Vec<Idx> = (0..SWEEP_B_ROW)
                .map(|_| rng.gen_range(0..SWEEP_NCOLS as Idx))
                .collect();
            cols.sort_unstable();
            cols.dedup();
            let vals = cols.iter().map(|&j| f64::from(j % 7) + 0.5).collect();
            (cols, vals)
        })
        .collect();
    SweepWork { mask, b_rows }
}

/// How a timed output row drives its products into the accumulator.
#[derive(Clone, Copy)]
enum Drive {
    /// `Accumulator::insert_with` once per product (the §5.1 reference).
    PerProduct,
    /// `accumulate_row`, the two-stage row entry the kernels call.
    RowEntry,
}

impl Drive {
    fn name(self) -> &'static str {
        match self {
            Drive::PerProduct => "per-product",
            Drive::RowEntry => "filter-then-accumulate",
        }
    }
}

// Fn items (zero-sized, statically dispatched) — not fn pointers — so
// every drive monomorphizes over them exactly as the kernels do over
// `S::mul` / `S::add`.
fn mul(av: f64, bv: f64) -> f64 {
    av * bv
}

fn add(x: f64, y: f64) -> f64 {
    x + y
}

/// Scale of B row `k` (stands in for `a_ik`).
fn a_val(k: usize) -> f64 {
    1.0 + (k % 3) as f64
}

/// One full MSA output row (mask load, products, gather); returns the
/// gathered row so the drives can be compared.
fn msa_row(acc: &mut Msa<f64>, w: &SweepWork, drive: Drive) -> (Vec<Idx>, Vec<f64>) {
    let (mut oc, mut ov) = (vec![0; w.mask.len()], vec![0.0; w.mask.len()]);
    acc.begin_row();
    acc.load_mask(&w.mask);
    for (k, (cols, vals)) in w.b_rows.iter().enumerate() {
        let av = a_val(k);
        match drive {
            Drive::PerProduct => {
                for (&j, &bv) in cols.iter().zip(vals) {
                    acc.insert_with(j, || mul(av, bv), add);
                }
            }
            Drive::RowEntry => acc.accumulate_row(cols, vals, |bv| mul(av, bv), add),
        }
    }
    let n = acc.gather_into(&w.mask, &mut oc, &mut ov);
    (oc[..n].to_vec(), ov[..n].to_vec())
}

/// One full normal-mode Hash output row.
fn hash_row(acc: &mut HashAccum<f64>, w: &SweepWork, drive: Drive) -> (Vec<Idx>, Vec<f64>) {
    let (mut oc, mut ov) = (vec![0; w.mask.len()], vec![0.0; w.mask.len()]);
    acc.begin_row(w.mask.len());
    for &j in &w.mask {
        acc.mark_allowed(j);
    }
    for (k, (cols, vals)) in w.b_rows.iter().enumerate() {
        let av = a_val(k);
        match drive {
            Drive::PerProduct => {
                for (&j, &bv) in cols.iter().zip(vals) {
                    acc.insert_with(j, || mul(av, bv), add);
                }
            }
            Drive::RowEntry => acc.accumulate_row(cols, vals, |bv| mul(av, bv), add),
        }
    }
    let n = acc.gather_into(&w.mask, &mut oc, &mut ov);
    (oc[..n].to_vec(), ov[..n].to_vec())
}

struct SweepRow {
    accumulator: &'static str,
    admitted_percent: usize,
    products: usize,
    drive: &'static str,
    ns_per_product: f64,
    speedup_vs_per_product: f64,
}

/// Time both drives (the per-product reference first) on one workload,
/// asserting the row entry gathers the reference's row.
fn sweep_one(
    accumulator: &'static str,
    percent: usize,
    w: &SweepWork,
    reps: usize,
    mut row: impl FnMut(Drive) -> (Vec<Idx>, Vec<f64>),
    out: &mut Vec<SweepRow>,
) {
    let products: usize = w.b_rows.iter().map(|(c, _)| c.len()).sum();
    let mut reference = None;
    for drive in [Drive::PerProduct, Drive::RowEntry] {
        let (secs, got) = time_best(reps, || row(drive));
        let ns = secs * 1e9 / products as f64;
        let (want, base_ns) = reference.get_or_insert((got.clone(), ns));
        assert_eq!(
            &got,
            want,
            "{accumulator} @ {percent}%: {} diverged from the per-product reference",
            drive.name()
        );
        out.push(SweepRow {
            accumulator,
            admitted_percent: percent,
            products,
            drive: drive.name(),
            ns_per_product: ns,
            speedup_vs_per_product: *base_ns / ns.max(1e-12),
        });
    }
}

fn admitted_ratio_sweep() {
    let reps = env_usize("MSPGEMM_REPS", 5).max(1);
    let products = env_usize("MSPGEMM_ACCUM_PRODUCTS", 1_000_000).max(SWEEP_B_ROW);
    eprintln!(
        "\n=== admitted-ratio sweep: per-product insert vs filter-then-accumulate \
         ({products} products/row, ncols {SWEEP_NCOLS}, best of {reps}) ==="
    );
    let mut rng = StdRng::seed_from_u64(13);
    let mut rows = Vec::new();
    for percent in ADMITTED_PERCENT {
        let w = sweep_work(percent, products, &mut rng);
        let mut msa: Msa<f64> = Msa::new(SWEEP_NCOLS);
        sweep_one(
            "msa",
            percent,
            &w,
            reps,
            |drive| msa_row(&mut msa, &w, drive),
            &mut rows,
        );
        let mut hash: HashAccum<f64> = HashAccum::new();
        sweep_one(
            "hash",
            percent,
            &w,
            reps,
            |drive| hash_row(&mut hash, &w, drive),
            &mut rows,
        );
    }

    let mut table = Table::new(&[
        "accumulator",
        "admitted_percent",
        "products",
        "drive",
        "ns_per_product",
        "speedup_vs_per_product",
    ]);
    for r in &rows {
        table.row(&[
            r.accumulator.to_string(),
            r.admitted_percent.to_string(),
            r.products.to_string(),
            r.drive.to_string(),
            format!("{:.3}", r.ns_per_product),
            format!("{:.2}", r.speedup_vs_per_product),
        ]);
    }
    print!("{}", table.to_csv());
    eprint!("{}", table.to_text());

    if let Ok(json_path) = std::env::var("MSPGEMM_ACCUM_JSON") {
        std::fs::write(&json_path, report_json(&rows))
            .unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        eprintln!("json report: {json_path}");
    }
}

/// The perf-trajectory artifact the CI benchmark-smoke lane uploads: one
/// record per (accumulator, admitted ratio, drive), every drive asserted
/// to gather the per-product reference's row before emission.
fn report_json(rows: &[SweepRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"micro_accumulators.admitted_ratio\",\n");
    out.push_str(&format!(
        "  \"ncols\": {SWEEP_NCOLS},\n  \"b_row_len\": {SWEEP_B_ROW},\n  \"results\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"accumulator\": \"{}\", \"admitted_percent\": {}, \"products\": {}, \
             \"drive\": \"{}\", \"ns_per_product\": {:.4}, \
             \"speedup_vs_per_product\": {:.3}}}{}\n",
            json_escape(r.accumulator),
            r.admitted_percent,
            r.products,
            json_escape(r.drive),
            r.ns_per_product,
            r.speedup_vs_per_product,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    benches();
    // The sweep is a million products per drive: opt in, as CI's
    // bench-smoke lane does, so a filtered run of the group above does
    // not pay for it.
    if ["MSPGEMM_ACCUM_PRODUCTS", "MSPGEMM_ACCUM_JSON"]
        .iter()
        .any(|v| std::env::var_os(v).is_some())
    {
        admitted_ratio_sweep();
    }
}
