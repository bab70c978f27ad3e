//! **Figure 14**: k-truss GFLOPS vs R-MAT scale (k = 5). GFLOPS = the
//! flops of the masked SpGEMMs a run executes divided by the time spent
//! inside them (§8.3): work done over time. The first product counts every
//! support and is charged the full push flops; each later one recounts
//! only the edges a prune touched and is charged the rows its mask holds
//! (`KtrussResult::flops`, of which `restricted_flops` came from
//! recounts). Every scheme runs the same products under the same masks, so
//! the numerator is one number per scale and the columns compare time.
//!
//! Three assertions close the run: per scale every scheme reports the same
//! `(truss nnz, products, flops)`; at the largest scale the best of our
//! schemes spends no longer inside its products than `SS:SAXPY` (the
//! paper's fig13 / fig14 claim, asserted at 1.0×); and there `Auto-1P` —
//! whose first product, `A ⊙ (A·A)` of the symmetric adjacency, runs once
//! per edge and mirrored — spends no longer than `MSA-1P`, which forms
//! every product of it.

use masked_spgemm::{Algorithm, ExecOpts, Phases};
use mspgemm_bench::{banner, ktruss_vs_ssgb_schemes, max_scale, reps};
use mspgemm_gen::{rmat_symmetric, RmatParams};
use mspgemm_graph::{ktruss, Scheme};
use mspgemm_harness::gflops;
use mspgemm_harness::report::{fmt_metric, Table};

fn main() {
    banner("Fig 14", "k-truss (k=5) GFLOPS vs R-MAT scale");
    let msa = Scheme::Ours(Algorithm::Msa, Phases::One);
    let auto = Scheme::Ours(Algorithm::Auto, Phases::One);
    let mut schemes = ktruss_vs_ssgb_schemes();
    schemes.push(auto);
    let reps = reps();
    let mut headers = vec!["scale".to_string()];
    headers.extend(schemes.iter().map(|s| s.name()));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&headers_ref);

    for scale in 8..=max_scale() {
        let g = rmat_symmetric(scale, RmatParams::default(), 7 + scale as u64);
        // One warm-up run, then the run with the least product time.
        let runs: Vec<_> = schemes
            .iter()
            .map(|&s| {
                (0..=reps)
                    .map(|_| ktruss::k_truss_with(&g, 5, s, &ExecOpts::default()))
                    .skip(1)
                    .min_by(|x, y| x.mxm_seconds.total_cmp(&y.mxm_seconds))
                    .expect("reps >= 1")
            })
            .collect();
        let first = &runs[0];
        let mut row = vec![scale.to_string()];
        for (s, r) in schemes.iter().zip(&runs) {
            assert_eq!(
                (r.truss.nnz(), r.iterations, r.flops),
                (first.truss.nnz(), first.iterations, first.flops),
                "scale {scale}: {} and {} disagree on (truss nnz, products, flops)",
                s.name(),
                schemes[0].name()
            );
            row.push(fmt_metric(gflops(r.flops, r.mxm_seconds)));
        }
        table.row(&row);
        eprintln!(
            "scale {scale}: {} products, {:.1}% of the flops in restricted recounts",
            first.iterations,
            100.0 * first.restricted_flops as f64 / first.flops.max(1) as f64
        );

        if scale == max_scale() {
            let (mut ours, mut saxpy) = (f64::INFINITY, f64::INFINITY);
            for (s, r) in schemes.iter().zip(&runs) {
                match s {
                    Scheme::Ours(..) => ours = ours.min(r.mxm_seconds),
                    Scheme::SsSaxpy => saxpy = r.mxm_seconds,
                    Scheme::SsDot => {}
                }
            }
            eprintln!(
                "scale {scale}: best of ours {:.3} ms, SS:SAXPY {:.3} ms ({:.2}x)",
                ours * 1e3,
                saxpy * 1e3,
                saxpy / ours
            );
            assert!(
                ours <= saxpy,
                "scale {scale}: SS:SAXPY ({saxpy:.6} s) beat every one of our schemes ({ours:.6} s)"
            );
            let seconds = |scheme| {
                let at = schemes.iter().position(|&s| s == scheme);
                runs[at.expect("in the scheme list")].mxm_seconds
            };
            eprintln!(
                "scale {scale}: Auto-1P {:.3} ms, MSA-1P {:.3} ms ({:.2}x)",
                seconds(auto) * 1e3,
                seconds(msa) * 1e3,
                seconds(msa) / seconds(auto)
            );
            assert!(
                seconds(auto) <= seconds(msa),
                "scale {scale}: Auto-1P's products took longer than MSA-1P's"
            );
        }
    }
    println!("{}", table.to_csv());
    eprintln!("{}", table.to_text());
}
