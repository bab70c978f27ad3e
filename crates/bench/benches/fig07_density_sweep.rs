//! **Figure 7**: the best-performing scheme as a function of mask degree
//! (x) and input degree (y) on Erdős-Rényi matrices.
//!
//! Emits one CSV row per (dim, input degree, mask degree) cell with each
//! algorithm's time and the winner — the data behind the paper's heat-map.
//! Dimensions default to 2^12 (paper: 2^12–2^22; set `MSPGEMM_FIG7_DIMS`,
//! e.g. `12,14,16`).

use masked_spgemm::{masked_mxm, Algorithm, AsCsr, ExecOpts, Product};
use mspgemm_bench::{banner, reps};
use mspgemm_gen::{er, er_pattern};
use mspgemm_harness::ascii::{render_winner_grid, GridCell};
use mspgemm_harness::report::{fmt_secs, Table};
use mspgemm_harness::time_best;
use mspgemm_sparse::semiring::PlusTimesF64;

fn dims_from_env() -> Vec<u32> {
    std::env::var("MSPGEMM_FIG7_DIMS")
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<u32>| !v.is_empty())
        .unwrap_or_else(|| vec![12])
}

fn main() {
    banner(
        "Fig 7",
        "best scheme vs (mask degree × input degree), ER inputs",
    );
    let dims = dims_from_env();
    let input_degrees = [1usize, 4, 16, 64];
    let mask_degrees = [1usize, 4, 16, 64, 256];
    let algos = Algorithm::ALL;
    let reps = reps();

    let mut headers = vec![
        "dim".to_string(),
        "d_input".to_string(),
        "d_mask".to_string(),
    ];
    headers.extend(algos.iter().map(|a| a.name().to_string()));
    headers.push("best".to_string());
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&headers_ref);
    let mut grid: Vec<GridCell> = Vec::new();

    for &lg in &dims {
        let n = 1usize << lg;
        for &di in &input_degrees {
            let a = er(n, n, di, 10 + di as u64);
            let b = er(n, n, di, 20 + di as u64);
            // The paper's Inner keeps B in column-major form; precompute
            // Bᵀ once so Inner is not charged a per-call transpose (the
            // SS:DOT baseline, not Inner, pays that — §8.4).
            let bt = mspgemm_sparse::transpose(&b);
            for &dm in &mask_degrees {
                let mask = er_pattern(n, n, dm, 30 + dm as u64);
                let mut row = vec![format!("2^{lg}"), di.to_string(), dm.to_string()];
                let mut best = (f64::INFINITY, "-");
                let product = Product::new(&mask, &a, &b, Some(&bt));
                for &algo in &algos {
                    let (secs, _) = time_best(reps, || {
                        let opts = ExecOpts::default();
                        masked_mxm::<PlusTimesF64, _>(&product, algo, AsCsr, &opts).unwrap()
                    });
                    row.push(fmt_secs(secs));
                    if secs < best.0 {
                        best = (secs, algo.name());
                    }
                }
                row.push(best.1.to_string());
                grid.push(GridCell {
                    input_degree: di,
                    mask_degree: dm,
                    winner: best.1.to_string(),
                });
                table.row(&row);
            }
        }
    }
    println!("{}", table.to_csv());
    eprintln!("{}", table.to_text());
    eprintln!("winner heat-map (cf. the paper's Fig 7):");
    eprintln!("{}", render_winner_grid(&grid));
}
