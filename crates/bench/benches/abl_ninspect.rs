//! **Ablation (§5.5)**: the Heap kernel's `NInspect` parameter
//! (0 = plain merge, 1 = the paper's `Heap`, ∞ = `HeapDot`), swept over
//! mask density. Inspecting the mask before pushing trades mask scans for
//! avoided merge operations; the paper evaluates 1 and ∞. The three
//! outputs must be equal by bits (`csr_fingerprint`).

use masked_spgemm::algos::heap::{HeapKernel, INSPECT_FULL};
use masked_spgemm::phases::{run_kernel, Phases};
use masked_spgemm::ExecOpts;
use mspgemm_bench::{banner, reps};
use mspgemm_gen::{er, er_pattern};
use mspgemm_harness::report::{fmt_secs, Table};
use mspgemm_harness::{csr_fingerprint, time_best};
use mspgemm_sparse::semiring::PlusTimesF64;

fn main() {
    banner("Ablation §5.5", "Heap NInspect ∈ {0, 1, ∞} vs mask degree");
    let n = 1usize << 13;
    let d_input = 16usize;
    let reps = reps();
    let a = er(n, n, d_input, 4);
    let b = er(n, n, d_input, 5);
    let mut table = Table::new(&["d_mask", "ninspect_0", "ninspect_1", "ninspect_inf"]);
    for d_mask in [1usize, 4, 16, 64, 256] {
        let mask = er_pattern(n, n, d_mask, 6);
        let mut row = vec![d_mask.to_string()];
        let mut outputs = Vec::new();
        for n_inspect in [0u32, 1, INSPECT_FULL] {
            let kernel = HeapKernel {
                n_inspect,
                complement: false,
            };
            let (secs, c) = time_best(reps, || {
                let opts = ExecOpts::default();
                run_kernel::<PlusTimesF64, _, ()>(
                    &mask,
                    &a,
                    &b,
                    false,
                    Phases::One,
                    &kernel,
                    None,
                    &opts,
                )
                .unwrap()
            });
            row.push(fmt_secs(secs));
            outputs.push(c);
        }
        // The merge pops a column's products in `A`-row order whatever
        // `NInspect` admits when, so the three CSRs are equal by bits.
        for w in outputs.windows(2) {
            assert_eq!(
                csr_fingerprint(&w[0]),
                csr_fingerprint(&w[1]),
                "NInspect variants disagree at d_mask {d_mask}"
            );
        }
        table.row(&row);
    }
    println!("{}", table.to_csv());
    eprintln!("{}", table.to_text());
}
