//! Quickstart: build two sparse matrices and a mask, run every Masked
//! SpGEMM algorithm on them, and show that masked entries are never
//! produced.
//!
//! Run with: `cargo run --release --example quickstart`

use mspgemm::prelude::*;

/// Pattern-exact, value-approximate comparison: different algorithms sum
/// the same f64 products in different orders, so last-bit differences are
/// expected and benign.
fn assert_matrices_close(
    a: &mspgemm::sparse::Csr<f64>,
    b: &mspgemm::sparse::Csr<f64>,
    label: &str,
) {
    assert_eq!(a.pattern(), b.pattern(), "{label}: patterns differ");
    for (x, y) in a.values().iter().zip(b.values()) {
        assert!(
            (x - y).abs() <= 1e-9 * (1.0 + y.abs()),
            "{label}: values diverge"
        );
    }
}

fn main() {
    // A small sparse matrix pair (ER, degree 4) and a sparser mask.
    let n = 1000;
    let a = mspgemm::gen::er(n, n, 4, 1);
    let b = mspgemm::gen::er(n, n, 4, 2);
    let mask = mspgemm::gen::er_pattern(n, n, 2, 3);

    println!("A: {}x{} with {} nonzeros", a.nrows(), a.ncols(), a.nnz());
    println!("B: {}x{} with {} nonzeros", b.nrows(), b.ncols(), b.nnz());
    println!(
        "M: {}x{} with {} nonzeros\n",
        mask.nrows(),
        mask.ncols(),
        mask.nnz()
    );

    // C = M ⊙ (A·B) with each algorithm; all agree.
    let mut reference = None;
    for algo in Algorithm::ALL {
        let c = masked_mxm_with_opts::<PlusTimesF64, ()>(
            &mask,
            &a,
            &b,
            algo,
            MaskMode::Mask,
            Phases::One,
            &ExecOpts::default(),
        )
        .expect("masked mxm failed");
        println!(
            "{:>8}: C has {} nonzeros (⊆ mask {})",
            algo.name(),
            c.nnz(),
            mask.nnz()
        );
        assert!(c.nnz() <= mask.nnz(), "output must stay inside the mask");
        match &reference {
            None => reference = Some(c),
            Some(r) => assert_matrices_close(&c, r, algo.name()),
        }
    }

    // The complemented form: C = ¬M ⊙ (A·B).
    let cc = masked_mxm_with_opts::<PlusTimesF64, ()>(
        &mask,
        &a,
        &b,
        Algorithm::Msa,
        MaskMode::Complement,
        Phases::One,
        &ExecOpts::default(),
    )
    .unwrap();
    println!(
        "\ncomplement: C has {} nonzeros (all outside the mask)",
        cc.nnz()
    );

    // Together, the masked and complemented outputs partition the product.
    let full = mspgemm::core::baseline::spgemm::<PlusTimesF64>(&a, &b);
    assert_eq!(reference.unwrap().nnz() + cc.nnz(), full.nnz());
    println!(
        "full product: {} nonzeros — partition verified ✓",
        full.nnz()
    );
}
