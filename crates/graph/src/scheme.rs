//! The evaluation "schemes" of §8: our 12 algorithm variants
//! (6 algorithms × 1P/2P) plus the two SuiteSparse-modelled baselines.

use masked_spgemm::{baseline, masked_mxm, Algorithm, ExecOpts, OutputForm, Phases, Product};
use mspgemm_sparse::semiring::Semiring;

/// One scheme from the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// One of this paper's algorithms with a phase strategy.
    Ours(Algorithm, Phases),
    /// `SS:SAXPY`-style baseline (late masking).
    SsSaxpy,
    /// `SS:DOT`-style baseline (per-call transpose + dot products).
    SsDot,
}

impl Scheme {
    /// The paper's plot label, e.g. `MSA-1P`, `SS:SAXPY`.
    pub fn name(&self) -> String {
        match self {
            Scheme::Ours(a, Phases::One) => format!("{}-1P", a.name()),
            Scheme::Ours(a, Phases::Two) => format!("{}-2P", a.name()),
            Scheme::SsSaxpy => "SS:SAXPY".to_string(),
            Scheme::SsDot => "SS:DOT".to_string(),
        }
    }

    /// All 12 of our variants, in the paper's listing order (Fig 8).
    pub fn all_ours() -> Vec<Scheme> {
        let mut v = Vec::new();
        for a in Algorithm::ALL {
            for p in [Phases::One, Phases::Two] {
                v.push(Scheme::Ours(a, p));
            }
        }
        v
    }

    /// Our variants that support a complemented mask (BC drops MCA).
    pub fn all_ours_complement() -> Vec<Scheme> {
        Self::all_ours()
            .into_iter()
            .filter(|s| match s {
                Scheme::Ours(a, _) => a.supports_complement(),
                _ => true,
            })
            .collect()
    }

    /// Whether this scheme can run a complemented mask.
    pub fn supports_complement(&self) -> bool {
        match self {
            Scheme::Ours(a, _) => a.supports_complement(),
            _ => true,
        }
    }

    /// Execute the masked product `p` into `form` ([`AsCsr`] or
    /// [`OnMask`]) under this scheme's phase strategy (`p`'s own is not
    /// read) and `opts` (workspace pool,
    /// busy-time stats, deadline): they govern all of our schemes; the
    /// SuiteSparse-style baselines read `p`'s mask, operands and mode and
    /// ignore the rest, mirroring what the libraries expose. `p`'s `Bᵀ`
    /// amortizes the transpose whenever our pull kernel runs — named, or
    /// picked by `Auto` — mirroring the paper's Inner setup; `SS:DOT`
    /// re-transposes internally, the library behaviour §8.4 calls out.
    ///
    /// # Panics
    /// On what the dispatch rejects: mismatched shapes, MCA or
    /// [`OnMask`] under a complemented mask, an expired
    /// [`ExecOpts::deadline`].
    ///
    /// [`AsCsr`]: masked_spgemm::AsCsr
    /// [`OnMask`]: masked_spgemm::OnMask
    pub fn run_with<S: Semiring, F: OutputForm>(
        &self,
        p: &Product<'_, S::Left, S::Right>,
        form: F,
        opts: &ExecOpts<'_>,
    ) -> F::Of<S::Out> {
        let out = match *self {
            Scheme::Ours(algo, phases) => {
                masked_mxm::<S, F>(&p.with_phases(phases), algo, form, opts).map(|(c, _)| c)
            }
            Scheme::SsSaxpy => baseline::ss_saxpy::<S, F>(p, form),
            Scheme::SsDot => baseline::ss_dot::<S, F>(p, form),
        };
        out.expect("masked mxm failed")
    }
}

impl std::str::FromStr for Scheme {
    type Err = String;

    /// Parse a scheme label as the drivers spell it (case-insensitive):
    /// `ss:saxpy`/`saxpy`, `ss:dot`/`ssdot`, a bare algorithm name
    /// (`hash`, `heap-dot`, … — defaults to one phase), or
    /// `<algo>-<phases>` (`msa-2p`, `heap-dot-1p`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lc = s.to_ascii_lowercase();
        match lc.as_str() {
            "ss:saxpy" | "saxpy" => return Ok(Scheme::SsSaxpy),
            "ss:dot" | "ssdot" => return Ok(Scheme::SsDot),
            _ => {}
        }
        if let Ok(algo) = lc.parse::<Algorithm>() {
            return Ok(Scheme::Ours(algo, Phases::One));
        }
        let (algo_part, phase_part) = lc
            .rsplit_once('-')
            .ok_or_else(|| format!("unknown scheme '{s}'"))?;
        let algo: Algorithm = algo_part.parse()?;
        let phases: Phases = phase_part.parse()?;
        Ok(Scheme::Ours(algo, phases))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_variants() {
        assert_eq!(Scheme::all_ours().len(), 12);
        assert_eq!(Scheme::all_ours_complement().len(), 10);
    }

    #[test]
    fn names_match_paper_style() {
        assert_eq!(Scheme::Ours(Algorithm::Msa, Phases::One).name(), "MSA-1P");
        assert_eq!(
            Scheme::Ours(Algorithm::HeapDot, Phases::Two).name(),
            "HeapDot-2P"
        );
        assert_eq!(Scheme::SsSaxpy.name(), "SS:SAXPY");
    }

    #[test]
    fn labels_parse_back() {
        assert_eq!(
            "msa-1p".parse::<Scheme>().unwrap(),
            Scheme::Ours(Algorithm::Msa, Phases::One)
        );
        assert_eq!(
            "HeapDot-2P".parse::<Scheme>().unwrap(),
            Scheme::Ours(Algorithm::HeapDot, Phases::Two)
        );
        assert_eq!(
            "hash".parse::<Scheme>().unwrap(),
            Scheme::Ours(Algorithm::Hash, Phases::One)
        );
        assert_eq!("ss:saxpy".parse::<Scheme>().unwrap(), Scheme::SsSaxpy);
        assert_eq!("SS:DOT".parse::<Scheme>().unwrap(), Scheme::SsDot);
        assert!("nope-3p".parse::<Scheme>().is_err());
    }

    #[test]
    fn auto_resolving_to_inner_uses_the_supplied_bt() {
        use masked_spgemm::AsCsr;
        use mspgemm_sparse::semiring::PlusTimesI64;
        use mspgemm_sparse::Csr;
        // Dense inputs under a one-entry mask: Auto picks Inner. The
        // supplied `bt` is deliberately *not* `bᵀ` (its values are
        // doubled), so the result shows which operand the pull kernel read.
        let n = 64usize;
        let ones: Csr<i64> = Csr::from_dense(&vec![vec![Some(1); n]; n], n);
        let twos = ones.map(|v| 2 * v);
        let mut md = vec![vec![None; n]; n];
        md[3][5] = Some(());
        let mask = Csr::from_dense(&md, n);
        let auto = Scheme::Ours(Algorithm::Auto, Phases::One);
        let opts = ExecOpts::default();
        let p = Product::new(&mask, &ones, &ones, Some(&twos));
        let with_bt = auto.run_with::<PlusTimesI64, _>(&p, AsCsr, &opts);
        let inner = masked_mxm::<PlusTimesI64, _>(&p, Algorithm::Inner, AsCsr, &opts);
        let (want, plan) = inner.unwrap();
        assert_eq!(plan, masked_spgemm::Plan::Kernel(Algorithm::Inner, None));
        assert_eq!(with_bt, want);
        assert_eq!(with_bt.get(3, 5), Some(&(2 * n as i64)));
        // Without a `bt` the same call is the product with `b`.
        let p = Product::new(&mask, &ones, &ones, None);
        let without = auto.run_with::<PlusTimesI64, _>(&p, AsCsr, &opts);
        assert_eq!(without.get(3, 5), Some(&(n as i64)));
    }

    #[test]
    fn mca_excluded_from_complement() {
        assert!(!Scheme::Ours(Algorithm::Mca, Phases::One).supports_complement());
        assert!(Scheme::SsDot.supports_complement());
    }
}
