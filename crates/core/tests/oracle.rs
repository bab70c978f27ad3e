//! The differential oracle of the masked product: every cell — runner ×
//! output form × mask mode × phases × threads × workspace pool × form ×
//! value storage — of every case in [`cases`] against one dense reference
//! by bits. The reference sums each coordinate in ascending `k`, as every
//! kernel does, over values spanning seven orders of magnitude, so a sum
//! in any other order shows. Every complemented cell also runs with its
//! mask given as bit rows ([`BitRows`]), which a normal cell must refuse.
//! Every CSR output must also be a valid CSR on its side of the mask, 1P
//! must equal 2P, and
//! `nnz(M ⊙ AB) + nnz(¬M ⊙ AB) = nnz(AB)`; every on-mask output, scattered
//! back onto the mask, must hold the reference's bits where it has an
//! entry and `Out::default()`'s elsewhere. A cell the paper leaves
//! undefined, or an on-mask one under a complemented mask, returns its
//! typed error. A case is one line, an axis value one line of its array.
//! The pool's accounting is tested at the end.

use masked_spgemm::algos::heap::HeapKernel;
use masked_spgemm::phases::run_kernel;
use masked_spgemm::{baseline, masked_mxm, run_plan, Algorithm, Error, ExecOpts, ExecStats};
use masked_spgemm::{AsCsr, BitRows, MaskMode, OnMask, Phases, Plan, Product, WsPool};
use mspgemm_sparse::semiring::{PlusPairU64, PlusTimesF64, Semiring};
use mspgemm_sparse::{transpose, Csr, CsrRef, Idx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// What computes a cell: `masked_mxm` under an algorithm or `Auto`, a forced
/// `Plan::Oriented`, the Heap kernel at `NInspect` 0 (the plain merge) on
/// `run_kernel`, the SS stand-ins, or `spgemm_then_mask`.
#[derive(Clone, Copy, Debug)]
enum Runner {
    Algo(Algorithm),
    Oriented,
    Merge,
    SsSaxpy,
    SsDot,
    Strawman,
}

fn runners() -> impl Iterator<Item = Runner> {
    let algos = Algorithm::ALL.into_iter().chain([Algorithm::Auto]);
    let others = [Runner::Oriented, Runner::Merge, Runner::SsSaxpy];
    let baselines = [Runner::SsDot, Runner::Strawman];
    algos.map(Runner::Algo).chain(others).chain(baselines)
}

impl Runner {
    /// Whether it reads every axis: the baselines run unpooled, pin their
    /// phases and drop `Bᵀ`; the strawman reads the mask's pattern alone.
    fn kernel(self) -> bool {
        !matches!(self, Runner::SsSaxpy | Runner::SsDot | Runner::Strawman)
    }

    /// Whether it reads `form`, rather than running another form's cell,
    /// and delivers `output`: the on-mask form is reached through
    /// `masked_mxm` and the SS stand-ins; `run_plan`, `run_kernel` and the
    /// strawman make CSRs.
    fn takes(self, form: Form, output: Delivery) -> bool {
        match (self, form) {
            (Runner::Oriented | Runner::Merge | Runner::Strawman, _)
                if output == Delivery::OnMask =>
            {
                false
            }
            (Runner::Strawman, Form::New { valued, bt }) => !valued && !bt,
            (Runner::Strawman, Form::Bits { .. }) => false,
            (Runner::SsSaxpy | Runner::SsDot, Form::New { bt, .. } | Form::Bits { bt }) => !bt,
            _ => true,
        }
    }
}

/// The driver's output forms, `AsCsr` and `OnMask`, as an axis.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Delivery {
    Csr,
    OnMask,
}

const OUTPUTS: [Delivery; 2] = [Delivery::Csr, Delivery::OnMask];

/// A cell's product in the form it asked for.
enum Output<T> {
    Csr(Csr<T>),
    OnMask(Vec<T>),
}

const MODES: [MaskMode; 2] = [MaskMode::Mask, MaskMode::Complement];
const PHASES: [Phases; 2] = [Phases::One, Phases::Two];

/// One chunk, and partitions over two, three and seven executors.
const THREADS: [usize; 4] = [1, 2, 3, 7];

/// Whether a cell leases from the run's one [`WsPool`], whatever its width.
const POOLED: [bool; 2] = [false, true];

/// How a case reaches its [`Product`]: `new` over a `()` mask or one valued
/// `0.0` / `-0.0` / `NaN`, or `complement_of` the mask's bit rows, with or
/// without `Bᵀ`; or, declared, `self_product`.
#[derive(Clone, Copy, Debug)]
enum Form {
    New { valued: bool, bt: bool },
    Bits { bt: bool },
    Declared,
}

/// The forms of an undeclared case.
const FORMS: [Form; 6] = [
    Form::New {
        valued: false,
        bt: false,
    },
    Form::New {
        valued: false,
        bt: true,
    },
    Form::New {
        valued: true,
        bt: false,
    },
    Form::New {
        valued: true,
        bt: true,
    },
    Form::Bits { bt: false },
    Form::Bits { bt: true },
];

/// Whether the operand values are `1.0`s in the shared unit arena, or owned.
const UNIT_ARENA: [bool; 2] = [false, true];

/// A semiring the oracle runs, both operands of one element type read off
/// a case's `f64` matrices, its output compared as bits.
trait Ring<T>: Semiring<Left = T, Right = T> {
    /// Whether the operands carry values, so that their storage matters.
    const VALUED: bool = true;
    fn read(x: &Csr<f64>) -> Csr<T>;
    fn bits(v: Self::Out) -> u64;
}

impl<S: Semiring<Left = f64, Right = f64, Out = f64>> Ring<f64> for S {
    fn read(x: &Csr<f64>) -> Csr<f64> {
        x.clone()
    }
    fn bits(v: f64) -> u64 {
        v.to_bits()
    }
}

impl Ring<()> for PlusPairU64 {
    const VALUED: bool = false;
    fn read(x: &Csr<f64>) -> Csr<()> {
        x.pattern()
    }
    fn bits(v: u64) -> u64 {
        v
    }
}

/// `x · y = x`: a multiply that does not commute, so never runs oriented.
#[derive(Clone, Copy)]
struct PlusFirst;

impl Semiring for PlusFirst {
    type Left = f64;
    type Right = f64;
    type Out = f64;
    const ZERO: f64 = 0.0;
    fn mul(x: f64, _: f64) -> f64 {
        x
    }
    fn add(x: f64, y: f64) -> f64 {
        x + y
    }
}

/// One input: `mode(mask) ⊙ (A·B)`, or, declared, `A ⊙ (A·A)` of a
/// symmetric `A`. `auto` is the plan `Auto` must choose under a normal
/// mask on one thread, as a CSR, by [`Plan::name`].
struct Case {
    name: String,
    a: Csr<f64>,
    b: Csr<f64>,
    mask: Csr<()>,
    declared: bool,
    auto: Option<&'static str>,
}

impl Case {
    fn new(name: impl Into<String>, a: Csr<f64>, b: Csr<f64>, mask: Csr<()>) -> Self {
        let (name, declared, auto) = (name.into(), false, None);
        Case {
            name,
            a,
            b,
            mask,
            declared,
            auto,
        }
    }

    /// `mask ⊙ (a·a)`.
    fn square(name: &str, a: Csr<f64>, mask: Csr<()>) -> Self {
        Case::new(name, a.clone(), a, mask)
    }

    fn declared(name: &str, a: Csr<f64>) -> Self {
        let mut case = Case::square(name, a.clone(), a.pattern());
        case.declared = true;
        case
    }

    fn auto(mut self, plan: &'static str) -> Self {
        self.auto = Some(plan);
        self
    }

    /// Under 2 000 products and 2¹⁶ columns: every semiring runs it.
    fn light(&self) -> bool {
        self.a.flops_with(&self.b) < 2000 && self.b.ncols() < 1 << 16
    }
}

/// A random `m × k × n` product, `A`, `B` and the mask at densities `d`.
fn random(rng: &mut StdRng, (m, k, n): (usize, usize, usize), d: (f64, f64, f64)) -> Case {
    let (a, b) = (sparse(rng, m, k, d.0), sparse(rng, k, n, d.1));
    let mask = sparse(rng, m, n, d.2).pattern();
    Case::new(format!("random {m}x{k}x{n} at {d:?}"), a, b, mask)
}

/// [`random`] with an empty and an all-dense row in every operand.
fn edge_rows(rng: &mut StdRng, (m, k, n): (usize, usize, usize), d: f64) -> Case {
    let (a, b) = (sparse(rng, m, k, d), sparse(rng, k, n, d));
    let c = sparse(rng, m, n, 0.3);
    let (a, b, c) = (edge(rng, a, 1, 5), edge(rng, b, 2, 3), edge(rng, c, 5, 0));
    Case::new(
        format!("empty and dense rows {m}x{k}x{n}"),
        a,
        b,
        c.pattern(),
    )
}

/// A value of either sign between `10⁻³` and `10⁴`.
fn magnitude(rng: &mut StdRng) -> f64 {
    (rng.gen::<f64>() - 0.4) * 10f64.powi(rng.gen_range(-3..4))
}

/// An `m × n` matrix at `density` with [`magnitude`] values.
fn sparse(rng: &mut StdRng, m: usize, n: usize, density: f64) -> Csr<f64> {
    let mut cell = || Some(magnitude(rng)).filter(|_| rng.gen::<f64>() < density);
    let d: Vec<Vec<_>> = (0..m).map(|_| (0..n).map(|_| cell()).collect()).collect();
    Csr::from_dense(&d, n)
}

/// `x` with row `empty` holding nothing and row `dense` every column.
fn edge(rng: &mut StdRng, x: Csr<f64>, empty: usize, dense: usize) -> Csr<f64> {
    let mut d = x.to_dense();
    d[empty].fill(None);
    d[dense] = (0..x.ncols()).map(|_| Some(magnitude(rng))).collect();
    Csr::from_dense(&d, x.ncols())
}

/// `pattern` with [`magnitude`] values.
fn revalue(rng: &mut StdRng, pattern: &Csr<f64>) -> Csr<f64> {
    pattern.map(|_| magnitude(rng))
}

/// `d`'s nonzero integers as a matrix of `ncols` columns.
fn grid(d: &[&[i32]], ncols: usize) -> Csr<f64> {
    let row = |row: &&[i32]| row.iter().map(|&v| (v != 0).then_some(v as f64)).collect();
    Csr::from_dense(&d.iter().map(row).collect::<Vec<_>>(), ncols)
}

/// An `m × n` matrix of ones wherever `cell(i, j)`.
fn ones(m: usize, n: usize, cell: impl Fn(usize, usize) -> bool) -> Csr<f64> {
    let row = |i| (0..n).map(|j| cell(i, j).then_some(1.0)).collect();
    Csr::from_dense(&(0..m).map(row).collect::<Vec<_>>(), n)
}

/// Row 0 dense, every other row two entries: the single heavy row that a
/// contiguous equal-row split leaves on one executor.
fn single_heavy_row(n: usize) -> Csr<f64> {
    let heavy = |i: usize, j| i == 0 || [i * 7 % n, (i * 13 + 1) % n].contains(&j);
    ones(n, n, heavy)
}

/// `upper`'s entries on and above the diagonal, mirrored below it.
fn mirrored(upper: &Csr<f64>) -> Csr<f64> {
    let n = upper.nrows();
    let cell = |i: usize, j: usize| upper.get(i.min(j), i.max(j) as Idx).copied();
    let row = |i| (0..n).map(|j| cell(i, j)).collect();
    Csr::from_dense(&(0..n).map(row).collect::<Vec<_>>(), n)
}

/// A symmetric graph whose declared self-product `Auto` runs oriented on
/// one thread (not on seven: the mirror is charged per thread). Vertices
/// 0 and 1 are adjacent to all, the rest sparsely to each other; every
/// 23rd vertex is isolated, every 11th has a self-loop.
fn skewed(rng: &mut StdRng, n: usize) -> Csr<f64> {
    let isolated = |x: usize| x % 23 == 5;
    let edge = |u: usize, v: usize| match (isolated(u) || isolated(v), u == v) {
        (true, _) => false,
        (_, true) => u.is_multiple_of(11),
        _ => u.min(v) < 2 || (u * 31 + v * 17).is_multiple_of(53),
    };
    mirrored(&revalue(rng, &ones(n, n, edge)))
}

/// Every input the oracle runs.
fn cases() -> Vec<Case> {
    let rng = &mut StdRng::seed_from_u64(44);
    let full_mask = |m, n| ones(m, n, |_, _| true).pattern();

    // Fig 1: the mask and the product each hold coordinates the other lacks.
    let fig1 = grid(&[&[1, 2, 0], &[0, 3, 1], &[1, 0, 2]], 3);
    let fig1_b = grid(&[&[1, 0, 1], &[0, 2, 1], &[1, 1, 0]], 3);
    let fig1_mask = grid(&[&[1, 1, 0], &[1, 0, 1], &[0, 1, 1]], 3).pattern();
    // Two products that cancel: a structural zero, which GraphBLAS keeps.
    let (one_two, two_one) = (grid(&[&[1, 1]], 2), grid(&[&[1], &[-1]], 1));
    let (a8, b8) = (sparse(rng, 8, 8, 0.4), sparse(rng, 8, 8, 0.4));
    let hub = revalue(rng, &ones(16, 16, |i, j| i == 0 || j == 0));
    let hub_mask = sparse(rng, 16, 16, 0.3).pattern();
    let heavy = revalue(rng, &single_heavy_row(24));
    // Wider than MSA's limit of 2¹⁶ columns; two products a row, fewer
    // than the pull's probes: Auto pushes, through Hash.
    let wide = 65_537;
    let wide_a = revalue(rng, &ones(4, 4, |i, j| i == j));
    let wide_b = ones(4, wide, |k, j| [wide - 1 - k, 1000 * k].contains(&j));
    let wide_mask = ones(4, wide, |i, j| j % 4000 == i || j == wide - 1 - i).pattern();
    let mut cases = vec![
        Case::new("fig 1", fig1, fig1_b, fig1_mask),
        Case::new("structural zero", one_two, two_one, full_mask(1, 1)),
        Case::square("empty mask", a8, Csr::empty(8, 8)),
        Case::square("full mask", b8, full_mask(8, 8)),
        Case::square("hub row and column", hub, hub_mask),
        Case::square("single heavy row", heavy.clone(), heavy.pattern()),
        Case::new("wide", wide_a, revalue(rng, &wide_b), wide_mask).auto("Hash"),
        Case::declared("skewed symmetric", skewed(rng, 100)).auto("oriented pull"),
        Case::declared("symmetric", mirrored(&sparse(rng, 12, 12, 0.25))),
        random(rng, (12, 12, 12), (0.3, 0.3, 0.4)),
        random(rng, (12, 12, 12), (0.1, 0.1, 0.6)),
        random(rng, (5, 9, 13), (0.35, 0.35, 0.4)),
        random(rng, (13, 5, 9), (0.35, 0.35, 0.4)),
        random(rng, (1, 7, 7), (0.35, 0.35, 0.4)),
        random(rng, (7, 1, 7), (0.35, 0.35, 0.4)),
        random(rng, (7, 7, 1), (0.35, 0.35, 0.4)),
        // Three words a bit row, the last one holding 2 columns.
        random(rng, (6, 20, 130), (0.3, 0.3, 0.4)),
        edge_rows(rng, (12, 10, 14), 0.15),
        edge_rows(rng, (9, 30, 11), 0.15),
    ];
    // Small inputs in bulk: sums of two or three products, reordered apart.
    cases.extend((3..=8).map(|n| random(rng, (n, n, n), (0.3, 0.3, 0.3))));
    cases
}

/// A case's operands under one value storage, read by semiring `S`; its
/// mask as a `Csr<()>`, valued, and as bit rows.
struct Input<T> {
    unit_arena: bool,
    a: Csr<T>,
    b: Csr<T>,
    bt: Csr<T>,
    mask: Csr<()>,
    valued: Csr<f64>,
    bits: BitRows,
}

impl<T: Copy + PartialEq + Send + Sync> Input<T> {
    fn new<S: Ring<T>>(case: &Case, unit_arena: bool) -> Self {
        let read = |x: &Csr<f64>| {
            let mut unit = x.map(|_| 1.0);
            assert!(unit.share_unit_values());
            S::read(if unit_arena { &unit } else { x })
        };
        let (a, b, mask) = (read(&case.a), read(&case.b), case.mask.clone());
        let bt = transpose(&b);
        // Values no structural mask may read.
        let mut k = 0usize..;
        let valued = mask.map(|_| [0.0, -0.0, f64::NAN][k.next().unwrap() % 3]);
        let mut bits = BitRows::new(mask.nrows(), mask.ncols());
        bits.insert(&mask);
        Input {
            unit_arena,
            a,
            b,
            bt,
            mask,
            valued,
            bits,
        }
    }

    fn product(&self, form: Form) -> Product<'_, T, T> {
        let (a, b, bt_if) = (&self.a, &self.b, |bt: bool| bt.then_some(&self.bt));
        match form {
            Form::New { valued, bt } if valued => Product::new(&self.valued, a, b, bt_if(bt)),
            Form::New { bt, .. } => Product::new(&self.mask, a, b, bt_if(bt)),
            Form::Bits { bt } => Product::complement_of(&self.bits, a, b, bt_if(bt)),
            Form::Declared => Product::self_product(a),
        }
    }
}

/// `A·B`, `M ⊙ (A·B)` and `¬M ⊙ (A·B)` by bits: each coordinate is the
/// sum of its products in ascending `k`, an entry wherever one product
/// was formed.
fn reference<S: Ring<T>, T: Copy>(mask: &Csr<()>, a: &Csr<T>, b: &Csr<T>) -> [Csr<u64>; 3] {
    let (m, n) = (a.nrows(), b.ncols());
    let mut row = vec![None::<S::Out>; n];
    let mut parts = [(); 3].map(|()| (vec![0usize], Vec::<Idx>::new(), Vec::new()));
    for i in 0..m {
        for (&k, &x) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            for (&j, &y) in b.row_cols(k as usize).iter().zip(b.row_vals(k as usize)) {
                let (p, cell) = (S::mul(x, y), &mut row[j as usize]);
                *cell = Some(cell.map_or(p, |sum| S::add(sum, p)));
            }
        }
        for (j, cell) in row.iter_mut().enumerate() {
            let Some(v) = cell.take() else { continue };
            let in_mask = mask.row_cols(i).binary_search(&(j as Idx)).is_ok();
            for (part, keep) in parts.iter_mut().zip([true, in_mask, !in_mask]) {
                if keep {
                    part.1.push(j as Idx);
                    part.2.push(S::bits(v));
                }
            }
        }
        parts.iter_mut().for_each(|part| part.0.push(part.1.len()));
    }
    parts.map(|(rowptr, colidx, bits)| Csr::try_from_parts(m, n, rowptr, colidx, bits).unwrap())
}

/// The rayon pool of `threads` executors, built once for the whole run.
fn thread_pool(threads: usize) -> &'static ThreadPool {
    static POOLS: OnceLock<Vec<ThreadPool>> = OnceLock::new();
    let build = |&t: &usize| ThreadPoolBuilder::new().num_threads(t).build().unwrap();
    let pools = POOLS.get_or_init(|| THREADS.iter().map(build).collect());
    &pools[THREADS.iter().position(|&t| t == threads).unwrap()]
}

/// Options whose drives lease their workspaces from `pool`.
fn leasing(pool: Option<&WsPool>) -> ExecOpts<'_> {
    ExecOpts {
        ws_pool: pool,
        ..ExecOpts::default()
    }
}

/// The one workspace pool every pooled cell of the run leases from.
fn shared_pool() -> &'static WsPool {
    static POOL: OnceLock<WsPool> = OnceLock::new();
    POOL.get_or_init(WsPool::new)
}

/// One runner's cells under one form, output form, thread count and pool
/// setting.
#[derive(Clone, Copy, Debug)]
struct Group {
    form: Form,
    output: Delivery,
    runner: Runner,
    threads: usize,
    pooled: bool,
}

impl Group {
    /// Whether `Plan::Oriented` computes the product: declared, normal, commuting.
    fn orientable<S: Semiring>(self, mode: MaskMode) -> bool {
        matches!(self.form, Form::Declared) && mode == MaskMode::Mask && S::MUL_COMMUTES
    }

    /// Whether the cell must return [`Error::Unsupported`]: bit rows read
    /// as a normal mask, MCA under a complemented mask (§8.4), on-mask
    /// output under one, or an oriented plan it cannot run.
    fn refused<S: Semiring>(self, mode: MaskMode) -> bool {
        let complement = mode == MaskMode::Complement;
        match self.runner {
            _ if matches!(self.form, Form::Bits { .. }) && !complement => true,
            Runner::Oriented => !self.orientable::<S>(mode),
            _ if complement && self.output == Delivery::OnMask => true,
            Runner::Algo(algo) => complement && !algo.supports_complement(),
            _ => false,
        }
    }

    /// One cell's output, and the plan `masked_mxm` reported.
    fn run<S: Ring<T>, T>(
        self,
        p: &Product<'_, T, T>,
        mask: &Csr<()>,
        opts: &ExecOpts<'_>,
    ) -> Result<(Output<S::Out>, Option<Plan>), Error> {
        let (_, a, b, mode) = p.operands();
        let merge = HeapKernel {
            n_inspect: 0,
            ..HeapKernel::heap(mode == MaskMode::Complement)
        };
        let c = match (self.runner, self.output) {
            (Runner::Algo(algo), Delivery::Csr) => {
                let c = masked_mxm::<S, _>(p, algo, AsCsr, opts)?;
                return Ok((Output::Csr(c.0), Some(c.1)));
            }
            (Runner::Algo(algo), Delivery::OnMask) => {
                let c = masked_mxm::<S, _>(p, algo, OnMask, opts)?;
                return Ok((Output::OnMask(c.0), Some(c.1)));
            }
            (Runner::SsSaxpy, Delivery::Csr) => Output::Csr(baseline::ss_saxpy::<S, _>(p, AsCsr)?),
            (Runner::SsSaxpy, Delivery::OnMask) => {
                Output::OnMask(baseline::ss_saxpy::<S, _>(p, OnMask)?)
            }
            (Runner::SsDot, Delivery::Csr) => Output::Csr(baseline::ss_dot::<S, _>(p, AsCsr)?),
            (Runner::SsDot, Delivery::OnMask) => {
                Output::OnMask(baseline::ss_dot::<S, _>(p, OnMask)?)
            }
            (Runner::Oriented, _) => Output::Csr(run_plan::<S>(p, Plan::Oriented(None), opts)?),
            (Runner::Merge, _) => Output::Csr(run_kernel::<S, _>(p, &merge, None, opts)?),
            (Runner::Strawman, _) => Output::Csr(baseline::spgemm_then_mask::<S>(mask, a, b, mode)),
        };
        Ok((c, None))
    }

    /// The cell's output as bits, or what is wrong with it: an error or a
    /// plan it may not report, no CSR, a stray entry, other bits.
    fn judge<S: Ring<T>, T>(
        self,
        (case, mode): (&Case, MaskMode),
        answer: Result<(Output<S::Out>, Option<Plan>), Error>,
        want: &Csr<u64>,
    ) -> Result<Option<Csr<u64>>, String> {
        let (c, plan) = match (answer, self.refused::<S>(mode)) {
            (Err(Error::Unsupported(_)), true) => return Ok(None),
            (Err(e), _) => return Err(format!("errored: {e}")),
            (Ok(_), true) => return Err("ran a product it must refuse".into()),
            (Ok(answer), false) => answer,
        };
        let auto = matches!(self.runner, Runner::Algo(Algorithm::Auto));
        let csr = self.output == Delivery::Csr;
        let normal = mode == MaskMode::Mask && S::MUL_COMMUTES && csr;
        let pinned = case.auto.filter(|_| auto && normal && self.threads == 1);
        let legal = match (self.runner, plan) {
            (_, Some(Plan::Kernel(algo, Some(_)))) if auto => algo != Algorithm::Auto,
            (_, Some(Plan::Oriented(Some(_)))) if auto => self.orientable::<S>(mode),
            (Runner::Algo(algo), plan) => plan == Some(Plan::Kernel(algo, None)),
            (_, plan) => plan.is_none(),
        };
        if !legal || pinned.is_some_and(|name| Some(name) != plan.map(|p| p.name())) {
            return Err(format!("reported {plan:?}, pinned {pinned:?}"));
        }
        let slots_wanted;
        let (got, want) = match c {
            Output::Csr(c) => {
                let got = bits_of::<S, T>(c.view().structure(), c.values())?;
                let astray = |i, j| case.mask.get(i, j).is_some() != (mode == MaskMode::Mask);
                if let Some((i, j, _)) = got.iter().find(|&(i, j, _)| astray(i, j)) {
                    return Err(format!("({i}, {j}) is on the wrong side of the mask"));
                }
                (got, want)
            }
            // Scattered back onto the mask: the reference's bits where it
            // holds an entry, the default's in every other slot.
            Output::OnMask(slots) => {
                let got = bits_of::<S, T>(case.mask.view(), &slots)?;
                slots_wanted = on_mask(&case.mask, want, S::bits(S::Out::default()));
                (got, &slots_wanted)
            }
        };
        if &got != want {
            return Err(format!(
                "differs from the reference\n got {got:?}\nwant {want:?}"
            ));
        }
        Ok(Some(got))
    }

    /// Run and judge the group's cells and its pairs (1P = 2P, the masks
    /// split `A·B`); returns how many cells ran.
    fn check<S: Ring<T>, T: Copy + PartialEq + Send + Sync>(
        self,
        (case, input): (&Case, &Input<T>),
        [full, kept, dropped]: &[Csr<u64>; 3],
        failures: &mut Vec<String>,
    ) -> usize {
        let pool = thread_pool(self.threads);
        let opts = leasing(self.pooled.then(shared_pool));
        let p = input.product(self.form);
        let phases = &PHASES[..1 + usize::from(self.runner.kernel())];
        let mut fail = |mode, phases, e: &str| {
            let (name, unit_arena) = (&case.name, input.unit_arena);
            failures.push(format!(
                "{name} | unit arena {unit_arena} | {self:?} {mode:?} {phases:?}: {e}"
            ))
        };
        let mut out = [[None, None], [None, None]];
        for ((mode, want), out) in MODES.into_iter().zip([kept, dropped]).zip(&mut out) {
            for (&phases, out) in phases.iter().zip(out) {
                let p = p.with_mode(mode).with_phases(phases);
                let run = || pool.install(|| self.run::<S, T>(&p, &input.mask, &opts));
                let answer =
                    catch_unwind(AssertUnwindSafe(run)).map_err(|_| "panicked".to_string());
                match answer.and_then(|answer| self.judge::<S, T>((case, mode), answer, want)) {
                    Ok(got) => *out = got,
                    Err(e) => fail(mode, phases, &e),
                }
            }
        }
        for (mode, [one, two]) in MODES.into_iter().zip(&out) {
            if one.is_some() && two.is_some() && one != two {
                fail(mode, Phases::Two, "1P and 2P differ");
            }
        }
        if let [[Some(kept), _], [Some(dropped), _]] = &out {
            if kept.nnz() + dropped.nnz() != full.nnz() {
                fail(MaskMode::Complement, Phases::One, "masks do not split A·B");
            }
        }
        MODES.len() * phases.len()
    }
}

/// `values`' bits on `pattern`, or why they make no CSR.
fn bits_of<S: Ring<T>, T>(pattern: CsrRef<'_, ()>, values: &[S::Out]) -> Result<Csr<u64>, String> {
    let bits = values.iter().map(|&v| S::bits(v)).collect();
    let (rowptr, colidx) = (pattern.rowptr().to_vec(), pattern.colidx().to_vec());
    let (m, n) = (pattern.nrows(), pattern.ncols());
    Csr::try_from_parts(m, n, rowptr, colidx, bits).map_err(|e| format!("no CSR: {e}"))
}

/// `mask`'s entries holding `c`'s where it has one, `absent` elsewhere.
fn on_mask(mask: &Csr<()>, c: &Csr<u64>, absent: u64) -> Csr<u64> {
    let mut slots = mask.iter().map(|(i, j, _)| c.get(i, j).copied());
    mask.map(|_| slots.next().flatten().unwrap_or(absent))
}

/// Every cell of `cases` on semiring `S`; panics listing failed cells.
fn oracle<S: Ring<T>, T: Copy + PartialEq + Send + Sync>(cases: impl Iterator<Item = Case>) {
    let (mut cells, mut failures) = (0, Vec::new());
    for case in cases {
        let forms = [&FORMS[..], &[Form::Declared]][usize::from(case.declared)];
        for &unit_arena in &UNIT_ARENA[..if S::VALUED { 2 } else { 1 }] {
            let input = Input::new::<S>(&case, unit_arena);
            let want = reference::<S, T>(&case.mask, &input.a, &input.b);
            for (&form, runner) in forms.iter().flat_map(|f| runners().map(move |r| (f, r))) {
                for (threads, pooled) in THREADS.into_iter().flat_map(|t| POOLED.map(|p| (t, p))) {
                    for output in OUTPUTS {
                        if runner.takes(form, output) && (!pooled || runner.kernel()) {
                            let group = Group {
                                form,
                                output,
                                runner,
                                threads,
                                pooled,
                            };
                            cells += group.check::<S, T>((&case, &input), &want, &mut failures);
                        }
                    }
                }
            }
        }
    }
    let failed = failures.len();
    let shown = failures[..failed.min(20)].join("\n");
    assert!(failed == 0, "{failed} of {cells} cells failed:\n{shown}");
}

// The semirings, each over the cases it tells something on: the pair
// semiring counts where the others multiply; a multiply that does not
// commute matters where a product is declared; the heavy cases run once.

#[test]
fn plus_times_f64() {
    oracle::<PlusTimesF64, f64>(cases().into_iter().filter(Case::light));
}

#[test]
fn plus_times_f64_heavy() {
    oracle::<PlusTimesF64, f64>(cases().into_iter().filter(|case| !case.light()));
}

#[test]
fn plus_pair_u64_counts() {
    oracle::<PlusPairU64, ()>(cases().into_iter().filter(Case::light));
}

#[test]
fn plus_first_does_not_commute() {
    let declared = |case: &Case| case.declared && case.light();
    oracle::<PlusFirst, f64>(cases().into_iter().filter(declared));
}

/// `A ⊙ (A·A)` under `algo` and `phases`, with `opts`.
fn mxm(a: &Csr<f64>, algo: Algorithm, phases: Phases, opts: &ExecOpts<'_>) -> Csr<f64> {
    let mask = a.pattern();
    let p = Product::new(&mask, a, a, None).with_phases(phases);
    masked_mxm::<PlusTimesF64, _>(&p, algo, AsCsr, opts)
        .unwrap()
        .0
}

#[test]
fn ws_pool_steady_state_allocates_nothing() {
    let (a, pool, reps) = (single_heavy_row(250), WsPool::new(), 8);
    let opts = leasing(Some(&pool));
    let threads = rayon::current_num_threads().max(1) as u64;
    let cold = mxm(&a, Algorithm::Msa, Phases::Two, &opts);
    assert!(pool.misses() > 0 && pool.retained() > 0);
    for _ in 0..reps {
        assert_eq!(mxm(&a, Algorithm::Msa, Phases::Two, &opts), cold);
    }
    // Only executors leasing at once can miss, at most one per thread;
    // two phases are two drives per call, each leasing at least once.
    let takes = pool.hits() + pool.misses();
    assert!(pool.misses() <= threads, "{} misses", pool.misses());
    assert!(takes >= 2 * (reps + 1), "{takes} leases");
    assert!(pool.hits() >= takes - threads);
}

#[test]
fn row_adaptive_workspaces_shared_across_widths() {
    // Hash scratch does not depend on `ncols`, so matrices of two widths
    // lease from one shelf — the amortization a suite sweep relies on.
    let pool = WsPool::new();
    let opts = leasing(Some(&pool));
    for a in [single_heavy_row(60), single_heavy_row(200)] {
        let unpooled = mxm(&a, Algorithm::Hash, Phases::One, &ExecOpts::default());
        assert_eq!(mxm(&a, Algorithm::Hash, Phases::One, &opts), unpooled);
    }
    assert!(pool.misses() <= rayon::current_num_threads().max(1) as u64);
    assert!(pool.hits() > 0, "the second width reuses the first's");
}

#[test]
fn exec_stats_record_busy_time() {
    let stats = ExecStats::new();
    let opts = ExecOpts {
        stats: Some(&stats),
        ..ExecOpts::default()
    };
    mxm(&single_heavy_row(400), Algorithm::Hash, Phases::One, &opts);
    let busy = stats.busy_seconds();
    assert!(!busy.is_empty() && busy.iter().all(|&s| s >= 0.0));
    stats.reset();
    assert!(stats.busy_seconds().is_empty());
}
