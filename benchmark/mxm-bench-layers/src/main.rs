//! The traced run's layer table: direct calls into each repo layer's
//! public functions on the benchmark's own seeded inputs, every call
//! inside one of the benchmark's spans. Prints one
//! `name<TAB>value<TAB>unit<TAB>n` line per metric on stdout (notes go to
//! stderr) and writes the spans — the table's and a cycle-structured
//! replay of the named workload's operations — as chrome-trace JSON.
//!
//! Workspace items this binary links (a later API fold touches these):
//! `mspgemm_io::{read_mtx_bytes, write_msb_file, read_msb_file_auto,
//! to_adjacency}`; `mspgemm_sparse::{Csr, transpose, Overlay, DeltaOp,
//! semiring::PlusTimesF64}` with `Csr::{pattern, flops_with, view,
//! try_from_parts}`; `masked_spgemm::{masked_mxm_with_opts, Algorithm,
//! MaskMode, Phases, ExecOpts, ExecStats, WsPool,
//! baseline::{ss_saxpy_like, ss_dot_like}}`; `mspgemm_graph::{Scheme,
//! tricount::{prepare, prepare_with_perm, affected_rows,
//! count_prepared_rows_with, recount_rows_with}, ktruss::k_truss_with,
//! bc::betweenness_with}`; `mspgemm_harness::{csr_fingerprint,
//! busy_spread, with_threads}`; `mspgemm_serve::{Server, ServeConfig,
//! Client, json, server::handle_request}`.

use masked_spgemm::baseline::{ss_dot_like, ss_saxpy_like};
use masked_spgemm::{
    masked_mxm_with_opts, Algorithm, ExecOpts, ExecStats, MaskMode, Phases, WsPool,
};
use mspgemm_graph::{bc, ktruss, tricount, Scheme};
use mspgemm_harness::{busy_spread, csr_fingerprint, with_threads};
use mspgemm_io::{read_msb_file_auto, read_mtx_bytes, to_adjacency, write_msb_file};
use mspgemm_serve::server::handle_request;
use mspgemm_serve::{Client, ServeConfig, Server};
use mspgemm_sparse::semiring::PlusTimesF64;
use mspgemm_sparse::{transpose, Csr, DeltaOp, Overlay};
use mxm_bench::gen::{er_rows, Graph, SplitMix64};
use mxm_bench::spans::{chrome_trace, self_times, Tracer};
use mxm_bench::stats::{median, percentile};
use mxm_bench::workloads::{
    draw_update_batch, BC_BATCH, KTRUSS_K, SERVE_SCALE, SWEEP, SWEEP_SCALE, UPDATE_SEED_MIX,
    WORKLOADS,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Timed calls per metric, after one unrecorded warm-up call.
const REPS: usize = 5;
/// Calls behind the microsecond-scale metrics (JSON, tiny in-process
/// requests), where five samples would be timer noise.
const MICRO_REPS: usize = 500;
/// Dimension and degrees of the `sparsemask` regime: a mask far sparser
/// than its inputs, which the CLI (mask = pattern(A)) cannot express.
const ER_N: usize = 16384;
const ER_INPUT_DEGREE: usize = 16;
const ER_MASK_DEGREE: usize = 2;
/// Socket pings: as many as fit the window, within these counts.
const PING_WINDOW: Duration = Duration::from_secs(3);
const PING_MIN: usize = 20;
const PING_MAX: usize = 2000;
/// STREAM-style copy arrays: four times the last-level cache, at most
/// this many bytes each.
const COPY_CAP_BYTES: usize = 1 << 30;
/// Cycles of the workload replay.
const REPLAY_CYCLES: u32 = 3;

type Mxm = Csr<f64>;

/// The table under construction: spans and metric lines.
struct Table {
    tr: Tracer,
    root: u32,
    lines: Vec<(String, f64, &'static str, usize)>,
}

impl Table {
    /// Median seconds of `reps` span-wrapped calls after one warm-up;
    /// also hands back the last result.
    fn time<T>(&mut self, name: &str, reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
        let mut last = f();
        let mut secs = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (v, s) = self.tr.time(self.root, 0, name, &mut f);
            last = v;
            secs.push(s);
        }
        (median(&secs).expect("reps > 0"), last)
    }

    fn emit(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.lines.push((name.to_string(), value, unit, n));
    }

    /// Time and emit in one go, in the given unit (`s`, `ms`, `us`).
    fn timed<T>(
        &mut self,
        name: &str,
        unit: &'static str,
        reps: usize,
        f: impl FnMut() -> T,
    ) -> (f64, T) {
        let (secs, v) = self.time(name, reps, f);
        let scale = match unit {
            "s" => 1.0,
            "ms" => 1e3,
            "us" => 1e6,
            other => unreachable!("unit {other}"),
        };
        self.emit(name, secs * scale, unit, reps);
        (secs, v)
    }
}

/// One masked product `C = M (.) A*A` through the public entry.
fn product(
    mask: &Csr<()>,
    a: &Mxm,
    algo: Algorithm,
    mode: MaskMode,
    phases: Phases,
    opts: &ExecOpts<'_>,
) -> Mxm {
    masked_mxm_with_opts::<PlusTimesF64, ()>(mask, a, a, algo, mode, phases, opts)
        .expect("benchmark inputs are square and the scheme supports the mask mode")
}

fn csr_from_rows(n: usize, rows: &[Vec<u32>]) -> Mxm {
    let mut rowptr = Vec::with_capacity(n + 1);
    rowptr.push(0usize);
    let mut colidx = Vec::new();
    for r in rows {
        colidx.extend_from_slice(r);
        rowptr.push(colidx.len());
    }
    let values = vec![1.0f64; colidx.len()];
    Csr::try_from_parts(n, n, rowptr, colidx, values).expect("er_rows yields sorted, bounded rows")
}

fn parse_graph(g: &Graph) -> Mxm {
    read_mtx_bytes(g.to_mtx().as_bytes(), 0)
        .expect("the benchmark's own .mtx parses")
        .1
}

fn csr_bytes<T>(a: &Csr<T>) -> usize {
    std::mem::size_of_val(a.rowptr())
        + std::mem::size_of_val(a.colidx())
        + std::mem::size_of_val(a.values())
}

/// The 16 positions of one `update`: both directions of a batch drawn
/// exactly as the `serve-update` workload draws its first one.
fn update_batch(a: &Mxm, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SplitMix64::new(seed ^ UPDATE_SEED_MIX);
    draw_update_batch(&mut rng, |u, v| a.get(u as usize, v).is_some())
        .into_iter()
        .flat_map(|(u, v)| [(u, v), (v, u)])
        .collect()
}

fn upserts(positions: &[(u32, u32)]) -> Vec<DeltaOp<f64>> {
    positions
        .iter()
        .map(|&(row, col)| DeltaOp::Upsert { row, col, val: 1.0 })
        .collect()
}

/// Last-level cache size from sysfs, bytes; `None` when the kernel does
/// not expose it.
fn llc_bytes() -> Option<usize> {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, usize)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let (Some(level), Some(size), Some(kind)) = (read("level"), read("size"), read("type"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let level: u32 = level.trim().parse().ok()?;
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<usize>().ok()? << 10,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<usize>().ok()? << 20,
                None => size.parse().ok()?,
            },
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// STREAM-style copy bandwidth, GB/s (read + write bytes over seconds),
/// on arrays four times the LLC (capped), split across `threads`.
fn copy_bandwidth(t: &mut Table, threads: usize) -> (f64, bool) {
    let llc = llc_bytes();
    let want = llc.map_or(COPY_CAP_BYTES, |b| 4 * b);
    let bytes = want.min(COPY_CAP_BYTES);
    let capped = llc.is_none() || want > COPY_CAP_BYTES;
    eprintln!(
        "mem.copy: LLC {} bytes, arrays {} bytes each{}",
        llc.map_or("unknown".to_string(), |b| b.to_string()),
        bytes,
        if capped {
            " (capped below 4x LLC: copy may be cache-assisted)"
        } else {
            ""
        }
    );
    let words = bytes / 8;
    let src = vec![1.0f64; words];
    let mut dst = vec![0.0f64; words];
    let chunk = words.div_ceil(threads.max(1));
    let (secs, ()) = t.time("mem.copy", REPS, || {
        std::thread::scope(|s| {
            for (d, sr) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                s.spawn(move || d.copy_from_slice(sr));
            }
        });
    });
    std::hint::black_box(&dst);
    let gbps = 2.0 * bytes as f64 / secs / 1e9;
    t.emit("mem.copy_gb_per_s", gbps, "GB/s", REPS);
    (gbps, capped)
}

/// Time-boxed pings through the repo's own `Client`, microseconds each.
fn ping_us(addr: &str) -> Result<Vec<f64>, String> {
    let mut client = Client::connect(addr)?;
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < PING_MIN || (t0.elapsed() < PING_WINDOW && out.len() < PING_MAX) {
        let s = Instant::now();
        let resp = client.request_line(r#"{"op":"ping"}"#)?;
        out.push(s.elapsed().as_secs_f64() * 1e6);
        if resp.get("pong").is_none() {
            return Err(format!("ping answered {}", resp.to_line()));
        }
    }
    Ok(out)
}

/// In-process request through `server::handle_request`; the response
/// must be a success.
fn inproc(server: &Server, line: &str) -> mspgemm_serve::Json {
    let (resp, _) = handle_request(server.state(), line);
    assert_eq!(
        resp.get("ok").and_then(mspgemm_serve::Json::as_bool),
        Some(true),
        "in-process request failed: {line} -> {}",
        resp.to_line()
    );
    resp
}

struct Args {
    seed: u64,
    karate: PathBuf,
    work: PathBuf,
    workload: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        karate: PathBuf::new(),
        work: PathBuf::new(),
        workload: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--karate" => args.karate = value()?.into(),
            "--work" => args.work = value()?.into(),
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload '{w}'"));
                }
                args.workload = Some(w);
            }
            other => {
                return Err(format!(
                    "unknown argument '{other}'\nusage: mxm-bench-layers --karate FILE --work DIR [--seed N] [--workload NAME]"
                ))
            }
        }
    }
    if args.karate.as_os_str().is_empty() || args.work.as_os_str().is_empty() {
        return Err("--karate and --work are required".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let threads = rayon::current_num_threads();
    let dir = args.work.join("layers");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut tr = Tracer::new(true, Instant::now(), 1);
    let root = tr.reserve();
    let table_start = Instant::now();
    let mut t = Table {
        tr,
        root,
        lines: Vec::new(),
    };
    // One pool and one busy-time recorder across the table, as one
    // server process holds them across requests.
    let pool = WsPool::new();
    let stats = ExecStats::new();
    let opts = ExecOpts {
        ws_pool: Some(&pool),
        stats: Some(&stats),
        ..ExecOpts::default()
    };
    let auto = Scheme::Ours(Algorithm::Auto, Phases::One);

    // ------------------------------------------------------- formats / io
    let graph = Graph::rmat(SERVE_SCALE, args.seed);
    let mtx = graph.to_mtx().into_bytes();
    let (parse_s, (_, a)) = t.timed("io.parse_mtx_s", "s", REPS, || {
        read_mtx_bytes(&mtx, 0).expect("the benchmark's own .mtx parses")
    });
    t.emit(
        "io.parse_mtx_mb_per_s",
        mtx.len() as f64 / 1e6 / parse_s,
        "MB/s",
        REPS,
    );
    t.emit("io.mtx_bytes", mtx.len() as f64, "bytes", 1);
    let msb = dir.join("graph.msb");
    t.timed("io.write_msb_s", "s", REPS, || {
        write_msb_file(&msb, &a).expect("work dir is writable")
    });
    let msb_bytes = std::fs::metadata(&msb).map_err(|e| e.to_string())?.len();
    t.emit("io.msb_bytes", msb_bytes as f64, "bytes", 1);
    t.timed("io.read_msb_heap_s", "s", REPS, || {
        read_msb_file_auto(&msb, false).expect("just written")
    });
    t.timed("io.read_msb_mmap_s", "s", REPS, || {
        read_msb_file_auto(&msb, true).expect("just written")
    });
    let (to_adj_s, (adj, _)) = t.timed("io.to_adjacency_s", "s", REPS, || to_adjacency(&a));

    // ------------------------------------------------------------- sparse
    let (transpose_s, _) = t.timed("sparse.transpose_s", "s", REPS, || transpose(&a));
    let (pattern_s, mask) = t.timed("sparse.pattern_s", "s", REPS, || a.pattern());
    let (flops_s, mults) = t.timed("sparse.flops_with_s", "s", REPS, || a.flops_with(&a));
    let batch = update_batch(&a, args.seed);
    let ops = upserts(&batch);
    let n = a.nrows();
    let (apply_s, overlay) = t.timed("sparse.overlay_apply_us", "us", MICRO_REPS, || {
        let mut o = Overlay::<f64>::new(n, n);
        o.apply_batch(&ops).expect("positions are in bounds");
        o
    });
    let (merged_s, a_updated) = t.timed("sparse.overlay_merged_s", "s", REPS, || {
        overlay.merged(a.view())
    });

    // --------------------------------------------------------------- core
    use Algorithm::{Auto, Hash, Heap, Inner, Mca, Msa};
    use Phases::{One, Two};
    let selfmask = [
        ("msa_1p", Msa, One),
        ("msa_2p", Msa, Two),
        ("hash_1p", Hash, One),
        ("hash_2p", Hash, Two),
        ("mca_1p", Mca, One),
        ("heap_1p", Heap, One),
        ("inner_1p", Inner, One),
        ("auto", Auto, One),
    ];
    let mut self_s = Vec::new();
    let mut c_self = None;
    for (label, algo, phases) in selfmask {
        let (s, c) = t.timed(&format!("core.{label}.selfmask_s"), "s", REPS, || {
            product(&mask, &a, algo, MaskMode::Mask, phases, &opts)
        });
        self_s.push((label, s));
        c_self = Some(c);
    }
    let c_self = c_self.expect("schemes ran");
    let spread = busy_spread(&stats.busy_seconds()).map_or(1.0, |s| s.ratio());
    let time_of =
        |label: &str, v: &[(&str, f64)]| v.iter().find(|(l, _)| *l == label).expect("listed").1;
    let best_explicit = |v: &[(&str, f64)]| {
        v.iter()
            .filter(|(l, _)| *l != "auto")
            .map(|&(_, s)| s)
            .fold(f64::MAX, f64::min)
    };
    let flops_self = 2 * mults;
    t.emit("core.flops.selfmask", flops_self as f64, "flop", 1);
    t.emit("core.out_nnz.selfmask", c_self.nnz() as f64, "count", 1);
    let best_self = self_s.iter().map(|&(_, s)| s).fold(f64::MAX, f64::min);
    t.emit(
        "core.gflops.selfmask",
        flops_self as f64 / best_self / 1e9,
        "GFLOP/s",
        1,
    );
    t.emit(
        "core.auto_regret.selfmask",
        time_of("auto", &self_s) / best_explicit(&self_s),
        "ratio",
        1,
    );
    t.emit("core.busy_max_over_mean", spread, "ratio", 1);

    t.timed("core.ss_saxpy.selfmask_s", "s", REPS, || {
        ss_saxpy_like::<PlusTimesF64, ()>(&mask, &a, &a, MaskMode::Mask)
    });
    t.timed("core.ss_dot.selfmask_s", "s", REPS, || {
        ss_dot_like::<PlusTimesF64, ()>(&mask, &a, &a, MaskMode::Mask)
    });
    let (one_thread_s, _) = t.timed("core.msa_1p.selfmask_1t_s", "s", REPS, || {
        with_threads(1, || product(&mask, &a, Msa, MaskMode::Mask, One, &opts))
    });
    t.emit(
        "core.par_eff",
        one_thread_s / (threads as f64 * time_of("msa_1p", &self_s)),
        "ratio",
        1,
    );
    eprintln!("core: {threads} threads in the ambient pool");

    let er_a = csr_from_rows(ER_N, &er_rows(ER_N, ER_INPUT_DEGREE, args.seed));
    let er_mask = csr_from_rows(
        ER_N,
        &er_rows(ER_N, ER_MASK_DEGREE, args.seed.wrapping_add(1)),
    )
    .pattern();
    let mut sparse_s = Vec::new();
    for (label, algo) in [
        ("msa_1p", Msa),
        ("hash_1p", Hash),
        ("mca_1p", Mca),
        ("inner_1p", Inner),
        ("auto", Auto),
    ] {
        let (s, _) = t.timed(&format!("core.{label}.sparsemask_s"), "s", REPS, || {
            product(&er_mask, &er_a, algo, MaskMode::Mask, One, &opts)
        });
        sparse_s.push((label, s));
    }
    t.emit(
        "core.flops.sparsemask",
        2.0 * er_a.flops_with(&er_a) as f64,
        "flop",
        1,
    );
    t.emit(
        "core.auto_regret.sparsemask",
        time_of("auto", &sparse_s) / best_explicit(&sparse_s),
        "ratio",
        1,
    );

    let a_small = parse_graph(&Graph::rmat(SWEEP_SCALE, args.seed));
    let mask_small = a_small.pattern();
    let mut c_compl = None;
    for (label, algo, phases) in [
        ("msa_1p", Msa, One),
        ("hash_1p", Hash, One),
        ("hash_2p", Hash, Two),
    ] {
        let (_, c) = t.timed(&format!("core.{label}.compl_s"), "s", REPS, || {
            product(
                &mask_small,
                &a_small,
                algo,
                MaskMode::Complement,
                phases,
                &opts,
            )
        });
        c_compl = Some(c);
    }
    t.emit(
        "core.out_nnz.compl",
        c_compl.expect("schemes ran").nnz() as f64,
        "count",
        1,
    );
    let takes = pool.hits() + pool.misses();
    t.emit(
        "core.wspool_hit_rate",
        pool.hits() as f64 / takes.max(1) as f64,
        "ratio",
        takes as usize,
    );

    let (copy_gbps, capped) = copy_bandwidth(&mut t, threads);
    // Computed, not counted: A once, one B row per multiply (12 bytes an
    // entry: index + value), the mask's pattern, C once.
    let moved = csr_bytes(&a) + 12 * mults as usize + csr_bytes(&mask) + csr_bytes(&c_self);
    for label in ["msa_1p", "hash_1p"] {
        let share = moved as f64 / time_of(label, &self_s) / 1e9 / copy_gbps;
        t.emit(
            &format!("core.{label}.selfmask_bw_share"),
            share,
            "ratio",
            1,
        );
    }
    eprintln!(
        "core.*.selfmask_bw_share: computed bytes ({moved}) / time / copy bandwidth{}",
        if capped {
            "; copy arrays were capped, so the denominator may be cache-assisted"
        } else {
            ""
        }
    );

    // -------------------------------------------------------------- graph
    let (_, tc_ops) = t.timed("graph.tc_prepare_s", "s", REPS, || tricount::prepare(&adj));
    let (tc_count_s, (_, tc_mxm_s)) = t.timed("graph.tc_count_s", "s", REPS, || {
        tricount::count_prepared_rows_with(&tc_ops, auto, &opts)
    });
    t.emit("graph.tc_mxm_share", tc_mxm_s / tc_count_s, "ratio", 1);
    let (adj_updated, _) = to_adjacency(&a_updated);
    let (prep_perm_s, tc_ops_updated) = t.timed("graph.tc_prepare_with_perm_s", "s", REPS, || {
        tricount::prepare_with_perm(&adj_updated, tc_ops.perm.clone())
    });
    let rows = tricount::affected_rows(&tc_ops_updated, &batch);
    t.emit("graph.tc_affected_rows", rows.len() as f64, "count", 1);
    let (recount_s, _) = t.timed("graph.tc_recount_rows_s", "s", REPS, || {
        tricount::recount_rows_with(&tc_ops_updated, &rows, auto, &opts)
    });
    let (_, kt) = t.timed("graph.ktruss_s", "s", REPS, || {
        ktruss::k_truss_with(&adj, KTRUSS_K, auto, &opts)
    });
    t.emit("graph.ktruss_iters", kt.iterations as f64, "count", 1);
    let sources: Vec<usize> = (0..BC_BATCH).collect();
    let (_, bc_out) = t.timed("graph.bc_s", "s", REPS, || {
        bc::betweenness_with(&adj, &sources, auto, &opts)
    });
    t.emit("graph.bc_depth", bc_out.depth as f64, "count", 1);

    // ------------------------------------------------------------ harness
    let (fp_s, _) = t.time("harness.fingerprint", REPS, || csr_fingerprint(&c_self));
    t.emit(
        "harness.fingerprint_mb_per_s",
        csr_bytes(&c_self) as f64 / 1e6 / fp_s,
        "MB/s",
        REPS,
    );

    // -------------------------------------------------------------- serve
    let karate = dir.join("karate.mtx");
    std::fs::copy(&args.karate, &karate).map_err(|e| format!("{}: {e}", args.karate.display()))?;
    let graph_mtx = dir.join("graph.mtx");
    std::fs::write(&graph_mtx, &mtx).map_err(|e| format!("{}: {e}", graph_mtx.display()))?;
    let tcp = Server::start("127.0.0.1:0", ServeConfig::default())?;
    tcp.preload(&[
        karate.display().to_string(),
        graph_mtx.display().to_string(),
    ])?;

    let mxm_tiny = r#"{"op":"mxm","dataset":"karate"}"#;
    let tc_tiny = r#"{"op":"app","dataset":"karate","app":"tc"}"#;
    let ping = r#"{"op":"ping"}"#;
    let mxm_resp = inproc(&tcp, mxm_tiny);
    let (parse_us, _) = t.timed("serve.json_parse_us", "us", MICRO_REPS, || {
        mspgemm_serve::json::parse(mxm_tiny).is_ok()
    });
    let (encode_us, _) = t.timed("serve.json_encode_us", "us", MICRO_REPS, || {
        mxm_resp.to_line()
    });
    let (ping_inproc_s, pong) = t.timed("serve.inproc.ping_us", "us", MICRO_REPS, || {
        inproc(&tcp, ping)
    });
    t.timed("serve.inproc.mxm_tiny_us", "us", MICRO_REPS, || {
        inproc(&tcp, mxm_tiny)
    });
    t.timed("serve.inproc.tc_tiny_us", "us", MICRO_REPS, || {
        inproc(&tcp, tc_tiny)
    });
    let (mxm_inproc_s, _) = t.timed("serve.inproc.mxm_ms", "ms", REPS, || {
        inproc(&tcp, r#"{"op":"mxm","dataset":"graph"}"#)
    });
    let (tc_inproc_s, _) = t.timed("serve.inproc.tc_ms", "ms", REPS, || {
        inproc(&tcp, r#"{"op":"app","dataset":"graph","app":"tc"}"#)
    });
    // Alternate inserting and deleting the same batch, so every call
    // re-derives a graph of the same size.
    let list: Vec<String> = batch.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
    let insert = format!(
        r#"{{"op":"update","dataset":"graph","insert":[{}]}}"#,
        list.join(",")
    );
    let delete = format!(
        r#"{{"op":"update","dataset":"graph","delete":[{}]}}"#,
        list.join(",")
    );
    let mut flip = false;
    let (update_inproc_s, _) = t.timed("serve.inproc.update_ms", "ms", REPS + 1, || {
        flip = !flip;
        inproc(&tcp, if flip { &insert } else { &delete })
    });

    let tcp_pings = ping_us(tcp.addr())?;
    t.emit(
        "serve.tcp.ping_us",
        median(&tcp_pings).expect("pinged"),
        "us",
        tcp_pings.len(),
    );
    t.emit(
        "serve.tcp.ping_p99_us",
        percentile(&tcp_pings, 0.99).expect("pinged"),
        "us",
        tcp_pings.len(),
    );
    drop(tcp);
    let sock = format!("unix:{}", dir.join("mxm.sock").display());
    let unix = Server::start(&sock, ServeConfig::default())?;
    let unix_pings = ping_us(unix.addr())?;
    t.emit(
        "serve.unix.ping_us",
        median(&unix_pings).expect("pinged"),
        "us",
        unix_pings.len(),
    );
    drop(unix);

    // What each in-process request costs beyond the direct layer calls
    // it needs. `ping` needs its own (tiny) parse and encode; `mxm` one
    // default product, a fingerprint and the JSON; `tc` a full count;
    // `update` the overlay and every derived operand.
    let (ping_parse_s, _) = t.time("serve.json_parse.ping", MICRO_REPS, || {
        mspgemm_serve::json::parse(ping).is_ok()
    });
    let (ping_encode_s, _) = t.time("serve.json_encode.ping", MICRO_REPS, || pong.to_line());
    let json_s = parse_us + encode_us;
    let needs = [
        ("ping", ping_inproc_s, ping_parse_s + ping_encode_s),
        (
            "mxm",
            mxm_inproc_s,
            time_of("auto", &self_s) + fp_s + json_s,
        ),
        ("tc", tc_inproc_s, tc_count_s + json_s),
        (
            "update",
            update_inproc_s,
            apply_s + merged_s + pattern_s + transpose_s + to_adj_s + flops_s + json_s,
        ),
    ];
    for (op, inproc_s, layers_s) in needs {
        t.emit(
            &format!("serve.unattributed.{op}_ms"),
            (inproc_s - layers_s) * 1e3,
            "ms",
            1,
        );
    }
    t.tr.record(t.root, 0, 0, "table", table_start, Instant::now());

    // ------------------------------------------------------------- replay
    // The named workload's operations as direct layer calls, one parent
    // span per operation, one cycle id per cycle.
    let replay: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let karate_a = read_mtx_bytes(&std::fs::read(&karate).map_err(|e| e.to_string())?, 0)
        .map_err(|e| e.to_string())?
        .1;
    let karate_mask = karate_a.pattern();
    let karate_tc = tricount::prepare(&to_adjacency(&karate_a).0);
    let small_msb = dir.join("small.msb");
    write_msb_file(&small_msb, &a_small).map_err(|e| e.to_string())?;
    let mxm =
        |m: &Csr<()>, x: &Mxm, algo, phases| product(m, x, algo, MaskMode::Mask, phases, &opts);
    let tr = &mut t.tr;
    for workload in replay {
        for cycle in 1..=REPLAY_CYCLES {
            let cyc = tr.reserve();
            let c0 = Instant::now();
            // One operation: a parent span whose children are the
            // layer calls listed in `body`.
            let mut op = |name: &str, body: &mut dyn FnMut(&mut Tracer, u32)| {
                let id = tr.reserve();
                let s = Instant::now();
                body(tr, id);
                tr.record(id, cyc, cycle, name, s, Instant::now());
            };
            match workload {
                "run-sweep" => {
                    for (class, algo, phases) in SWEEP {
                        let algo: Algorithm = algo.parse()?;
                        let phases: Phases = phases.parse()?;
                        op(&format!("run:{class}"), &mut |tr, id| {
                            let (x, _) = tr.time(id, cycle, "io.read_msb_mmap", || {
                                read_msb_file_auto(&small_msb, true)
                                    .expect("just written")
                                    .0
                            });
                            let (m, _) = tr.time(id, cycle, "sparse.pattern", || x.pattern());
                            tr.time(id, cycle, "sparse.flops_with", || x.flops_with(&x));
                            // `mxm run --reps 1` executes the kernel
                            // twice: `time_best` warms up first.
                            tr.time(id, cycle, "core.kernel(warm-up)", || {
                                mxm(&m, &x, algo, phases)
                            });
                            let (c, _) =
                                tr.time(id, cycle, "core.kernel", || mxm(&m, &x, algo, phases));
                            tr.time(id, cycle, "harness.fingerprint", || csr_fingerprint(&c));
                        });
                    }
                }
                "serve-kernel" => {
                    op("mxm", &mut |tr, id| {
                        let (c, _) = tr.time(id, cycle, "core.auto", || mxm(&mask, &a, Auto, One));
                        tr.time(id, cycle, "harness.fingerprint", || csr_fingerprint(&c));
                        tr.time(id, cycle, "serve.json_encode", || mxm_resp.to_line());
                    });
                    op("tc", &mut |tr, id| {
                        tr.time(id, cycle, "graph.tc_count", || {
                            tricount::count_prepared_rows_with(&tc_ops, auto, &opts)
                        });
                    });
                    op("ktruss", &mut |tr, id| {
                        tr.time(id, cycle, "graph.ktruss", || {
                            ktruss::k_truss_with(&adj, KTRUSS_K, auto, &opts)
                        });
                    });
                    op("bc", &mut |tr, id| {
                        tr.time(id, cycle, "graph.bc", || {
                            bc::betweenness_with(&adj, &sources, auto, &opts)
                        });
                    });
                }
                "serve-light" => {
                    op("ping", &mut |tr, id| {
                        tr.time(id, cycle, "serve.json_parse", || {
                            mspgemm_serve::json::parse(ping).is_ok()
                        });
                        tr.time(id, cycle, "serve.json_encode", || pong.to_line());
                    });
                    op("mxm", &mut |tr, id| {
                        tr.time(id, cycle, "serve.json_parse", || {
                            mspgemm_serve::json::parse(mxm_tiny).is_ok()
                        });
                        let (c, _) = tr.time(id, cycle, "core.auto", || {
                            mxm(&karate_mask, &karate_a, Auto, One)
                        });
                        tr.time(id, cycle, "harness.fingerprint", || csr_fingerprint(&c));
                        tr.time(id, cycle, "serve.json_encode", || mxm_resp.to_line());
                    });
                    op("tc", &mut |tr, id| {
                        tr.time(id, cycle, "serve.json_parse", || {
                            mspgemm_serve::json::parse(tc_tiny).is_ok()
                        });
                        tr.time(id, cycle, "graph.tc_count", || {
                            tricount::count_prepared_rows_with(&karate_tc, auto, &opts)
                        });
                    });
                }
                "serve-update" => {
                    op("update", &mut |tr, id| {
                        let (o, _) = tr.time(id, cycle, "sparse.overlay_apply", || {
                            let mut o = Overlay::<f64>::new(n, n);
                            o.apply_batch(&ops).expect("positions are in bounds");
                            o
                        });
                        let (x, _) =
                            tr.time(id, cycle, "sparse.overlay_merged", || o.merged(a.view()));
                        tr.time(id, cycle, "sparse.pattern", || x.pattern());
                        tr.time(id, cycle, "sparse.transpose", || transpose(&x));
                        tr.time(id, cycle, "io.to_adjacency", || to_adjacency(&x));
                        tr.time(id, cycle, "sparse.flops_with", || x.flops_with(&x));
                    });
                    op("tc", &mut |tr, id| {
                        let (p, _) = tr.time(id, cycle, "graph.tc_prepare_with_perm", || {
                            tricount::prepare_with_perm(&adj_updated, tc_ops.perm.clone())
                        });
                        let (r, _) = tr.time(id, cycle, "graph.tc_affected_rows", || {
                            tricount::affected_rows(&p, &batch)
                        });
                        tr.time(id, cycle, "graph.tc_recount_rows", || {
                            tricount::recount_rows_with(&p, &r, auto, &opts)
                        });
                    });
                    op("mxm", &mut |tr, id| {
                        let (c, _) =
                            tr.time(id, cycle, "core.auto", || mxm(&mask, &a_updated, Auto, One));
                        tr.time(id, cycle, "harness.fingerprint", || csr_fingerprint(&c));
                    });
                }
                other => unreachable!("workload {other} was validated"),
            }
            tr.record(
                cyc,
                0,
                cycle,
                &format!("cycle:{workload}"),
                c0,
                Instant::now(),
            );
        }
    }
    // Incremental-TC pieces, so the update workload's `tc` can be read
    // off the table as well as off the replay.
    eprintln!(
        "graph: incremental tc = prepare_with_perm {:.3} ms + recount {:.3} ms over {} rows",
        prep_perm_s * 1e3,
        recount_s * 1e3,
        rows.len()
    );

    let spans = t.tr.into_spans();
    let trace = args.work.join(match &args.workload {
        Some(w) => format!("trace-layers-{w}.json"),
        None => "trace-layers.json".to_string(),
    });
    std::fs::write(&trace, chrome_trace(&spans))
        .map_err(|e| format!("{}: {e}", trace.display()))?;
    eprintln!("layers: {} spans -> {}", spans.len(), trace.display());
    let replayed: Vec<_> = spans.iter().filter(|s| s.cycle > 0).cloned().collect();
    eprintln!("replay self time by span (all cycles):");
    for (name, us) in self_times(&replayed) {
        eprintln!("  {name:<28} {:>12.3} ms", us / 1e3);
    }
    for (name, value, unit, n) in &t.lines {
        println!("{name}\t{value}\t{unit}\t{n}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mxm-bench-layers: {msg}");
            ExitCode::from(2)
        }
    }
}
