//! The three `mxm` subcommands: `run`, `suite`, `convert`.
//!
//! Every command is a plain function over [`Parsed`] arguments returning
//! `Result<(), String>`, so the test suite drives them without spawning
//! processes; `main` only maps errors to exit codes.

use crate::args::Parsed;
use masked_spgemm::{Algorithm, ExecOpts, ExecStats, MaskMode, Phases, Plan, WsPool};
use mspgemm_gen::SuiteGraph;
use mspgemm_graph::scheme::Scheme;
use mspgemm_graph::{tricount, App};
use mspgemm_harness::report::{DatasetInfo, ExecSummary, SuiteReport, Table};
use mspgemm_harness::runner::{bc_runs, ktruss_runs, tc_runs};
use mspgemm_harness::{
    best_of, busy_spread, check_threads, default_taus, entries_per_s, gflops, mb_per_s, on_threads,
    performance_profile,
};
use mspgemm_io::{
    load_matrix, save_matrix, save_matrix_pattern, CachePolicy, DatasetSource, Format,
    IngestReport, LoadOpts,
};
use mspgemm_serve::dataset::Square;
use std::io::Write;

/// Parse a scheme label (`msa-1p`, `Hash-2P`, `ss:saxpy`, ...) as the
/// suite's `--schemes` filter spells it — [`Scheme`]'s `FromStr`, which
/// the serve protocol shares.
pub fn parse_scheme(s: &str) -> Result<Scheme, String> {
    s.parse()
}

fn cache_policy(p: &Parsed) -> CachePolicy {
    if p.switch("no-cache") {
        CachePolicy::Off
    } else {
        CachePolicy::ReadWrite
    }
}

/// The full load options one command invocation pins: cache policy,
/// the `--mmap` zero-copy preference, and the `--pattern` values-less
/// loading mode.
pub(crate) fn load_opts(p: &Parsed) -> LoadOpts {
    LoadOpts {
        policy: cache_policy(p),
        mmap: p.switch("mmap"),
        pattern: p.switch("pattern"),
    }
}

/// The ingest-throughput report line: what moved, how fast, whether the
/// text parse or the binary sidecar served it, how the sections are
/// backed (heap copies vs zero-copy mmap), and whether values were
/// dropped in favour of the shared unit arena (pattern mode).
fn ingest_line(r: &IngestReport) -> String {
    format!(
        "ingest   : {} bytes in {:.6} s ({:.1} MB/s, {:.0} entries/s, {:?}, backend {}{})",
        r.bytes,
        r.seconds,
        mb_per_s(r.bytes, r.seconds),
        entries_per_s(r.entries, r.seconds),
        r.outcome,
        r.backend.name(),
        if r.pattern { ", pattern" } else { "" }
    )
}

/// What `auto` resolved to and the counted work it compared, as the two
/// inserts of the `scheme   :` line (both empty for a plan `auto` did not
/// choose). Of push and pull the side that lost stops counting once it
/// cannot win — a lower bound; a self-product that ran oriented names that
/// count in pull's place.
fn auto_note(plan: Plan) -> (String, String) {
    let Some(work) = plan.work() else {
        return Default::default();
    };
    let (push, counted) = match (plan, work.oriented) {
        (Plan::Oriented(_), Some(probes)) => ("", format!("oriented {probes} probes")),
        (Plan::Kernel(Algorithm::Inner, _), _) => ("≥ ", format!("pull {} probes", work.pull)),
        _ => ("", format!("pull ≥ {} probes", work.pull)),
    };
    (
        format!("→{}", plan.name()),
        format!(" (push {push}{} products, {counted})", work.push),
    )
}

/// The kernel SIMD disclosure line of `run` (the serve `ping` and `stats`
/// carry the same field): the hash-probe path this binary was compiled
/// with.
fn simd_line() -> String {
    format!(
        "simd     : {} (hash-probe path, fixed at compile time)",
        masked_spgemm::simd::COMPILED_PATH
    )
}

/// `mxm run`: one masked product `C = M ⊙ (A·A)` (or `¬M ⊙ (A·A)`) where
/// `M` is the pattern of `A` — the paper's single-input experiment shape.
///
/// The product runs exactly `--reps` times, with no warm-up, and the best
/// run is reported ([`best_of`]), as the server's `mxm` verb does; the
/// `products :` and `probes :` counts sum over those runs.
///
/// The product is the server's `mxm` verb's: the loaded matrix becomes a
/// [`Square`] — its `Bᵀ` built once, untimed, unless `A` equals its
/// transpose by bits, and its product counted on a simple graph — so both
/// answer the same plan and bits. Symmetry is decided by content,
/// whatever the file's banner says.
pub fn cmd_run(p: &Parsed, out: &mut impl Write) -> Result<(), String> {
    let path = p
        .positional
        .first()
        .ok_or("usage: mxm run [--algo A] [--mask normal|complement] [--phases 1|2] [--threads N] [--reps R] [--no-cache] [--mmap] [--pattern] [--trace out.json] <matrix.mtx|.msb>")?;
    let algo: Algorithm = p.flag("algo").unwrap_or("auto").parse()?;
    let mode: MaskMode = p.flag("mask").unwrap_or("normal").parse()?;
    let phases: Phases = p.flag("phases").unwrap_or("1").parse()?;
    let threads = check_threads(p.flag_parse("threads", 0usize)?)?;
    let reps = p.flag_parse("reps", 3usize)?.max(1);

    // --trace flips the process-global tracer on before the load, so the
    // ingest span is captured alongside the kernel phases. Stale events
    // from an earlier traced run in the same process are dropped first,
    // and the guard turns tracing back off even on an error return.
    let trace_path = p.flag("trace");
    let _trace_guard = trace_path.map(|_| {
        let tracer = mspgemm_obs::trace::global();
        tracer.drain();
        tracer.set_enabled(true);
        TracerOff
    });

    let (a, ingest) = load_matrix(path, &load_opts(p)).map_err(|e| e.to_string())?;

    // Warm accumulator pool + busy-time recorder: steady-state reps reuse
    // scratch, and the recorder feeds the load-balance report line.
    let pool = WsPool::new();
    let stats = ExecStats::new();
    let opts = ExecOpts {
        ws_pool: Some(&pool),
        stats: Some(&stats),
        deadline: None,
    };
    // The operands are load-side work outside the timed calls.
    let work = || -> Result<_, String> {
        let square = Square::derive(a).map_err(|e| format!("{path}: {e}"))?;
        let product = square.product(mode, phases);
        let run = best_of(reps, || square.mxm(&product, algo, &opts));
        Ok((run.map_err(|e| e.to_string())?, square))
    };
    let ((secs, (c, plan)), square) = on_threads(threads, work)?;
    let a = square.matrix();
    writeln!(out, "matrix   : {path} ({:?})", ingest.outcome).map_err(|e| e.to_string())?;
    let (rows, cols, nnz) = (a.nrows(), a.ncols(), a.nnz());
    writeln!(out, "shape    : {rows}x{cols}, nnz {nnz}").map_err(|e| e.to_string())?;
    writeln!(out, "{}", ingest_line(&ingest)).map_err(|e| e.to_string())?;

    let (resolved, counted) = auto_note(plan);
    writeln!(
        out,
        "scheme   : {}{resolved} / {:?} / {:?}{}{counted}",
        algo.name(),
        mode,
        phases,
        if threads > 0 {
            format!(" / {threads} threads")
        } else {
            String::new()
        }
    )
    .map_err(|e| e.to_string())?;
    match busy_spread(&stats.busy_seconds()) {
        Some(sp) => writeln!(
            out,
            "balance  : busy max/mean {:.2} over {} threads, pool hits {}/{} takes",
            sp.ratio(),
            sp.threads,
            pool.hits(),
            pool.hits() + pool.misses(),
        ),
        // Only a matrix with no rows times nothing.
        None => writeln!(out, "balance  : no row drives timed"),
    }
    .map_err(|e| e.to_string())?;
    // The paper's wasted-work figure, from the MSA row entry's own counts
    // (other kernels record nothing): how much of what the push kernel
    // formed the mask threw away.
    let products = stats.products();
    if products.formed > 0 {
        writeln!(
            out,
            "products : {:.1}% wasted ({} formed, {} admitted by the mask; all runs)",
            100.0 * products.wasted_ratio(),
            products.formed,
            products.admitted,
        )
        .map_err(|e| e.to_string())?;
    }
    // The pull kernel's counterpart: how many of its probes of the
    // scattered `A` row found an entry (what picks its probe loop).
    let probes = stats.probes();
    if probes.probes > 0 {
        writeln!(
            out,
            "probes   : {:.1}% hit ({} probes, {} hits; all runs)",
            100.0 * probes.hit_ratio(),
            probes.probes,
            probes.hits,
        )
        .map_err(|e| e.to_string())?;
    }
    writeln!(out, "{}", simd_line()).map_err(|e| e.to_string())?;
    let fingerprint = {
        let _span = mspgemm_obs::span("fingerprint");
        mspgemm_harness::csr_fingerprint(&c)
    };
    writeln!(
        out,
        "output   : nnz {}, fingerprint {fingerprint:016x}",
        c.nnz(),
    )
    .map_err(|e| e.to_string())?;
    writeln!(out, "time     : {:.6} s (best of {reps})", secs).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "gflops   : {:.3} (unmasked-product convention)",
        gflops(square.flops(), secs)
    )
    .map_err(|e| e.to_string())?;
    if let Some(path) = trace_path {
        write_trace_report(path, out)?;
    }
    Ok(())
}

/// Drop guard: disables the global tracer when a traced `cmd_run` exits,
/// successfully or not, so spans never leak into untraced work.
struct TracerOff;

impl Drop for TracerOff {
    fn drop(&mut self) {
        mspgemm_obs::trace::global().set_enabled(false);
    }
}

/// Flush the global tracer to a chrome://tracing JSON file and append
/// the per-phase breakdown table to the run report.
fn write_trace_report(path: &str, out: &mut impl Write) -> Result<(), String> {
    let tracer = mspgemm_obs::trace::global();
    tracer.set_enabled(false);
    let events = tracer.drain();
    std::fs::write(path, mspgemm_obs::trace::chrome_trace_json(&events))
        .map_err(|e| format!("writing trace {path}: {e}"))?;
    let mut table = Table::new(&["phase", "spans", "total_ms", "max_ms"]);
    for ph in mspgemm_obs::trace::phase_totals(&events) {
        table.row(&[
            ph.name.to_string(),
            ph.count.to_string(),
            format!("{:.3}", ph.total_us as f64 / 1e3),
            format!("{:.3}", ph.max_us as f64 / 1e3),
        ]);
    }
    writeln!(out, "\nphase breakdown (all reps):\n{}", table.to_text())
        .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "trace    : {path} ({} spans, open via chrome://tracing or ui.perfetto.dev)",
        events.len()
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

fn scheme_list(p: &Parsed, app: App) -> Result<Vec<Scheme>, String> {
    if let Some(filter) = p.flag("schemes") {
        return filter.split(',').map(|s| parse_scheme(s.trim())).collect();
    }
    let mut schemes = if app.needs_complement() {
        Scheme::all_ours_complement()
    } else {
        Scheme::all_ours()
    };
    if !p.switch("no-baselines") {
        schemes.push(Scheme::SsSaxpy);
        schemes.push(Scheme::SsDot);
    }
    Ok(schemes)
}

/// `mxm suite`: sweep an application over datasets × schemes, print the
/// per-case table and the Dolan-Moré profile, optionally write JSON.
pub fn cmd_suite(p: &Parsed, out: &mut impl Write) -> Result<(), String> {
    let app: App = p.flag("app").unwrap_or("tc").parse()?;
    let source = DatasetSource::parse(p.flag("source").unwrap_or("synthetic"));
    let reps = p.flag_parse("reps", 1usize)?.max(1);
    let threads = check_threads(p.flag_parse("threads", 0usize)?)?;
    let k = p.flag_parse("k", 4usize)?;
    let batch = p.flag_parse("batch", 16usize)?;
    let tau_max = p.flag_parse("tau-max", 2.4f64)?;

    let graphs = source.load(&load_opts(p)).map_err(|e| e.to_string())?;
    let schemes = scheme_list(p, app)?;
    writeln!(
        out,
        "== mxm suite: app={} datasets={} schemes={} reps={reps} ==",
        app.name(),
        graphs.len(),
        schemes.len(),
    )
    .map_err(|e| e.to_string())?;

    // One pool + recorder for the whole sweep: workspaces survive across
    // schemes, datasets and repetitions.
    let pool = WsPool::new();
    let stats = ExecStats::new();
    let opts = ExecOpts {
        ws_pool: Some(&pool),
        stats: Some(&stats),
        deadline: None,
    };
    let sweep = || match app {
        App::Tc => tc_runs(&graphs, &schemes, reps, &opts),
        App::Ktruss => ktruss_runs(&graphs, &schemes, k, reps, &opts),
        App::Bc => bc_runs(&graphs, &schemes, batch, reps, &opts),
    };
    let runs = on_threads(threads, sweep);
    // The same balance/pool summary feeds both the console line and the
    // JSON report's `exec` block.
    let exec = busy_spread(&stats.busy_seconds()).map(|sp| ExecSummary {
        busy_max_over_mean: sp.ratio(),
        busy_threads: sp.threads,
        pool_hits: pool.hits(),
        pool_misses: pool.misses(),
        simd: masked_spgemm::simd::COMPILED_PATH.to_string(),
    });
    if let Some(e) = &exec {
        writeln!(
            out,
            "balance: busy max/mean {:.2} over {} threads; pool hits {}/{} takes",
            e.busy_max_over_mean,
            e.busy_threads,
            e.pool_hits,
            e.pool_hits + e.pool_misses,
        )
        .map_err(|e| e.to_string())?;
    }

    // Per-case seconds table: dataset rows × scheme columns.
    let mut headers: Vec<&str> = vec!["dataset", "n", "nnz"];
    let names: Vec<String> = runs.iter().map(|r| r.name.clone()).collect();
    headers.extend(names.iter().map(|s| s.as_str()));
    let mut table = Table::new(&headers);
    for (gi, g) in graphs.iter().enumerate() {
        let mut row = vec![
            g.name.clone(),
            g.adj.nrows().to_string(),
            g.adj.nnz().to_string(),
        ];
        for r in &runs {
            row.push(match r.seconds[gi] {
                Some(s) => format!("{s:.6}"),
                None => "-".into(),
            });
        }
        table.row(&row);
    }
    writeln!(out, "\n{}", table.to_text()).map_err(|e| e.to_string())?;

    // The paper's comparison device.
    let profile = performance_profile(&runs, &default_taus(tau_max, 0.2));
    let mut ptable = Table::new(
        &std::iter::once("tau")
            .chain(names.iter().map(|s| s.as_str()))
            .collect::<Vec<_>>(),
    );
    for (ti, tau) in profile.taus.iter().enumerate() {
        let mut row = vec![format!("{tau:.1}")];
        for (_, fr) in &profile.curves {
            row.push(format!("{:.2}", fr[ti]));
        }
        ptable.row(&row);
    }
    writeln!(
        out,
        "performance profile (fraction of cases within tau of best):\n{}",
        ptable.to_text()
    )
    .map_err(|e| e.to_string())?;

    if let Some(json_path) = p.flag("json") {
        let report = suite_report(app, &graphs, &runs, exec, reps, threads, k, batch);
        std::fs::write(json_path, report.to_json())
            .map_err(|e| format!("writing {json_path}: {e}"))?;
        writeln!(out, "json report: {json_path}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn suite_report(
    app: App,
    graphs: &[SuiteGraph],
    runs: &[mspgemm_harness::SchemeRuns],
    exec: Option<ExecSummary>,
    reps: usize,
    threads: usize,
    k: usize,
    batch: usize,
) -> SuiteReport {
    let mut params = vec![("reps".to_string(), reps.to_string())];
    if threads > 0 {
        params.push(("threads".into(), threads.to_string()));
    }
    match app {
        App::Ktruss => params.push(("k".into(), k.to_string())),
        App::Bc => params.push(("batch".into(), batch.to_string())),
        App::Tc => {}
    }
    SuiteReport {
        app: app.name().to_string(),
        params,
        exec,
        datasets: graphs
            .iter()
            .map(|g| DatasetInfo {
                name: g.name.clone(),
                nrows: g.adj.nrows(),
                nnz: g.adj.nnz(),
            })
            .collect(),
        runs: runs.to_vec(),
    }
}

/// `mxm convert`: read one matrix, write it in the format the output
/// extension names (`.mtx` ↔ `.msb`). The write goes through a temp
/// file + atomic rename, so an interrupted convert never leaves a
/// truncated output behind for the sidecar cache to trust. Prints a
/// one-line summary: dims, nnz, bytes written, and the output format
/// (`.msb` includes the version — v2, the mmap-able aligned layout).
/// `--pattern` drops the values section (`.msb` output only): the file
/// stores structure alone at roughly half the bytes, and loads with
/// unit values served from the process-wide arena.
pub fn cmd_convert(p: &Parsed, out: &mut impl Write) -> Result<(), String> {
    let [src, dst] = p.positional.as_slice() else {
        return Err("usage: mxm convert [--pattern] <in.mtx|.msb> <out.mtx|.msb>".into());
    };
    let pattern = p.switch("pattern");
    // A conversion reads the file it was given, never a sidecar of it.
    let opts = LoadOpts {
        policy: CachePolicy::Off,
        ..LoadOpts::default()
    };
    let (a, _) = load_matrix(src, &opts).map_err(|e| format!("{src}: {e}"))?;
    if pattern {
        save_matrix_pattern(dst, &a).map_err(|e| format!("{dst}: {e}"))?;
    } else {
        save_matrix(dst, &a).map_err(|e| format!("{dst}: {e}"))?;
    }
    let bytes = std::fs::metadata(dst).map(|m| m.len()).unwrap_or(0);
    let format = match Format::from_path(std::path::Path::new(dst)) {
        Ok(Format::Msb) => format!(
            "msb v{}{}",
            mspgemm_io::msb::MSB_VERSION,
            if pattern { ", pattern" } else { "" }
        ),
        _ => "mtx text".to_string(),
    };
    writeln!(
        out,
        "{src} -> {dst}: {}x{}, nnz {}, {bytes} bytes written ({format})",
        a.nrows(),
        a.ncols(),
        a.nnz()
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// One-shot verification run used by `mxm check` (and the CI smoke test):
/// counts triangles on a small generated graph with two schemes and
/// cross-checks them.
pub fn cmd_check(out: &mut impl Write) -> Result<(), String> {
    let g = mspgemm_gen::er_symmetric(500, 8, 42);
    let a = tricount::triangle_count(&g, Scheme::Ours(Algorithm::Msa, Phases::One));
    let b = tricount::triangle_count(&g, Scheme::Ours(Algorithm::Hash, Phases::Two));
    if a.triangles != b.triangles {
        return Err(format!(
            "self-check failed: MSA {} vs Hash {}",
            a.triangles, b.triangles
        ));
    }
    writeln!(
        out,
        "self-check ok: {} triangles, schemes agree",
        a.triangles
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use std::path::PathBuf;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mxm_cli_{tag}"));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_small_graph(path: &std::path::Path) {
        let g = mspgemm_gen::er_symmetric(60, 6, 7);
        mspgemm_io::mtx::write_mtx_file(path, &g).unwrap();
    }

    #[test]
    fn parse_scheme_labels() {
        assert_eq!(
            parse_scheme("msa-1p").unwrap(),
            Scheme::Ours(Algorithm::Msa, Phases::One)
        );
        assert_eq!(
            parse_scheme("HeapDot-2P").unwrap(),
            Scheme::Ours(Algorithm::HeapDot, Phases::Two)
        );
        assert_eq!(
            parse_scheme("hash").unwrap(),
            Scheme::Ours(Algorithm::Hash, Phases::One)
        );
        assert_eq!(parse_scheme("ss:saxpy").unwrap(), Scheme::SsSaxpy);
        assert!(parse_scheme("nope-3p").is_err());
    }

    #[test]
    fn scheme_line_names_the_count_that_decided() {
        use masked_spgemm::DirectionWork;
        let work = |oriented| {
            Some(DirectionWork {
                push: 54_271_744,
                pull: 54_476_034,
                oriented,
            })
        };
        let (resolved, counted) = auto_note(Plan::Oriented(work(Some(8_989_020))));
        assert_eq!(
            format!("Auto{resolved} / Mask / One{counted}"),
            "Auto→oriented pull / Mask / One (push 54271744 products, oriented 8989020 probes)"
        );
        // Any other product reads as it always did.
        let (resolved, counted) = auto_note(Plan::Kernel(Algorithm::Msa, work(None)));
        assert_eq!(resolved, "→MSA");
        assert_eq!(counted, " (push 54271744 products, pull ≥ 54476034 probes)");
        let (resolved, counted) = auto_note(Plan::Kernel(Algorithm::Inner, work(None)));
        assert_eq!(resolved, "→Inner");
        assert_eq!(counted, " (push ≥ 54271744 products, pull 54476034 probes)");
        // A named algorithm prints no verdict.
        assert_eq!(
            auto_note(Plan::Kernel(Algorithm::Hash, None)),
            Default::default()
        );
    }

    #[test]
    fn run_command_end_to_end() {
        let dir = tempdir("run");
        let mtx = dir.join("g.mtx");
        write_small_graph(&mtx);
        let p = parse(
            &sv(&[
                "--algo",
                "hash",
                "--mask",
                "complement",
                "--phases",
                "2",
                "--reps",
                "1",
                mtx.to_str().unwrap(),
            ]),
            &["algo", "mask", "phases", "threads", "reps"],
        )
        .unwrap();
        let mut out = Vec::new();
        cmd_run(&p, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Hash"), "{text}");
        assert!(text.contains("gflops"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_reports_ingest_throughput() {
        let dir = tempdir("run_ingest");
        let mtx = dir.join("g.mtx");
        write_small_graph(&mtx);
        let p = parse(
            &sv(&[
                "--algo",
                "msa",
                "--reps",
                "1",
                "--no-cache",
                mtx.to_str().unwrap(),
            ]),
            &["algo", "mask", "phases", "threads", "reps"],
        )
        .unwrap();
        let mut out = Vec::new();
        cmd_run(&p, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("ingest"), "{text}");
        assert!(text.contains("MB/s"), "{text}");
        assert!(text.contains("entries/s"), "{text}");
        assert!(text.contains("Parsed"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_says_what_auto_resolved_to() {
        let dir = tempdir("run_auto");
        let mtx = dir.join("g.mtx");
        write_small_graph(&mtx);
        let scheme_line = |algo: &str| {
            let p = parse(
                &sv(&["--algo", algo, "--no-cache", mtx.to_str().unwrap()]),
                &["algo"],
            )
            .unwrap();
            let mut out = Vec::new();
            cmd_run(&p, &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            let line = text.lines().find(|l| l.starts_with("scheme   :"));
            line.expect("a scheme line").to_string()
        };
        // The graph is symmetric, so `run` hands it over as its own `Bᵀ`,
        // but its products are too few for the oriented plan: the line
        // names push and pull, after the algorithm `auto` picked; a named
        // algorithm prints neither.
        let auto = scheme_line("auto");
        let (head, counts) = auto.split_once(" (push ").expect(&auto);
        assert!(head.starts_with("scheme   : Auto→"), "{auto}");
        assert!(head.ends_with(" / Mask / One"), "{auto}");
        let (push, rest) = counts.split_once(" products, pull ").expect(&auto);
        let pull = rest.strip_suffix(" probes)").expect(&auto);
        // The side that lost is marked as the lower bound it may be.
        let count = |s: &str| s.trim_start_matches("≥ ").parse::<u64>().is_ok();
        assert!(count(push) && count(pull), "{auto}");
        assert_eq!(push.starts_with('≥'), head.contains("→Inner"), "{auto}");
        assert_ne!(push.starts_with('≥'), pull.starts_with('≥'), "{auto}");
        assert_eq!(scheme_line("msa"), "scheme   : MSA / Mask / One");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Whether `mxm run --algo <algo> --reps <reps>` prints a well-formed
    /// `products :` line (formed = `reps` × the one-run flop count: the
    /// product runs exactly `reps` times).
    fn run_prints_products_line(mtx: &std::path::Path, algo: &str, reps: u64) -> bool {
        let text = run_text(&["--algo", algo, "--reps", &reps.to_string()], mtx);
        let Some(line) = text.lines().find(|l| l.starts_with("products :")) else {
            return false;
        };
        let a = load_matrix(mtx.to_str().unwrap(), &LoadOpts::default())
            .unwrap()
            .0;
        let formed = reps * a.flops_with(&a);
        assert!(line.contains(&format!("({formed} formed, ")), "{line}");
        assert!(line.contains("% wasted"), "{line}");
        true
    }

    /// `mxm run <flags> --no-cache <mtx>`'s report.
    fn run_text(flags: &[&str], mtx: &std::path::Path) -> String {
        let mut args = sv(flags);
        args.extend(sv(&["--no-cache", mtx.to_str().unwrap()]));
        let p = parse(&args, &["algo", "reps"]).unwrap();
        let mut out = Vec::new();
        cmd_run(&p, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn run_counts_exactly_reps_products_on_karate() {
        let karate = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../data/karate.mtx");
        for (algo, reps, counts) in [
            ("msa", "1", "(1212 formed, 270 admitted"),
            ("msa", "3", "(3636 formed, 810 admitted"),
            ("inner", "1", "(1212 probes, 270 hits"),
        ] {
            let text = run_text(&["--algo", algo, "--reps", reps], &karate);
            assert!(text.contains(counts), "{algo} x {reps}: {text}");
            assert!(text.contains("fingerprint ee08195915c25cff"), "{text}");
        }
    }

    #[test]
    fn run_reports_balance() {
        let dir = tempdir("run_balance");
        let mtx = dir.join("g.mtx");
        write_small_graph(&mtx);
        let text = run_text(&["--algo", "hash", "--reps", "1"], &mtx);
        assert!(text.contains("balance  : busy max/mean"), "{text}");
        assert!(text.contains("pool hits"), "{text}");
        // Hash records no product counts, so the line is absent above;
        // MSA reports what it formed and what the mask admitted, summed
        // over its runs.
        assert!(!run_prints_products_line(&mtx, "hash", 1));
        assert!(run_prints_products_line(&mtx, "msa", 1));
        assert!(run_prints_products_line(&mtx, "msa", 3));
        // The pull kernel reports its probes beside them: a hit is a
        // product whose coordinate the mask admits, so Inner's hits are
        // MSA's admitted products, and only Inner prints the line.
        let counted = |algo: &str, line: &str, after: &str, before: &str| {
            let text = run_text(&["--algo", algo, "--reps", "1"], &mtx);
            let line = text.lines().find(|l| l.starts_with(line))?;
            let (_, tail) = line.split_once(after).expect(line);
            Some(
                tail.split_once(before)
                    .expect(line)
                    .0
                    .parse::<u64>()
                    .unwrap(),
            )
        };
        let admitted = counted("msa", "products :", "formed, ", " admitted");
        let hits = counted("inner", "probes   :", "probes, ", " hits");
        assert!(admitted.is_some_and(|n| n > 0));
        assert_eq!(hits, admitted);
        assert!(counted("inner", "probes   :", "(", " probes").unwrap() > hits.unwrap());
        assert_eq!(counted("msa", "probes   :", "(", " probes"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_trace_writes_chrome_json_and_phase_table() {
        let dir = tempdir("run_trace");
        let mtx = dir.join("g.mtx");
        write_small_graph(&mtx);
        let trace = dir.join("trace.json");
        let p = parse(
            &sv(&[
                "--algo",
                "hash",
                "--phases",
                "2",
                "--reps",
                "1",
                "--no-cache",
                "--trace",
                trace.to_str().unwrap(),
                mtx.to_str().unwrap(),
            ]),
            &["algo", "mask", "phases", "threads", "reps", "trace"],
        )
        .unwrap();
        let mut out = Vec::new();
        cmd_run(&p, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("phase breakdown"), "{text}");
        assert!(text.contains("symbolic"), "{text}");
        assert!(text.contains("numeric"), "{text}");
        assert!(text.contains("trace    :"), "{text}");

        let j = std::fs::read_to_string(&trace).unwrap();
        assert!(j.starts_with("{\"traceEvents\":["), "{j}");
        assert!(j.contains("\"ingest\""), "ingest span must be covered: {j}");
        assert!(j.contains("\"numeric\""), "{j}");
        assert!(j.contains("\"fingerprint\""), "{j}");
        assert!(j.contains("\"ph\":\"X\""), "{j}");
        // Tracing is off again after the traced run.
        assert!(!mspgemm_obs::trace::global().is_enabled());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suite_json_carries_exec_summary() {
        let dir = tempdir("suite_exec");
        write_small_graph(&dir.join("g.mtx"));
        let json = dir.join("report.json");
        let p = parse(
            &sv(&[
                "--app",
                "tc",
                "--source",
                dir.to_str().unwrap(),
                "--schemes",
                "hash-1p",
                "--json",
                json.to_str().unwrap(),
            ]),
            &["app", "source", "schemes", "json"],
        )
        .unwrap();
        let mut out = Vec::new();
        cmd_suite(&p, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("pool hits"), "{text}");
        let j = std::fs::read_to_string(&json).unwrap();
        assert!(j.contains("\"exec\""), "{j}");
        assert!(j.contains("\"busy_max_over_mean\""), "{j}");
        assert!(j.contains("\"hit_rate\""), "{j}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_rejects_mca_complement() {
        let dir = tempdir("run_mca");
        let mtx = dir.join("g.mtx");
        write_small_graph(&mtx);
        let p = parse(
            &sv(&[
                "--algo",
                "mca",
                "--mask",
                "complement",
                mtx.to_str().unwrap(),
            ]),
            &["algo", "mask", "phases", "threads", "reps"],
        )
        .unwrap();
        let mut out = Vec::new();
        let err = cmd_run(&p, &mut out).unwrap_err();
        assert!(err.contains("complemented"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_and_suite_bound_threads_like_the_server() {
        // Refused while parsing flags: no input is ever opened.
        let p = parse(&sv(&["--threads", "100000", "absent.mtx"]), &["threads"]).unwrap();
        let mut out = Vec::new();
        for err in [
            cmd_run(&p, &mut out).unwrap_err(),
            cmd_suite(&p, &mut out).unwrap_err(),
        ] {
            assert_eq!(err, "threads must be at most 256, got 100000");
        }
    }

    #[test]
    fn suite_command_on_directory_with_json() {
        let dir = tempdir("suite");
        write_small_graph(&dir.join("g1.mtx"));
        write_small_graph(&dir.join("g2.mtx"));
        let json = dir.join("report.json");
        let p = parse(
            &sv(&[
                "--app",
                "tc",
                "--source",
                dir.to_str().unwrap(),
                "--schemes",
                "msa-1p,hash-2p",
                "--json",
                json.to_str().unwrap(),
            ]),
            &[
                "app", "source", "schemes", "json", "reps", "threads", "k", "batch", "tau-max",
            ],
        )
        .unwrap();
        let mut out = Vec::new();
        cmd_suite(&p, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("g1") && text.contains("g2"), "{text}");
        assert!(text.contains("performance profile"), "{text}");
        let j = std::fs::read_to_string(&json).unwrap();
        assert!(j.contains("\"app\": \"tc\""));
        assert!(j.contains("MSA-1P"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suite_bc_filters_complement() {
        let dir = tempdir("suite_bc");
        write_small_graph(&dir.join("g.mtx"));
        let p = parse(
            &sv(&[
                "--app",
                "bc",
                "--source",
                dir.to_str().unwrap(),
                "--schemes",
                "msa-1p",
                "--batch",
                "4",
            ]),
            &[
                "app", "source", "schemes", "json", "reps", "threads", "k", "batch", "tau-max",
            ],
        )
        .unwrap();
        let mut out = Vec::new();
        cmd_suite(&p, &mut out).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_roundtrips_both_ways() {
        let dir = tempdir("convert");
        let mtx = dir.join("g.mtx");
        let msb = dir.join("g_cache.msb");
        let back = dir.join("g_back.mtx");
        write_small_graph(&mtx);
        let flags: &[&str] = &[];

        let p = parse(&sv(&[mtx.to_str().unwrap(), msb.to_str().unwrap()]), flags).unwrap();
        let mut out = Vec::new();
        cmd_convert(&p, &mut out).unwrap();

        let p = parse(&sv(&[msb.to_str().unwrap(), back.to_str().unwrap()]), flags).unwrap();
        cmd_convert(&p, &mut Vec::new()).unwrap();

        let off = LoadOpts {
            policy: CachePolicy::Off,
            ..LoadOpts::default()
        };
        let a = load_matrix(&mtx, &off).unwrap().0;
        assert_eq!(a, load_matrix(&msb, &off).unwrap().0);
        assert_eq!(a, load_matrix(&back, &off).unwrap().0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_usage_errors() {
        let p = parse(&sv(&["only_one.mtx"]), &[]).unwrap();
        assert!(cmd_convert(&p, &mut Vec::new()).is_err());
    }

    #[test]
    fn check_command_agrees() {
        let mut out = Vec::new();
        cmd_check(&mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("self-check ok"));
    }
}
