//! # mspgemm-cli
//!
//! Library backing the `mxm` binary — the experiment driver that turns
//! this workspace from a library into a runnable system:
//!
//! * `mxm run` — one masked product on a matrix from disk, any scheme;
//! * `mxm suite` — the paper's TC / k-truss / BC sweeps over synthetic or
//!   on-disk datasets, with performance-profile and JSON output;
//! * `mxm convert` — `.mtx` ↔ `.msb` conversion;
//! * `mxm check` — generator/kernel self-check (CI smoke test);
//! * `mxm serve` / `mxm query` — the resident-dataset server and its
//!   scripting client (see `docs/SERVE_PROTOCOL.md`).
//!
//! All command logic lives in [`commands`] and [`servecmd`] as testable
//! functions over parsed arguments; `main` is a thin dispatcher.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod servecmd;

use std::io::Write;

/// Usage text for `mxm` and `mxm help`.
pub const USAGE: &str = "\
mxm — masked sparse matrix-matrix product experiment driver

USAGE:
    mxm run [--algo msa|hash|mca|heap|heapdot|inner|auto]
            [--mask normal|complement] [--phases 1|2]
            [--threads N] [--reps R] [--no-cache] [--mmap] [--pattern]
            [--trace out.json] <matrix.mtx|.msb>
        One masked product C = M (.*) A*A with M = pattern(A). The run
        report includes the ingest throughput (MB/s, entries/s), the
        load backend (heap vs zero-copy mmap), the row balance, the
        hash-probe path the binary was compiled with (sse2 on x86_64,
        scalar elsewhere), the per-thread busy-time spread (max/mean)
        and, under --algo auto, what it resolved to with the push
        products and pull probes it counted (the side that lost stops
        counting once it cannot win, and is printed as a lower bound).
        --mmap memory-maps a v2 .msb input (or fresh sidecar) instead
        of heap-copying it. --pattern drops values at load: unit values
        come from a process-wide shared arena, and the values range of
        an .msb input or sidecar is skipped (not read, not mapped); the
        sidecar itself keeps the weights.
        --trace records phase-scoped spans (ingest, flop-prefix,
        symbolic, numeric, compaction, ...) to a chrome://tracing JSON
        file and appends a per-phase breakdown table to the report
        (see docs/OBSERVABILITY.md).

    mxm suite [--app tc|ktruss|bc] [--source synthetic|synthetic-full|DIR|FILE]
              [--schemes msa-1p,hash-2p,...] [--no-baselines]
              [--reps R] [--threads N] [--k K]
              [--batch B] [--tau-max X] [--json out.json] [--no-cache]
              [--mmap] [--pattern]
        Sweep an application over datasets x schemes; print the per-case
        table and Dolan-More profile, optionally write a JSON report
        (its exec block records the compiled hash-probe path). A warm
        accumulator pool spans the whole sweep. --pattern loads on-disk
        datasets values-less (TC/k-truss/BC never read weights).

    Rows are split into decreasing chunks that threads claim from a
    shared cursor; output is identical across thread counts.
    --threads N runs on a dedicated pool of N workers (0, the default,
    = the ambient pool; at most 256).

    mxm convert [--pattern] <in.mtx|.msb> <out.mtx|.msb>
        Convert between Matrix Market text and the .msb binary cache
        (v2: 8-byte-aligned sections, mmap-able; see docs/MSB_FORMAT.md).
        The output is written to a temp file and renamed atomically; a
        one-line summary reports dims, nnz, bytes, and format version.
        --pattern writes a values-less .msb (structure only, ~half the
        bytes); it loads with unit values from a process-wide shared
        arena — for structural workloads that never read weights.

    mxm check
        Generator/kernel self-check (used by CI).

    mxm serve [--listen ADDR] [--max-inflight N] [--queue-depth N]
              [--max-resident-bytes B] [--quarantine-after K]
              [--fail SPEC] [--no-cache] [--mmap] [--pattern]
              [preload.mtx ...]
        Long-lived server (default 127.0.0.1:7654; 'unix:/path' for a
        Unix socket): datasets stay resident with pre-transposed
        operands, and requests run on the warm worker pool with shared
        accumulator scratch. Heavy requests (mxm, app) pass through a
        bounded admission queue feeding --max-inflight executor workers
        (default 2); when --queue-depth requests are already waiting
        (default 64) new ones are answered with a typed 'busy' error
        carrying a retry_after_ms hint instead of queueing unboundedly.
        Identical queued mxm requests fuse into one kernel pass. Preload
        positional files at startup; serves until a 'shutdown'
        request. --mmap keeps v2 .msb datasets resident
        zero-copy (stats reports each dataset's backend and mapped
        bytes). --pattern loads every dataset values-less: unit values
        come from one process-wide arena and 'list'/'stats' flag the
        dataset as pattern. The server self-heals: a kernel panic restarts the
        executor worker and answers 'exec_failed'; --quarantine-after K
        panics (default 3) against one dataset quarantine it until
        unload+load; --max-resident-bytes B evicts least-recently-used
        un-pinned datasets at load time (preloads are pinned; 0 =
        unlimited). Resident datasets are dynamic: the 'update' verb
        merges each edge insert/delete batch into fresh CSR sections
        swapped in atomically (in-flight readers keep their snapshot;
        a failed update leaves the dataset as it was; see
        docs/DYNAMIC_GRAPHS.md).
        --fail SPEC (or MXM_FAILPOINTS) arms named fault
        injection points for chaos drills, e.g.
        'kernel.numeric=10%err;serve.conn.drop=5%err' — armed points
        are listed by 'stats'. Protocol: docs/SERVE_PROTOCOL.md;
        capacity planning and failure modes: docs/SERVING_OPS.md.

    mxm query [--connect ADDR] [--retry N] <op> [op flags]
        One request against a running server. `stats`, `metrics` and
        `list` render human-readable tables by default; pass --json for
        the raw one-line JSON response (other ops always print JSON).
        ops: ping | list | stats | shutdown | load --path F [--name N]
             | unload --name N
             | metrics [--format json|prometheus]
             | mxm --dataset D [--algo A] [--mask M] [--phases P]
                   [--threads T] [--reps R] [--deadline-ms MS]
             | app --dataset D [--app tc|ktruss|bc] [--scheme S]
                   [--k K] [--batch B] [--threads T] [--deadline-ms MS]
             | update --dataset D [--insert 'i,j[,v];...']
                   [--delete 'i,j;...'] [--from-file F] [--compact]
             | raw --json '{...}'
        `update` edits a resident dataset in place: --insert/--delete
        take ;-separated 0-based edge lists, --from-file reads one op
        per line ('+ i j [v]' inserts, '- i j' deletes, '#' comments),
        and --compact makes a request without ops valid (it rebuilds
        and bumps the version like any batch). Within one batch a
        delete of a position beats an insert of the same position.
        After an update, `app tc` patches only the
        affected rows of its cached counts, and the first default `mxm`
        (algo auto, normal mask, reps 1) patches the product an earlier
        updated version kept, at the entries the edits can reach (both
        responses say \"incremental\": true); k-truss and BC recompute
        fully.
        --retry N retries failed connects (every 500 ms) AND typed
        'busy' overload responses, backing off exponentially from the
        server's retry_after_ms hint (capped at 5 s per wait).
        --deadline-ms gives the request an execution budget measured
        from arrival; expired work is dropped at the next phase
        boundary and answered 'deadline_exceeded'.
        `metrics --format prometheus` prints the text exposition
        verbatim (pipe it to a scrape file; see docs/OBSERVABILITY.md).

Text matrices parse with the chunked parallel reader on every core and
load through the .msb sidecar cache: parsing big.mtx writes big.msb
next to it, and later runs deserialize the binary directly.
";

/// Value-taking flags per subcommand.
fn value_flags(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "run" => &["algo", "mask", "phases", "threads", "reps", "trace"],
        "suite" => &[
            "app", "source", "schemes", "json", "reps", "threads", "k", "batch", "tau-max",
        ],
        "serve" => &[
            "listen",
            "max-inflight",
            "queue-depth",
            "max-resident-bytes",
            "quarantine-after",
            "fail",
        ],
        "query" => QUERY_VALUE_FLAGS,
        _ => &[],
    }
}

/// Value flags shared by every `mxm query` op. `--json` is NOT here: for
/// every op but `raw` it is a bare switch (print the raw response line);
/// only `raw` takes `--json '{...}'` as a value, which [`dispatch`] adds
/// after reading the op off the command line ([`query_op`]).
const QUERY_VALUE_FLAGS: &[&str] = &[
    "connect",
    "retry",
    "path",
    "name",
    "dataset",
    "algo",
    "mask",
    "phases",
    "threads",
    "reps",
    "app",
    "scheme",
    "k",
    "batch",
    "deadline-ms",
    "format",
    "insert",
    "delete",
    "from-file",
];

/// The op of an `mxm query` command line: its first positional — the
/// first argument that is neither a flag nor the value of one of
/// [`QUERY_VALUE_FLAGS`]. (A value such as `--dataset raw` is not the op.)
fn query_op(rest: &[String]) -> Option<&str> {
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            None => return Some(arg),
            Some(flag) if QUERY_VALUE_FLAGS.contains(&flag) => {
                it.next();
            }
            Some(_) => {}
        }
    }
    None
}

/// Bare switches per subcommand. Anything else is a typo'd flag — reject
/// it rather than silently running without the intended option.
fn known_switches(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "run" => &["no-cache", "mmap", "pattern"],
        "suite" => &["no-cache", "no-baselines", "mmap", "pattern"],
        "convert" => &["pattern"],
        "serve" => &["no-cache", "mmap", "pattern"],
        "query" => &["no-cache", "mmap", "json", "compact", "pattern"],
        _ => &[],
    }
}

/// Positional-argument arity per subcommand (`min..=max`).
fn positional_arity(cmd: &str) -> std::ops::RangeInclusive<usize> {
    match cmd {
        "run" => 1..=1,
        "convert" => 2..=2,
        "serve" => 0..=usize::MAX, // positionals are preload files
        "query" => 1..=1,          // the op
        _ => 0..=0,
    }
}

/// Dispatch a full argv (without the binary name). Returns an error
/// message for exit-code-1 failures.
pub fn dispatch(argv: &[String], out: &mut impl Write) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        return Err(USAGE.to_string());
    };
    let rest = &argv[1..];
    // `query raw` is the one spot where --json takes a value (the request
    // body); everywhere else in `query` it is the raw-output switch.
    let mut vflags = value_flags(cmd).to_vec();
    if cmd == "query" && query_op(rest) == Some("raw") {
        vflags.push("json");
    }
    let parsed = args::parse(rest, &vflags)?;
    if matches!(
        cmd.as_str(),
        "run" | "suite" | "convert" | "check" | "serve" | "query"
    ) {
        for s in &parsed.switches {
            if !known_switches(cmd).contains(&s.as_str()) {
                return Err(format!(
                    "unknown flag --{s} for `mxm {cmd}` (see `mxm help`)"
                ));
            }
        }
        if !positional_arity(cmd).contains(&parsed.positional.len()) {
            return Err(format!(
                "`mxm {cmd}` takes {:?} positional argument(s), got {}: {:?} (see `mxm help`)",
                positional_arity(cmd),
                parsed.positional.len(),
                parsed.positional
            ));
        }
    }
    match cmd.as_str() {
        "run" => commands::cmd_run(&parsed, out),
        "suite" => commands::cmd_suite(&parsed, out),
        "convert" => commands::cmd_convert(&parsed, out),
        "check" => commands::cmd_check(out),
        "serve" => servecmd::cmd_serve(&parsed, out),
        "query" => servecmd::cmd_query(&parsed, out),
        "help" | "--help" | "-h" => writeln!(out, "{USAGE}").map_err(|e| e.to_string()),
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_args_prints_usage_as_error() {
        let e = dispatch(&[], &mut Vec::new()).unwrap_err();
        assert!(e.contains("USAGE"));
    }

    #[test]
    fn unknown_command_rejected() {
        let e = dispatch(&sv(&["frobnicate"]), &mut Vec::new()).unwrap_err();
        assert!(e.contains("unknown command"));
    }

    #[test]
    fn help_succeeds() {
        let mut out = Vec::new();
        dispatch(&sv(&["help"]), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("mxm suite"));
    }

    #[test]
    fn check_via_dispatch() {
        let mut out = Vec::new();
        dispatch(&sv(&["check"]), &mut out).unwrap();
    }

    #[test]
    fn convert_via_dispatch() {
        let dir = std::env::temp_dir().join("mxm_cli_dispatch_convert");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("g.mtx");
        let msb = dir.join("g.msb");
        let g = mspgemm_gen::er_symmetric(40, 4, 3);
        mspgemm_io::mtx::write_mtx_file(&mtx, &g).unwrap();
        let mut out = Vec::new();
        dispatch(
            &sv(&["convert", mtx.to_str().unwrap(), msb.to_str().unwrap()]),
            &mut out,
        )
        .unwrap();
        assert_eq!(mspgemm_io::read_msb_file(&msb).unwrap(), g);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_json_takes_a_value_only_for_the_raw_op() {
        // Nothing listens on port 1, so a command line that parses fails
        // at connect — and only there.
        let query = |args: &[&str]| {
            let argv = [&["query", "--connect", "127.0.0.1:1"], args].concat();
            dispatch(&sv(&argv), &mut Vec::new()).unwrap_err()
        };
        // A dataset that happens to be named `raw` does not make this
        // the raw op: --json stays the bare print-the-response switch.
        let e = query(&["mxm", "--dataset", "raw", "--json"]);
        assert!(e.contains("connect"), "{e}");
        // The raw op still takes its request body from --json.
        let e = query(&["raw", "--json", r#"{"op":"ping"}"#]);
        assert!(e.contains("connect"), "{e}");
        let e = query(&["raw", "--json"]);
        assert!(e.contains("--json needs a value"), "{e}");
    }

    #[test]
    fn typod_switch_rejected() {
        // `--json-out` (typo for --json) must not silently run the sweep
        // without a report.
        let e = dispatch(
            &sv(&["suite", "--json-out", "report.json"]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(e.contains("unknown flag --json-out"), "{e}");
        // Neither the text-parse fan-out nor the row schedule is a knob:
        // every command that took one refuses it by name.
        for (flag, value, argvs) in [
            (
                "--parse-threads",
                "2",
                &[
                    &["run", "g.mtx"][..],
                    &["suite"],
                    &["convert", "g.mtx", "g.msb"],
                    &["serve"],
                    &["query", "load", "--path", "g.mtx"],
                ][..],
            ),
            (
                "--schedule",
                "flops",
                &[
                    &["run", "g.mtx"][..],
                    &["suite"],
                    &["serve"],
                    &["query", "mxm", "--dataset", "g"],
                ],
            ),
        ] {
            for argv in argvs {
                let argv = [argv, &[flag, value][..]].concat();
                let e = dispatch(&sv(&argv), &mut Vec::new()).unwrap_err();
                assert!(e.contains(&format!("unknown flag {flag}")), "{argv:?}: {e}");
            }
        }
    }

    #[test]
    fn stray_positionals_rejected() {
        // `--repz 3` (typo for --reps) turns "3" into a positional; the
        // unknown switch is caught first.
        let e = dispatch(&sv(&["run", "--repz", "3", "g.mtx"]), &mut Vec::new()).unwrap_err();
        assert!(e.contains("unknown flag --repz"), "{e}");
        // Too many positionals on convert.
        let e = dispatch(
            &sv(&["convert", "a.mtx", "b.msb", "c.mtx"]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(e.contains("positional"), "{e}");
        // Suite takes none.
        let e = dispatch(&sv(&["suite", "stray.mtx"]), &mut Vec::new()).unwrap_err();
        assert!(e.contains("positional"), "{e}");
    }
}
