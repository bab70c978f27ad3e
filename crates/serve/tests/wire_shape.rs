//! Wire-shape characterization: one table of request lines pushed
//! through `server::handle_request`, asserting the **ordered key list**
//! of every verb's success response and the `error.code` (and error-object
//! keys) of every [`mspgemm_serve::ErrorCode`]. The table pins the wire
//! surface: a refactor of the request path must pass it unedited.
//!
//! It arms failpoints (to hold the executor still while the admission
//! queue is probed), so it lives in its own test binary — failpoint
//! state is process-global — and runs as a single `#[test]`.

use mspgemm_serve::server::{handle_request, serve_connection, ServerState};
use mspgemm_serve::{Json, ServeConfig, Server, MAX_REQUEST_BYTES};
use std::io::BufReader;
use std::time::{Duration, Instant};

/// What one response must look like.
enum Want {
    /// `"ok": true` with exactly these top-level keys in this order, and
    /// exactly these keys under each `/`-separated path (an array on the
    /// path is entered through its first element).
    Keys(
        &'static [&'static str],
        &'static [(&'static str, &'static [&'static str])],
    ),
    /// `"ok": false` with this `error.code`.
    Err(&'static str),
}

const POOL: (&str, &[&str]) = ("pool", &["hits", "misses", "warm"]);
const DATASET_ROW: &[&str] = &[
    "name",
    "path",
    "nrows",
    "nnz",
    "adj_nnz",
    "mem_bytes",
    "backend",
    "mapped_bytes",
    "pattern",
    "unit_bytes",
    "age_seconds",
    "version",
    "pinned",
    "quarantined",
    "panics",
];
const MXM_KEYS: &[&str] = &[
    "ok",
    "op",
    "dataset",
    "algo",
    "plan",
    "mask",
    "phases",
    "threads",
    "reps",
    "seconds",
    "gflops",
    "incremental",
    "nnz",
    "fingerprint",
    "fused",
    "fused_group",
    "pool",
];

fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {}", other.to_line()),
    }
}

fn descend<'a>(resp: &'a Json, path: &str) -> &'a Json {
    path.split('/').fold(resp, |at, seg| {
        let at = match at {
            Json::Arr(items) => items.first().expect("non-empty array on the path"),
            other => other,
        };
        at.get(seg)
            .unwrap_or_else(|| panic!("no '{seg}' on path '{path}' in {}", resp.to_line()))
    })
}

fn check(state: &ServerState, line: &str, want: &Want) -> Json {
    let (resp, _) = handle_request(state, line);
    check_response(line, &resp, want);
    resp
}

fn check_response(line: &str, resp: &Json, want: &Want) {
    let text = resp.to_line();
    match want {
        Want::Keys(top, nested) => {
            assert_eq!(keys(resp), *top, "{line} -> {text}");
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{line} -> {text}");
            for (path, want) in *nested {
                let at = match descend(resp, path) {
                    Json::Arr(items) => items.first().expect("non-empty array at the path"),
                    other => other,
                };
                assert_eq!(keys(at), *want, "{line} at '{path}' -> {text}");
            }
        }
        Want::Err(code) => {
            assert_eq!(keys(resp), ["ok", "error"], "{line} -> {text}");
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{line} -> {text}");
            let err = resp.get("error").unwrap();
            assert_eq!(
                err.get("code").and_then(Json::as_str),
                Some(*code),
                "{line} -> {text}"
            );
            let want_keys: &[&str] = if *code == "busy" {
                &["code", "message", "retry_after_ms"]
            } else {
                &["code", "message"]
            };
            assert_eq!(keys(err), want_keys, "{line} -> {text}");
        }
    }
}

fn write_graph(dir: &std::path::Path, file: &str, n: usize) -> String {
    let path = dir.join(file);
    let g = mspgemm_gen::er_symmetric(n, 6, 3);
    mspgemm_io::mtx::write_mtx_file(&path, &g).unwrap();
    path.to_str().unwrap().to_string()
}

fn start(config: ServeConfig) -> Server {
    Server::start(
        "127.0.0.1:0",
        ServeConfig {
            load: mspgemm_io::LoadOpts {
                policy: mspgemm_io::CachePolicy::Off,
                ..config.load
            },
            ..config
        },
    )
    .unwrap()
}

/// Spin until `cond` holds (bounded: a wedged server fails the test
/// instead of hanging it).
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn every_verb_and_error_code_keeps_its_wire_shape() {
    mspgemm_fault::clear();
    let dir = std::env::temp_dir().join("mspgemm_serve_wire_shape");
    std::fs::create_dir_all(&dir).unwrap();
    let path = write_graph(&dir, "g.mtx", 80);
    let load_g = format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#);

    // --- Every verb's success shape, and the request-level errors. ---
    let server = start(ServeConfig::default());
    let state = server.state();
    let table: Vec<(String, Want)> = vec![
        (
            r#"{"op":"ping"}"#.into(),
            Want::Keys(
                &[
                    "ok", "op", "pong", "version", "simd", "uptime_s", "datasets",
                ],
                &[],
            ),
        ),
        (
            load_g.clone(),
            Want::Keys(
                &[
                    "ok",
                    "op",
                    "name",
                    "path",
                    "nrows",
                    "ncols",
                    "nnz",
                    "adj_nnz",
                    "mem_bytes",
                    "backend",
                    "mapped_bytes",
                    "pattern",
                    "unit_bytes",
                    "pinned",
                    "evicted",
                    "ingest",
                ],
                &[(
                    "ingest",
                    &[
                        "outcome", "bytes", "entries", "seconds", "mb_per_s", "pattern",
                    ],
                )],
            ),
        ),
        (load_g.clone(), Want::Err("already_loaded")),
        (
            r#"{"op":"load","path":"/no/such/file.mtx"}"#.into(),
            Want::Err("load_failed"),
        ),
        (r#"{"op":"load"}"#.into(), Want::Err("bad_request")),
        (
            r#"{"op":"list"}"#.into(),
            Want::Keys(
                &["ok", "op", "count", "datasets"],
                &[("datasets", DATASET_ROW)],
            ),
        ),
        (
            r#"{"op":"mxm","dataset":"g","algo":"hash","phases":2}"#.into(),
            Want::Keys(MXM_KEYS, &[POOL]),
        ),
        // The pull scheme runs the same row drive: same keys, real pool.
        (
            r#"{"op":"mxm","dataset":"g","algo":"inner","mask":"complement"}"#.into(),
            Want::Keys(MXM_KEYS, &[POOL]),
        ),
        (
            r#"{"op":"mxm","dataset":"g","algo":"mca","mask":"complement"}"#.into(),
            Want::Err("exec_failed"),
        ),
        (r#"{"op":"mxm"}"#.into(), Want::Err("bad_request")),
        (
            r#"{"op":"mxm","dataset":"g","algo":"quantum"}"#.into(),
            Want::Err("bad_request"),
        ),
        (
            r#"{"op":"mxm","dataset":"g","deadline_ms":"soon"}"#.into(),
            Want::Err("bad_request"),
        ),
        (
            r#"{"op":"mxm","dataset":"nope"}"#.into(),
            Want::Err("unknown_dataset"),
        ),
        (
            r#"{"op":"app","dataset":"g","app":"tc","scheme":"hash-1p"}"#.into(),
            Want::Keys(
                &[
                    "ok",
                    "op",
                    "app",
                    "dataset",
                    "scheme",
                    "triangles",
                    "mxm_seconds",
                    "gflops",
                    "incremental",
                    "cached",
                    "pool",
                ],
                &[POOL],
            ),
        ),
        (
            r#"{"op":"update","dataset":"g","insert":[[0,1],[1,0,2.5]],"delete":[[2,3]]}"#.into(),
            Want::Keys(
                &[
                    "ok",
                    "op",
                    "dataset",
                    "version",
                    "applied",
                    "delta_nnz",
                    "compacted",
                    "nrows",
                    "nnz",
                    "backend",
                    "mapped_bytes",
                    "seconds",
                ],
                &[],
            ),
        ),
        // The cached counts are one version behind: the patch path.
        (
            r#"{"op":"app","dataset":"g","app":"tc","scheme":"hash-1p"}"#.into(),
            Want::Keys(
                &[
                    "ok",
                    "op",
                    "app",
                    "dataset",
                    "scheme",
                    "triangles",
                    "mxm_seconds",
                    "gflops",
                    "incremental",
                    "patched_rows",
                    "cached",
                    "pool",
                ],
                &[POOL],
            ),
        ),
        (
            r#"{"op":"app","dataset":"g","app":"ktruss","k":3}"#.into(),
            Want::Keys(
                &[
                    "ok",
                    "op",
                    "app",
                    "dataset",
                    "scheme",
                    "k",
                    "iterations",
                    "edges",
                    "mxm_seconds",
                    "incremental",
                    "pool",
                ],
                &[POOL],
            ),
        ),
        (
            r#"{"op":"app","dataset":"g","app":"bc","batch":4,"scheme":"msa-1p"}"#.into(),
            Want::Keys(
                &[
                    "ok",
                    "op",
                    "app",
                    "dataset",
                    "scheme",
                    "batch",
                    "depth",
                    "mxm_seconds",
                    "total_seconds",
                    "scores_sum",
                    "incremental",
                    "pool",
                ],
                &[POOL],
            ),
        ),
        (
            r#"{"op":"app","dataset":"g","app":"ktruss","k":2}"#.into(),
            Want::Err("bad_request"),
        ),
        (
            r#"{"op":"app","dataset":"g","app":"bc","scheme":"mca-1p"}"#.into(),
            Want::Err("exec_failed"),
        ),
        (
            r#"{"op":"app","dataset":"nope"}"#.into(),
            Want::Err("unknown_dataset"),
        ),
        (
            r#"{"op":"update","dataset":"g"}"#.into(),
            Want::Err("bad_request"),
        ),
        (
            r#"{"op":"update","dataset":"g","insert":[[1]]}"#.into(),
            Want::Err("bad_request"),
        ),
        (
            r#"{"op":"update","dataset":"g","insert":[[0,80]]}"#.into(),
            Want::Err("out_of_bounds"),
        ),
        (
            r#"{"op":"update","dataset":"nope","insert":[[0,1]]}"#.into(),
            Want::Err("unknown_dataset"),
        ),
        (
            r#"{"op":"stats"}"#.into(),
            Want::Keys(
                &[
                    "ok",
                    "op",
                    "uptime_seconds",
                    "requests",
                    "requests_total",
                    "errors_total",
                    "latency",
                    "simd",
                    "datasets",
                    "total_mem_bytes",
                    "total_mapped_bytes",
                    "unit_arena_bytes",
                    "max_resident_bytes",
                    "failpoints",
                    "scheduler",
                    "pool",
                    "busy",
                ],
                &[
                    ("latency", &["p50", "p95", "p99", "count"]),
                    (
                        "datasets",
                        &[
                            "name",
                            "mem_bytes",
                            "backend",
                            "mapped_bytes",
                            "pattern",
                            "unit_bytes",
                            "version",
                            "pinned",
                            "quarantined",
                            "panics",
                        ],
                    ),
                    ("scheduler", &["workers", "queue_depth", "queued"]),
                    ("pool", &["hits", "misses", "retained", "hit_rate"]),
                    ("busy", &["threads", "max_over_mean"]),
                ],
            ),
        ),
        (
            r#"{"op":"metrics"}"#.into(),
            Want::Keys(
                &["ok", "op", "format", "counters", "gauges", "histograms"],
                &[
                    ("counters", &["name", "labels", "value"]),
                    ("gauges", &["name", "labels", "value"]),
                    (
                        "histograms",
                        &[
                            "name", "labels", "count", "sum", "max", "mean", "p50", "p95", "p99",
                            "buckets",
                        ],
                    ),
                    ("histograms/buckets", &["le", "count"]),
                ],
            ),
        ),
        (
            r#"{"op":"metrics","format":"prometheus"}"#.into(),
            Want::Keys(&["ok", "op", "format", "content_type", "text"], &[]),
        ),
        (
            r#"{"op":"metrics","format":"xml"}"#.into(),
            Want::Err("bad_request"),
        ),
        (
            r#"{"op":"unload","name":"g"}"#.into(),
            Want::Keys(&["ok", "op", "name"], &[]),
        ),
        (
            r#"{"op":"unload","name":"g"}"#.into(),
            Want::Err("unknown_dataset"),
        ),
        (r#"{"op":"unload"}"#.into(), Want::Err("bad_request")),
        (r#"{"op":"frobnicate"}"#.into(), Want::Err("unknown_op")),
        (r#"{"nop":1}"#.into(), Want::Err("bad_request")),
        ("[1,2]".into(), Want::Err("bad_request")),
        ("not json".into(), Want::Err("bad_request")),
    ];
    for (line, want) in &table {
        check(state, line, want);
    }

    // payload_too_large never reaches `handle_request`: the framing layer
    // answers it and closes the connection.
    let big = vec![b'x'; MAX_REQUEST_BYTES + 2];
    let mut out = Vec::new();
    serve_connection(state, BufReader::new(&big[..]), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert_eq!(text.lines().count(), 1, "{text}");
    let resp = mspgemm_serve::json::parse(text.trim_end()).unwrap();
    check_response("<oversized line>", &resp, &Want::Err("payload_too_large"));

    // quarantined: three attributed panics fence the dataset off.
    let (resp, _) = handle_request(state, &load_g);
    assert_eq!(
        resp.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        resp.to_line()
    );
    for _ in 0..3 {
        state.registry.note_panic("g");
    }
    for line in [
        r#"{"op":"mxm","dataset":"g"}"#,
        r#"{"op":"app","dataset":"g"}"#,
        r#"{"op":"update","dataset":"g","insert":[[0,1]]}"#,
    ] {
        check(state, line, &Want::Err("quarantined"));
    }

    // shutdown answers, then everything after the flag flips is refused.
    let (resp, stop) = handle_request(state, r#"{"op":"shutdown"}"#);
    assert!(stop);
    check_response(
        "shutdown",
        &resp,
        &Want::Keys(&["ok", "op", "stopping"], &[]),
    );
    let mut server = server;
    server.shutdown();
    check(
        server.state(),
        r#"{"op":"ping"}"#,
        &Want::Err("shutting_down"),
    );
    drop(server);

    // --- evicted / over_budget: a budget fitting two datasets, not three.
    let probe = start(ServeConfig::default());
    let one = handle_request(probe.state(), &load_g)
        .0
        .get("mem_bytes")
        .and_then(Json::as_u64)
        .expect("load reports mem_bytes");
    drop(probe);
    let budget = start(ServeConfig {
        max_resident_bytes: 2 * one + one / 2,
        ..ServeConfig::default()
    });
    for name in ["a", "b", "c"] {
        let (resp, _) = handle_request(
            budget.state(),
            &format!(r#"{{"op":"load","path":"{path}","name":"{name}"}}"#),
        );
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            resp.to_line()
        );
    }
    for line in [
        r#"{"op":"mxm","dataset":"a"}"#,
        r#"{"op":"app","dataset":"a"}"#,
        r#"{"op":"update","dataset":"a","insert":[[0,1]]}"#,
    ] {
        check(budget.state(), line, &Want::Err("evicted"));
    }
    drop(budget);
    let tiny = start(ServeConfig {
        max_resident_bytes: one / 2,
        ..ServeConfig::default()
    });
    check(tiny.state(), &load_g, &Want::Err("over_budget"));
    drop(tiny);

    // --- busy / deadline_exceeded: one worker, one queue slot. ---
    let tight = start(ServeConfig {
        max_inflight: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    });
    let state = tight.state();
    let (resp, _) = handle_request(state, &load_g);
    assert_eq!(
        resp.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        resp.to_line()
    );
    let mxm = r#"{"op":"mxm","dataset":"g","algo":"hash"}"#;
    let queued = |state: &ServerState| {
        let (stats, _) = handle_request(state, r#"{"op":"stats"}"#);
        descend(&stats, "scheduler/queued").as_u64().unwrap()
    };

    // The only worker parks in the failpoint with the first job claimed;
    // a second job then fills the only queue slot.
    mspgemm_fault::configure("serve.exec.delay=1*delay(1500)").unwrap();
    std::thread::scope(|scope| {
        let running = scope.spawn(|| handle_request(state, mxm).0);
        wait_until("the worker to claim the first job", || {
            mspgemm_fault::hits("serve.exec.delay") == 1
        });
        let waiting = scope.spawn(|| handle_request(state, mxm).0);
        wait_until("the second job to queue", || queued(state) == 1);

        check(state, mxm, &Want::Err("busy"));
        // Validation precedes admission for every heavy verb: a malformed
        // `app` / `update` is told so even though the queue is full and
        // a well-formed one would be shed.
        check(
            state,
            r#"{"op":"app","dataset":"g","app":"ktruss","k":"three"}"#,
            &Want::Err("bad_request"),
        );
        check(
            state,
            r#"{"op":"app","dataset":"g","app":"pagerank"}"#,
            &Want::Err("bad_request"),
        );
        check(
            state,
            r#"{"op":"update","dataset":"g","insert":[[1]]}"#,
            &Want::Err("bad_request"),
        );
        check(
            state,
            r#"{"op":"update","dataset":"nope","insert":[[0,1]]}"#,
            &Want::Err("unknown_dataset"),
        );
        check(
            state,
            r#"{"op":"app","dataset":"g","app":"tc"}"#,
            &Want::Err("busy"),
        );
        check(
            state,
            r#"{"op":"update","dataset":"g","insert":[[0,1]]}"#,
            &Want::Err("busy"),
        );
        for h in [running, waiting] {
            let resp = h.join().unwrap();
            assert_eq!(
                resp.get("ok"),
                Some(&Json::Bool(true)),
                "{}",
                resp.to_line()
            );
        }
    });

    // A budgeted request that waits out its deadline behind the parked
    // worker is answered without running.
    mspgemm_fault::configure("serve.exec.delay=1*delay(300)").unwrap();
    std::thread::scope(|scope| {
        let running = scope.spawn(|| handle_request(state, mxm).0);
        wait_until("the worker to claim the job", || {
            mspgemm_fault::hits("serve.exec.delay") == 1
        });
        check(
            state,
            r#"{"op":"mxm","dataset":"g","deadline_ms":20}"#,
            &Want::Err("deadline_exceeded"),
        );
        running.join().unwrap();
    });
    mspgemm_fault::clear();
    std::fs::remove_dir_all(&dir).ok();
}
