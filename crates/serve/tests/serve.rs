//! Socket-level integration tests: real TCP/Unix connections against a
//! running [`Server`], covering the concurrent-client stress case, the
//! malformed-request and oversized-payload rejections, and clean
//! shutdown from both sides.

use mspgemm_serve::{client, Client, Json, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

fn fixture(tag: &str, n: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mspgemm_serve_it_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("g.mtx");
    let g = mspgemm_gen::er_symmetric(n, 6, 17);
    mspgemm_io::mtx::write_mtx_file(&mtx, &g).unwrap();
    mtx
}

fn start_with(tag: &str, n: usize) -> (Server, String) {
    let mtx = fixture(tag, n);
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let names = server
        .preload(&[mtx.to_str().unwrap().to_string()])
        .unwrap();
    assert_eq!(names, vec!["g".to_string()]);
    let addr = server.addr().to_string();
    (server, addr)
}

fn req(pairs: Vec<(&str, Json)>) -> Json {
    Json::obj(pairs)
}

#[test]
fn tcp_end_to_end_session() {
    let (_server, addr) = start_with("e2e", 150);
    let mut c = Client::connect(&addr).unwrap();

    let ping =
        client::expect_ok(c.request(&req(vec![("op", Json::str("ping"))])).unwrap()).unwrap();
    assert_eq!(ping.get("pong").unwrap().as_bool(), Some(true));
    assert_eq!(ping.get("datasets").unwrap().as_u64(), Some(1));

    let list =
        client::expect_ok(c.request(&req(vec![("op", Json::str("list"))])).unwrap()).unwrap();
    let ds = &list.get("datasets").unwrap().as_arr().unwrap()[0];
    assert_eq!(ds.get("name").unwrap().as_str(), Some("g"));
    assert!(ds.get("mem_bytes").unwrap().as_u64().unwrap() > 0);

    // Two identical queries: identical fingerprints, second one warm.
    // One executor, so the second request leases exactly what the first
    // parked regardless of which executors won chunks.
    let q = req(vec![
        ("op", Json::str("mxm")),
        ("dataset", Json::str("g")),
        ("algo", Json::str("hash")),
        ("phases", Json::str("2")),
        ("threads", 1u64.into()),
    ]);
    let first = client::expect_ok(c.request(&q).unwrap()).unwrap();
    let second = client::expect_ok(c.request(&q).unwrap()).unwrap();
    assert_eq!(first.get("fingerprint"), second.get("fingerprint"));
    let pool = second.get("pool").unwrap();
    assert_eq!(pool.get("misses").unwrap().as_u64(), Some(0), "warm pool");
    assert_eq!(pool.get("warm").unwrap().as_bool(), Some(true));

    // Stats see the traffic.
    let stats =
        client::expect_ok(c.request(&req(vec![("op", Json::str("stats"))])).unwrap()).unwrap();
    assert!(stats.get("requests").unwrap().as_u64().unwrap() >= 4);
    assert!(
        stats
            .get("pool")
            .unwrap()
            .get("hit_rate")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
}

#[test]
fn concurrent_clients_stress() {
    let (server, addr) = start_with("stress", 200);
    let clients = 8;
    let requests_per_client = 6;
    let fingerprints: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|ci| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut c = Client::connect(&addr).unwrap();
                    let mut prints = Vec::new();
                    for ri in 0..requests_per_client {
                        // Mix of verbs; every mxm uses the same options, so
                        // every client must see the same fingerprint.
                        if (ci + ri) % 3 == 0 {
                            let r = client::expect_ok(
                                c.request(&req(vec![("op", Json::str("list"))])).unwrap(),
                            )
                            .unwrap();
                            assert_eq!(r.get("count").unwrap().as_u64(), Some(1));
                        }
                        let r = client::expect_ok(
                            c.request(&req(vec![
                                ("op", Json::str("mxm")),
                                ("dataset", Json::str("g")),
                                ("algo", Json::str("msa")),
                            ]))
                            .unwrap(),
                        )
                        .unwrap();
                        prints.push(r.get("fingerprint").unwrap().as_str().unwrap().to_string());
                    }
                    prints
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let reference = &fingerprints[0][0];
    for per_client in &fingerprints {
        assert_eq!(per_client.len(), requests_per_client);
        for fp in per_client {
            assert_eq!(fp, reference, "results must not depend on interleaving");
        }
    }
    assert!(
        server.state().requests() >= (clients * requests_per_client) as u64,
        "all requests must be accounted"
    );
}

#[test]
fn malformed_requests_keep_the_connection_alive() {
    let (_server, addr) = start_with("malformed", 80);
    let mut c = Client::connect(&addr).unwrap();
    for bad in [
        "this is not json",
        "[1,2,3]",
        "\"just a string\"",
        r#"{"op":"mxm"}"#,
        r#"{"op":"mxm","dataset":"no-such"}"#,
        r#"{"op":17}"#,
        r#"{"no_op_at_all":true}"#,
    ] {
        let resp = c.request_line(bad).unwrap();
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false), "{bad}");
    }
    // After all that abuse the same connection still serves real work.
    let ok = client::expect_ok(
        c.request(&req(vec![
            ("op", Json::str("mxm")),
            ("dataset", Json::str("g")),
        ]))
        .unwrap(),
    )
    .unwrap();
    assert!(ok.get("nnz").unwrap().as_u64().unwrap() > 0);
}

/// The `load` fields that are gone: `"cache":"readonly"` is a typed
/// `bad_request` naming the policies that remain, and a `parse_threads`
/// key is ignored like any unknown one — the load is answered exactly as
/// one without it, but for its wall-clock fields.
#[test]
fn load_rejects_readonly_and_ignores_parse_threads() {
    let mtx = fixture("load_fields", 60);
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let load = |extra: Vec<(&str, Json)>| {
        let path = Json::str(mtx.to_str().unwrap());
        let pairs = [
            ("op", Json::str("load")),
            ("path", path),
            ("name", Json::str("g")),
        ];
        req(pairs.into_iter().chain(extra).collect())
    };
    let off = || ("cache", Json::str("off"));

    let resp = c
        .request(&load(vec![("cache", Json::str("readonly"))]))
        .unwrap();
    assert_eq!(
        resp.get("ok"),
        Some(&Json::Bool(false)),
        "{}",
        resp.to_line()
    );
    let err = resp.get("error").unwrap();
    assert_eq!(err.get("code").unwrap().as_str(), Some("bad_request"));
    let msg = err.get("message").unwrap().as_str().unwrap();
    assert!(msg.contains("readwrite|off"), "{msg}");

    // Timing aside, a load's response is a function of the file and the
    // options, so the two must match field for field.
    let untimed = |resp: Json| {
        let Json::Obj(mut fields) = client::expect_ok(resp).unwrap() else {
            unreachable!("responses are objects")
        };
        for (key, value) in &mut fields {
            if let (Json::Obj(ingest), "ingest") = (value, key.as_str()) {
                ingest.retain(|(k, _)| k != "seconds" && k != "mb_per_s");
            }
        }
        Json::Obj(fields)
    };
    let unload = r#"{"op":"unload","name":"g"}"#;
    let with = untimed(
        c.request(&load(vec![off(), ("parse_threads", 3u64.into())]))
            .unwrap(),
    );
    client::expect_ok(c.request_line(unload).unwrap()).unwrap();
    let without = untimed(c.request(&load(vec![off()])).unwrap());
    assert_eq!(with, without);
}

#[test]
fn oversized_payload_is_rejected_and_connection_closed() {
    let (_server, addr) = start_with("oversized", 60);
    let mut stream = TcpStream::connect(&addr).unwrap();
    // A single line far beyond the cap, streamed raw.
    let chunk = vec![b'x'; 1 << 16];
    let mut sent = 0usize;
    while sent <= mspgemm_serve::MAX_REQUEST_BYTES {
        stream.write_all(&chunk).unwrap();
        sent += chunk.len();
    }
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut resp = String::new();
    stream.read_to_string(&mut resp).unwrap();
    assert!(resp.contains("payload_too_large"), "{resp}");
    // The server closed the connection: another write eventually fails
    // (read_to_string returning proves EOF already).
}

/// The observability acceptance loop: issue a known mix of requests over
/// a real socket, then check the `metrics` verb accounts for exactly
/// that traffic — totals, per-verb counters, and latency histogram
/// counts — in both JSON and Prometheus form.
#[test]
fn metrics_counts_match_issued_requests() {
    let (_server, addr) = start_with("metrics", 120);
    let mut c = Client::connect(&addr).unwrap();
    let mxm = req(vec![
        ("op", Json::str("mxm")),
        ("dataset", Json::str("g")),
        ("algo", Json::str("hash")),
    ]);
    let issued = 5u64; // 1 ping + 3 mxm + 1 stats, all before `metrics`
    client::expect_ok(c.request(&req(vec![("op", Json::str("ping"))])).unwrap()).unwrap();
    for _ in 0..3 {
        client::expect_ok(c.request(&mxm).unwrap()).unwrap();
    }
    let stats =
        client::expect_ok(c.request(&req(vec![("op", Json::str("stats"))])).unwrap()).unwrap();
    // `stats` snapshots before its own latency is recorded: 4 seen.
    assert_eq!(stats.get("requests_total").unwrap().as_u64(), Some(4));
    assert_eq!(stats.get("errors_total").unwrap().as_u64(), Some(0));
    assert_eq!(
        stats.get("latency").unwrap().get("count").unwrap().as_u64(),
        Some(4)
    );

    let m =
        client::expect_ok(c.request(&req(vec![("op", Json::str("metrics"))])).unwrap()).unwrap();
    let counters = m.get("counters").unwrap().as_arr().unwrap();
    let counter = |name: &str, verb: Option<&str>| -> u64 {
        counters
            .iter()
            .find(|e| {
                e.get("name").unwrap().as_str() == Some(name)
                    && e.get("labels").unwrap().get("verb").and_then(Json::as_str) == verb
            })
            .unwrap_or_else(|| panic!("missing series {name} verb={verb:?}"))
            .get("value")
            .unwrap()
            .as_u64()
            .unwrap()
    };
    assert_eq!(counter("requests_total", None), issued);
    assert_eq!(counter("requests_total", Some("mxm")), 3);
    assert_eq!(counter("requests_total", Some("ping")), 1);
    assert_eq!(counter("errors_total", None), 0);

    let hists = m.get("histograms").unwrap().as_arr().unwrap();
    let mxm_lat = hists
        .iter()
        .find(|e| {
            e.get("name").unwrap().as_str() == Some("request_latency_us")
                && e.get("labels").unwrap().get("verb").and_then(Json::as_str) == Some("mxm")
        })
        .expect("per-verb latency histogram");
    assert_eq!(mxm_lat.get("count").unwrap().as_u64(), Some(3));
    assert!(
        mxm_lat.get("p50").unwrap().as_u64().unwrap()
            <= mxm_lat.get("p99").unwrap().as_u64().unwrap()
    );

    // Prometheus exposition over the same socket: one more request has
    // landed (the JSON metrics call), so the total advanced by one.
    let prom = client::expect_ok(
        c.request(&req(vec![
            ("op", Json::str("metrics")),
            ("format", Json::str("prometheus")),
        ]))
        .unwrap(),
    )
    .unwrap();
    let text = prom.get("text").unwrap().as_str().unwrap();
    assert!(
        text.contains(&format!("requests_total {}", issued + 1)),
        "{text}"
    );
    assert!(text.contains("request_latency_us_bucket{verb=\"mxm\",le=\""));
    assert!(text.contains("request_latency_us_count{verb=\"mxm\"} 3"));
}

/// A closed-loop client on a two-executor server: each request is sent
/// after the previous answer, so the executor that answered is the most
/// recently idle one and takes the next request too. The affinity shows
/// in `executor_batches_total`, whose two series exist from startup.
#[test]
fn a_sequential_client_stays_on_one_executor() {
    let mtx = fixture("affinity", 120);
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            max_inflight: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    server
        .preload(&[mtx.to_str().unwrap().to_string()])
        .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let batches = |c: &mut Client| -> Vec<u64> {
        let m = client::expect_ok(c.request(&req(vec![("op", Json::str("metrics"))])).unwrap())
            .unwrap();
        let counters = m.get("counters").unwrap().as_arr().unwrap();
        ["0", "1"]
            .iter()
            .map(|slot| {
                counters
                    .iter()
                    .find(|e| {
                        e.get("name").unwrap().as_str() == Some("executor_batches_total")
                            && e.get("labels").unwrap().get("slot").and_then(Json::as_str)
                                == Some(*slot)
                    })
                    .unwrap_or_else(|| panic!("missing series executor_batches_total slot={slot}"))
                    .get("value")
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .collect()
    };
    assert_eq!(batches(&mut c), [0, 0], "both slots are registered at 0");
    let tc = req(vec![
        ("op", Json::str("app")),
        ("dataset", Json::str("g")),
        ("app", Json::str("tc")),
    ]);
    for _ in 0..20 {
        client::expect_ok(c.request(&tc).unwrap()).unwrap();
    }
    let per_slot = batches(&mut c);
    assert_eq!(per_slot.iter().sum::<u64>(), 20);
    assert!(
        per_slot.iter().any(|&n| n >= 18),
        "a sequential client's requests spread over executors: {per_slot:?}"
    );
}

/// Send one request on a fresh connection, retrying typed `busy`
/// responses the way a well-behaved client would: sleep about the
/// hinted backoff, resend. Every busy response along the way is checked
/// for well-formedness (the code AND a positive `retry_after_ms`).
fn request_until_ok(addr: &str, request: &Json, busy_seen: &AtomicU64) -> Json {
    let mut c = Client::connect(addr).unwrap();
    for _ in 0..500 {
        let resp = c.request(request).unwrap();
        if resp.get("ok").unwrap().as_bool() == Some(true) {
            return resp;
        }
        let err = resp.get("error").unwrap();
        assert_eq!(
            err.get("code").unwrap().as_str(),
            Some("busy"),
            "only busy is retryable here: {}",
            resp.to_line()
        );
        let hint = err.get("retry_after_ms").unwrap().as_u64().unwrap();
        assert!(hint > 0, "busy must carry a positive hint");
        busy_seen.fetch_add(1, Ordering::Relaxed);
        // Cap the honored backoff so the test stays fast even when the
        // server suggests a long wait.
        std::thread::sleep(Duration::from_millis(hint.min(40)));
    }
    panic!("request never succeeded: {}", request.to_line());
}

/// The overload acceptance loop: a 100-client burst against two executor
/// workers and a short queue. Nothing may hang, nothing may be lost —
/// every client eventually gets a correct answer (fingerprints agree per
/// mask mode, fused or not), every rejection is a well-formed `busy`,
/// and afterwards the metrics account for the queueing and the
/// rejections.
#[test]
fn hundred_client_burst_sheds_load_with_typed_busy() {
    let mtx = fixture("burst", 150);
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            max_inflight: 2,
            queue_depth: 16,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    server
        .preload(&[mtx.to_str().unwrap().to_string()])
        .unwrap();
    let addr = server.addr().to_string();

    let clients = 100;
    let busy_seen = AtomicU64::new(0);
    let barrier = Barrier::new(clients);
    let fingerprints: Vec<(bool, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|ci| {
                let addr = addr.clone();
                let busy_seen = &busy_seen;
                let barrier = &barrier;
                scope.spawn(move || {
                    // Alternate mask modes so fusion has two passes to tell apart.
                    let complement = ci % 2 == 1;
                    let request = req(vec![
                        ("op", Json::str("mxm")),
                        ("dataset", Json::str("g")),
                        ("algo", Json::str("hash")),
                        (
                            "mask",
                            Json::str(if complement { "complement" } else { "normal" }),
                        ),
                    ]);
                    barrier.wait();
                    let resp = request_until_ok(&addr, &request, busy_seen);
                    assert!(resp.get("fused_group").unwrap().as_u64().unwrap() >= 1);
                    (
                        complement,
                        resp.get("fingerprint")
                            .unwrap()
                            .as_str()
                            .unwrap()
                            .to_string(),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Fingerprint agreement per mask mode, across fused and unfused
    // executions alike.
    for complement in [false, true] {
        let group: Vec<&String> = fingerprints
            .iter()
            .filter(|(c, _)| *c == complement)
            .map(|(_, fp)| fp)
            .collect();
        assert_eq!(group.len(), clients / 2);
        assert!(
            group.iter().all(|fp| *fp == group[0]),
            "results must not depend on interleaving or fusion"
        );
    }

    // The metrics agree with what the clients saw: every rejection was
    // counted, and the queue-wait histogram finally has real samples.
    let m = client::expect_ok(
        client::query_once(&addr, &req(vec![("op", Json::str("metrics"))])).unwrap(),
    )
    .unwrap();
    let counters = m.get("counters").unwrap().as_arr().unwrap();
    let rejected = counters
        .iter()
        .find(|e| e.get("name").unwrap().as_str() == Some("rejected_busy_total"))
        .expect("rejected_busy_total is pre-registered")
        .get("value")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(rejected, busy_seen.load(Ordering::Relaxed));
    let hists = m.get("histograms").unwrap().as_arr().unwrap();
    let queue_wait = hists
        .iter()
        .find(|e| {
            e.get("name").unwrap().as_str() == Some("queue_wait_us")
                && e.get("labels").unwrap().get("verb").and_then(Json::as_str) == Some("mxm")
        })
        .expect("queue_wait_us{verb=mxm} exists");
    assert!(
        queue_wait.get("count").unwrap().as_u64().unwrap() >= clients as u64,
        "every accepted mxm charges its queue wait"
    );
}

/// Deterministic overload: one worker, one queue slot, ten simultaneous
/// slow requests — most must be rejected with `busy`, and every client
/// that retries per the hint eventually succeeds with the same result.
#[test]
fn busy_rejections_happen_under_a_tiny_queue() {
    let mtx = fixture("tinyqueue", 140);
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            max_inflight: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    server
        .preload(&[mtx.to_str().unwrap().to_string()])
        .unwrap();
    let addr = server.addr().to_string();

    let clients = 10;
    let busy_seen = AtomicU64::new(0);
    let barrier = Barrier::new(clients);
    let fps: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let addr = addr.clone();
                let busy_seen = &busy_seen;
                let barrier = &barrier;
                scope.spawn(move || {
                    // reps slows each execution enough that ten
                    // simultaneous submissions cannot all fit into one
                    // executing + one queued slot.
                    let request = req(vec![
                        ("op", Json::str("mxm")),
                        ("dataset", Json::str("g")),
                        ("algo", Json::str("msa")),
                        ("reps", 10u64.into()),
                    ]);
                    barrier.wait();
                    let resp = request_until_ok(&addr, &request, busy_seen);
                    resp.get("fingerprint")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(fps.iter().all(|fp| *fp == fps[0]));
    assert!(
        busy_seen.load(Ordering::Relaxed) > 0,
        "a 10-way simultaneous burst into capacity 2 must shed load"
    );
}

#[test]
fn shutdown_verb_stops_the_server() {
    let (server, addr) = start_with("shutdown", 60);
    let mut c = Client::connect(&addr).unwrap();
    let resp = client::expect_ok(
        c.request(&req(vec![("op", Json::str("shutdown"))]))
            .unwrap(),
    )
    .unwrap();
    assert_eq!(resp.get("stopping").unwrap().as_bool(), Some(true));
    server.wait(); // must return: the accept loop observed the flag
                   // New connections are refused or die without service.
    match Client::connect(&addr) {
        Err(_) => {}
        Ok(mut c) => {
            let r = c.request(&req(vec![("op", Json::str("ping"))]));
            match r {
                Err(_) => {}
                Ok(resp) => assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false)),
            }
        }
    }
}

#[cfg(unix)]
#[test]
fn unix_socket_transport() {
    let mtx = fixture("unix", 70);
    let sock = std::env::temp_dir().join(format!("mspgemm_serve_{}.sock", std::process::id()));
    std::fs::remove_file(&sock).ok();
    let spec = format!("unix:{}", sock.display());
    // A preload that fails fails the start, and the bound socket goes
    // with it.
    let missing = [mtx.with_file_name("missing.mtx").display().to_string()];
    assert!(Server::start_preloaded(&spec, ServeConfig::default(), &missing).is_err());
    assert!(!sock.exists(), "socket file left behind by a failed start");
    let (server, names) = Server::start_preloaded(
        &spec,
        ServeConfig::default(),
        &[mtx.to_str().unwrap().to_string()],
    )
    .unwrap();
    assert_eq!(names, ["g"]);
    let resp = client::query_once(
        &spec,
        &req(vec![
            ("op", Json::str("mxm")),
            ("dataset", Json::str("g")),
            ("algo", Json::str("heap")),
        ]),
    )
    .unwrap();
    assert!(resp.get("nnz").unwrap().as_u64().unwrap() > 0);
    drop(server); // Drop shuts down and removes the socket file
    assert!(!sock.exists(), "socket file must be cleaned up");
}
