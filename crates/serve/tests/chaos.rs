//! The chaos suite: fault injection against a live server.
//!
//! Every test here arms `mspgemm_fault` failpoints and drives a real
//! TCP server through them, checking the self-healing contracts end to
//! end: a kernel panic costs one worker thread (respawned by its
//! sentinel) and is answered with a typed `exec_failed`; repeat
//! offenders get quarantined while other datasets keep serving; ingest
//! faults surface as typed `load_failed`; an `unload` racing an
//! in-flight fused group cannot corrupt results because the batch holds
//! `Arc`'d operand views.
//!
//! The headline test is [`chaos_storm_holds_every_invariant`]: eight
//! concurrent clients under a seeded storm of io + kernel + socket
//! faults, with a global deadline (no hangs), a well-formedness check
//! on every response line, fingerprint parity for every success, exact
//! metric accounting reconciled against `fault::hits`, and clean
//! service after the storm clears.
//!
//! Failpoint state is process-global, so every test serializes on an
//! internal mutex and clears the table when done. Nothing else in the
//! test suite arms failpoints — the serve lib tests stay on the
//! disarmed fast path.

use mspgemm_serve::{client, Client, Json, ServeConfig, Server};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Failpoint state is process-global; every test serializes here.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Write one synthetic graph as `<dir>/<file>` and return its path.
fn fixture(tag: &str, file: &str, n: usize, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mspgemm_chaos_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file);
    let g = mspgemm_gen::er_symmetric(n, 6, seed);
    mspgemm_io::mtx::write_mtx_file(&path, &g).unwrap();
    path
}

fn req(pairs: Vec<(&str, Json)>) -> Json {
    Json::obj(pairs)
}

fn mxm_req(ds: &str, algo: &str, mask: &str) -> Json {
    req(vec![
        ("op", Json::str("mxm")),
        ("dataset", Json::str(ds)),
        ("algo", Json::str(algo)),
        ("mask", Json::str(mask)),
    ])
}

fn fingerprint(resp: &Json) -> String {
    resp.get("fingerprint")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("response has no fingerprint: {}", resp.to_line()))
        .to_string()
}

fn err_code(resp: &Json) -> String {
    resp.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("response has no error code: {}", resp.to_line()))
        .to_string()
}

/// The value of an unlabeled counter in a `metrics` response (0 when the
/// series does not exist yet).
fn total_counter(m: &Json, name: &str) -> u64 {
    m.get("counters")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .find(|e| {
            e.get("name").unwrap().as_str() == Some(name)
                && e.get("labels").unwrap().get("verb").is_none()
        })
        .map(|e| e.get("value").unwrap().as_u64().unwrap())
        .unwrap_or(0)
}

fn scrape_metrics(c: &mut Client) -> Json {
    client::expect_ok(c.request(&req(vec![("op", Json::str("metrics"))])).unwrap()).unwrap()
}

/// Block until the named counter reaches `want` — restart accounting is
/// asynchronous (the sentinel increments while the panicked thread is
/// still unwinding, after the client already has its answer).
fn await_counter(c: &mut Client, name: &str, want: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = scrape_metrics(c);
        let got = total_counter(&m, name);
        assert!(got <= want, "{name} overshot: {got} > {want}");
        if got == want {
            return m;
        }
        assert!(
            Instant::now() < deadline,
            "{name} stuck at {got}, want {want}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn connect_retry(addr: &str) -> Result<Client, String> {
    let mut last = String::from("never tried");
    for _ in 0..40 {
        match Client::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) => last = e,
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    Err(last)
}

/// A kernel panic is not a serve outage: the rider gets a typed
/// `exec_failed` naming the panic, the dead worker is respawned (and
/// counted), and the very next request runs clean.
#[test]
fn worker_panic_is_answered_typed_and_the_worker_respawns() {
    let _g = guard();
    mspgemm_fault::clear();
    let mtx = fixture("restart", "g.mtx", 100, 11);
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    server
        .preload(&[mtx.to_str().unwrap().to_string()])
        .unwrap();
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    let q = mxm_req("g", "hash", "normal");
    let reference = fingerprint(&client::expect_ok(c.request(&q).unwrap()).unwrap());

    mspgemm_fault::configure("kernel.numeric=1*err(chaos monkey)").unwrap();
    // `stats` discloses the armed table before anything fires.
    let stats =
        client::expect_ok(c.request(&req(vec![("op", Json::str("stats"))])).unwrap()).unwrap();
    let fps = stats.get("failpoints").unwrap().as_arr().unwrap();
    assert!(
        fps.iter().any(
            |f| f.get("name").unwrap().as_str() == Some("kernel.numeric")
                && f.get("task").unwrap().as_str() == Some("1*err(chaos monkey)")
        ),
        "{}",
        stats.to_line()
    );

    let resp = c.request(&q).unwrap();
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(err_code(&resp), "exec_failed");
    let msg = resp
        .get("error")
        .unwrap()
        .get("message")
        .unwrap()
        .as_str()
        .unwrap();
    assert!(
        msg.contains("kernel panicked on dataset 'g'") && msg.contains("kernel.numeric"),
        "{msg}"
    );

    let _ = await_counter(&mut c, "worker_restarts_total", 1);
    // Same connection, same dataset, fresh worker: clean service.
    let after = fingerprint(&client::expect_ok(c.request(&q).unwrap()).unwrap());
    assert_eq!(after, reference);
    mspgemm_fault::clear();
}

/// The pull scheme runs the shared row drive, so the kernel failpoints
/// bind for it as for every push scheme: one armed `kernel.numeric` error
/// answers `"algo":"inner"` with a typed `exec_failed`, once.
#[test]
fn kernel_failpoint_binds_for_inner() {
    let _g = guard();
    mspgemm_fault::clear();
    let mtx = fixture("innerfp", "g.mtx", 100, 23);
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    server
        .preload(&[mtx.to_str().unwrap().to_string()])
        .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let q = mxm_req("g", "inner", "normal");
    let reference = fingerprint(&client::expect_ok(c.request(&q).unwrap()).unwrap());

    mspgemm_fault::configure("kernel.numeric=1*err(x)").unwrap();
    let resp = c.request(&q).unwrap();
    assert_eq!(err_code(&resp), "exec_failed", "{}", resp.to_line());
    assert_eq!(mspgemm_fault::hits("kernel.numeric"), 1);
    let _ = await_counter(&mut c, "worker_restarts_total", 1);
    let after = fingerprint(&client::expect_ok(c.request(&q).unwrap()).unwrap());
    assert_eq!(after, reference);
    mspgemm_fault::clear();
}

/// The single panic policy covers every heavy verb: a kernel panic under
/// `app tc` is attributed to the dataset (`panics` in `list`), answered
/// with the same typed `exec_failed`, and costs the worker — respawned
/// and counted — exactly like one under `mxm`.
#[test]
fn app_panic_follows_the_same_policy_as_mxm() {
    let _g = guard();
    mspgemm_fault::clear();
    let mtx = fixture("apppanic", "g.mtx", 100, 13);
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    server
        .preload(&[mtx.to_str().unwrap().to_string()])
        .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let tc = req(vec![
        ("op", Json::str("app")),
        ("dataset", Json::str("g")),
        ("app", Json::str("tc")),
    ]);
    let reference = client::expect_ok(c.request(&tc).unwrap()).unwrap();

    mspgemm_fault::configure("kernel.numeric=1*err(x)").unwrap();
    let resp = c.request(&tc).unwrap();
    assert_eq!(err_code(&resp), "exec_failed", "{}", resp.to_line());
    let msg = resp.get("error").unwrap().get("message").unwrap();
    assert!(
        msg.as_str()
            .unwrap()
            .contains("kernel panicked on dataset 'g'"),
        "{}",
        resp.to_line()
    );
    let list =
        client::expect_ok(c.request(&req(vec![("op", Json::str("list"))])).unwrap()).unwrap();
    let entry = &list.get("datasets").unwrap().as_arr().unwrap()[0];
    assert_eq!(entry.get("panics").unwrap().as_u64(), Some(1));
    assert_eq!(entry.get("quarantined").unwrap().as_bool(), Some(false));
    let _ = await_counter(&mut c, "worker_restarts_total", 1);
    // Fresh worker, same answer as before the fault.
    let after = client::expect_ok(c.request(&tc).unwrap()).unwrap();
    assert_eq!(after.get("triangles"), reference.get("triangles"));
    mspgemm_fault::clear();
}

/// The `mxm` verb runs the kernel exactly `reps` times — no hidden
/// warm-up pass: the first request on a cold server fires the numeric
/// phase once and cannot have hit the (empty) workspace pool.
#[test]
fn mxm_runs_the_kernel_exactly_reps_times() {
    let _g = guard();
    mspgemm_fault::clear();
    let mtx = fixture("reps", "g.mtx", 100, 19);
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    server
        .preload(&[mtx.to_str().unwrap().to_string()])
        .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    // A zero-length stall: the failpoint only counts its fires.
    mspgemm_fault::configure("kernel.numeric=delay(0)").unwrap();
    let cold = client::expect_ok(c.request(&mxm_req("g", "hash", "normal")).unwrap()).unwrap();
    assert_eq!(mspgemm_fault::hits("kernel.numeric"), 1);
    let pool = cold.get("pool").unwrap();
    assert_eq!(
        pool.get("hits").unwrap().as_u64(),
        Some(0),
        "{}",
        cold.to_line()
    );
    let mut three = mxm_req("g", "hash", "normal");
    if let Json::Obj(pairs) = &mut three {
        pairs.push(("reps".to_string(), 3u64.into()));
    }
    client::expect_ok(c.request(&three).unwrap()).unwrap();
    assert_eq!(mspgemm_fault::hits("kernel.numeric"), 1 + 3);
    mspgemm_fault::clear();
}

/// K panics attributed to one dataset flip it to quarantined — typed
/// rejections at admission — while every other dataset keeps serving.
/// `unload` + `load` clears the verdict.
#[test]
fn repeated_panics_quarantine_the_dataset_until_reload() {
    let _g = guard();
    mspgemm_fault::clear();
    let a = fixture("quarantine", "a.mtx", 80, 3);
    let b = fixture("quarantine", "b.mtx", 90, 5);
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            quarantine_after: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    server
        .preload(&[
            a.to_str().unwrap().to_string(),
            b.to_str().unwrap().to_string(),
        ])
        .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    mspgemm_fault::configure("kernel.numeric=2*err(bad dataset)").unwrap();
    for _ in 0..2 {
        let resp = c.request(&mxm_req("a", "hash", "normal")).unwrap();
        assert_eq!(err_code(&resp), "exec_failed", "{}", resp.to_line());
    }
    // Third strike is rejected at admission, before any queue slot.
    let resp = c.request(&mxm_req("a", "hash", "normal")).unwrap();
    assert_eq!(err_code(&resp), "quarantined", "{}", resp.to_line());
    // The healthy dataset is untouched.
    client::expect_ok(c.request(&mxm_req("b", "msa", "normal")).unwrap()).unwrap();

    let list =
        client::expect_ok(c.request(&req(vec![("op", Json::str("list"))])).unwrap()).unwrap();
    let entry = |name: &str| {
        list.get("datasets")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .find(|d| d.get("name").unwrap().as_str() == Some(name))
            .unwrap()
            .clone()
    };
    assert_eq!(entry("a").get("quarantined").unwrap().as_bool(), Some(true));
    assert_eq!(entry("a").get("panics").unwrap().as_u64(), Some(2));
    assert_eq!(
        entry("b").get("quarantined").unwrap().as_bool(),
        Some(false)
    );
    let m = scrape_metrics(&mut c);
    assert_eq!(total_counter(&m, "quarantined_total"), 1);

    // Reload lifts the quarantine.
    client::expect_ok(
        c.request(&req(vec![
            ("op", Json::str("unload")),
            ("name", Json::str("a")),
        ]))
        .unwrap(),
    )
    .unwrap();
    client::expect_ok(
        c.request(&req(vec![
            ("op", Json::str("load")),
            ("path", Json::str(a.to_str().unwrap())),
        ]))
        .unwrap(),
    )
    .unwrap();
    client::expect_ok(c.request(&mxm_req("a", "hash", "normal")).unwrap()).unwrap();
    mspgemm_fault::clear();
}

/// Ingest faults surface as typed `load_failed` naming the failpoint,
/// and a refused mmap degrades gracefully to the heap reader with
/// identical results.
#[test]
fn io_faults_are_typed_and_mmap_refusal_falls_back_to_heap() {
    let _g = guard();
    mspgemm_fault::clear();
    let mtx = fixture("iofault", "k.mtx", 80, 7);
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let load = |name: &str, path: &str, mmap: bool| {
        req(vec![
            ("op", Json::str("load")),
            ("path", Json::str(path)),
            ("name", Json::str(name)),
            ("mmap", mmap.into()),
        ])
    };
    let path = mtx.to_str().unwrap();

    // Registry-level failure.
    mspgemm_fault::configure("serve.registry.load=1*err(registry wedged)").unwrap();
    let resp = c.request(&load("r1", path, false)).unwrap();
    assert_eq!(err_code(&resp), "load_failed", "{}", resp.to_line());

    // Ingest-level failure: one shot, so the retry succeeds.
    mspgemm_fault::configure("io.load=1*err(disk gone)").unwrap();
    let resp = c.request(&load("r2", path, false)).unwrap();
    assert_eq!(err_code(&resp), "load_failed");
    assert!(
        resp.get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("failpoint io.load"),
        "{}",
        resp.to_line()
    );
    client::expect_ok(c.request(&load("r2", path, false)).unwrap()).unwrap();

    // A refused mapping call degrades to the heap-copying reader.
    let dir = std::env::temp_dir().join("mspgemm_chaos_iofault");
    let msb = dir.join("k.msb");
    let g = mspgemm_gen::er_symmetric(80, 6, 7);
    let mut buf = Vec::new();
    mspgemm_io::msb::write_msb(&mut buf, &g).unwrap();
    std::fs::write(&msb, &buf).unwrap();
    let msb_path = msb.to_str().unwrap();

    mspgemm_fault::configure("io.mmap=err(mapping refused)").unwrap();
    let heap = client::expect_ok(c.request(&load("m1", msb_path, true)).unwrap()).unwrap();
    assert_eq!(heap.get("backend").unwrap().as_str(), Some("heap"));
    assert_eq!(heap.get("mapped_bytes").unwrap().as_u64(), Some(0));

    mspgemm_fault::clear();
    let mapped = client::expect_ok(c.request(&load("m2", msb_path, true)).unwrap()).unwrap();
    if cfg!(all(target_endian = "little", target_pointer_width = "64")) {
        assert_eq!(mapped.get("backend").unwrap().as_str(), Some("mmap"));
    }
    // Both replicas of the same bytes compute the same product.
    let f1 = fingerprint(
        &client::expect_ok(c.request(&mxm_req("m1", "hash", "normal")).unwrap()).unwrap(),
    );
    let f2 = fingerprint(
        &client::expect_ok(c.request(&mxm_req("m2", "hash", "normal")).unwrap()).unwrap(),
    );
    assert_eq!(f1, f2);
    mspgemm_fault::clear();
}

/// `unload` racing an in-flight fused group: the batch resolved its
/// operands into `Arc`'d views before the kernel started, so the unload
/// succeeds immediately and every rider still returns the correct
/// fingerprint.
#[test]
fn unload_races_an_in_flight_fused_group() {
    let _g = guard();
    mspgemm_fault::clear();
    let block = fixture("unloadrace", "block.mtx", 60, 5);
    let gpath = fixture("unloadrace", "g.mtx", 120, 7);
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            max_inflight: 1,
            queue_depth: 8,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    server
        .preload(&[
            block.to_str().unwrap().to_string(),
            gpath.to_str().unwrap().to_string(),
        ])
        .unwrap();
    let addr = server.addr().to_string();

    let reference =
        fingerprint(&client::query_once(&addr, &mxm_req("g", "hash", "normal")).unwrap());

    // Each pass runs the kernel exactly once (`reps` defaults to 1), so
    // two shots cover exactly two passes: the blocker's pass (~600ms,
    // letting the riders pile up behind it and fuse) and the riders' own
    // pass (~600ms more, so the unload lands mid-kernel, after the batch
    // resolved its Arc'd views).
    mspgemm_fault::configure("kernel.numeric=2*delay(600)").unwrap();
    std::thread::scope(|scope| {
        let blocker =
            scope.spawn(|| client::query_once(&addr, &mxm_req("block", "hash", "normal")).unwrap());
        std::thread::sleep(Duration::from_millis(60));
        let riders: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    client::query_once(&addr, &mxm_req("g", "hash", "normal")).unwrap()
                })
            })
            .collect();
        // The blocker finishes ~t=600ms, the fused rider pass then runs
        // until ~t=1200ms; unload at ~t=900ms lands inside that window.
        std::thread::sleep(Duration::from_millis(840));
        client::query_once(
            &addr,
            &req(vec![("op", Json::str("unload")), ("name", Json::str("g"))]),
        )
        .unwrap();
        for rider in riders {
            let resp = rider.join().unwrap();
            assert_eq!(
                resp.get("fused_group").unwrap().as_u64(),
                Some(3),
                "all riders share the one in-flight pass: {}",
                resp.to_line()
            );
            assert_eq!(fingerprint(&resp), reference);
        }
        blocker.join().unwrap();
    });
    mspgemm_fault::clear();

    // The unload won: the dataset is gone...
    let mut c = Client::connect(&addr).unwrap();
    let resp = c.request(&mxm_req("g", "hash", "normal")).unwrap();
    assert_eq!(err_code(&resp), "unknown_dataset");
    // ...and a reload serves the same bytes as before the race.
    client::expect_ok(
        c.request(&req(vec![
            ("op", Json::str("load")),
            ("path", Json::str(gpath.to_str().unwrap())),
        ]))
        .unwrap(),
    )
    .unwrap();
    let after = fingerprint(
        &client::expect_ok(c.request(&mxm_req("g", "hash", "normal")).unwrap()).unwrap(),
    );
    assert_eq!(after, reference);
}

/// A request whose deadline expires while it waits behind a slow one is
/// answered `deadline_exceeded` instead of running stale work. The slow
/// request is a delayed executor, not a large product, so the worker is
/// held as long in a release build as in a debug one.
#[test]
fn queued_deadline_expires_behind_a_slow_request() {
    let _g = guard();
    mspgemm_fault::clear();
    let mtx = fixture("deadline", "g.mtx", 120, 17);
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            max_inflight: 1,
            queue_depth: 8,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    server
        .preload(&[mtx.to_str().unwrap().to_string()])
        .unwrap();
    let addr = server.addr().to_string();

    // The only worker sleeps 500ms before the first batch it claims.
    mspgemm_fault::configure("serve.exec.delay=1*delay(500)").unwrap();
    std::thread::scope(|scope| {
        // A slow request occupies the only worker...
        let slow =
            scope.spawn(|| client::query_once(&addr, &mxm_req("g", "msa", "normal")).unwrap());
        // ...and once the worker has claimed it and sleeps, a
        // tightly-budgeted one queues behind it.
        let t0 = Instant::now();
        while mspgemm_fault::hits("serve.exec.delay") == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "the worker never claimed the slow request"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut c = Client::connect(&addr).unwrap();
        let resp = c
            .request(&req(vec![
                ("op", Json::str("mxm")),
                ("dataset", Json::str("g")),
                ("deadline_ms", 5u64.into()),
            ]))
            .unwrap();
        assert_eq!(
            resp.get("error").unwrap().get("code").unwrap().as_str(),
            Some("deadline_exceeded"),
            "{}",
            resp.to_line()
        );
        slow.join().unwrap();
    });
    mspgemm_fault::clear();
}

const STORM_CLIENTS: usize = 8;
const STORM_REQUESTS: usize = 14;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Validate one storm response: well-formed `ok`, every error from the
/// small set this storm can legally produce, every successful `mxm`
/// bit-identical to its pre-storm reference. Returns the anomaly, if
/// any.
fn check_storm_response(ci: usize, resp: &Json, refs: &HashMap<String, String>) -> Option<String> {
    let line = resp.to_line();
    let Some(ok) = resp.get("ok").and_then(Json::as_bool) else {
        return Some(format!("client {ci}: response without ok: {line}"));
    };
    if !ok {
        let Some(err) = resp.get("error") else {
            return Some(format!("client {ci}: error without error object: {line}"));
        };
        let code = err.get("code").and_then(Json::as_str).unwrap_or("");
        if !["exec_failed", "busy", "load_failed"].contains(&code) {
            return Some(format!("client {ci}: unexpected error code: {line}"));
        }
        if err
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("")
            .is_empty()
        {
            return Some(format!("client {ci}: error without message: {line}"));
        }
        if code == "busy"
            && err
                .get("retry_after_ms")
                .and_then(Json::as_u64)
                .unwrap_or(0)
                == 0
        {
            return Some(format!("client {ci}: busy without a positive hint: {line}"));
        }
        return None;
    }
    if resp.get("op").and_then(Json::as_str) != Some("mxm") {
        return None;
    }
    // The response echoes display-cased algorithm names ("Hash");
    // reference keys use the request spelling.
    let key = format!(
        "{}/{}/{}",
        resp.get("dataset").and_then(Json::as_str).unwrap_or("?"),
        resp.get("algo")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_lowercase(),
        resp.get("mask").and_then(Json::as_str).unwrap_or("?"),
    );
    let Some(want) = refs.get(&key) else {
        return Some(format!(
            "client {ci}: mxm response off the request grid: {line}"
        ));
    };
    let got = resp.get("fingerprint").and_then(Json::as_str).unwrap_or("");
    if got != want {
        return Some(format!(
            "client {ci}: fingerprint diverged under faults for {key}: got {got}, want {want}"
        ));
    }
    None
}

/// One storm client: a seeded mix of mxm / stats / load requests. A
/// dead connection (the `serve.conn.drop` failpoint) is survived by
/// reconnecting; the dropped response is reconciled later through
/// `fault::hits`. Returns (responses received, anomalies).
fn storm_client(
    ci: usize,
    addr: &str,
    refs: &HashMap<String, String>,
    load_path: &str,
) -> (u64, Vec<String>) {
    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (ci as u64 + 1).wrapping_mul(0x243f_6a88_85a3_08d3);
    let mut received = 0u64;
    let mut anomalies = Vec::new();
    let mut conn = match connect_retry(addr) {
        Ok(c) => Some(c),
        Err(e) => {
            anomalies.push(format!("client {ci}: connect failed: {e}"));
            None
        }
    };
    for ri in 0..STORM_REQUESTS {
        let line = match xorshift(&mut rng) % 8 {
            0 => r#"{"op":"stats"}"#.to_string(),
            1 => format!(r#"{{"op":"load","path":"{load_path}","name":"storm-{ci}-{ri}"}}"#),
            _ => {
                let ds = if xorshift(&mut rng).is_multiple_of(2) {
                    "a"
                } else {
                    "b"
                };
                let algo = if xorshift(&mut rng).is_multiple_of(2) {
                    "hash"
                } else {
                    "msa"
                };
                let mask = if xorshift(&mut rng).is_multiple_of(4) {
                    "complement"
                } else {
                    "normal"
                };
                let phases = if xorshift(&mut rng).is_multiple_of(4) {
                    "2"
                } else {
                    "1"
                };
                format!(
                    r#"{{"op":"mxm","dataset":"{ds}","algo":"{algo}","mask":"{mask}","phases":"{phases}"}}"#
                )
            }
        };
        let Some(c) = conn.as_mut() else {
            anomalies.push(format!("client {ci}: no connection left"));
            break;
        };
        match c.request_line(&line) {
            Ok(resp) => {
                received += 1;
                if let Some(a) = check_storm_response(ci, &resp, refs) {
                    anomalies.push(a);
                }
            }
            Err(e) if e.contains("bad response") || e.contains("line cap") => {
                anomalies.push(format!("client {ci} req {ri}: {e}"));
            }
            Err(_) => {
                // The injected connection drop. The request WAS handled
                // and recorded server-side — `hits("serve.conn.drop")`
                // reconciles the gap — so just reconnect and move on.
                conn = connect_retry(addr).ok();
                if conn.is_none() {
                    anomalies.push(format!("client {ci}: reconnect failed"));
                    break;
                }
            }
        }
    }
    (received, anomalies)
}

/// The headline storm: eight concurrent clients under a seeded schedule
/// of io, kernel, and socket faults. Asserts, in order: no client hangs
/// past the global deadline; every received line is well-formed; every
/// successful `mxm` matches its pre-storm fingerprint; worker restarts
/// equal kernel panics exactly; and the request totals reconcile to the
/// last response — counted responses plus injected connection drops —
/// with clean service once the storm clears.
#[test]
fn chaos_storm_holds_every_invariant() {
    let _g = guard();
    mspgemm_fault::clear();
    let a = fixture("storm", "a.mtx", 120, 17);
    let b = fixture("storm", "b.mtx", 160, 23);
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            max_inflight: 2,
            queue_depth: 32,
            // The storm panics on purpose; quarantine is someone else's
            // test.
            quarantine_after: 1_000_000,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    server
        .preload(&[
            a.to_str().unwrap().to_string(),
            b.to_str().unwrap().to_string(),
        ])
        .unwrap();
    let addr = server.addr().to_string();

    // Pre-storm references for every point on the request grid. These
    // are the only recorded requests before the storm (preloads bypass
    // the protocol).
    let mut refs: HashMap<String, String> = HashMap::new();
    let mut c = Client::connect(&addr).unwrap();
    for ds in ["a", "b"] {
        for algo in ["hash", "msa"] {
            for mask in ["normal", "complement"] {
                let resp = client::expect_ok(c.request(&mxm_req(ds, algo, mask)).unwrap()).unwrap();
                refs.insert(format!("{ds}/{algo}/{mask}"), fingerprint(&resp));
            }
        }
    }
    let setup_requests = 8u64;

    // The reproducible fault schedule: kernel panics (worker deaths),
    // slow executors, dropped sockets, failing ingests.
    mspgemm_fault::seed(0xC0FFEE);
    mspgemm_fault::configure(
        "kernel.numeric=4%err(storm);kernel.symbolic=3%err(storm);\
         serve.conn.drop=8%err;serve.exec.delay=15%delay(20);io.load=33%err(storm disk)",
    )
    .unwrap();

    let done = AtomicUsize::new(0);
    let results: Vec<(u64, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..STORM_CLIENTS)
            .map(|ci| {
                let addr = addr.clone();
                let refs = &refs;
                let done = &done;
                let load_path = a.to_str().unwrap();
                scope.spawn(move || {
                    let out = storm_client(ci, &addr, refs, load_path);
                    done.fetch_add(1, Ordering::SeqCst);
                    out
                })
            })
            .collect();
        // The no-hang assertion: every client is done well before this
        // global deadline or the storm failed.
        let t0 = Instant::now();
        while done.load(Ordering::SeqCst) < STORM_CLIENTS && t0.elapsed() < Duration::from_secs(120)
        {
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(
            done.load(Ordering::SeqCst),
            STORM_CLIENTS,
            "chaos clients hung past the global deadline"
        );
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let received: u64 = results.iter().map(|(r, _)| r).sum();
    let anomalies: Vec<String> = results.into_iter().flat_map(|(_, a)| a).collect();
    assert!(
        anomalies.is_empty(),
        "storm anomalies:\n{}",
        anomalies.join("\n")
    );
    assert!(received > 0, "the storm must deliver some responses");

    // Read the injection ledger before clearing it.
    let drops = mspgemm_fault::hits("serve.conn.drop");
    let kernel_panics =
        mspgemm_fault::hits("kernel.numeric") + mspgemm_fault::hits("kernel.symbolic");
    mspgemm_fault::clear();

    // Clean recovery: a fresh connection, correct answers on both
    // datasets, faults gone.
    let mut c = connect_retry(&addr).unwrap();
    client::expect_ok(c.request(&req(vec![("op", Json::str("ping"))])).unwrap()).unwrap();
    let ra = client::expect_ok(c.request(&mxm_req("a", "hash", "normal")).unwrap()).unwrap();
    assert_eq!(&fingerprint(&ra), refs.get("a/hash/normal").unwrap());
    let rb = client::expect_ok(c.request(&mxm_req("b", "msa", "complement")).unwrap()).unwrap();
    assert_eq!(&fingerprint(&rb), refs.get("b/msa/complement").unwrap());
    let recovery_requests = 3u64;

    // Exact accounting. Every request the server read is recorded
    // exactly once; the only responses the clients did not see are the
    // injected drops. Each `metrics` scrape records itself *after*
    // snapshotting, so scrape i sees exactly i earlier scrapes.
    let expected = setup_requests + received + drops + recovery_requests;
    let mut scrapes = 0u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = scrape_metrics(&mut c);
        assert_eq!(
            total_counter(&m, "requests_total"),
            expected + scrapes,
            "request accounting must be exact under faults"
        );
        scrapes += 1;
        // Every kernel panic killed exactly one worker and its sentinel
        // respawned exactly one replacement. The last increment races
        // the last answered request (the sentinel runs during unwind),
        // hence the wait.
        let restarts = total_counter(&m, "worker_restarts_total");
        assert!(
            restarts <= kernel_panics,
            "more restarts ({restarts}) than injected panics ({kernel_panics})"
        );
        if restarts == kernel_panics {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "worker restarts stuck at {restarts}, want {kernel_panics}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
