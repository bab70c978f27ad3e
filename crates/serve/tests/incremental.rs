//! The dynamic-graphs differential suite: every update schedule must be
//! indistinguishable from a from-scratch rebuild of the final edge set.
//!
//! The headline test drives seeded insert/delete batch schedules against
//! a live server — with `"compact": true` sent at two distinct points
//! per schedule — and after **every** batch asserts fingerprint parity
//! between (a) reads through the merged live dataset and (b) a freshly
//! loaded dataset built from the final edge set, swept across five algorithms × both
//! mask modes × both phase counts × both residency backends. `auto`
//! leads the grid, so its normal-mask product after every batch but the
//! first is the one patched from the predecessor's. The
//! triangle-count application rides the same schedules: the incremental
//! patched path must report exactly what a full recompute (and the
//! fresh twin) reports. Between them the grid reads every operand an
//! update patches forward: `inner` consumes the resident transpose,
//! k-truss and BC the adjacency, TC the relabeled triangle operands.
//!
//! The storm test adds concurrency: updaters (disjoint row ranges)
//! racing queriers under seeded failpoints, asserting
//! typed errors only, per-client monotone dataset versions, and
//! end-state parity once the storm clears.
//!
//! The remaining tests pin the two regression satellites: an `unload`
//! racing an update's swap leaves the registry consistent, and updating
//! an mmap-backed dataset copies-on-write away from the mapping.
//!
//! Failpoint state is process-global; every test serializes on the
//! internal mutex (mirroring the chaos suite) so armed tables never
//! leak across tests.

use mspgemm_serve::{client, Client, Json, ServeConfig, Server};
use mspgemm_sparse::{Coo, Csr, Idx};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The independent model of the dataset's final entry set.
type Model = BTreeMap<(Idx, Idx), f64>;
/// A batch of ops: (upserts, deletes).
type Batch = (Vec<(Idx, Idx, f64)>, Vec<(Idx, Idx)>);

/// Failpoint state is process-global; every test serializes here.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mspgemm_incr_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write the model as a Matrix Market file — the independent from-scratch
/// rebuild path (assembly via COO, not the overlay merge).
fn write_model(path: &Path, n: usize, model: &Model) {
    let mut coo = Coo::with_capacity(n, n, model.len());
    for (&(i, j), &v) in model {
        coo.push(i, j, v);
    }
    let m: Csr<f64> = coo.to_csr(|x, _| x);
    mspgemm_io::mtx::write_mtx_file(path, &m).unwrap();
}

fn req(pairs: Vec<(&str, Json)>) -> Json {
    Json::obj(pairs)
}

fn load_req(name: &str, path: &str, mmap: bool) -> Json {
    req(vec![
        ("op", Json::str("load")),
        ("path", Json::str(path)),
        ("name", Json::str(name)),
        ("mmap", mmap.into()),
        ("cache", Json::str("off")),
    ])
}

fn unload_req(name: &str) -> Json {
    req(vec![("op", Json::str("unload")), ("name", Json::str(name))])
}

fn mxm_req(ds: &str, algo: &str, mask: &str, phases: &str) -> Json {
    req(vec![
        ("op", Json::str("mxm")),
        ("dataset", Json::str(ds)),
        ("algo", Json::str(algo)),
        ("mask", Json::str(mask)),
        ("phases", Json::str(phases)),
    ])
}

fn app_req(ds: &str, app: &str, scheme: &str) -> Json {
    req(vec![
        ("op", Json::str("app")),
        ("dataset", Json::str(ds)),
        ("app", Json::str(app)),
        ("scheme", Json::str(scheme)),
    ])
}

fn tc_req(ds: &str, scheme: &str) -> Json {
    app_req(ds, "tc", scheme)
}

fn update_req(
    ds: &str,
    inserts: &[(Idx, Idx, f64)],
    deletes: &[(Idx, Idx)],
    compact: bool,
) -> Json {
    let ins: Vec<Json> = inserts
        .iter()
        .map(|&(i, j, v)| Json::Arr(vec![u64::from(i).into(), u64::from(j).into(), v.into()]))
        .collect();
    let del: Vec<Json> = deletes
        .iter()
        .map(|&(i, j)| Json::Arr(vec![u64::from(i).into(), u64::from(j).into()]))
        .collect();
    let mut pairs = vec![("op", Json::str("update")), ("dataset", Json::str(ds))];
    if !ins.is_empty() {
        pairs.push(("insert", Json::Arr(ins)));
    }
    if !del.is_empty() {
        pairs.push(("delete", Json::Arr(del)));
    }
    if compact {
        pairs.push(("compact", true.into()));
    }
    req(pairs)
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

fn u64_field(resp: &Json, field: &str) -> u64 {
    resp.get(field)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("response has no u64 '{field}': {}", resp.to_line()))
}

fn bool_field(resp: &Json, field: &str) -> bool {
    resp.get(field)
        .and_then(Json::as_bool)
        .unwrap_or_else(|| panic!("response has no bool '{field}': {}", resp.to_line()))
}

fn str_field(resp: &Json, field: &str) -> String {
    resp.get(field)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("response has no string '{field}': {}", resp.to_line()))
        .to_string()
}

/// The `list` entry for one dataset name.
fn list_entry(c: &mut Client, name: &str) -> Option<Json> {
    let list =
        client::expect_ok(c.request(&req(vec![("op", Json::str("list"))])).unwrap()).unwrap();
    list.get("datasets")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .find(|d| d.get("name").unwrap().as_str() == Some(name))
        .cloned()
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
                && e.get("labels").unwrap().get("dataset").is_none()
        })
        .map(|e| e.get("value").unwrap().as_u64().unwrap())
        .unwrap_or(0)
}

/// The value of a counter labeled `verb` in a `metrics` response.
fn verb_counter(m: &Json, name: &str, verb: &str) -> u64 {
    m.get("counters")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .find(|e| {
            e.get("name").unwrap().as_str() == Some(name)
                && e.get("labels").unwrap().get("verb").and_then(Json::as_str) == Some(verb)
        })
        .map(|e| e.get("value").unwrap().as_u64().unwrap())
        .unwrap_or_else(|| panic!("no {name}{{verb=\"{verb}\"}} in {}", m.to_line()))
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One seeded in-bounds batch: `count` ops over rows `[row_lo, row_hi)`,
/// ~2/3 integer-valued upserts, 1/3 deletes.
fn seeded_batch(rng: &mut u64, count: usize, row_lo: usize, row_hi: usize, ncols: usize) -> Batch {
    let mut ins = Vec::new();
    let mut del = Vec::new();
    for _ in 0..count {
        let r = xorshift(rng);
        let i = (row_lo as u64 + (r >> 8) % (row_hi - row_lo) as u64) as Idx;
        let j = ((r >> 24) % ncols as u64) as Idx;
        if r % 3 < 2 {
            ins.push((i, j, ((r >> 40) % 7 + 1) as f64));
        } else {
            del.push((i, j));
        }
    }
    (ins, del)
}

/// Mirror one batch into the model: inserts land first, then deletes —
/// the server applies them in the same order.
fn mirror_batch(model: &mut Model, ins: &[(Idx, Idx, f64)], del: &[(Idx, Idx)]) {
    for &(i, j, v) in ins {
        model.insert((i, j), v);
    }
    for &(i, j) in del {
        model.remove(&(i, j));
    }
}

/// The sweep grid: five algorithms (all complement-capable; `inner` is
/// the one that reads the resident `matrixᵀ`) × both mask modes × both
/// phase counts. `auto` comes first: the first normal-mask product of a
/// seeded snapshot takes the seed, so `auto/normal/1` is the patched one.
const ALGOS: [&str; 5] = ["auto", "hash", "msa", "heap", "inner"];
const MASKS: [&str; 2] = ["normal", "complement"];
const PHASES: [&str; 2] = ["1", "2"];
const TC_SCHEMES: [&str; 3] = ["hash-1p", "msa-2p", "heap-1p"];

/// Incremental answers the live side of one [`assert_parity`] gave.
#[derive(Default)]
struct Incremental {
    tc: usize,
    mxm: usize,
}

/// Assert full differential parity between the live (overlay-built)
/// dataset and a freshly loaded twin of `model`: every point on the
/// mxm grid fingerprint-identical, every TC scheme count-identical, and
/// the two adjacency-only apps (k-truss, BC) answering alike. Returns the
/// number of incremental TC and `mxm` responses observed on the live side.
fn assert_parity(
    c: &mut Client,
    dir: &Path,
    live: &str,
    fresh: &str,
    n: usize,
    model: &Model,
) -> Incremental {
    let fresh_mtx = dir.join(format!("{fresh}.mtx"));
    write_model(&fresh_mtx, n, model);
    client::expect_ok(
        c.request(&load_req(fresh, fresh_mtx.to_str().unwrap(), false))
            .unwrap(),
    )
    .unwrap();
    let mut incremental = Incremental::default();
    for algo in ALGOS {
        for mask in MASKS {
            for phases in PHASES {
                let a = client::expect_ok(c.request(&mxm_req(live, algo, mask, phases)).unwrap())
                    .unwrap();
                let b = client::expect_ok(c.request(&mxm_req(fresh, algo, mask, phases)).unwrap())
                    .unwrap();
                assert_eq!(
                    fingerprint(&a),
                    fingerprint(&b),
                    "live {live} diverged from rebuilt {fresh} at {algo}/{mask}/{phases}p"
                );
                assert!(!bool_field(&b, "incremental"), "a load has no seed");
                if bool_field(&a, "incremental") {
                    incremental.mxm += 1;
                }
            }
        }
    }
    for scheme in TC_SCHEMES {
        let a = client::expect_ok(c.request(&tc_req(live, scheme)).unwrap()).unwrap();
        let b = client::expect_ok(c.request(&tc_req(fresh, scheme)).unwrap()).unwrap();
        assert_eq!(
            u64_field(&a, "triangles"),
            u64_field(&b, "triangles"),
            "live {live} TC diverged from rebuilt {fresh} under {scheme}: {} vs {}",
            a.to_line(),
            b.to_line()
        );
        if bool_field(&a, "incremental") {
            incremental.tc += 1;
        }
    }
    let [kt_live, kt_fresh] = [live, fresh]
        .map(|ds| client::expect_ok(c.request(&app_req(ds, "ktruss", "msa-1p")).unwrap()).unwrap());
    for field in ["edges", "iterations"] {
        assert_eq!(
            u64_field(&kt_live, field),
            u64_field(&kt_fresh, field),
            "live {live} k-truss diverged from rebuilt {fresh}: {} vs {}",
            kt_live.to_line(),
            kt_fresh.to_line()
        );
    }
    let [bc_live, bc_fresh] = [live, fresh]
        .map(|ds| client::expect_ok(c.request(&app_req(ds, "bc", "msa-1p")).unwrap()).unwrap());
    assert_eq!(u64_field(&bc_live, "depth"), u64_field(&bc_fresh, "depth"));
    let [got, want] = [&bc_live, &bc_fresh].map(|r| r.get("scores_sum").unwrap().as_f64().unwrap());
    assert!(
        (got - want).abs() <= 1e-9 * want.abs().max(1.0),
        "live {live} BC diverged from rebuilt {fresh}: {} vs {}",
        bc_live.to_line(),
        bc_fresh.to_line()
    );
    client::expect_ok(c.request(&unload_req(fresh)).unwrap()).unwrap();
    incremental
}

/// The headline differential harness: seeded batch schedules with two
/// `"compact": true` points, checked for full parity against a
/// from-scratch rebuild after **every** batch, across both residency
/// backends. The incremental TC path must fire (and agree) once a cache
/// exists and versions advance.
#[test]
fn differential_schedules_prove_incremental_equals_recompute() {
    let _g = guard();
    mspgemm_fault::clear();
    let dir = tmp_dir("diff");
    let n = 72usize;
    let g = mspgemm_gen::er_symmetric(n, 6, 29);
    let mtx = dir.join("base.mtx");
    mspgemm_io::mtx::write_mtx_file(&mtx, &g).unwrap();
    let mut msb_buf = Vec::new();
    mspgemm_io::msb::write_msb(&mut msb_buf, &g).unwrap();
    let msb = dir.join("base.msb");
    std::fs::write(&msb, &msb_buf).unwrap();

    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    const BATCHES: usize = 6;
    // (name, path, mmap, seed, two `"compact": true` points): the points
    // differ between the lanes, so the sweep covers distinct schedule
    // positions, early and late.
    let lanes = [
        ("heap", mtx.to_str().unwrap(), false, 0x5eed_0001u64, [2, 5]),
        ("mmap", msb.to_str().unwrap(), true, 0x5eed_0002u64, [1, 4]),
    ];
    let (mut incremental_seen, mut patched_seen) = (0usize, 0usize);
    for (name, path, mmap, seed, compact_at) in lanes {
        client::expect_ok(c.request(&load_req(name, path, mmap)).unwrap()).unwrap();
        let mut model: Model = g.iter().map(|(i, j, &v)| ((i as Idx, j), v)).collect();
        // Prime the TC cache at version 0 so the first update's count
        // takes the incremental path.
        client::expect_ok(c.request(&tc_req(name, "hash-1p")).unwrap()).unwrap();
        // A loaded snapshot keeps no product, so version 1's is computed;
        // every later version patches its predecessor's.
        let mut patched_products = 0usize;
        let mut rng = seed;
        for k in 1..=BATCHES {
            let count = 1 + (xorshift(&mut rng) % 8) as usize;
            let (ins, del) = seeded_batch(&mut rng, count, 0, n, n);
            let compact = compact_at.contains(&k);
            let resp =
                client::expect_ok(c.request(&update_req(name, &ins, &del, compact)).unwrap())
                    .unwrap();
            mirror_batch(&mut model, &ins, &del);
            assert_eq!(u64_field(&resp, "version"), k as u64, "{}", resp.to_line());
            assert_eq!(u64_field(&resp, "applied"), (ins.len() + del.len()) as u64);
            // Every update rebuilds outright, flag or no flag.
            assert!(bool_field(&resp, "compacted"));
            assert_eq!(u64_field(&resp, "delta_nnz"), 0, "{}", resp.to_line());
            // Updated datasets are always heap-resident (COW away from
            // any mapping) and exactly match the model's entry count.
            assert_eq!(str_field(&resp, "backend"), "heap");
            assert_eq!(u64_field(&resp, "mapped_bytes"), 0);
            assert_eq!(u64_field(&resp, "nnz"), model.len() as u64);
            // (a)/(b) parity: live reads against the fresh rebuild — the
            // whole grid, every batch.
            let seen = assert_parity(&mut c, &dir, name, "fresh", n, &model);
            incremental_seen += seen.tc;
            patched_products += seen.mxm;
            let entry = list_entry(&mut c, name).unwrap();
            assert_eq!(entry.get("version").unwrap().as_u64(), Some(k as u64));
        }
        assert!(
            patched_products >= BATCHES - 1,
            "{name}: the patched product must carry the schedule, got {patched_products}"
        );
        patched_seen += patched_products;
        client::expect_ok(c.request(&unload_req(name)).unwrap()).unwrap();
    }
    assert!(
        incremental_seen >= BATCHES,
        "the incremental TC path must carry the schedule, got {incremental_seen}"
    );
    // The server counted every update, and every incremental answer.
    let m =
        client::expect_ok(c.request(&req(vec![("op", Json::str("metrics"))])).unwrap()).unwrap();
    assert_eq!(total_counter(&m, "updates_total"), 2 * BATCHES as u64);
    assert_eq!(
        verb_counter(&m, "incremental_total", "mxm"),
        patched_seen as u64
    );
    assert_eq!(
        verb_counter(&m, "incremental_total", "tc"),
        incremental_seen as u64
    );
}

/// Typed protocol surface of the `update` verb: malformed batches are
/// `bad_request`, out-of-bounds ops reject atomically with
/// `out_of_bounds`, unknown datasets answer `unknown_dataset`, and the
/// incremental TC disclosure flips exactly when a patch happens.
#[test]
fn update_verb_lifecycle_and_typed_errors() {
    let _g = guard();
    mspgemm_fault::clear();
    let dir = tmp_dir("lifecycle");
    let n = 64usize;
    let g = mspgemm_gen::er_symmetric(n, 6, 31);
    let mtx = dir.join("g.mtx");
    mspgemm_io::mtx::write_mtx_file(&mtx, &g).unwrap();
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    client::expect_ok(
        c.request(&load_req("g", mtx.to_str().unwrap(), false))
            .unwrap(),
    )
    .unwrap();

    // Rejections first: none of these may touch the dataset.
    let resp = c.request(&update_req("g", &[], &[], false)).unwrap();
    assert_eq!(err_code(&resp), "bad_request", "{}", resp.to_line());
    let resp = c
        .request_line(r#"{"op":"update","dataset":"g","insert":3}"#)
        .unwrap();
    assert_eq!(err_code(&resp), "bad_request");
    let resp = c
        .request_line(r#"{"op":"update","dataset":"g","insert":[[1]]}"#)
        .unwrap();
    assert_eq!(err_code(&resp), "bad_request");
    let resp = c
        .request(&update_req(
            "g",
            &[(1, 1, 5.0), (n as Idx, 0, 5.0)],
            &[],
            false,
        ))
        .unwrap();
    assert_eq!(err_code(&resp), "out_of_bounds", "{}", resp.to_line());
    let resp = c
        .request(&update_req("ghost", &[(0, 0, 1.0)], &[], false))
        .unwrap();
    assert_eq!(err_code(&resp), "unknown_dataset");
    let entry = list_entry(&mut c, "g").unwrap();
    assert_eq!(entry.get("version").unwrap().as_u64(), Some(0));

    // Full TC, then an update, then the incremental patch: totals agree
    // with the full recompute that follows it.
    let full0 = client::expect_ok(c.request(&tc_req("g", "hash-1p")).unwrap()).unwrap();
    assert!(!bool_field(&full0, "incremental"));
    assert!(bool_field(&full0, "cached"));
    let resp = client::expect_ok(
        c.request(&update_req(
            "g",
            &[(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0)],
            &[(5, 6)],
            false,
        ))
        .unwrap(),
    )
    .unwrap();
    assert_eq!(u64_field(&resp, "version"), 1);
    assert_eq!(u64_field(&resp, "applied"), 4);
    assert!(bool_field(&resp, "compacted"));
    assert_eq!(u64_field(&resp, "delta_nnz"), 0);
    let inc = client::expect_ok(c.request(&tc_req("g", "hash-1p")).unwrap()).unwrap();
    assert!(bool_field(&inc, "incremental"), "{}", inc.to_line());
    assert!(u64_field(&inc, "patched_rows") >= 1);
    let full1 = client::expect_ok(c.request(&tc_req("g", "hash-1p")).unwrap()).unwrap();
    assert!(!bool_field(&full1, "incremental"));
    assert_eq!(
        u64_field(&inc, "triangles"),
        u64_field(&full1, "triangles"),
        "patched total must equal the full recompute"
    );
    // The other apps disclose that they do not patch.
    let kt = client::expect_ok(
        c.request(&req(vec![
            ("op", Json::str("app")),
            ("dataset", Json::str("g")),
            ("app", Json::str("ktruss")),
            ("k", 3u64.into()),
        ]))
        .unwrap(),
    )
    .unwrap();
    assert!(!bool_field(&kt, "incremental"));

    // Compact-only update: a rebuild and a version bump like any batch.
    let resp = client::expect_ok(c.request(&update_req("g", &[], &[], true)).unwrap()).unwrap();
    assert_eq!(u64_field(&resp, "version"), 2);
    assert!(bool_field(&resp, "compacted"));
    assert_eq!(u64_field(&resp, "delta_nnz"), 0);
    assert_eq!(u64_field(&resp, "applied"), 0);
    let entry = list_entry(&mut c, "g").unwrap();
    assert_eq!(entry.get("version").unwrap().as_u64(), Some(2));

    // Exact metric accounting: two successful updates and a latency
    // histogram carrying both.
    let m =
        client::expect_ok(c.request(&req(vec![("op", Json::str("metrics"))])).unwrap()).unwrap();
    assert_eq!(total_counter(&m, "updates_total"), 2);
    let hist = m
        .get("histograms")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .find(|h| h.get("name").unwrap().as_str() == Some("update_latency_us"))
        .expect("update_latency_us histogram exists");
    assert_eq!(hist.get("count").unwrap().as_u64(), Some(2));
}

/// Satellite regression: updating an mmap-backed dataset must
/// copy-on-write away from the mapping — the backend flips to `heap` in
/// `list` and `stats`, mapped bytes drop to zero, and results match a
/// fresh rebuild of the updated edge set.
#[test]
fn updating_mmap_dataset_cows_to_heap() {
    let _g = guard();
    mspgemm_fault::clear();
    let dir = tmp_dir("cow");
    let n = 64usize;
    let g = mspgemm_gen::er_symmetric(n, 6, 37);
    let mut buf = Vec::new();
    mspgemm_io::msb::write_msb(&mut buf, &g).unwrap();
    let msb = dir.join("m.msb");
    std::fs::write(&msb, &buf).unwrap();
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let load = client::expect_ok(
        c.request(&load_req("m", msb.to_str().unwrap(), true))
            .unwrap(),
    )
    .unwrap();
    let mmap_capable = cfg!(all(target_endian = "little", target_pointer_width = "64"));
    if mmap_capable {
        assert_eq!(str_field(&load, "backend"), "mmap");
        assert!(u64_field(&load, "mapped_bytes") > 0);
        let stats =
            client::expect_ok(c.request(&req(vec![("op", Json::str("stats"))])).unwrap()).unwrap();
        assert!(u64_field(&stats, "total_mapped_bytes") > 0);
    }

    let resp = client::expect_ok(
        c.request(&update_req("m", &[(0, (n - 1) as Idx, 2.0)], &[], false))
            .unwrap(),
    )
    .unwrap();
    assert_eq!(str_field(&resp, "backend"), "heap");
    assert_eq!(u64_field(&resp, "mapped_bytes"), 0);
    assert_eq!(u64_field(&resp, "version"), 1);
    // Both surfaces agree: the mapping is gone from the books.
    let entry = list_entry(&mut c, "m").unwrap();
    assert_eq!(entry.get("backend").unwrap().as_str(), Some("heap"));
    assert_eq!(entry.get("mapped_bytes").unwrap().as_u64(), Some(0));
    let stats =
        client::expect_ok(c.request(&req(vec![("op", Json::str("stats"))])).unwrap()).unwrap();
    assert_eq!(u64_field(&stats, "total_mapped_bytes"), 0);
    let ds = stats
        .get("datasets")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .find(|d| d.get("name").unwrap().as_str() == Some("m"))
        .unwrap()
        .clone();
    assert_eq!(ds.get("backend").unwrap().as_str(), Some("heap"));

    // And the updated content is exactly the model.
    let mut model: Model = g.iter().map(|(i, j, &v)| ((i as Idx, j), v)).collect();
    model.insert((0, (n - 1) as Idx), 2.0);
    assert_parity(&mut c, &dir, "m", "cow-fresh", n, &model);
}

/// Satellite regression (live-socket half): an `unload` landing in the
/// window between an update's rebuild and its registry swap must win —
/// the update answers `unknown_dataset`, the dataset stays gone, and the
/// name reloads cleanly at version 0.
#[test]
fn unload_racing_compaction_swap_leaves_registry_consistent() {
    let _g = guard();
    mspgemm_fault::clear();
    let dir = tmp_dir("race");
    let n = 64usize;
    let g = mspgemm_gen::er_symmetric(n, 6, 41);
    let mtx = dir.join("r.mtx");
    mspgemm_io::mtx::write_mtx_file(&mtx, &g).unwrap();
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    client::expect_ok(
        c.request(&load_req("r", mtx.to_str().unwrap(), false))
            .unwrap(),
    )
    .unwrap();

    // Hold the update in its swap window long enough for the unload to
    // land first.
    mspgemm_fault::configure("serve.update.swap=1*delay(250)").unwrap();
    let update_resp = std::thread::scope(|scope| {
        let addr2 = addr.clone();
        let updater = scope.spawn(move || {
            let mut uc = Client::connect(&addr2).unwrap();
            uc.request(&update_req("r", &[(1, 2, 1.0)], &[], true))
                .unwrap()
        });
        std::thread::sleep(Duration::from_millis(80));
        client::expect_ok(c.request(&unload_req("r")).unwrap()).unwrap();
        updater.join().unwrap()
    });
    mspgemm_fault::clear();
    assert_eq!(
        err_code(&update_resp),
        "unknown_dataset",
        "the late swap must lose: {}",
        update_resp.to_line()
    );
    // The registry is consistent: the name is gone, not resurrected.
    assert!(list_entry(&mut c, "r").is_none());
    let resp = c.request(&mxm_req("r", "hash", "normal", "1")).unwrap();
    assert_eq!(err_code(&resp), "unknown_dataset");
    // A reload starts a fresh life at version 0 and serves updates.
    client::expect_ok(
        c.request(&load_req("r", mtx.to_str().unwrap(), false))
            .unwrap(),
    )
    .unwrap();
    let entry = list_entry(&mut c, "r").unwrap();
    assert_eq!(entry.get("version").unwrap().as_u64(), Some(0));
    let resp = client::expect_ok(
        c.request(&update_req("r", &[(3, 4, 1.0)], &[], false))
            .unwrap(),
    )
    .unwrap();
    assert_eq!(u64_field(&resp, "version"), 1);
}

const STORM_UPDATERS: usize = 3;
const STORM_QUERIERS: usize = 2;
const STORM_BATCHES: usize = 12;

/// One storm updater: seeded batches over its own disjoint row range,
/// retried on `busy`. Returns (its final word per touched position —
/// `None` is a delete tombstone —, versions observed, successful
/// updates, anomalies).
#[allow(clippy::type_complexity)]
fn storm_updater(
    u: usize,
    addr: &str,
    n: usize,
) -> (
    BTreeMap<(Idx, Idx), Option<f64>>,
    Vec<u64>,
    u64,
    Vec<String>,
) {
    let rows = n / STORM_UPDATERS;
    let (lo, hi) = (u * rows, (u + 1) * rows);
    let mut rng = 0xdead_beef_u64 ^ (u as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut mine: BTreeMap<(Idx, Idx), Option<f64>> = BTreeMap::new();
    let mut versions = Vec::new();
    let mut successes = 0u64;
    let mut anomalies = Vec::new();
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            return (
                mine,
                versions,
                0,
                vec![format!("updater {u}: connect: {e}")],
            )
        }
    };
    for b in 0..STORM_BATCHES {
        let count = 1 + (xorshift(&mut rng) % 4) as usize;
        let (ins, del) = seeded_batch(&mut rng, count, lo, hi, n);
        let compact = b % 5 == 4;
        let q = update_req("storm", &ins, &del, compact);
        // Retry the same batch on `busy` — a shed request applied
        // nothing, and we only mirror the batch once, on success.
        let mut attempts = 0;
        loop {
            let resp = match c.request(&q) {
                Ok(r) => r,
                Err(e) => {
                    anomalies.push(format!("updater {u} batch {b}: transport: {e}"));
                    break;
                }
            };
            if resp.get("ok") == Some(&Json::Bool(true)) {
                successes += 1;
                versions.push(u64_field(&resp, "version"));
                for &(i, j, v) in &ins {
                    mine.insert((i, j), Some(v));
                }
                for &(i, j) in &del {
                    mine.insert((i, j), None);
                }
                break;
            }
            let code = err_code(&resp);
            if code != "busy" {
                anomalies.push(format!(
                    "updater {u} batch {b}: unexpected error: {}",
                    resp.to_line()
                ));
                break;
            }
            attempts += 1;
            if attempts > 50 {
                anomalies.push(format!("updater {u} batch {b}: busy-starved"));
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    (mine, versions, successes, anomalies)
}

/// One storm querier: a seeded mix of mxm / tc / list requests. Every
/// error must be from the small typed set this storm can produce, and
/// the dataset version observed via `list` must be monotone.
fn storm_querier(qi: usize, addr: &str) -> Vec<String> {
    let mut rng = 0xfeed_f00d_u64 ^ (qi as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d);
    let mut anomalies = Vec::new();
    let mut last_version = 0u64;
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return vec![format!("querier {qi}: connect: {e}")],
    };
    for r in 0..20 {
        let pick = xorshift(&mut rng) % 4;
        let q = match pick {
            0 => tc_req("storm", "hash-1p"),
            1 => req(vec![("op", Json::str("list"))]),
            _ => mxm_req(
                "storm",
                if pick == 2 { "hash" } else { "msa" },
                "normal",
                "1",
            ),
        };
        let resp = match c.request(&q) {
            Ok(resp) => resp,
            Err(e) => {
                anomalies.push(format!("querier {qi} req {r}: transport: {e}"));
                break;
            }
        };
        if resp.get("ok") == Some(&Json::Bool(true)) {
            if pick == 1 {
                if let Some(v) = resp
                    .get("datasets")
                    .unwrap()
                    .as_arr()
                    .unwrap()
                    .iter()
                    .find(|d| d.get("name").unwrap().as_str() == Some("storm"))
                    .and_then(|d| d.get("version").unwrap().as_u64())
                {
                    if v < last_version {
                        anomalies.push(format!(
                            "querier {qi}: version went backwards: {v} < {last_version}"
                        ));
                    }
                    last_version = v;
                }
            }
        } else {
            let code = err_code(&resp);
            if !["busy", "exec_failed"].contains(&code.as_str()) {
                anomalies.push(format!(
                    "querier {qi} req {r}: unexpected error: {}",
                    resp.to_line()
                ));
            }
        }
    }
    anomalies
}

/// The update storm: updaters with disjoint row ranges racing queriers,
/// under seeded swap-window and executor delays plus kernel faults.
/// Afterwards: typed errors only, strictly monotone versions per
/// updater, exact update accounting, and the
/// drained end state bit-identical to a fresh load of the final edge
/// set.
#[test]
fn update_storm_converges_to_the_rebuilt_edge_set() {
    let _g = guard();
    mspgemm_fault::clear();
    let dir = tmp_dir("storm");
    let n = 90usize;
    let g = mspgemm_gen::er_symmetric(n, 6, 43);
    let mtx = dir.join("storm.mtx");
    mspgemm_io::mtx::write_mtx_file(&mtx, &g).unwrap();
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            max_inflight: 2,
            queue_depth: 16,
            // Kernel faults fire on purpose; quarantine is another test.
            quarantine_after: 1_000_000,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    client::expect_ok(
        c.request(&load_req("storm", mtx.to_str().unwrap(), false))
            .unwrap(),
    )
    .unwrap();
    // Prime the TC cache so storm-time counts exercise the patch path.
    client::expect_ok(c.request(&tc_req("storm", "hash-1p")).unwrap()).unwrap();

    mspgemm_fault::seed(0x0BAD_C0DE);
    mspgemm_fault::configure(
        "serve.update.swap=25%delay(8);serve.exec.delay=20%delay(4);kernel.numeric=4%err(storm)",
    )
    .unwrap();

    type UpdaterOut = (
        BTreeMap<(Idx, Idx), Option<f64>>,
        Vec<u64>,
        u64,
        Vec<String>,
    );
    let (updater_out, querier_anoms): (Vec<UpdaterOut>, Vec<Vec<String>>) =
        std::thread::scope(|scope| {
            let updaters: Vec<_> = (0..STORM_UPDATERS)
                .map(|u| {
                    let addr = addr.clone();
                    scope.spawn(move || storm_updater(u, &addr, n))
                })
                .collect();
            let queriers: Vec<_> = (0..STORM_QUERIERS)
                .map(|qi| {
                    let addr = addr.clone();
                    scope.spawn(move || storm_querier(qi, &addr))
                })
                .collect();
            (
                updaters.into_iter().map(|h| h.join().unwrap()).collect(),
                queriers.into_iter().map(|h| h.join().unwrap()).collect(),
            )
        });
    mspgemm_fault::clear();

    let mut anomalies: Vec<String> = Vec::new();
    let mut model: Model = g.iter().map(|(i, j, &v)| ((i as Idx, j), v)).collect();
    let mut total_updates = 0u64;
    for (mine, versions, successes, anoms) in updater_out {
        anomalies.extend(anoms);
        assert!(
            versions.windows(2).all(|w| w[0] < w[1]),
            "per-updater versions must be strictly monotone: {versions:?}"
        );
        total_updates += successes;
        // Disjoint row ranges: each updater's final word per position is
        // the global final word. `None` is a delete tombstone — it must
        // erase base-graph edges too.
        for ((i, j), word) in mine {
            match word {
                Some(v) => model.insert((i, j), v),
                None => model.remove(&(i, j)),
            };
        }
    }
    anomalies.extend(querier_anoms.into_iter().flatten());
    assert!(
        anomalies.is_empty(),
        "storm anomalies:\n{}",
        anomalies.join("\n")
    );
    assert!(total_updates > 0, "the storm must land some updates");

    // Drain: one clean compact-only update, then the live dataset must
    // be bit-identical to a fresh load of the final edge set.
    let resp = client::expect_ok(c.request(&update_req("storm", &[], &[], true)).unwrap()).unwrap();
    assert!(bool_field(&resp, "compacted"));
    assert_eq!(u64_field(&resp, "delta_nnz"), 0);
    assert_eq!(u64_field(&resp, "nnz"), model.len() as u64);
    total_updates += 1;
    assert_parity(&mut c, &dir, "storm", "storm-fresh", n, &model);

    // Exact accounting: the server counted precisely the successful
    // updates the clients saw.
    let m =
        client::expect_ok(c.request(&req(vec![("op", Json::str("metrics"))])).unwrap()).unwrap();
    assert_eq!(total_counter(&m, "updates_total"), total_updates);
    let entry = list_entry(&mut c, "storm").unwrap();
    assert_eq!(entry.get("version").unwrap().as_u64(), Some(total_updates));
}
