//! Readiness of `mxm serve`: the server must not answer a client before
//! the datasets named on its own command line are resident. The
//! `serve.registry.load` failpoint stretches the preload so a client
//! reliably connects in the middle of it. (Own test binary: `--fail`
//! arms process-global failpoints.)
#![cfg(unix)]

use mspgemm_serve::{Client, Json};
use std::time::{Duration, Instant};

#[test]
fn first_response_already_lists_the_preloaded_dataset() {
    let dir = std::env::temp_dir().join(format!("mxm_serve_ready_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("g.mtx");
    mspgemm_io::mtx::write_mtx_file(&mtx, &mspgemm_gen::er_symmetric(40, 4, 3)).unwrap();
    let sock = format!("unix:{}", dir.join("serve.sock").display());

    let argv: Vec<String> = [
        "serve",
        "--listen",
        &sock,
        "--no-cache",
        "--fail",
        "serve.registry.load=1*delay(400)",
        mtx.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let serve = std::thread::spawn(move || mspgemm_cli::dispatch(&argv, &mut Vec::new()));

    // Connect the moment the socket is bound — the preload is still
    // sleeping in its failpoint — and ask at once.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut client = loop {
        match Client::connect(&sock) {
            Ok(client) => break client,
            Err(e) => assert!(Instant::now() < deadline, "server never bound: {e}"),
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let request = |client: &mut Client, fields| client.request(&Json::obj(fields)).unwrap();
    let pong = request(&mut client, vec![("op", Json::str("ping"))]);
    assert_eq!(
        pong.get("datasets").and_then(Json::as_u64),
        Some(1),
        "answered before the preload was resident: {}",
        pong.to_line()
    );
    let product = request(
        &mut client,
        vec![("op", Json::str("mxm")), ("dataset", Json::str("g"))],
    );
    assert_eq!(
        product.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        product.to_line()
    );

    request(&mut client, vec![("op", Json::str("shutdown"))]);
    serve.join().unwrap().unwrap();
    mspgemm_fault::configure("").unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
