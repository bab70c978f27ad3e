//! Result parity between the offline and serving paths: `mxm query mxm`
//! against a preloaded dataset must return the **byte-identical** output
//! matrix (same fingerprint) as `mxm run` with the same options — and the
//! second query against a resident dataset must report a warm workspace
//! pool (zero misses).

use mspgemm_serve::{ServeConfig, Server};
use std::path::PathBuf;

fn dispatch(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    mspgemm_cli::dispatch(&argv, &mut out)?;
    Ok(String::from_utf8(out).unwrap())
}

fn fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mxm_parity_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("g.mtx");
    // Skewed enough that algorithms/phases disagree if anything is off.
    let g = mspgemm_gen::rmat_symmetric(8, mspgemm_gen::RmatParams::default(), 5);
    mspgemm_io::mtx::write_mtx_file(&mtx, &g).unwrap();
    mtx
}

fn run_fingerprint(text: &str) -> &str {
    text.lines()
        .find_map(|l| l.strip_prefix("output   :"))
        .and_then(|l| l.split("fingerprint ").nth(1))
        .expect("run report must carry a fingerprint")
}

fn query_field<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat).unwrap_or_else(|| panic!("{key} in {json}")) + pat.len()..];
    let rest = rest.trim_start_matches('"');
    rest.split(['"', ',', '}']).next().unwrap()
}

#[test]
fn query_matches_run_bit_for_bit_and_second_query_is_warm() {
    let mtx = fixture("fp");
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    server
        .preload(&[mtx.to_str().unwrap().to_string()])
        .unwrap();
    let addr = server.addr().to_string();

    for (algo, mask, phases) in [
        ("hash", "normal", "2"),
        ("msa", "normal", "1"),
        ("hash", "complement", "1"),
        ("inner", "normal", "2"),
        ("auto", "normal", "1"),
    ] {
        let run_text = dispatch(&[
            "run",
            "--algo",
            algo,
            "--mask",
            mask,
            "--phases",
            phases,
            "--reps",
            "1",
            "--no-cache",
            mtx.to_str().unwrap(),
        ])
        .unwrap();
        let query_text = dispatch(&[
            "query",
            "--connect",
            &addr,
            "mxm",
            "--dataset",
            "g",
            "--algo",
            algo,
            "--mask",
            mask,
            "--phases",
            phases,
        ])
        .unwrap();
        assert_eq!(
            run_fingerprint(&run_text),
            query_field(&query_text, "fingerprint"),
            "algo={algo} mask={mask} phases={phases}:\nrun:\n{run_text}\nquery:\n{query_text}"
        );
    }
}

#[test]
fn second_query_against_resident_dataset_reports_warm_pool() {
    let mtx = fixture("warm");
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    server
        .preload(&[mtx.to_str().unwrap().to_string()])
        .unwrap();
    let addr = server.addr().to_string();

    let q = [
        "query",
        "--connect",
        &addr,
        "mxm",
        "--dataset",
        "g",
        "--algo",
        "hash",
        "--phases",
        "2",
        // One executor: which workspaces the first query parks does not
        // depend on how many executors won a chunk.
        "--threads",
        "1",
    ];
    let first = dispatch(&q).unwrap();
    let second = dispatch(&q).unwrap();
    assert_eq!(
        query_field(&first, "fingerprint"),
        query_field(&second, "fingerprint")
    );
    assert_eq!(
        query_field(&second, "misses"),
        "0",
        "second query must be allocation-free: {second}"
    );
    assert!(second.contains("\"warm\":true"), "{second}");
}
