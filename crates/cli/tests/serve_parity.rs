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

/// `auto` may run a symmetric self-product once per edge and mirrored,
/// on the resident path and in `mxm run` alike: both hand the dispatch `A`
/// itself as `Bᵀ` when `A` equals its transpose by bits. So both must
/// agree on the plan as well as on the fingerprint — on a symmetric
/// dataset, across an update that breaks the symmetry and one that
/// restores it, on a directed dataset, and from a `.msb` on the heap or
/// mapped.
#[test]
fn oriented_self_product_answers_what_run_answers() {
    let dir = std::env::temp_dir().join("mxm_parity_oriented");
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, g: &mspgemm_sparse::Csr<f64>| {
        let path = dir.join(name);
        mspgemm_io::mtx::write_mtx_file(&path, g).unwrap();
        path.to_str().unwrap().to_string()
    };
    let g = mspgemm_gen::rmat_symmetric(8, mspgemm_gen::RmatParams::default(), 5);
    // An absent edge between two vertices that have neighbours.
    let (u, v) = (0..g.nrows() as u32)
        .flat_map(|u| (0..u).map(move |v| (u, v)))
        .find(|&(u, v)| {
            g.get(u as usize, v).is_none() && g.row_nnz(u as usize) > 2 && g.row_nnz(v as usize) > 2
        })
        .expect("R-MAT 8 is not complete");
    let with = |edges: &[(u32, u32)]| {
        let mut coo = mspgemm_sparse::Coo::new(g.nrows(), g.ncols());
        for (i, j, &x) in g.iter() {
            coo.push(i as u32, j, x);
        }
        for &(i, j) in edges {
            coo.push(i, j, 1.0);
        }
        coo.to_csr(|x, _| x)
    };
    // `write_mtx_file` writes a `general` banner, so `g.mtx` and
    // `both_ways.mtx` are general files with symmetric content: symmetry
    // is read from the entries, never from the banner.
    let symmetric = write("g.mtx", &g);
    let one_way = write("one_way.mtx", &with(&[(u, v)]));
    let both_ways = write("both_ways.mtx", &with(&[(u, v), (v, u)]));
    let directed_graph = mspgemm_gen::rmat_directed(8, mspgemm_gen::RmatParams::default(), 5);
    let directed = write("d.mtx", &directed_graph);

    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    server
        .preload(&[symmetric.clone(), directed.clone()])
        .unwrap();
    let addr = server.addr().to_string();
    let msb = dir.join("g.msb").to_str().unwrap().to_string();
    dispatch(&["convert", &symmetric, &msb]).unwrap();
    // `mxm run`'s fingerprint, and whether it ran oriented — on two
    // executors too, for the same reason as `served` below.
    let run_with = |path: &str, algo: &str, load: &[&str]| {
        let q = ["run", "--algo", algo, "--reps", "1", "--threads", "2"];
        let text = dispatch(&[&q[..], load, &["--no-cache", path]].concat()).unwrap();
        let scheme = text.lines().find(|l| l.starts_with("scheme   :"));
        let oriented = scheme.expect(&text).contains("→oriented pull");
        (run_fingerprint(&text).to_string(), oriented)
    };
    let run = |path: &str, algo: &str| run_with(path, algo, &[]);
    // The served fingerprint under `auto`, and whether it ran oriented —
    // on two executors whatever the host has: the plan's serial passes are
    // charged per thread. `msa` goes first: it takes an updated snapshot's
    // product seed, so `auto` runs its kernel instead of a patch.
    let served = |dataset: &str| {
        let q = ["query", "--connect", &addr, "mxm", "--threads", "2"];
        let q = [&q[..], &["--dataset", dataset]].concat();
        let msa = dispatch(&[&q[..], &["--algo", "msa"]].concat()).unwrap();
        let auto = dispatch(&[&q[..], &["--algo", "auto"]].concat()).unwrap();
        assert!(auto.contains("\"incremental\":false"), "{auto}");
        let choice = server.state().exec_stats.auto_choice().expect("auto ran");
        let fingerprint = query_field(&auto, "fingerprint").to_string();
        assert_eq!(fingerprint, query_field(&msa, "fingerprint"), "{dataset}");
        (fingerprint, choice.work.oriented.is_some())
    };
    let update = |edge: (u32, u32)| {
        let insert = format!("{},{}", edge.0, edge.1);
        let q = ["query", "--connect", &addr, "update", "--dataset", "g"];
        dispatch(&[&q[..], &["--insert", &insert]].concat()).unwrap();
    };

    // Both paths answer the same bits by the same plan, and the plan is
    // the one expected.
    let agree = |dataset: &str, path: &str, oriented: bool| {
        let ran = run(path, "auto");
        assert_eq!(served(dataset), ran, "{path}");
        assert_eq!(ran.1, oriented, "{path}");
    };
    agree("g", &symmetric, true);
    update((u, v));
    agree("g", &one_way, false);
    update((v, u));
    agree("g", &both_ways, true);
    agree("d", &directed, false);
    assert_eq!(run(&msb, "auto"), run(&symmetric, "auto"));
    assert_eq!(run_with(&msb, "auto", &["--mmap"]), run(&symmetric, "auto"));
    assert_eq!(run(&symmetric, "auto").0, run(&symmetric, "msa").0);
}
