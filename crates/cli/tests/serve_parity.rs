//! Result parity between the offline and serving paths: `mxm query mxm`
//! against a preloaded dataset must return the **byte-identical** output
//! matrix (same fingerprint) by the same plan as `mxm run` with the same
//! options — and the second query against a resident dataset must report
//! a warm workspace pool (zero misses).

use mspgemm_serve::{ServeConfig, Server};
use std::path::PathBuf;

fn dispatch(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    mspgemm_cli::dispatch(&argv, &mut out)?;
    Ok(String::from_utf8(out).unwrap())
}

/// The three fixtures in `tag`'s directory: `unit.mtx`, a unit-valued
/// symmetric R-MAT 8 with no self-loop (a simple graph, whose `mxm` the
/// server counts), `weighted.mtx`, the same pattern with symmetric
/// non-unit values (which it multiplies), and `directed.mtx`, a directed
/// R-MAT 8 with non-unit values (which it multiplies with a stored `Bᵀ`).
fn fixtures(tag: &str) -> [PathBuf; 3] {
    let dir = std::env::temp_dir().join(format!("mxm_parity_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    // Skewed enough that algorithms/phases disagree if anything is off.
    let unit = mspgemm_gen::rmat_symmetric(8, mspgemm_gen::RmatParams::default(), 5);
    assert!(mspgemm_io::is_simple(&unit, true));
    let mut weighted = mspgemm_sparse::Coo::new(unit.nrows(), unit.ncols());
    for (i, j, _) in unit.iter() {
        weighted.push(i as u32, j, 0.5 + ((i as u32 + j) % 7) as f64 * 0.375);
    }
    let weighted = weighted.to_csr(|x, _| x);
    assert!(weighted.is_symmetric_by(f64::eq) && !mspgemm_io::is_simple(&weighted, true));
    let graph = mspgemm_gen::rmat_directed(8, mspgemm_gen::RmatParams::default(), 5);
    let mut directed = mspgemm_sparse::Coo::new(graph.nrows(), graph.ncols());
    for (i, j, _) in graph.iter() {
        directed.push(i as u32, j, 0.5 + ((3 * i as u32 + j) % 7) as f64 * 0.375);
    }
    let directed = directed.to_csr(|x, _| x);
    assert!(!directed.is_symmetric_by(|_, _| true), "one-way edges");
    let named = [
        ("unit", unit),
        ("weighted", weighted),
        ("directed", directed),
    ];
    named.map(|(name, g)| {
        let mtx = dir.join(format!("{name}.mtx"));
        mspgemm_io::mtx::write_mtx_file(&mtx, &g).unwrap();
        mtx
    })
}

/// The plan `mxm run` reports: what its `scheme` line names after `→`,
/// else the named algorithm itself — what the verb answers as `"plan"`.
fn run_plan(text: &str) -> &str {
    let scheme = text.lines().find_map(|l| l.strip_prefix("scheme   : "));
    let ran = scheme.expect(text).split(" / ").next().unwrap();
    ran.rsplit('→').next().unwrap()
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

/// Every `algo` × mask × phases cell, on a simple fixture (which the
/// server counts), a weighted one and a directed one (which it
/// multiplies): the same fingerprint by the same plan, on two executors
/// whatever the host has (the oriented plan's serial passes are charged
/// per thread). MCA has no complemented form: both paths answer the typed
/// error instead.
#[test]
fn query_matches_run_bit_for_bit_and_second_query_is_warm() {
    let mtxs = fixtures("fp");
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let paths = mtxs.iter().map(|p| p.to_str().unwrap().to_string());
    server.preload(&paths.collect::<Vec<_>>()).unwrap();
    let addr = server.addr().to_string();

    for mtx in &mtxs {
        let dataset = mtx.file_stem().unwrap().to_str().unwrap();
        for algo in ["msa", "hash", "mca", "heap", "heapdot", "inner", "auto"] {
            for mask in ["normal", "complement"] {
                for phases in ["1", "2"] {
                    let cell = format!("{dataset} algo={algo} mask={mask} phases={phases}");
                    let options = ["--algo", algo, "--mask", mask, "--phases", phases];
                    let options = [&options[..], &["--threads", "2"]].concat();
                    let run_args = ["run", "--reps", "1", "--no-cache", mtx.to_str().unwrap()];
                    let run = dispatch(&[&run_args[..], &options].concat());
                    let query_args = ["query", "--connect", &addr, "mxm", "--dataset", dataset];
                    let query = dispatch(&[&query_args[..], &options].concat());
                    if algo == "mca" && mask == "complement" {
                        let query = query.expect_err(&cell);
                        assert!(query.contains("unsupported"), "{cell}: {query}");
                        assert!(run.expect_err(&cell).contains("complement"), "{cell}");
                        continue;
                    }
                    let (run_text, query_text) = (run.expect(&cell), query.expect(&cell));
                    let answer = |text| (run_fingerprint(text), run_plan(text));
                    assert_eq!(
                        answer(&run_text),
                        (
                            query_field(&query_text, "fingerprint"),
                            query_field(&query_text, "plan")
                        ),
                        "{cell}:\nrun:\n{run_text}\nquery:\n{query_text}"
                    );
                }
            }
        }
    }
}

/// An updated snapshot's first default `mxm` patches its predecessor's
/// product; on either fixture the patch must answer what a fresh load of
/// the updated graph answers. The edits keep the unit fixture simple, so
/// its patch is counted, and the others weighted.
#[test]
fn a_patched_product_answers_what_a_fresh_load_answers() {
    let mtxs = fixtures("patch");
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let paths = mtxs.iter().map(|p| p.to_str().unwrap().to_string());
    server.preload(&paths.collect::<Vec<_>>()).unwrap();
    let addr = server.addr().to_string();
    let query = |args: &[&str]| dispatch(&[&["query", "--connect", &addr][..], args].concat());
    for mtx in &mtxs {
        let dataset = mtx.file_stem().unwrap().to_str().unwrap();
        let g = mspgemm_io::load_matrix(mtx.to_str().unwrap(), &Default::default())
            .unwrap()
            .0;
        // Drop the first row's first edge, then add an edge between two
        // vertices with neighbours, each both ways.
        let (i, j) = g.iter().next().map(|(i, j, _)| (i as u32, j)).unwrap();
        let (u, v) = (0..g.nrows() as u32)
            .flat_map(|u| (0..u).map(move |v| (u, v)))
            .find(|&(u, v)| {
                g.get(u as usize, v).is_none()
                    && g.get(v as usize, u).is_none()
                    && g.row_nnz(u as usize) > 2
                    && g.row_nnz(v as usize) > 2
            })
            .expect("R-MAT 8 is not complete");
        let update = ["update", "--dataset", dataset];
        query(&[&update[..], &["--delete", &format!("{i},{j};{j},{i}")]].concat()).unwrap();
        // The first normal-mask product of an updated snapshot is kept.
        query(&["mxm", "--dataset", dataset, "--algo", "hash"]).unwrap();
        query(&[&update[..], &["--insert", &format!("{u},{v};{v},{u}")]].concat()).unwrap();
        let patched = query(&["mxm", "--dataset", dataset]).unwrap();
        assert!(patched.contains("\"incremental\":true"), "{patched}");

        let mut edited = mspgemm_sparse::Coo::new(g.nrows(), g.ncols());
        for (r, c, &x) in g.iter() {
            if ![(i, j), (j, i)].contains(&(r as u32, c)) {
                edited.push(r as u32, c, x);
            }
        }
        edited.push(u, v, 1.0);
        edited.push(v, u, 1.0);
        let fresh = mtx.with_file_name(format!("{dataset}_edited.mtx"));
        mspgemm_io::mtx::write_mtx_file(&fresh, &edited.to_csr(|x, _| x)).unwrap();
        let run = dispatch(&["run", "--reps", "1", "--no-cache", fresh.to_str().unwrap()]).unwrap();
        assert_eq!(
            query_field(&patched, "fingerprint"),
            run_fingerprint(&run),
            "{dataset}"
        );
    }
}

#[test]
fn second_query_against_resident_dataset_reports_warm_pool() {
    let [mtx, ..] = fixtures("warm");
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
        "unit",
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
    // `mxm run`'s fingerprint, and the plan its `scheme` line names after
    // `→` (none for a named algorithm) — on two executors too, for the
    // same reason as `served` below.
    let run_with = |path: &str, algo: &str, load: &[&str]| {
        let q = ["run", "--algo", algo, "--reps", "1", "--threads", "2"];
        let text = dispatch(&[&q[..], load, &["--no-cache", path]].concat()).unwrap();
        let scheme = text.lines().find(|l| l.starts_with("scheme   :"));
        let resolved = scheme.expect(&text).split('→').nth(1).unwrap_or_default();
        let plan = resolved.split(" / ").next().unwrap().to_string();
        (run_fingerprint(&text).to_string(), plan)
    };
    let run = |path: &str, algo: &str| run_with(path, algo, &[]);
    // The served fingerprint and `"plan"` under `auto` — on two executors
    // whatever the host has: the oriented plan's serial passes are charged
    // per thread. `msa` goes first: it takes an updated snapshot's product
    // seed, so `auto` runs its kernel instead of a patch.
    let served = |dataset: &str| {
        let q = ["query", "--connect", &addr, "mxm", "--threads", "2"];
        let q = [&q[..], &["--dataset", dataset]].concat();
        let msa = dispatch(&[&q[..], &["--algo", "msa"]].concat()).unwrap();
        let auto = dispatch(&[&q[..], &["--algo", "auto"]].concat()).unwrap();
        assert!(auto.contains("\"incremental\":false"), "{auto}");
        assert_eq!(query_field(&msa, "plan"), "MSA", "{msa}");
        let fingerprint = query_field(&auto, "fingerprint").to_string();
        assert_eq!(fingerprint, query_field(&msa, "fingerprint"), "{dataset}");
        (fingerprint, query_field(&auto, "plan").to_string())
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
        assert_eq!(ran.1 == "oriented pull", oriented, "{path}: {}", ran.1);
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
