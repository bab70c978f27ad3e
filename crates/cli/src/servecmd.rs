//! The serving subcommands: `mxm serve` (run the resident-dataset server)
//! and `mxm query` (script one protocol request against it).
//!
//! `serve` binds the address, preloads any datasets named as positional
//! arguments, starts accepting, prints one `listening on <addr>` line,
//! and parks until a `shutdown` request arrives. `query` builds the
//! request object from flags (so shell scripts never hand-assemble
//! JSON), sends it, prints the response as one JSON line, and exits
//! non-zero on a protocol error — which makes it usable directly in CI
//! smoke tests.

use crate::args::Parsed;
use crate::commands::load_opts;
use mspgemm_harness::report::Table;
use mspgemm_serve::{client, Client, Json, ServeConfig, Server};
use std::io::Write;

/// `mxm serve`: start the server, preload datasets, serve until a
/// `shutdown` request.
pub fn cmd_serve(p: &Parsed, out: &mut impl Write) -> Result<(), String> {
    let listen = p.flag("listen").unwrap_or("127.0.0.1:7654");
    let defaults = ServeConfig::default();
    let max_inflight = p.flag_parse("max-inflight", defaults.max_inflight)?;
    let queue_depth = p.flag_parse("queue-depth", defaults.queue_depth)?;
    let max_resident_bytes = p.flag_parse("max-resident-bytes", defaults.max_resident_bytes)?;
    let quarantine_after = p.flag_parse("quarantine-after", defaults.quarantine_after)?;
    // Fault injection for chaos drills: `--fail` wins over the
    // `MXM_FAILPOINTS` environment; both use the same spec grammar
    // (`name=[P%][N*]kind[(arg)];...`). The `stats` verb lists whatever
    // is armed, so an injected fault is never mistaken for a real one.
    let fail_spec = p
        .flag("fail")
        .map(str::to_string)
        .or_else(|| std::env::var("MXM_FAILPOINTS").ok());
    if let Some(spec) = &fail_spec {
        mspgemm_fault::configure(spec).map_err(|e| format!("failpoint spec '{spec}': {e}"))?;
        if !spec.trim().is_empty() {
            writeln!(out, "failpoints armed: {spec}").map_err(|e| e.to_string())?;
        }
    }
    // Bound first, accepting last: a client that connects while the
    // preloads run waits in the listen backlog instead of being told the
    // datasets named on this command line do not exist.
    let (server, names) = Server::start_preloaded(
        listen,
        ServeConfig {
            load: load_opts(p),
            max_inflight,
            queue_depth,
            max_resident_bytes,
            quarantine_after,
        },
        &p.positional,
    )?;
    for (path, name) in p.positional.iter().zip(names) {
        writeln!(out, "preloaded {name} from {path}").map_err(|e| e.to_string())?;
    }
    writeln!(out, "listening on {}", server.addr()).map_err(|e| e.to_string())?;
    // The line must reach a piped/backgrounded log before we park.
    out.flush().map_err(|e| e.to_string())?;
    server.wait();
    writeln!(out, "server stopped").map_err(|e| e.to_string())?;
    Ok(())
}

const QUERY_USAGE: &str = "usage: mxm query [--connect ADDR] [--retry N] <op> [op flags]\n\
    ops: ping | list | stats | shutdown\n\
         metrics [--format json|prometheus]\n\
         load --path FILE [--name N] [--no-cache] [--mmap] [--pattern]\n\
         unload --name N\n\
         mxm --dataset D [--algo A] [--mask M] [--phases P] [--threads T] [--reps R] [--deadline-ms MS]\n\
         app --dataset D [--app tc|ktruss|bc] [--scheme S] [--threads T] [--k K] [--batch B] [--deadline-ms MS]\n\
         update --dataset D [--insert 'i,j[,v];...'] [--delete 'i,j;...'] [--from-file F] [--compact]\n\
         raw --json '{...}'\n\
    update edits a resident dataset: 0-based ;-separated edge lists, or\n\
    --from-file with one op per line ('+ i j [v]' / '- i j'); --compact\n\
    makes a request without ops valid (a rebuild and a version bump)\n\
    stats/metrics/list print tables; --json prints the raw response line\n\
    --retry N retries both failed connects (every 500 ms) and typed 'busy'\n\
    overload responses, backing off from the server's retry_after_ms hint\n\
    with capped exponential growth (hint*2^attempt, at most 5 s per wait)";

/// Copy a `--flag value` into the request under `key`, verbatim, only
/// when given — absent flags fall back to server-side defaults.
fn copy_str(p: &Parsed, flag: &str, key: &'static str, req: &mut Vec<(&'static str, Json)>) {
    if let Some(v) = p.flag(flag) {
        req.push((key, Json::str(v)));
    }
}

/// Copy a numeric `--flag value` into the request as a JSON number.
fn copy_num(
    p: &Parsed,
    flag: &str,
    key: &'static str,
    req: &mut Vec<(&'static str, Json)>,
) -> Result<(), String> {
    if let Some(v) = p.flag(flag) {
        let n: u64 = v.parse().map_err(|e| format!("--{flag} {v}: {e}"))?;
        req.push((key, Json::from(n)));
    }
    Ok(())
}

/// One `i,j[,v]` edge from a `--insert`/`--delete` list, as the protocol
/// array `[i,j]` or `[i,j,v]`. `with_value` allows the third field
/// (inserts only; the server defaults an absent value to 1.0).
fn parse_edge(item: &str, with_value: bool, flag: &str) -> Result<Json, String> {
    let parts: Vec<&str> = item.split(',').map(str::trim).collect();
    let want = if with_value { "i,j or i,j,v" } else { "i,j" };
    if parts.len() < 2 || parts.len() > if with_value { 3 } else { 2 } {
        return Err(format!("--{flag}: '{item}' is not {want}"));
    }
    let mut arr = Vec::with_capacity(parts.len());
    for (k, part) in parts.iter().take(2).enumerate() {
        let n: u32 = part
            .parse()
            .map_err(|e| format!("--{flag}: '{item}' field {}: {e}", k + 1))?;
        arr.push(Json::from(u64::from(n)));
    }
    if let Some(v) = parts.get(2) {
        let x: f64 = v
            .parse()
            .map_err(|e| format!("--{flag}: '{item}' value: {e}"))?;
        arr.push(Json::from(x));
    }
    Ok(Json::Arr(arr))
}

/// A `;`-separated edge list (`--insert 'i,j,v;i,j'`, `--delete 'i,j'`).
fn parse_edge_list(spec: &str, with_value: bool, flag: &str) -> Result<Vec<Json>, String> {
    spec.split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|item| parse_edge(item, with_value, flag))
        .collect()
}

/// Read a `--from-file` batch: one op per line, `+ i j [v]` inserts,
/// `- i j` deletes; blank lines and `#` comments are skipped.
fn update_ops_from_file(path: &str) -> Result<(Vec<Json>, Vec<Json>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--from-file {path}: {e}"))?;
    let mut ins = Vec::new();
    let mut del = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let ctx = format!("--from-file {path}:{}", ln + 1);
        let (sign, rest) = line.split_at(1);
        let item = rest.split_whitespace().collect::<Vec<_>>().join(",");
        match sign {
            "+" => ins.push(parse_edge(&item, true, &ctx).map_err(strip_flag_prefix)?),
            "-" => del.push(parse_edge(&item, false, &ctx).map_err(strip_flag_prefix)?),
            _ => return Err(format!("{ctx}: line must start with '+' or '-'")),
        }
    }
    Ok((ins, del))
}

/// `parse_edge` prefixes errors with `--<flag>:`; for file lines the
/// "flag" is already the `path:line` context, so drop the dashes.
fn strip_flag_prefix(e: String) -> String {
    e.strip_prefix("--").map(str::to_string).unwrap_or(e)
}

/// Build the request object for one `mxm query` invocation.
fn build_request(op: &str, p: &Parsed) -> Result<Json, String> {
    let mut req: Vec<(&'static str, Json)> = Vec::new();
    match op {
        "ping" => req.push(("op", Json::str("ping"))),
        "list" => req.push(("op", Json::str("list"))),
        "stats" => req.push(("op", Json::str("stats"))),
        "metrics" => {
            req.push(("op", Json::str("metrics")));
            copy_str(p, "format", "format", &mut req);
        }
        "shutdown" => req.push(("op", Json::str("shutdown"))),
        "load" => {
            req.push(("op", Json::str("load")));
            let path = p.flag("path").ok_or("load needs --path FILE")?;
            req.push(("path", Json::str(path)));
            copy_str(p, "name", "name", &mut req);
            if p.switch("no-cache") {
                req.push(("cache", Json::str("off")));
            }
            if p.switch("mmap") {
                req.push(("mmap", Json::from(true)));
            }
            if p.switch("pattern") {
                req.push(("pattern", Json::from(true)));
            }
        }
        "unload" => {
            req.push(("op", Json::str("unload")));
            let name = p.flag("name").ok_or("unload needs --name N")?;
            req.push(("name", Json::str(name)));
        }
        "mxm" => {
            req.push(("op", Json::str("mxm")));
            let ds = p.flag("dataset").ok_or("mxm needs --dataset D")?;
            req.push(("dataset", Json::str(ds)));
            copy_str(p, "algo", "algo", &mut req);
            copy_str(p, "mask", "mask", &mut req);
            copy_str(p, "phases", "phases", &mut req);
            copy_num(p, "threads", "threads", &mut req)?;
            copy_num(p, "reps", "reps", &mut req)?;
            copy_num(p, "deadline-ms", "deadline_ms", &mut req)?;
        }
        "app" => {
            req.push(("op", Json::str("app")));
            let ds = p.flag("dataset").ok_or("app needs --dataset D")?;
            req.push(("dataset", Json::str(ds)));
            copy_str(p, "app", "app", &mut req);
            copy_str(p, "scheme", "scheme", &mut req);
            copy_num(p, "threads", "threads", &mut req)?;
            copy_num(p, "k", "k", &mut req)?;
            copy_num(p, "batch", "batch", &mut req)?;
            copy_num(p, "deadline-ms", "deadline_ms", &mut req)?;
        }
        "update" => {
            req.push(("op", Json::str("update")));
            let ds = p.flag("dataset").ok_or("update needs --dataset D")?;
            req.push(("dataset", Json::str(ds)));
            let (mut ins, mut del) = match p.flag("from-file") {
                Some(path) => update_ops_from_file(path)?,
                None => (Vec::new(), Vec::new()),
            };
            if let Some(spec) = p.flag("insert") {
                ins.extend(parse_edge_list(spec, true, "insert")?);
            }
            if let Some(spec) = p.flag("delete") {
                del.extend(parse_edge_list(spec, false, "delete")?);
            }
            let compact = p.switch("compact");
            if ins.is_empty() && del.is_empty() && !compact {
                return Err(
                    "update needs ops (--insert/--delete/--from-file) or --compact".to_string(),
                );
            }
            if !ins.is_empty() {
                req.push(("insert", Json::Arr(ins)));
            }
            if !del.is_empty() {
                req.push(("delete", Json::Arr(del)));
            }
            if compact {
                req.push(("compact", Json::from(true)));
            }
        }
        other => {
            return Err(format!("unknown query op '{other}'\n\n{QUERY_USAGE}"));
        }
    }
    Ok(Json::obj(req))
}

/// Connect, retrying `--retry N` times (half a second apart) — lets a CI
/// script start `mxm serve` in the background and query it without
/// guessing at startup latency.
fn connect_with_retry(addr: &str, retries: u64) -> Result<Client, String> {
    let mut last = String::new();
    for attempt in 0..=retries {
        match Client::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) => last = e,
        }
        if attempt < retries {
            std::thread::sleep(std::time::Duration::from_millis(500));
        }
    }
    Err(last)
}

/// The capped exponential backoff before busy-retry number `attempt`:
/// the server's `retry_after_ms` hint doubled per attempt (exponent
/// capped so the shift cannot overflow), never above 5 seconds, then
/// jittered by ±25%. Without the jitter, every client rejected by the
/// same full queue computes the same wait and re-arrives in lockstep —
/// re-overloading the queue on the same tick, forever.
fn busy_backoff_ms(hint: u64, attempt: u64) -> u64 {
    let base = hint.saturating_mul(1 << attempt.min(6)).min(5_000);
    jitter_pm25(base).min(5_000)
}

/// Uniform ±25% around `base` (time-seeded xorshift — no RNG dependency,
/// and reproducibility is the opposite of what backoff jitter wants).
fn jitter_pm25(base: u64) -> u64 {
    if base == 0 {
        return 0;
    }
    let mut x = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()) ^ d.as_secs())
        .unwrap_or(0x9e37_79b9_7f4a_7c15)
        | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    base - base / 4 + x % (base / 2 + 1)
}

/// Send one request, resending on a typed `busy` overload response (up
/// to `retries` times) after the backoff the server hinted. Any other
/// response — success or error — is returned as-is.
fn request_with_retry(client: &mut Client, req: &Json, retries: u64) -> Result<Json, String> {
    let mut attempt = 0u64;
    loop {
        let resp = client.request(req)?;
        match client::busy_retry_after(&resp) {
            Some(hint) if attempt < retries => {
                std::thread::sleep(std::time::Duration::from_millis(busy_backoff_ms(
                    hint, attempt,
                )));
                attempt += 1;
            }
            _ => return Ok(resp),
        }
    }
}

/// Render one JSON scalar for a report line or table cell.
fn cell(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        other => other.to_line(),
    }
}

/// Render a `labels` object as `k=v,k=v` (`-` when absent or empty).
fn labels_cell(v: Option<&Json>) -> String {
    match v {
        Some(Json::Obj(pairs)) if !pairs.is_empty() => pairs
            .iter()
            .map(|(k, val)| format!("{k}={}", cell(val)))
            .collect::<Vec<_>>()
            .join(","),
        _ => "-".into(),
    }
}

/// Split a response into aligned-report ingredients: nested objects
/// flatten into dotted scalar keys, arrays of objects become tables.
fn flatten<'a>(
    prefix: String,
    v: &'a Json,
    scalars: &mut Vec<(String, String)>,
    arrays: &mut Vec<(String, &'a [Json])>,
) {
    match v {
        Json::Obj(pairs) => {
            for (k, val) in pairs {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(key, val, scalars, arrays);
            }
        }
        Json::Arr(items)
            if !items.is_empty() && items.iter().all(|i| matches!(i, Json::Obj(_))) =>
        {
            arrays.push((prefix, items));
        }
        other => scalars.push((prefix, cell(other))),
    }
}

/// Human-readable rendering of a response object: `key : value` lines
/// for scalars, one aligned table per array-of-objects field (column
/// order = first-seen key order across the rows).
fn render_report(resp: &Json, out: &mut impl Write) -> Result<(), String> {
    let mut scalars = Vec::new();
    let mut arrays = Vec::new();
    flatten(String::new(), resp, &mut scalars, &mut arrays);
    // `expect_ok` already enforced ok:true — no need to echo it.
    scalars.retain(|(k, _)| k != "ok");
    let width = scalars.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    for (k, v) in &scalars {
        writeln!(out, "{k:<width$} : {v}").map_err(|e| e.to_string())?;
    }
    for (name, items) in arrays {
        let mut cols: Vec<&str> = Vec::new();
        for it in items {
            if let Json::Obj(pairs) = it {
                for (k, _) in pairs {
                    if !cols.iter().any(|c| c == k) {
                        cols.push(k);
                    }
                }
            }
        }
        let mut table = Table::new(&cols);
        for it in items {
            let row: Vec<String> = cols
                .iter()
                .map(|c| it.get(c).map(cell).unwrap_or_else(|| "-".into()))
                .collect();
            table.row(&row);
        }
        writeln!(out, "{name} ({} rows):\n{}", items.len(), table.to_text())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Table rendering for the `metrics` verb's JSON form: one table per
/// metric family, histograms summarized to their quantiles (the full
/// bucket vectors stay behind `--json`).
fn render_metrics(resp: &Json, out: &mut impl Write) -> Result<(), String> {
    let arr = |key: &str| resp.get(key).and_then(Json::as_arr).unwrap_or(&[]);
    let field = |it: &Json, key: &str| it.get(key).map(cell).unwrap_or_else(|| "-".into());

    for (title, key) in [("counters", "counters"), ("gauges", "gauges")] {
        let items = arr(key);
        let mut table = Table::new(&["name", "labels", "value"]);
        for it in items {
            table.row(&[
                field(it, "name"),
                labels_cell(it.get("labels")),
                field(it, "value"),
            ]);
        }
        writeln!(
            out,
            "{title} ({} series):\n{}",
            items.len(),
            table.to_text()
        )
        .map_err(|e| e.to_string())?;
    }

    let items = arr("histograms");
    let mut table = Table::new(&[
        "name", "labels", "count", "mean_us", "p50_us", "p95_us", "p99_us", "max_us",
    ]);
    for it in items {
        table.row(&[
            field(it, "name"),
            labels_cell(it.get("labels")),
            field(it, "count"),
            field(it, "mean"),
            field(it, "p50"),
            field(it, "p95"),
            field(it, "p99"),
            field(it, "max"),
        ]);
    }
    writeln!(
        out,
        "histograms ({} series):\n{}",
        items.len(),
        table.to_text()
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// `mxm query`: one request; `stats`/`metrics`/`list` print tables by
/// default (`--json` restores the raw line), `metrics --format
/// prometheus` prints the exposition text verbatim, every other op
/// prints the one-line JSON response.
pub fn cmd_query(p: &Parsed, out: &mut impl Write) -> Result<(), String> {
    let op = p.positional.first().ok_or(QUERY_USAGE)?;
    let addr = p.flag("connect").unwrap_or("127.0.0.1:7654");
    let retries = p.flag_parse("retry", 0u64)?;
    let mut client = connect_with_retry(addr, retries)?;
    let resp = if op == "raw" {
        let raw = p.flag("json").ok_or("raw needs --json '{...}'")?;
        client.request_line(raw)?
    } else {
        request_with_retry(&mut client, &build_request(op, p)?, retries)?
    };
    let resp = client::expect_ok(resp)?;
    if op == "raw" || p.switch("json") {
        writeln!(out, "{}", resp.to_line()).map_err(|e| e.to_string())?;
    } else if resp.get("format").and_then(Json::as_str) == Some("prometheus") {
        // The payload IS the exposition text; print it scrape-ready.
        let text = resp.get("text").and_then(Json::as_str).unwrap_or("");
        write!(out, "{text}").map_err(|e| e.to_string())?;
    } else if op == "metrics" {
        render_metrics(&resp, out)?;
    } else if matches!(op.as_str(), "stats" | "list") {
        render_report(&resp, out)?;
    } else {
        writeln!(out, "{}", resp.to_line()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn parsed(args: &[&str]) -> Parsed {
        parse(&sv(args), &[crate::QUERY_VALUE_FLAGS, &["json"]].concat()).unwrap()
    }

    #[test]
    fn request_objects_mirror_flags() {
        let p = parsed(&[
            "mxm",
            "--dataset",
            "karate",
            "--algo",
            "hash",
            "--phases",
            "2",
            "--threads",
            "4",
        ]);
        let req = build_request("mxm", &p).unwrap();
        assert_eq!(
            req.to_line(),
            r#"{"op":"mxm","dataset":"karate","algo":"hash","phases":"2","threads":4}"#
        );
        // Absent flags are absent keys — server defaults apply.
        let p = parsed(&["mxm", "--dataset", "karate"]);
        assert_eq!(
            build_request("mxm", &p).unwrap().to_line(),
            r#"{"op":"mxm","dataset":"karate"}"#
        );
        // --deadline-ms travels as the protocol's deadline_ms field, on
        // both heavy verbs.
        let p = parsed(&["mxm", "--dataset", "karate", "--deadline-ms", "250"]);
        assert_eq!(
            build_request("mxm", &p).unwrap().to_line(),
            r#"{"op":"mxm","dataset":"karate","deadline_ms":250}"#
        );
        let p = parsed(&["app", "--dataset", "karate", "--deadline-ms", "250"]);
        assert_eq!(
            build_request("app", &p).unwrap().to_line(),
            r#"{"op":"app","dataset":"karate","deadline_ms":250}"#
        );
    }

    #[test]
    fn busy_backoff_doubles_from_the_hint_and_caps() {
        // The backoff is jittered ±25% around the capped exponential
        // base, so assert bands rather than exact values.
        let within = |hint: u64, attempt: u64, base: u64| {
            let v = busy_backoff_ms(hint, attempt);
            assert!(
                v >= base - base / 4 && v <= base + base / 4,
                "hint={hint} attempt={attempt}: {v} outside ±25% of {base}"
            );
        };
        within(40, 0, 40);
        within(40, 1, 80);
        within(40, 3, 320);
        // Exponent cap: attempts past 6 stop doubling.
        within(1, 6, 64);
        within(1, 60, 64);
        // The absolute ceiling holds even for huge hints — jitter never
        // pushes a wait past 5 s.
        assert!(busy_backoff_ms(5_000, 4) <= 5_000);
        assert!(busy_backoff_ms(u64::MAX, 2) <= 5_000);
        assert_eq!(busy_backoff_ms(0, 3), 0);
        // Distinct calls actually spread (time-seeded): over many draws
        // at a wide base, at least two distinct values must appear.
        let draws: std::collections::HashSet<u64> =
            (0..64).map(|_| busy_backoff_ms(4_000, 0)).collect();
        assert!(draws.len() > 1, "jitter produced a constant: {draws:?}");
    }

    #[test]
    fn load_and_unload_require_their_flags() {
        assert!(build_request("load", &parsed(&["load"])).is_err());
        assert!(build_request("unload", &parsed(&["unload"])).is_err());
        let p = parsed(&["load", "--path", "g.mtx", "--no-cache"]);
        let req = build_request("load", &p).unwrap();
        assert_eq!(
            req.to_line(),
            r#"{"op":"load","path":"g.mtx","cache":"off"}"#
        );
    }

    #[test]
    fn update_request_builds_batches() {
        // Inline lists: inserts carry optional values, deletes never do.
        let p = parsed(&[
            "update",
            "--dataset",
            "g",
            "--insert",
            "0,1,2.5; 3,4",
            "--delete",
            "5,6",
        ]);
        assert_eq!(
            build_request("update", &p).unwrap().to_line(),
            r#"{"op":"update","dataset":"g","insert":[[0,1,2.5],[3,4]],"delete":[[5,6]]}"#
        );
        // --compact alone is a valid request.
        let mut p = parsed(&["update", "--dataset", "g"]);
        p.switches.insert("compact".into());
        assert_eq!(
            build_request("update", &p).unwrap().to_line(),
            r#"{"op":"update","dataset":"g","compact":true}"#
        );
        // No ops and no compact: rejected client-side.
        let p = parsed(&["update", "--dataset", "g"]);
        assert!(build_request("update", &p).unwrap_err().contains("ops"));
        // Malformed lists are rejected with the offending item.
        let p = parsed(&["update", "--dataset", "g", "--insert", "0"]);
        assert!(build_request("update", &p).is_err());
        let p = parsed(&["update", "--dataset", "g", "--delete", "1,2,3"]);
        assert!(build_request("update", &p).is_err());
        let p = parsed(&["update", "--dataset", "g", "--insert", "-1,2"]);
        assert!(build_request("update", &p).is_err());
    }

    #[test]
    fn update_request_reads_op_files() {
        let dir = std::env::temp_dir().join("mxm_cli_update_file");
        std::fs::create_dir_all(&dir).unwrap();
        let ops = dir.join("batch.txt");
        std::fs::write(&ops, "# day-1 edits\n+ 0 1 2.5\n\n- 5 6\n+ 3 4\n").unwrap();
        let p = parsed(&[
            "update",
            "--dataset",
            "g",
            "--from-file",
            ops.to_str().unwrap(),
        ]);
        assert_eq!(
            build_request("update", &p).unwrap().to_line(),
            r#"{"op":"update","dataset":"g","insert":[[0,1,2.5],[3,4]],"delete":[[5,6]]}"#
        );
        // A bad line is reported with its file:line context.
        std::fs::write(&ops, "* 0 1\n").unwrap();
        let p = parsed(&[
            "update",
            "--dataset",
            "g",
            "--from-file",
            ops.to_str().unwrap(),
        ]);
        let err = build_request("update", &p).unwrap_err();
        assert!(err.contains(":1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_op_is_rejected_with_usage() {
        let err = build_request("frobnicate", &parsed(&["frobnicate"])).unwrap_err();
        assert!(err.contains("usage:"), "{err}");
    }

    #[test]
    fn metrics_request_carries_format() {
        let req = build_request("metrics", &parsed(&["metrics"])).unwrap();
        assert_eq!(req.to_line(), r#"{"op":"metrics"}"#);
        let p = parsed(&["metrics", "--format", "prometheus"]);
        assert_eq!(
            build_request("metrics", &p).unwrap().to_line(),
            r#"{"op":"metrics","format":"prometheus"}"#
        );
    }

    #[test]
    fn query_renders_tables_by_default_and_raw_json_on_demand() {
        let dir = std::env::temp_dir().join("mxm_cli_querytbl");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("g.mtx");
        mspgemm_io::mtx::write_mtx_file(&mtx, &mspgemm_gen::er_symmetric(80, 5, 11)).unwrap();
        let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
        server
            .preload(&[mtx.to_str().unwrap().to_string()])
            .unwrap();
        let addr = server.addr().to_string();

        // Traffic so the histograms have something to show.
        let p = parsed(&["mxm", "--connect", &addr, "--dataset", "g"]);
        cmd_query(&p, &mut Vec::new()).unwrap();

        // stats: aligned key/value report, not a JSON line.
        let mut out = Vec::new();
        crate::dispatch(
            &["query", "stats", "--connect", &addr]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.starts_with('{'), "{text}");
        assert!(text.contains("requests_total"), "{text}");
        assert!(text.contains(" : "), "{text}");

        // stats --json: the raw response line (the escape hatch).
        let mut out = Vec::new();
        crate::dispatch(
            &["query", "stats", "--connect", &addr, "--json"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with('{'), "{text}");
        assert!(text.contains("\"ok\":true"), "{text}");

        // metrics: one table per family, quantile columns for histograms.
        let mut out = Vec::new();
        cmd_query(&parsed(&["metrics", "--connect", &addr]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("counters ("), "{text}");
        assert!(text.contains("gauges ("), "{text}");
        assert!(text.contains("p99_us"), "{text}");
        assert!(text.contains("verb=mxm"), "{text}");

        // metrics --format prometheus: exposition text, verbatim.
        let mut out = Vec::new();
        cmd_query(
            &parsed(&["metrics", "--connect", &addr, "--format", "prometheus"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("# TYPE requests_total counter"), "{text}");
        assert!(text.contains("request_latency_us_bucket"), "{text}");

        // list: a table whose rows are the resident datasets.
        let mut out = Vec::new();
        cmd_query(&parsed(&["list", "--connect", &addr]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("datasets (1 rows):"), "{text}");
        assert!(text.contains("name"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_query_roundtrip_in_process() {
        let dir = std::env::temp_dir().join("mxm_cli_servecmd");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("g.mtx");
        mspgemm_io::mtx::write_mtx_file(&mtx, &mspgemm_gen::er_symmetric(90, 5, 23)).unwrap();

        let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
        server
            .preload(&[mtx.to_str().unwrap().to_string()])
            .unwrap();
        let addr = server.addr().to_string();

        let p = parsed(&["mxm", "--connect", &addr, "--dataset", "g", "--algo", "msa"]);
        let mut out = Vec::new();
        cmd_query(&p, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"fingerprint\""), "{text}");
        assert!(text.contains("\"ok\":true"), "{text}");

        // A protocol error surfaces as a CLI error with the code.
        let p = parsed(&["mxm", "--connect", &addr, "--dataset", "missing"]);
        let err = cmd_query(&p, &mut Vec::new()).unwrap_err();
        assert!(err.starts_with("unknown_dataset:"), "{err}");
    }
}
