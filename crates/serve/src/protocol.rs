//! The wire protocol: framing rules, error codes, and response shapes.
//!
//! Transport is **line-delimited JSON**: each request is one JSON object
//! on one line (`\n`-terminated), answered by exactly one JSON object on
//! one line, in order, over a plain TCP or Unix-domain stream. A session
//! is a sequence of request/response pairs on one connection; `nc` is a
//! full-featured client. The complete verb-by-verb schema lives in
//! `docs/SERVE_PROTOCOL.md`.
//!
//! Every response carries `"ok"`: `true` with verb-specific fields, or
//! `false` with an `"error": {"code", "message"}` object. Error codes are
//! the stable machine-readable surface ([`ErrorCode`]); messages are for
//! humans and may change.
//!
//! Requests longer than [`MAX_REQUEST_BYTES`] are answered with a
//! `payload_too_large` error and the connection is closed (an oversized
//! line cannot be resynchronized safely). Malformed JSON or a
//! non-object request gets `bad_request` and the connection stays open.

use crate::json::{self, Json};
use masked_spgemm::{Algorithm, MaskMode, Phases};
use mspgemm_graph::{App, Scheme};
use mspgemm_harness::check_threads;
use mspgemm_io::CachePolicy;
use mspgemm_sparse::overlay::DeltaOp;
use mspgemm_sparse::Idx;
use std::io::{BufRead, Read, Write};

/// Upper bound on one request line, newline included. Every defined verb
/// fits in well under a kilobyte; the megabyte of headroom is for long
/// filesystem paths, not bulk data (matrices travel by path, not by
/// value).
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Machine-readable error categories. The `code` string in an error
/// response is `as_str` of one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a JSON object, or a field was missing/mistyped.
    BadRequest,
    /// The `op` value names no known verb.
    UnknownOp,
    /// The named dataset is not resident.
    UnknownDataset,
    /// `load` under a name that is already resident.
    AlreadyLoaded,
    /// The request line exceeded [`MAX_REQUEST_BYTES`].
    PayloadTooLarge,
    /// Dataset ingest failed (I/O error, malformed matrix, not square).
    LoadFailed,
    /// The kernel rejected the request (e.g. MCA with a complemented
    /// mask) or the execution itself failed.
    ExecFailed,
    /// The admission queue is full; the error object carries a
    /// `retry_after_ms` backoff hint. Retry later — nothing about the
    /// request itself was wrong.
    Busy,
    /// The request's `deadline_ms` budget expired before the work
    /// produced a result; partial work was abandoned.
    DeadlineExceeded,
    /// The server is shutting down and accepts no further work.
    ShuttingDown,
    /// The named dataset is quarantined after repeated kernel panics;
    /// an operator clears it with `unload` + `load`.
    Quarantined,
    /// The named dataset was evicted by the memory budget; `load` it
    /// again to use it.
    Evicted,
    /// The dataset cannot fit the `--max-resident-bytes` budget even
    /// after evicting everything evictable.
    OverBudget,
    /// An `update` op addressed a row/column outside the matrix shape;
    /// the whole batch was rejected, nothing was applied.
    OutOfBounds,
}

impl ErrorCode {
    /// The stable wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::UnknownDataset => "unknown_dataset",
            ErrorCode::AlreadyLoaded => "already_loaded",
            ErrorCode::PayloadTooLarge => "payload_too_large",
            ErrorCode::LoadFailed => "load_failed",
            ErrorCode::ExecFailed => "exec_failed",
            ErrorCode::Busy => "busy",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Quarantined => "quarantined",
            ErrorCode::Evicted => "evicted",
            ErrorCode::OverBudget => "over_budget",
            ErrorCode::OutOfBounds => "out_of_bounds",
        }
    }
}

/// Why a request was refused: the typed code plus the human message.
pub(crate) type Reject = (ErrorCode, String);

fn bad(message: String) -> Reject {
    (ErrorCode::BadRequest, message)
}

/// The refusal every request gets once shutdown has begun.
pub(crate) fn shutting_down() -> Reject {
    (
        ErrorCode::ShuttingDown,
        "server is shutting down".to_string(),
    )
}

/// A successful response: `{"ok":true, ...fields}`.
pub fn ok_response(fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.extend(fields);
    Json::obj(pairs)
}

/// An error response: `{"ok":false,"error":{"code","message"}}`.
pub fn err_response(code: ErrorCode, message: impl Into<String>) -> Json {
    err_response_with(code, message, vec![])
}

/// [`err_response`] with extra machine-readable fields inside the error
/// object — e.g. `busy` responses carry `retry_after_ms` there, next to
/// the code a client already switches on.
pub fn err_response_with(
    code: ErrorCode,
    message: impl Into<String>,
    extra: Vec<(&str, Json)>,
) -> Json {
    let mut err = vec![
        ("code", Json::str(code.as_str())),
        ("message", Json::Str(message.into())),
    ];
    err.extend(extra);
    Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::obj(err))])
}

/// What one framed read produced.
#[derive(Debug, PartialEq)]
pub enum Frame {
    /// One complete line (without the trailing newline).
    Line(String),
    /// The peer closed the connection at a line boundary.
    Eof,
    /// The line exceeded `cap` bytes; the connection must be closed.
    Oversized,
}

/// Read one `\n`-terminated line of at most `cap` bytes. Invalid UTF-8 is
/// surfaced as an I/O error (the JSON layer would reject it anyway, with
/// a worse message). A final unterminated line at EOF is accepted —
/// `printf '{"op":"list"}' | nc` works without the trailing newline.
pub fn read_frame(reader: &mut impl BufRead, cap: usize) -> std::io::Result<Frame> {
    let mut buf = Vec::new();
    // `take` bounds the worst case: a peer streaming an endless line can
    // make us buffer at most cap+1 bytes, not the whole stream.
    let n = reader.take(cap as u64 + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(Frame::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if n > cap {
        return Ok(Frame::Oversized);
    }
    match String::from_utf8(buf) {
        Ok(line) => Ok(Frame::Line(line)),
        Err(_) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "request line is not valid UTF-8",
        )),
    }
}

/// Write one line — request or response — as a **single** `write_all` of
/// `line + "\n"`, then flush. Every framed write in the crate goes
/// through here: splitting the newline into its own write leaves a
/// one-byte segment that Nagle's algorithm holds back until the peer's
/// delayed ACK (~40 ms per exchange on an otherwise idle connection).
pub(crate) fn write_line(writer: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Optional field of a request object, read through one of the `Json`
/// `as_*` accessors: `None` when absent or `null`, `bad_request` naming
/// the expected type when present with the wrong one.
fn opt<'a, T>(
    req: &'a Json,
    field: &str,
    get: impl Fn(&'a Json) -> Option<T>,
    expected: &str,
) -> Result<Option<T>, Reject> {
    match req.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => get(v)
            .map(Some)
            .ok_or_else(|| bad(format!("'{field}' must be {expected}"))),
    }
}

fn opt_str<'a>(req: &'a Json, field: &str) -> Result<Option<&'a str>, Reject> {
    opt(req, field, Json::as_str, "a string")
}

fn req_str<'a>(req: &'a Json, field: &str) -> Result<&'a str, Reject> {
    opt_str(req, field)?.ok_or_else(|| bad(format!("'{field}' must be a string")))
}

fn opt_bool(req: &Json, field: &str) -> Result<Option<bool>, Reject> {
    opt(req, field, Json::as_bool, "a boolean")
}

fn opt_u64(req: &Json, field: &str, default: u64) -> Result<u64, Reject> {
    Ok(opt(req, field, Json::as_u64, "a non-negative integer")?.unwrap_or(default))
}

/// The `threads` field of `mxm` / `app`: a dedicated pool size (0 = the
/// ambient pool), bounded like the CLI's `--threads` — client input must
/// not size a thread pool unchecked.
fn opt_threads(req: &Json) -> Result<usize, Reject> {
    let n = opt_u64(req, "threads", 0)?;
    check_threads(usize::try_from(n).unwrap_or(usize::MAX)).map_err(bad)
}

/// Optional field parsed into any `FromStr` type, accepting both the
/// string spelling and (for convenience) an integral number — so
/// `"phases": 2` and `"phases": "2"` both work.
fn opt_parse<T: std::str::FromStr<Err = String>>(
    req: &Json,
    field: &str,
) -> Result<Option<T>, Reject> {
    let parsed = match req.get(field) {
        None | Some(Json::Null) => return Ok(None),
        Some(Json::Str(s)) => s.parse(),
        Some(v) => match v.as_u64() {
            Some(n) => n.to_string().parse(),
            None => return Err(bad(format!("'{field}' must be a string or integer"))),
        },
    };
    parsed.map(Some).map_err(|e| bad(format!("'{field}': {e}")))
}

/// One request line, decoded once at the edge. Every layer behind the
/// decode — routing, admission, the queue, the executors — works on
/// these types; none of them sees the JSON again. `load` fields a request
/// may leave to the server's configuration stay `Option`s.
pub(crate) enum Request {
    Ping,
    Load(LoadParams),
    List,
    Unload(String),
    /// `mxm` / `app` / `update`: kernel-sized work that goes through
    /// admission.
    Heavy(HeavyRequest),
    Stats,
    Metrics(MetricsFormat),
    Shutdown,
}

pub(crate) struct LoadParams {
    pub path: String,
    pub name: Option<String>,
    pub cache: Option<CachePolicy>,
    pub mmap: Option<bool>,
    pub pattern: Option<bool>,
    pub pin: bool,
}

pub(crate) enum MetricsFormat {
    Json,
    Prometheus,
}

/// What the three heavy verbs share — the dataset they address and their
/// execution budget — around the verb-specific [`Work`].
pub(crate) struct HeavyRequest {
    pub dataset: String,
    /// `0` = no deadline.
    pub deadline_ms: u64,
    pub work: Work,
}

pub(crate) enum Work {
    Mxm(MxmParams),
    App(AppParams),
    Update(UpdateParams),
}

#[derive(Clone, Copy, PartialEq)]
pub(crate) struct MxmParams {
    pub algo: Algorithm,
    pub mode: MaskMode,
    pub phases: Phases,
    pub threads: usize,
    pub reps: usize,
}

pub(crate) struct AppParams {
    pub app: App,
    pub scheme: Scheme,
    pub threads: usize,
    pub k: usize,
    pub batch: usize,
}

pub(crate) struct UpdateParams {
    /// Inserts first, then deletes — a position named in both ends
    /// deleted (last write wins in the batch).
    pub ops: Vec<DeltaOp<f64>>,
}

impl HeavyRequest {
    /// The metric label / wire name of the verb.
    pub fn verb(&self) -> &'static str {
        match self.work {
            Work::Mxm(_) => "mxm",
            Work::App(_) => "app",
            Work::Update(_) => "update",
        }
    }

    /// Fusion: two queued requests are answered by the very same kernel
    /// pass when they are `mxm` requests against one dataset agreeing on
    /// every parameter. `app` and `update` never fuse.
    pub fn same_pass(&self, other: &HeavyRequest) -> bool {
        self.dataset == other.dataset
            && matches!((&self.work, &other.work), (Work::Mxm(a), Work::Mxm(b)) if a == b)
    }
}

/// Parse one request line into its JSON object — the crate's only
/// `json::parse` of client input.
pub(crate) fn parse_object(line: &str) -> Result<Json, Reject> {
    match json::parse(line) {
        Ok(v @ Json::Obj(_)) => Ok(v),
        Ok(_) => Err(bad("request must be a JSON object".to_string())),
        Err(e) => Err(bad(format!("invalid JSON: {e}"))),
    }
}

/// Decode a request object into its typed [`Request`], validating every
/// field that can be judged without server state. Returns the verb label
/// for the metrics (`"invalid"` without a usable `op`, `"unknown"` for an
/// unrecognized one) alongside the verdict, so rejected requests are still
/// counted under the verb they named.
pub(crate) fn decode(req: &Json) -> (&'static str, Result<Request, Reject>) {
    let Some(op) = req.get("op").and_then(Json::as_str) else {
        return ("invalid", Err(bad("'op' must be a string".to_string())));
    };
    let heavy = |work: Result<Work, Reject>| -> Result<Request, Reject> {
        Ok(Request::Heavy(HeavyRequest {
            dataset: req_str(req, "dataset")?.to_string(),
            deadline_ms: opt_u64(req, "deadline_ms", 0)?,
            work: work?,
        }))
    };
    match op {
        "ping" => ("ping", Ok(Request::Ping)),
        "load" => ("load", decode_load(req).map(Request::Load)),
        "list" => ("list", Ok(Request::List)),
        "unload" => (
            "unload",
            req_str(req, "name").map(|name| Request::Unload(name.to_string())),
        ),
        "mxm" => ("mxm", heavy(decode_mxm(req).map(Work::Mxm))),
        "app" => ("app", heavy(decode_app(req).map(Work::App))),
        "update" => ("update", heavy(decode_update(req).map(Work::Update))),
        "stats" => ("stats", Ok(Request::Stats)),
        "metrics" => ("metrics", decode_metrics(req).map(Request::Metrics)),
        "shutdown" => ("shutdown", Ok(Request::Shutdown)),
        other => (
            "unknown",
            Err((
                ErrorCode::UnknownOp,
                format!(
                    "unknown op '{other}' (expected ping|load|list|unload|mxm|app|update|stats|metrics|shutdown)"
                ),
            )),
        ),
    }
}

fn decode_load(req: &Json) -> Result<LoadParams, Reject> {
    Ok(LoadParams {
        path: req_str(req, "path")?.to_string(),
        name: opt_str(req, "name")?.map(str::to_string),
        cache: match opt_str(req, "cache")? {
            None => None,
            Some("readwrite") => Some(CachePolicy::ReadWrite),
            Some("off") => Some(CachePolicy::Off),
            Some(other) => {
                return Err(bad(format!("'cache' must be readwrite|off, got '{other}'")))
            }
        },
        mmap: opt_bool(req, "mmap")?,
        pattern: opt_bool(req, "pattern")?,
        pin: opt_bool(req, "pin")?.unwrap_or(false),
    })
}

fn decode_metrics(req: &Json) -> Result<MetricsFormat, Reject> {
    match opt_str(req, "format")? {
        None | Some("json") => Ok(MetricsFormat::Json),
        Some("prometheus") => Ok(MetricsFormat::Prometheus),
        Some(other) => Err(bad(format!(
            "'format' must be json|prometheus, got '{other}'"
        ))),
    }
}

fn decode_mxm(req: &Json) -> Result<MxmParams, Reject> {
    Ok(MxmParams {
        algo: opt_parse(req, "algo")?.unwrap_or(Algorithm::Auto),
        mode: opt_parse(req, "mask")?.unwrap_or(MaskMode::Mask),
        phases: opt_parse(req, "phases")?.unwrap_or(Phases::One),
        threads: opt_threads(req)?,
        reps: opt_u64(req, "reps", 1)?.max(1) as usize,
    })
}

fn decode_app(req: &Json) -> Result<AppParams, Reject> {
    let p = AppParams {
        app: opt_parse(req, "app")?.unwrap_or(App::Tc),
        scheme: opt_parse(req, "scheme")?.unwrap_or(Scheme::Ours(Algorithm::Auto, Phases::One)),
        threads: opt_threads(req)?,
        k: opt_u64(req, "k", 4)? as usize,
        batch: opt_u64(req, "batch", 16)? as usize,
    };
    if p.app == App::Ktruss && p.k < 3 {
        return Err(bad(format!("k-truss needs k >= 3, got {}", p.k)));
    }
    if p.app == App::Bc && !p.scheme.supports_complement() {
        return Err((
            ErrorCode::ExecFailed,
            format!(
                "scheme {} cannot run BC (no complemented-mask support)",
                p.scheme.name()
            ),
        ));
    }
    Ok(p)
}

/// The entries of an `update` request's `field` array, each checked to
/// be an array of an accepted length (`shape` spells it for the error).
fn tuples<'a>(
    req: &'a Json,
    field: &str,
    lens: std::ops::RangeInclusive<usize>,
    shape: &str,
) -> Result<Vec<&'a [Json]>, Reject> {
    let Some(v) = req.get(field) else {
        return Ok(Vec::new());
    };
    let arr = v
        .as_arr()
        .ok_or_else(|| bad(format!("'{field}' must be an array of {shape}")))?;
    arr.iter()
        .enumerate()
        .map(|(k, e)| {
            e.as_arr()
                .filter(|t| lens.contains(&t.len()))
                .ok_or_else(|| bad(format!("'{field}'[{k}] must be {shape}")))
        })
        .collect()
}

/// The `"insert"` / `"delete"` arrays of an `update` request as one op
/// batch. `"compact": true` is what makes an op-free request valid (it
/// rebuilds and bumps the version like any batch); it has no other
/// effect.
fn decode_update(req: &Json) -> Result<UpdateParams, Reject> {
    fn idx(v: &Json, what: &str, k: usize) -> Result<Idx, Reject> {
        v.as_u64()
            .and_then(|n| Idx::try_from(n).ok())
            .ok_or_else(|| {
                bad(format!(
                    "'{what}'[{k}] indices must be 32-bit integers >= 0"
                ))
            })
    }
    let compact = opt_bool(req, "compact")?.unwrap_or(false);
    let mut ops = Vec::new();
    let inserts = tuples(req, "insert", 2..=3, "[row, col] or [row, col, value]")?;
    for (k, t) in inserts.into_iter().enumerate() {
        let val = match t.get(2) {
            None => 1.0,
            Some(v) => v
                .as_f64()
                .ok_or_else(|| bad(format!("'insert'[{k}] value must be a number")))?,
        };
        ops.push(DeltaOp::Upsert {
            row: idx(&t[0], "insert", k)?,
            col: idx(&t[1], "insert", k)?,
            val,
        });
    }
    for (k, t) in tuples(req, "delete", 2..=2, "[row, col]")?
        .into_iter()
        .enumerate()
    {
        ops.push(DeltaOp::Delete {
            row: idx(&t[0], "delete", k)?,
            col: idx(&t[1], "delete", k)?,
        });
    }
    if ops.is_empty() && !compact {
        return Err(bad(
            "'update' needs 'insert' and/or 'delete' ops (or 'compact': true)".to_string(),
        ));
    }
    Ok(UpdateParams { ops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_split_on_newlines() {
        let mut r = BufReader::new(&b"{\"op\":\"list\"}\r\nsecond\n"[..]);
        assert_eq!(
            read_frame(&mut r, 64).unwrap(),
            Frame::Line("{\"op\":\"list\"}".into())
        );
        assert_eq!(
            read_frame(&mut r, 64).unwrap(),
            Frame::Line("second".into())
        );
        assert_eq!(read_frame(&mut r, 64).unwrap(), Frame::Eof);
    }

    #[test]
    fn unterminated_final_line_is_accepted() {
        let mut r = BufReader::new(&b"{\"op\":\"ping\"}"[..]);
        assert_eq!(
            read_frame(&mut r, 64).unwrap(),
            Frame::Line("{\"op\":\"ping\"}".into())
        );
        assert_eq!(read_frame(&mut r, 64).unwrap(), Frame::Eof);
    }

    #[test]
    fn oversized_lines_are_flagged_not_buffered() {
        let big = vec![b'x'; 1000];
        let mut r = BufReader::new(&big[..]);
        assert_eq!(read_frame(&mut r, 100).unwrap(), Frame::Oversized);
        // Exactly at the cap, terminated: fine.
        let mut exact = vec![b'y'; 100];
        exact.push(b'\n');
        let mut r = BufReader::new(&exact[..]);
        assert!(matches!(read_frame(&mut r, 100).unwrap(), Frame::Line(_)));
    }

    #[test]
    fn fusion_needs_identical_mxm_requests() {
        let heavy = |line: &str| match decode(&parse_object(line).unwrap()).1 {
            Ok(Request::Heavy(h)) => h,
            _ => panic!("{line} must decode as a heavy request"),
        };
        let normal = heavy(r#"{"op":"mxm","dataset":"g","algo":"hash"}"#);
        let comp = heavy(r#"{"op":"mxm","dataset":"g","algo":"hash","mask":"complement"}"#);
        assert!(!normal.same_pass(&comp));
        assert!(normal.same_pass(&heavy(r#"{"op":"mxm","dataset":"g","algo":"hash"}"#)));
        assert!(!normal.same_pass(&heavy(r#"{"op":"mxm","dataset":"h","algo":"hash"}"#)));
        assert!(!normal.same_pass(&heavy(r#"{"op":"mxm","dataset":"g","algo":"msa"}"#)));
        assert!(!normal.same_pass(&heavy(r#"{"op":"mxm","dataset":"g","reps":2}"#)));
        // Clients may still send `schedule`: it is an unknown key like any
        // other, ignored whatever its value, so the request decodes to and
        // fuses with the one that leaves it off.
        for schedule in ["flops", "dynamic"] {
            let line =
                format!(r#"{{"op":"mxm","dataset":"g","algo":"hash","schedule":"{schedule}"}}"#);
            let with = heavy(&line);
            assert!(matches!(
                (&with.work, &normal.work),
                (Work::Mxm(a), Work::Mxm(b)) if a == b
            ));
            assert!(normal.same_pass(&with), "{line}");
        }
        let tc = heavy(r#"{"op":"app","dataset":"g"}"#);
        assert!(!tc.same_pass(&heavy(r#"{"op":"app","dataset":"g"}"#)));
    }

    #[test]
    fn response_shapes() {
        let ok = ok_response(vec![("pong", Json::Bool(true))]);
        assert_eq!(ok.to_line(), r#"{"ok":true,"pong":true}"#);
        let err = err_response(ErrorCode::UnknownOp, "no verb 'frobnicate'");
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            err.get("error").unwrap().get("code").unwrap().as_str(),
            Some("unknown_op")
        );
        let busy = err_response_with(
            ErrorCode::Busy,
            "queue full",
            vec![("retry_after_ms", 40u64.into())],
        );
        let e = busy.get("error").unwrap();
        assert_eq!(e.get("code").unwrap().as_str(), Some("busy"));
        assert_eq!(e.get("retry_after_ms").unwrap().as_u64(), Some(40));
    }

    #[test]
    fn field_extractors_type_check() {
        let req = crate::json::parse(r#"{"op":"mxm","dataset":"k","reps":3,"bad":[1]}"#).unwrap();
        assert_eq!(req_str(&req, "dataset").unwrap(), "k");
        assert!(req_str(&req, "missing").is_err());
        assert_eq!(opt_str(&req, "missing").unwrap(), None);
        assert!(opt_str(&req, "reps").is_err());
        assert_eq!(opt_u64(&req, "reps", 1).unwrap(), 3);
        assert_eq!(opt_u64(&req, "missing", 7).unwrap(), 7);
        assert!(opt_u64(&req, "bad", 0).is_err());
    }
}
