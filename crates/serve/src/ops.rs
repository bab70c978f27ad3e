//! What each verb *does*: typed parameters in, response object out.
//!
//! Everything here runs after the request line was decoded
//! ([`crate::protocol::decode`]) and routed ([`crate::server`]): the
//! light verbs on the connection thread, [`execute`] — the one entry
//! point of the three heavy verbs — on an executor worker, inside the
//! server's single `catch_unwind`. No function in this module sees the
//! request JSON, decides admission, or records request metrics; they
//! only read the shared [`ServerState`] and render wire shapes, so a
//! response field is spelled in exactly one place.

use crate::dataset::{Dataset, MxmAnswer};
use crate::json::Json;
use crate::protocol::{
    ok_response, AppParams, ErrorCode, HeavyRequest, LoadParams, MetricsFormat, MxmParams, Reject,
    UpdateParams, Work,
};
use crate::registry::{DatasetInfo, RegistryError};
use crate::server::ServerState;
use masked_spgemm::{Algorithm, ExecOpts, MaskMode, Phases};
use mspgemm_graph::{bc, ktruss, App};
use mspgemm_harness::{
    best_of, busy_spread, csr_fingerprint, gflops, mb_per_s, on_threads, BusySpread,
};
use mspgemm_io::LoadOpts;
use mspgemm_obs::{HistSnapshot, Series};
use std::sync::Arc;
use std::time::Instant;

pub(crate) type OpResult = Result<Json, Reject>;

pub(crate) fn reg_err(e: RegistryError) -> Reject {
    let code = match &e {
        RegistryError::AlreadyLoaded(_) => ErrorCode::AlreadyLoaded,
        RegistryError::NotFound(_) => ErrorCode::UnknownDataset,
        RegistryError::Load(_) => ErrorCode::LoadFailed,
        RegistryError::Quarantined(_) => ErrorCode::Quarantined,
        RegistryError::Evicted(_) => ErrorCode::Evicted,
        RegistryError::OverBudget(_) => ErrorCode::OverBudget,
        RegistryError::OutOfBounds(_) => ErrorCode::OutOfBounds,
    };
    (code, e.to_string())
}

/// The residency block of a dataset descriptor, shared (in this order)
/// by `load`, `list`, and `stats`.
fn residency(ds: &Dataset) -> [(&'static str, Json); 5] {
    [
        ("mem_bytes", ds.mem_bytes().into()),
        ("backend", Json::str(ds.backend().name())),
        ("mapped_bytes", ds.mapped_bytes().into()),
        ("pattern", ds.pattern().into()),
        ("unit_bytes", ds.unit_bytes().into()),
    ]
}

/// The health/update block of a dataset descriptor, closing the `list`
/// and `stats` rows.
fn health(info: &DatasetInfo) -> [(&'static str, Json); 4] {
    [
        ("version", info.ds.version.into()),
        ("pinned", info.pinned.into()),
        ("quarantined", info.quarantined.into()),
        ("panics", u64::from(info.panics).into()),
    ]
}

/// A request's `"pool"` object: what it did to the shared workspace
/// pool since `mark`, the `(hits, misses)` read before it ran.
fn pool_since(state: &ServerState, mark: (u64, u64)) -> Json {
    let misses = state.ws_pool.misses() - mark.1;
    Json::obj(vec![
        ("hits", (state.ws_pool.hits() - mark.0).into()),
        ("misses", misses.into()),
        ("warm", (misses == 0).into()),
    ])
}

/// Kernel options of a served request: the server-wide workspace pool
/// and busy-time recorder around the request's budget.
fn exec_opts(state: &ServerState, deadline: Option<Instant>) -> ExecOpts<'_> {
    ExecOpts {
        ws_pool: Some(&state.ws_pool),
        stats: Some(&state.exec_stats),
        deadline,
    }
}

pub(crate) fn ping(state: &ServerState) -> OpResult {
    Ok(ok_response(vec![
        ("op", Json::str("ping")),
        ("pong", true.into()),
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        ("simd", Json::str(masked_spgemm::simd::COMPILED_PATH)),
        ("uptime_s", state.started.elapsed().as_secs_f64().into()),
        ("datasets", state.registry.len().into()),
    ]))
}

/// `load`: returns the registry name the dataset landed under (the
/// request may have left it to the path stem) next to the response.
pub(crate) fn load(state: &ServerState, p: &LoadParams) -> Result<(String, Json), Reject> {
    let default = &state.config.load;
    let out = state
        .registry
        .load(
            &p.path,
            p.name.as_deref(),
            &LoadOpts {
                policy: p.cache.unwrap_or(default.policy),
                mmap: p.mmap.unwrap_or(default.mmap),
                pattern: p.pattern.unwrap_or(default.pattern),
            },
            p.pin,
        )
        .map_err(reg_err)?;
    let m = &state.metrics;
    m.counter("evictions_total", &[])
        .add(out.evicted.len() as u64);
    let ds = &out.ds;
    let r = &ds.ingest;
    // Absorb the IngestReport into the metrics registry: cumulative
    // totals plus an ingest-latency histogram alongside the request one.
    m.counter("ingest_bytes_total", &[]).add(r.bytes);
    m.counter("ingest_entries_total", &[]).add(r.entries as u64);
    m.histogram("ingest_latency_us", &[])
        .record((r.seconds * 1e6) as u64);
    let mut fields = vec![
        ("op", Json::str("load")),
        ("name", Json::str(&ds.name)),
        ("path", Json::str(&ds.path)),
        ("nrows", ds.square.matrix().nrows().into()),
        ("ncols", ds.square.matrix().ncols().into()),
        ("nnz", ds.square.matrix().nnz().into()),
        ("adj_nnz", ds.adj().nnz().into()),
    ];
    fields.extend(residency(ds));
    fields.extend([
        ("pinned", p.pin.into()),
        // Full disclosure: which datasets the memory budget pushed out
        // to make room. Their next request gets a typed `evicted` error.
        (
            "evicted",
            Json::Arr(out.evicted.iter().map(Json::str).collect()),
        ),
        (
            "ingest",
            Json::obj(vec![
                ("outcome", Json::Str(format!("{:?}", r.outcome))),
                ("bytes", r.bytes.into()),
                ("entries", r.entries.into()),
                ("seconds", r.seconds.into()),
                ("mb_per_s", mb_per_s(r.bytes, r.seconds).into()),
                ("pattern", r.pattern.into()),
            ]),
        ),
    ]);
    Ok((ds.name.clone(), ok_response(fields)))
}

pub(crate) fn list(state: &ServerState) -> OpResult {
    let datasets: Vec<Json> = state
        .registry
        .list()
        .iter()
        .map(|info| {
            let ds = &info.ds;
            let mut row = vec![
                ("name", Json::str(&ds.name)),
                ("path", Json::str(&ds.path)),
                ("nrows", ds.square.matrix().nrows().into()),
                ("nnz", ds.square.matrix().nnz().into()),
                ("adj_nnz", ds.adj().nnz().into()),
            ];
            row.extend(residency(ds));
            row.push(("age_seconds", ds.loaded_at.elapsed().as_secs_f64().into()));
            row.extend(health(info));
            Json::obj(row)
        })
        .collect();
    Ok(ok_response(vec![
        ("op", Json::str("list")),
        ("count", datasets.len().into()),
        ("datasets", Json::Arr(datasets)),
    ]))
}

pub(crate) fn unload(state: &ServerState, name: &str) -> OpResult {
    state.registry.unload(name).map_err(reg_err)?;
    Ok(ok_response(vec![
        ("op", Json::str("unload")),
        ("name", Json::str(name)),
    ]))
}

/// Execute one decoded heavy request — the only way `mxm`, `app`, and
/// `update` run. `deadline` and `fused_group` describe the kernel pass
/// the request rides (for `mxm`: the loosest deadline among the riders
/// and how many share the pass).
pub(crate) fn execute(
    state: &ServerState,
    req: &HeavyRequest,
    deadline: Option<Instant>,
    fused_group: usize,
) -> OpResult {
    match &req.work {
        Work::Mxm(p) => mxm(state, &req.dataset, p, deadline, fused_group),
        Work::App(p) => app(state, &req.dataset, p),
        Work::Update(p) => update(state, &req.dataset, p),
    }
}

fn mxm(
    state: &ServerState,
    name: &str,
    p: &MxmParams,
    deadline: Option<Instant>,
    fused_group: usize,
) -> OpResult {
    let ds = state.registry.get(name).map_err(reg_err)?;
    let opts = exec_opts(state, deadline);
    let pool_mark = (state.ws_pool.hits(), state.ws_pool.misses());
    let product = ds.square.product(p.mode, p.phases);
    let run_one = || ds.square.mxm(&product, p.algo, &opts);
    // Exactly `reps` kernel runs (decode clamps `reps >= 1`), no warm-up:
    // a request costs what it asked for, and reports its best run.
    let kernel = || best_of(p.reps, run_one);
    // Only a default-shaped request may be answered by a patch: a named
    // `algo` or `reps > 1` asks for the kernel itself.
    let patch = p.algo == Algorithm::Auto && p.reps == 1;
    let answer = on_threads(p.threads, || match p.mode {
        MaskMode::Mask => ds.normal_product(patch, p.phases, &opts, kernel),
        MaskMode::Complement => kernel().map(|(seconds, (c, plan))| MxmAnswer {
            csr: Arc::new(c),
            seconds,
            plan: Some(plan),
        }),
    })
    .map_err(|e: masked_spgemm::Error| match e {
        masked_spgemm::Error::DeadlineExceeded => (ErrorCode::DeadlineExceeded, e.to_string()),
        other => (ErrorCode::ExecFailed, other.to_string()),
    })?;
    let (c, secs) = (&*answer.csr, answer.seconds);
    let fingerprint = {
        let _span = mspgemm_obs::span("fingerprint");
        csr_fingerprint(c)
    };
    if answer.incremental() {
        state
            .metrics
            .counter("incremental_total", &[("verb", "mxm")])
            .add(fused_group as u64);
    }
    Ok(ok_response(vec![
        ("op", Json::str("mxm")),
        ("dataset", Json::str(&ds.name)),
        ("algo", Json::str(p.algo.name())),
        // What ran: `algo` itself, or what `auto` chose; `null` for a
        // patch.
        (
            "plan",
            answer
                .plan
                .map_or(Json::Null, |plan| Json::str(plan.name())),
        ),
        (
            "mask",
            Json::str(match p.mode {
                MaskMode::Mask => "normal",
                MaskMode::Complement => "complement",
            }),
        ),
        (
            "phases",
            Json::str(if p.phases == Phases::One { "1" } else { "2" }),
        ),
        ("threads", p.threads.into()),
        ("reps", p.reps.into()),
        ("seconds", secs.into()),
        (
            "gflops",
            // A patch forms a sliver of the products: no honest FLOP
            // denominator, as for an incremental `tc`.
            match answer.incremental() {
                true => Json::Null,
                false => gflops(ds.square.flops(), secs).into(),
            },
        ),
        ("incremental", answer.incremental().into()),
        ("nnz", c.nnz().into()),
        ("fingerprint", Json::Str(format!("{fingerprint:016x}"))),
        // `fused_group` is how many requests shared the kernel pass;
        // `fused` is the flag a client can switch on without comparing
        // counts.
        ("fused", (fused_group > 1).into()),
        ("fused_group", fused_group.into()),
        ("pool", pool_since(state, pool_mark)),
    ]))
}

fn app(state: &ServerState, name: &str, p: &AppParams) -> OpResult {
    let ds = state.registry.get(name).map_err(reg_err)?;
    // Apps run many chained passes and map kernel errors to panics
    // (caught, like every executor panic, by the server's one
    // `catch_unwind`); their deadline is enforced at admission and
    // dequeue only.
    let opts = exec_opts(state, None);
    let pool_mark = (state.ws_pool.hits(), state.ws_pool.misses());
    let run = || -> Vec<(&'static str, Json)> {
        match p.app {
            App::Tc => {
                let tc = ds.triangle_count(p.scheme, &opts);
                if tc.patched_rows.is_some() {
                    state
                        .metrics
                        .counter("incremental_total", &[("verb", "tc")])
                        .inc();
                }
                let mut fields = vec![
                    ("triangles", tc.triangles.into()),
                    ("mxm_seconds", tc.mxm_seconds.into()),
                    (
                        "gflops",
                        // A row-subset pass has no honest full-count FLOP
                        // denominator.
                        match tc.patched_rows {
                            Some(_) => Json::Null,
                            None => gflops(tc.flops, tc.mxm_seconds).into(),
                        },
                    ),
                    ("incremental", tc.patched_rows.is_some().into()),
                ];
                fields.extend(tc.patched_rows.map(|rows| ("patched_rows", rows.into())));
                fields.push(("cached", tc.cached.into()));
                fields
            }
            App::Ktruss => {
                let r = ktruss::k_truss_with(ds.adj(), p.k, p.scheme, &opts);
                vec![
                    ("k", p.k.into()),
                    ("iterations", r.iterations.into()),
                    ("edges", r.truss.nnz().into()),
                    ("mxm_seconds", r.mxm_seconds.into()),
                    // k-truss keeps nothing across requests: each one runs
                    // against the live matrix from scratch (`iterations`
                    // counts the masked products that took).
                    ("incremental", false.into()),
                ]
            }
            App::Bc => {
                let adj = ds.adj();
                let sources: Vec<usize> = (0..p.batch.min(adj.nrows())).collect();
                // `adj` is symmetric with unit weights: its own transpose.
                let r = bc::betweenness_with_transpose(adj, adj, &sources, p.scheme, &opts);
                vec![
                    ("batch", sources.len().into()),
                    ("depth", r.depth.into()),
                    ("mxm_seconds", r.mxm_seconds.into()),
                    ("total_seconds", r.total_seconds.into()),
                    ("scores_sum", r.scores.iter().sum::<f64>().into()),
                    // BC always recomputes in full, like k-truss.
                    ("incremental", false.into()),
                ]
            }
        }
    };
    let fields = on_threads(p.threads, run);
    let mut out = vec![
        ("op", Json::str("app")),
        ("app", Json::str(p.app.name())),
        ("dataset", Json::str(&ds.name)),
        ("scheme", Json::Str(p.scheme.name())),
    ];
    out.extend(fields);
    out.push(("pool", pool_since(state, pool_mark)));
    Ok(ok_response(out))
}

fn update(state: &ServerState, name: &str, p: &UpdateParams) -> OpResult {
    let t0 = Instant::now();
    let ds = state.registry.update(name, &p.ops).map_err(reg_err)?;
    let secs = t0.elapsed().as_secs_f64();
    let m = &state.metrics;
    m.counter("updates_total", &[]).inc();
    m.counter("updates_total", &[("dataset", &ds.name)]).inc();
    m.histogram("update_latency_us", &[])
        .record((secs * 1e6) as u64);
    Ok(ok_response(vec![
        ("op", Json::str("update")),
        ("dataset", Json::str(&ds.name)),
        ("version", ds.version.into()),
        ("applied", p.ops.len().into()),
        // Every update rebuilds the live matrix outright; the two keys
        // stay for clients that read them and are constants.
        ("delta_nnz", 0u64.into()),
        ("compacted", true.into()),
        ("nrows", ds.square.matrix().nrows().into()),
        ("nnz", ds.square.matrix().nnz().into()),
        ("backend", Json::str(ds.backend().name())),
        ("mapped_bytes", ds.mapped_bytes().into()),
        ("seconds", secs.into()),
    ]))
}

/// One snapshot of the state owned by other subsystems (registry
/// residency over `resident`, `WsPool` counters, `ExecStats` busy spread,
/// the admission queue). It is the single source behind both the totals
/// in a `stats` response and the gauges a `metrics` scrape publishes, so
/// the two never disagree about what they sample or how.
struct Snapshot {
    uptime_seconds: f64,
    ws_pool_hits: u64,
    ws_pool_misses: u64,
    ws_pool_retained: u64,
    scheduler_queued: u64,
    datasets_resident: u64,
    resident_bytes: u64,
    mapped_bytes: u64,
    unit_arena_bytes: u64,
    datasets_quarantined: u64,
    busy: Option<BusySpread>,
}

impl Snapshot {
    fn take(state: &ServerState, resident: &[DatasetInfo]) -> Snapshot {
        let sum = |f: fn(&DatasetInfo) -> u64| resident.iter().map(f).sum::<u64>();
        Snapshot {
            uptime_seconds: state.started.elapsed().as_secs_f64(),
            ws_pool_hits: state.ws_pool.hits(),
            ws_pool_misses: state.ws_pool.misses(),
            ws_pool_retained: state.ws_pool.retained() as u64,
            scheduler_queued: state.scheduler.queued() as u64,
            datasets_resident: resident.len() as u64,
            resident_bytes: sum(|i| i.ds.mem_bytes()),
            mapped_bytes: sum(|i| i.ds.mapped_bytes()),
            // The unit arena is one process-wide allocation every pattern
            // dataset views, so its resident cost is reported once, not
            // summed per dataset (the per-dataset `unit_bytes` are view
            // lengths).
            unit_arena_bytes: mspgemm_sparse::unit_arena_bytes() as u64,
            datasets_quarantined: sum(|i| u64::from(i.quarantined)),
            busy: busy_spread(&state.exec_stats.busy_seconds()),
        }
    }

    /// The gauges this snapshot publishes, under their metric names.
    fn gauges(&self) -> Vec<(&'static str, f64)> {
        let mut gauges = vec![
            ("uptime_seconds", self.uptime_seconds),
            ("ws_pool_hits", self.ws_pool_hits as f64),
            ("ws_pool_misses", self.ws_pool_misses as f64),
            ("ws_pool_retained", self.ws_pool_retained as f64),
            ("scheduler_queued", self.scheduler_queued as f64),
            ("datasets_resident", self.datasets_resident as f64),
            ("resident_bytes", self.resident_bytes as f64),
            ("mapped_bytes", self.mapped_bytes as f64),
            ("unit_arena_bytes", self.unit_arena_bytes as f64),
            ("datasets_quarantined", self.datasets_quarantined as f64),
        ];
        if let Some(sp) = self.busy {
            gauges.push(("busy_threads", sp.threads as f64));
            gauges.push(("busy_max_over_mean", sp.ratio()));
        }
        gauges
    }
}

pub(crate) fn stats(state: &ServerState) -> OpResult {
    // One registry listing for the rows AND the totals, so they always
    // agree even when loads/unloads race this request.
    let resident = state.registry.list();
    let snap = Snapshot::take(state, &resident);
    let takes = snap.ws_pool_hits + snap.ws_pool_misses;
    let hit_rate = (takes > 0).then(|| snap.ws_pool_hits as f64 / takes as f64);
    let datasets: Vec<Json> = resident
        .iter()
        .map(|info| {
            let mut row = vec![("name", Json::str(&info.ds.name))];
            row.extend(residency(&info.ds));
            row.extend(health(info));
            Json::obj(row)
        })
        .collect();
    // Active failpoints: empty in production, the injected-fault table
    // under `--fail`/`MXM_FAILPOINTS` — so an operator puzzled by a
    // misbehaving server can ask it whether the faults are intentional.
    let failpoints: Vec<Json> = mspgemm_fault::active()
        .into_iter()
        .map(|(name, task)| Json::obj(vec![("name", Json::Str(name)), ("task", Json::Str(task))]))
        .collect();
    // Overall request-latency quantiles from the unlabeled histogram
    // (the `metrics` verb has the per-verb and per-dataset series).
    let lat = state
        .metrics
        .histogram("request_latency_us", &[])
        .snapshot();
    let total = |name| state.metrics.counter(name, &[]).get();
    Ok(ok_response(vec![
        ("op", Json::str("stats")),
        ("uptime_seconds", snap.uptime_seconds.into()),
        ("requests", state.requests().into()),
        ("requests_total", total("requests_total").into()),
        ("errors_total", total("errors_total").into()),
        (
            "latency",
            Json::obj(vec![
                ("p50", (lat.quantile(0.50) as f64 / 1e6).into()),
                ("p95", (lat.quantile(0.95) as f64 / 1e6).into()),
                ("p99", (lat.quantile(0.99) as f64 / 1e6).into()),
                ("count", lat.count.into()),
            ]),
        ),
        ("simd", Json::str(masked_spgemm::simd::COMPILED_PATH)),
        ("datasets", Json::Arr(datasets)),
        ("total_mem_bytes", snap.resident_bytes.into()),
        ("total_mapped_bytes", snap.mapped_bytes.into()),
        ("unit_arena_bytes", snap.unit_arena_bytes.into()),
        (
            "max_resident_bytes",
            state.registry.max_resident_bytes().into(),
        ),
        ("failpoints", Json::Arr(failpoints)),
        (
            "scheduler",
            Json::obj(vec![
                ("workers", state.scheduler.workers().into()),
                ("queue_depth", state.scheduler.depth().into()),
                ("queued", snap.scheduler_queued.into()),
            ]),
        ),
        (
            "pool",
            Json::obj(vec![
                ("hits", snap.ws_pool_hits.into()),
                ("misses", snap.ws_pool_misses.into()),
                ("retained", snap.ws_pool_retained.into()),
                ("hit_rate", hit_rate.map_or(Json::Null, Json::from)),
            ]),
        ),
        (
            "busy",
            snap.busy.map_or(Json::Null, |sp| {
                Json::obj(vec![
                    ("threads", sp.threads.into()),
                    ("max_over_mean", sp.ratio().into()),
                ])
            }),
        ),
    ]))
}

/// Refresh the gauges that mirror state owned elsewhere, so every
/// snapshot the `metrics` verb serves is current without those
/// subsystems having to push on each change.
pub(crate) fn publish_gauges(state: &ServerState) {
    for (name, value) in Snapshot::take(state, &state.registry.list()).gauges() {
        state.metrics.gauge(name, &[]).set(value);
    }
}

fn series_fields(series: &Series) -> Vec<(&'static str, Json)> {
    vec![
        ("name", Json::str(&series.name)),
        (
            "labels",
            Json::Obj(
                series
                    .labels
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
    ]
}

/// A counter or gauge entry: the series identity plus its `value`.
fn scalar_json<V: Copy + Into<Json>>(entries: &[(Series, V)]) -> Json {
    Json::Arr(
        entries
            .iter()
            .map(|(series, value)| {
                let mut fields = series_fields(series);
                fields.push(("value", (*value).into()));
                Json::obj(fields)
            })
            .collect(),
    )
}

fn hist_json(series: &Series, h: &HistSnapshot) -> Json {
    let mut fields = series_fields(series);
    fields.extend([
        ("count", h.count.into()),
        ("sum", h.sum.into()),
        ("max", h.max.into()),
        ("mean", h.mean().into()),
        ("p50", h.quantile(0.50).into()),
        ("p95", h.quantile(0.95).into()),
        ("p99", h.quantile(0.99).into()),
        (
            "buckets",
            Json::Arr(
                h.nonzero()
                    .into_iter()
                    .map(|(le, n)| Json::obj(vec![("le", le.into()), ("count", n.into())]))
                    .collect(),
            ),
        ),
    ]);
    Json::obj(fields)
}

pub(crate) fn metrics(state: &ServerState, format: MetricsFormat) -> OpResult {
    publish_gauges(state);
    let snap = state.metrics.snapshot();
    Ok(ok_response(match format {
        MetricsFormat::Prometheus => vec![
            ("op", Json::str("metrics")),
            ("format", Json::str("prometheus")),
            ("content_type", Json::str("text/plain; version=0.0.4")),
            ("text", Json::Str(snap.to_prometheus())),
        ],
        MetricsFormat::Json => vec![
            ("op", Json::str("metrics")),
            ("format", Json::str("json")),
            ("counters", scalar_json(&snap.counters)),
            ("gauges", scalar_json(&snap.gauges)),
            (
                "histograms",
                Json::Arr(
                    snap.histograms
                        .iter()
                        .map(|(s, h)| hist_json(s, h))
                        .collect(),
                ),
            ),
        ],
    }))
}
