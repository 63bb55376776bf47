//! The resident query service.
//!
//! [`ServerCore`] owns a *world*: the loaded graph plus one lazily-built
//! [`DecompHandle`] per rank ever queried, each carrying a generation
//! counter (`support_builds` counts exactly one build per rank for the
//! life of the process).  The handle keeps the rank's support and its
//! threshold-independent tail table, so every cache miss on one support
//! generation reads its initial scores from one table instead of
//! re-running each element's DP.  Around the world sit an LRU cache of
//! materialized per-threshold decomposition points (keyed by rank,
//! method, θ *and* generation), the open sessions and the deterministic
//! [`ServerStats`].  The `apply_updates` method mutates the world in
//! one atomic transition: the graph is swapped, every resident support
//! is repaired incrementally (never rebuilt), and exactly the cache
//! entries whose rank the batch actually changed are invalidated — a
//! changed rank gets a new handle, which carries the old handle's table
//! over with only the affected rows run again, and an untouched one
//! keeps its handle and table.
//! Queries resolve graph, support and generation under a single lock
//! acquisition, so no request can ever observe a half-applied update.
//! The nucleus answers (`k_nuclei_at`, `top_nuclei`, `community`) come
//! from one [`NucleusForest`] per cached point: the hierarchy of the
//! point's maximal nuclei of every `k` (Sarıyüce, Seshadhri, Pinar and
//! Çatalyürek, WWW 2015), built in one pass after Sarıyüce and Pinar
//! (PVLDB 10(3), 2016).  The point's first nucleus query builds it,
//! outside every lock; `scores_at` and `max_score_at` never pay for it,
//! and it is evicted with its point.
//! It is transport-independent: [`ServerCore::handle_body`] maps one
//! request frame body to one response body, so tests can drive it
//! without sockets.
//!
//! [`Server`] is the TCP layer: a non-blocking acceptor plus a worker
//! pool (sized by the workspace-wide [`Parallelism`] knob) under
//! [`std::thread::scope`].  Workers block on sockets with a short read
//! timeout so a shutdown request drains naturally: every in-flight frame
//! is answered, then connections close, the scope joins and
//! [`Server::run`] returns.  No request — malformed framing included —
//! ever panics the process.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use nucleus::local::forest::NucleusForest;
use nucleus::{ApproxThresholds, DecompConfig, DecompHandle, Rank, ScoreMethod, SweepConfig};
use ugraph::{apply_edge_updates, EdgeUpdate, Parallelism, UncertainGraph, VertexId};

use crate::frame::{read_frame_while, write_frame, FrameError, ReadOutcome};
use crate::json::Json;
use crate::proto::{
    err_response, ok_response, parse_request, require_f64, require_u64, Call, ErrorCode, Request,
    RequestError,
};
use crate::stats::{ServerStats, StatsSnapshot};

/// Tunables of a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Capacity of the per-threshold result cache (entries).
    pub cache_capacity: usize,
    /// Sizes the connection worker pool and the support builds.
    /// Per-point peels run sequentially — concurrency comes from serving
    /// connections in parallel, and results are bit-identical either
    /// way.
    pub parallelism: Parallelism,
    /// Socket read timeout; bounds how long a drain can lag behind a
    /// shutdown request.
    pub read_timeout: Duration,
    /// Upper bound on how long a peer may stall *mid-frame* (a partial
    /// length prefix, or a prefix whose body never arrives) before the
    /// connection is dropped as a protocol error.  Keeps a silent or
    /// hostile peer from pinning a worker indefinitely — with a
    /// single-worker pool that worker is also the one a wire `shutdown`
    /// request would need.  Idle time *between* frames is not limited;
    /// sessions may be long-lived.
    pub frame_stall_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache_capacity: 32,
            parallelism: Parallelism::Auto,
            read_timeout: Duration::from_millis(25),
            frame_stall_timeout: Duration::from_secs(5),
        }
    }
}

impl ServerConfig {
    /// `frame_stall_timeout` expressed as a count of consecutive
    /// `read_timeout` expiries (at least 1).
    fn stall_patience(&self) -> u32 {
        let reads = self.frame_stall_timeout.as_millis() / self.read_timeout.as_millis().max(1);
        u32::try_from(reads).unwrap_or(u32::MAX).max(1)
    }
}

/// One open session: a pinned rank, scoring method and exact-match
/// threshold grid.  Sessions do *not* pin a support: each query resolves
/// the current world's support for the rank, so sessions opened before
/// an `apply_updates` transparently answer about the updated graph.
#[derive(Debug, Clone)]
struct Session {
    rank: Rank,
    method: ScoreMethod,
    method_tag: u8,
    grid: Arc<Vec<f64>>,
}

/// A materialized decomposition at one (rank, method, threshold) point.
#[derive(Debug)]
struct CachedPoint {
    scores: Vec<u32>,
    max_score: u32,
    /// The point's nucleus forest, built by its first nucleus query.
    forest: OnceLock<NucleusForest>,
}

/// Cache key: rank + method + exact threshold bits + the rank's world
/// generation.  The generation keeps a compute that started before an
/// `apply_updates` from poisoning the post-update cache: its result is
/// filed under the old generation, which no post-update query asks for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PointKey {
    rank: Rank,
    method_tag: u8,
    theta_bits: u64,
    generation: u64,
}

/// The LRU of materialized points plus the set of keys currently being
/// computed, guarded by one lock so the hit/miss/eviction counters stay
/// deterministic per key: for any key, the first arrival is the miss
/// and every concurrent or later arrival is a hit, while *unrelated*
/// keys compute outside the lock in parallel.
struct PointCache {
    lru: crate::lru::LruCache<PointKey, Arc<CachedPoint>>,
    inflight: HashSet<PointKey>,
}

/// One rank's slice of the world: a handle on its current support (and
/// the tail table cached with it) and the generation the support — and
/// every cache entry derived from it — belongs to.
struct RankState {
    handle: DecompHandle,
    generation: u64,
}

/// Everything `apply_updates` swaps atomically: the graph and the
/// resident per-rank supports.  Guarded by one lock so queries resolve
/// a consistent (graph, support, generation) triple.
struct WorldState {
    graph: Arc<UncertainGraph>,
    ranks: HashMap<Rank, RankState>,
}

/// A consistent read of the world for one rank, captured under a single
/// lock acquisition.  Everything a query touches — the graph it
/// describes, the support it peels and the generation its cache entries
/// file under — comes from the same world, so a concurrent
/// `apply_updates` is observed entirely or not at all.
struct ResolvedRank {
    graph: Arc<UncertainGraph>,
    handle: DecompHandle,
    generation: u64,
}

/// The transport-independent heart of the service.
pub struct ServerCore {
    world: Mutex<WorldState>,
    config: ServerConfig,
    cache: Mutex<PointCache>,
    /// Signalled whenever an in-flight compute finishes (successfully
    /// or not), waking requests that wait on the same key.
    cache_ready: Condvar,
    sessions: Mutex<HashMap<u64, Session>>,
    next_session: AtomicU64,
    stats: ServerStats,
    shutdown: AtomicBool,
}

/// Per-request deadline, measured from receipt.
struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    fn new(deadline_ms: Option<u64>) -> Self {
        Deadline {
            at: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        }
    }

    /// Errors once the deadline has passed.  `deadline_ms: 0` fails the
    /// first check deterministically.
    fn check(&self) -> Result<(), RequestError> {
        match self.at {
            Some(at) if Instant::now() >= at => Err(RequestError::new(
                ErrorCode::DeadlineExceeded,
                "request deadline elapsed",
            )),
            _ => Ok(()),
        }
    }
}

impl ServerCore {
    /// Wraps a loaded graph into a resident service.  Supports are built
    /// lazily on the first session of each rank.
    pub fn new(graph: UncertainGraph, config: ServerConfig) -> Arc<Self> {
        let cache = PointCache {
            lru: crate::lru::LruCache::new(config.cache_capacity),
            inflight: HashSet::new(),
        };
        Arc::new(ServerCore {
            world: Mutex::new(WorldState {
                graph: Arc::new(graph),
                ranks: HashMap::new(),
            }),
            config,
            cache: Mutex::new(cache),
            cache_ready: Condvar::new(),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
        })
    }

    /// The graph the server currently answers queries about
    /// (`apply_updates` swaps it).
    pub fn graph(&self) -> Arc<UncertainGraph> {
        Arc::clone(&self.world.lock().unwrap().graph)
    }

    /// The deterministic counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// `true` once a `shutdown` request was served.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a graceful shutdown (also reachable via the `shutdown`
    /// method on the wire).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// A consistent view of the world for `rank`, building the support
    /// on first use.  Building happens under the world lock, so
    /// concurrent sessions of the same rank still count exactly one
    /// build.
    fn resolve(&self, rank: Rank) -> ResolvedRank {
        let mut world = self.world.lock().unwrap();
        let graph = Arc::clone(&world.graph);
        let state = world.ranks.entry(rank).or_insert_with(|| {
            ServerStats::bump(&self.stats.support_builds);
            RankState {
                handle: DecompHandle::build(&graph, rank, self.config.parallelism),
                generation: 0,
            }
        });
        ResolvedRank {
            graph,
            handle: state.handle.clone(),
            generation: state.generation,
        }
    }

    fn session(&self, params: &Json) -> Result<Session, RequestError> {
        let id = require_u64(params, "session")?;
        self.sessions
            .lock()
            .unwrap()
            .get(&id)
            .cloned()
            .ok_or_else(|| {
                RequestError::new(
                    ErrorCode::UnknownSession,
                    format!("session {id} is not open"),
                )
            })
    }

    /// Exact-match position of `theta` on the session grid.
    fn grid_index(session: &Session, theta: f64) -> Result<usize, RequestError> {
        session
            .grid
            .binary_search_by(|probe| {
                probe
                    .partial_cmp(&theta)
                    .unwrap_or(std::cmp::Ordering::Less)
            })
            .map_err(|_| {
                RequestError::new(
                    ErrorCode::OffGrid,
                    format!(
                        "{} = {theta} is not a grid point of this session \
                         (lookups are exact-match)",
                        session.rank.threshold_name()
                    ),
                )
            })
    }

    /// The materialized point for (session, theta) against the resolved
    /// world view, served from the LRU cache when possible.  Misses
    /// compute through the view's shared handle — never a rebuild, and
    /// exact-DP misses read their initial scores from the handle's tail
    /// table, built by the generation's first miss — and results are
    /// bit-identical to a direct [`nucleus::Decomposition::compute`] at
    /// the same configuration.
    ///
    /// The compute itself runs *outside* the cache lock: the first
    /// request for a key marks it in-flight (and is the one counted
    /// miss), concurrent requests for the same key wait on
    /// [`Self::cache_ready`] and then take the counted hit, and
    /// requests for unrelated keys compute in parallel.  This keeps the
    /// hit/miss/eviction counters deterministic per key without
    /// serializing every peel across all connections.
    fn point(
        &self,
        session: &Session,
        theta: f64,
        view: &ResolvedRank,
    ) -> Result<Arc<CachedPoint>, RequestError> {
        Self::grid_index(session, theta)?;
        let key = PointKey {
            rank: session.rank,
            method_tag: session.method_tag,
            theta_bits: theta.to_bits(),
            generation: view.generation,
        };
        let mut cache = self.cache.lock().unwrap();
        loop {
            if let Some(point) = cache.lru.get(&key) {
                ServerStats::bump(&self.stats.cache_hits);
                return Ok(Arc::clone(point));
            }
            if !cache.inflight.contains(&key) {
                break;
            }
            // Someone else is computing this key: wait for it instead of
            // duplicating the peel.  On the (capacity-starved) chance the
            // result was already evicted when we wake, the loop falls
            // through to computing it ourselves.
            cache = self.cache_ready.wait(cache).unwrap();
        }
        ServerStats::bump(&self.stats.cache_misses);
        cache.inflight.insert(key.clone());
        drop(cache);

        let config = DecompConfig {
            rank: session.rank,
            threshold: theta,
            method: session.method,
            parallelism: Parallelism::Sequential,
        };
        let computed = view.handle.compute_at(&config);

        let mut cache = self.cache.lock().unwrap();
        cache.inflight.remove(&key);
        self.cache_ready.notify_all();
        let decomp = match computed {
            Ok(decomp) => decomp,
            Err(e) => return Err(RequestError::new(ErrorCode::InvalidParams, e.to_string())),
        };
        let point = Arc::new(CachedPoint {
            max_score: decomp.max_score(),
            scores: decomp.scores().to_vec(),
            forest: OnceLock::new(),
        });
        for _ in 0..cache.lru.insert(key, Arc::clone(&point)) {
            ServerStats::bump(&self.stats.cache_evictions);
        }
        Ok(point)
    }

    /// Maps one frame body to one response body.  Never panics; the
    /// response is always a well-formed frame-able JSON document.
    pub fn handle_body(&self, body: &[u8]) -> Vec<u8> {
        let response = self.handle_text(body);
        response.to_json_string().into_bytes()
    }

    fn handle_text(&self, body: &[u8]) -> Json {
        let text = match std::str::from_utf8(body) {
            Ok(text) => text,
            Err(_) => {
                ServerStats::bump(&self.stats.protocol_errors);
                return err_response(
                    0,
                    &RequestError::new(ErrorCode::BadJson, "frame body is not UTF-8"),
                );
            }
        };
        let doc = match Json::parse(text) {
            Ok(doc) => doc,
            Err(e) => {
                ServerStats::bump(&self.stats.protocol_errors);
                return err_response(0, &RequestError::new(ErrorCode::BadJson, e.to_string()));
            }
        };
        match parse_request(&doc) {
            Ok(Request::Single(call)) => self.serve_call(&call),
            Ok(Request::Batch(calls)) => {
                ServerStats::bump(&self.stats.batches);
                let responses = calls.iter().map(|call| self.serve_call(call)).collect();
                Json::Obj(vec![("batch".to_string(), Json::Arr(responses))])
            }
            Err(e) => {
                ServerStats::bump(&self.stats.request_errors);
                err_response(0, &e)
            }
        }
    }

    fn serve_call(&self, call: &Call) -> Json {
        ServerStats::bump(&self.stats.requests);
        match self.dispatch(call) {
            Ok(result) => ok_response(call.id, result),
            Err(e) => {
                if e.code == ErrorCode::DeadlineExceeded {
                    ServerStats::bump(&self.stats.deadlines_exceeded);
                }
                ServerStats::bump(&self.stats.request_errors);
                err_response(call.id, &e)
            }
        }
    }

    fn dispatch(&self, call: &Call) -> Result<Json, RequestError> {
        let deadline = Deadline::new(call.deadline_ms);
        deadline.check()?;
        let params = &call.params;
        match call.method.as_str() {
            // Calls already decoded when the shutdown fired are drained;
            // anything sequenced after a shutdown call is refused.
            _ if self.is_shutdown() && call.method != "stats" => Err(RequestError::new(
                ErrorCode::ShuttingDown,
                "server is draining",
            )),
            "ping" => Ok(Json::Obj(vec![("pong".to_string(), Json::Bool(true))])),
            "info" => self.do_info(),
            "open" => self.do_open(params),
            "close" => self.do_close(params),
            "stats" => Ok(self.stats.snapshot().to_json()),
            "apply_updates" => self.do_apply_updates(params),
            "scores_at" => self.do_scores_at(params, &deadline),
            "max_score_at" => self.do_max_score_at(params, &deadline),
            "k_nuclei_at" => self.do_k_nuclei_at(params, &deadline),
            "top_nuclei" => self.do_top_nuclei(params, &deadline),
            "community" => self.do_community(params, &deadline),
            "shutdown" => {
                self.request_shutdown();
                Ok(Json::Obj(vec![(
                    "shutting_down".to_string(),
                    Json::Bool(true),
                )]))
            }
            other => Err(RequestError::new(
                ErrorCode::UnknownMethod,
                format!("unknown method '{other}'"),
            )),
        }
    }

    fn do_info(&self) -> Result<Json, RequestError> {
        let (vertices, edges) = {
            let world = self.world.lock().unwrap();
            (world.graph.num_vertices(), world.graph.num_edges())
        };
        Ok(Json::Obj(vec![
            ("vertices".to_string(), Json::num(vertices as f64)),
            ("edges".to_string(), Json::num(edges as f64)),
            (
                "sessions".to_string(),
                Json::num(self.sessions.lock().unwrap().len() as f64),
            ),
            (
                "cache_capacity".to_string(),
                Json::num(self.config.cache_capacity as f64),
            ),
        ]))
    }

    fn do_open(&self, params: &Json) -> Result<Json, RequestError> {
        let rank: Rank = params
            .get("rank")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::new(ErrorCode::InvalidParams, "missing 'rank'"))?
            .parse()
            .map_err(|e: nucleus::UnknownRankError| {
                RequestError::new(ErrorCode::InvalidParams, e.to_string())
            })?;
        let thetas: Vec<f64> = params
            .get("thetas")
            .and_then(Json::as_array)
            .ok_or_else(|| {
                RequestError::new(ErrorCode::InvalidParams, "'thetas' must be an array")
            })?
            .iter()
            .map(|v| {
                v.as_f64().ok_or_else(|| {
                    RequestError::new(ErrorCode::InvalidParams, "'thetas' entries must be numbers")
                })
            })
            .collect::<Result<_, _>>()?;
        let (method, method_tag) = match params.get("method").and_then(Json::as_str) {
            None | Some("exact") => (ScoreMethod::DynamicProgramming, 0u8),
            Some("approx") => (ScoreMethod::Hybrid(ApproxThresholds::default()), 1u8),
            Some(other) => {
                return Err(RequestError::new(
                    ErrorCode::InvalidParams,
                    format!("unknown method '{other}' (expected 'exact' or 'approx')"),
                ))
            }
        };
        // One validated builder guards both the library and the wire.
        let sweep_config = SweepConfig {
            rank,
            thetas: thetas.clone(),
            method,
            parallelism: self.config.parallelism,
        };
        sweep_config
            .validate()
            .map_err(|e| RequestError::new(ErrorCode::InvalidParams, e.to_string()))?;

        let view = self.resolve(rank);
        let session = Session {
            rank,
            method,
            method_tag,
            grid: Arc::new(thetas),
        };
        let id = self.next_session.fetch_add(1, Ordering::SeqCst);
        let grid_len = session.grid.len();
        let num_elements = view.handle.num_elements();
        self.sessions.lock().unwrap().insert(id, session);
        ServerStats::bump(&self.stats.sessions_opened);
        Ok(Json::Obj(vec![
            ("session".to_string(), Json::num(id as f64)),
            ("rank".to_string(), Json::str(rank.as_str())),
            ("grid_len".to_string(), Json::num(grid_len as f64)),
            ("num_elements".to_string(), Json::num(num_elements as f64)),
        ]))
    }

    fn do_close(&self, params: &Json) -> Result<Json, RequestError> {
        let id = require_u64(params, "session")?;
        match self.sessions.lock().unwrap().remove(&id) {
            Some(_) => {
                ServerStats::bump(&self.stats.sessions_closed);
                Ok(Json::Obj(vec![("closed".to_string(), Json::Bool(true))]))
            }
            None => Err(RequestError::new(
                ErrorCode::UnknownSession,
                format!("session {id} is not open"),
            )),
        }
    }

    fn do_scores_at(&self, params: &Json, deadline: &Deadline) -> Result<Json, RequestError> {
        let session = self.session(params)?;
        let theta = require_f64(params, "theta")?;
        deadline.check()?;
        let view = self.resolve(session.rank);
        let point = self.point(&session, theta, &view)?;
        deadline.check()?;
        let scores: Vec<Json> = match params.get("elements") {
            None | Some(Json::Null) => point.scores.iter().map(|&s| Json::num(s as f64)).collect(),
            Some(list) => {
                let ids = list.as_array().ok_or_else(|| {
                    RequestError::new(ErrorCode::InvalidParams, "'elements' must be an array")
                })?;
                let mut subset = Vec::with_capacity(ids.len());
                for id in ids {
                    let id = id
                        .as_f64()
                        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                        .map(|n| n as usize)
                        .ok_or_else(|| {
                            RequestError::new(
                                ErrorCode::InvalidParams,
                                "'elements' entries must be non-negative integers",
                            )
                        })?;
                    let score = point.scores.get(id).ok_or_else(|| {
                        RequestError::new(
                            ErrorCode::InvalidParams,
                            format!(
                                "element {id} out of range ({} {})",
                                point.scores.len(),
                                session.rank.element_name()
                            ),
                        )
                    })?;
                    subset.push(Json::num(*score as f64));
                }
                subset
            }
        };
        Ok(Json::Obj(vec![
            ("theta".to_string(), Json::num(theta)),
            ("scores".to_string(), Json::Arr(scores)),
        ]))
    }

    fn do_max_score_at(&self, params: &Json, deadline: &Deadline) -> Result<Json, RequestError> {
        let session = self.session(params)?;
        let theta = require_f64(params, "theta")?;
        deadline.check()?;
        let view = self.resolve(session.rank);
        let point = self.point(&session, theta, &view)?;
        Ok(Json::Obj(vec![
            ("theta".to_string(), Json::num(theta)),
            ("max_score".to_string(), Json::num(point.max_score as f64)),
        ]))
    }

    /// The nucleus-rank support of a resolved view, or the typed
    /// wrong-rank error mirroring [`nucleus::NucleusError::RankMismatch`].
    fn nucleus_support(
        view: &ResolvedRank,
        rank: Rank,
    ) -> Result<&nucleus::SupportStructure, RequestError> {
        view.handle.support().as_nucleus().ok_or_else(|| {
            RequestError::new(
                ErrorCode::WrongRank,
                format!(
                    "operation requires a nucleus-rank session, but this one was \
                     opened for {}",
                    rank.as_str()
                ),
            )
        })
    }

    /// The point's nucleus forest, built over `support` by the point's
    /// first nucleus query.  The build runs under no lock; a concurrent
    /// query on the same point waits for it.
    fn forest<'p>(
        point: &'p CachedPoint,
        support: &nucleus::SupportStructure,
        deadline: &Deadline,
    ) -> Result<&'p NucleusForest, RequestError> {
        deadline.check()?;
        let forest = point
            .forest
            .get_or_init(|| NucleusForest::build(support, &point.scores));
        deadline.check()?;
        Ok(forest)
    }

    fn do_k_nuclei_at(&self, params: &Json, deadline: &Deadline) -> Result<Json, RequestError> {
        let session = self.session(params)?;
        let view = self.resolve(session.rank);
        let support = Self::nucleus_support(&view, session.rank)?;
        let theta = require_f64(params, "theta")?;
        let k = u32::try_from(require_u64(params, "k")?)
            .map_err(|_| RequestError::new(ErrorCode::InvalidParams, "'k' does not fit u32"))?;
        deadline.check()?;
        let point = self.point(&session, theta, &view)?;
        let forest = Self::forest(&point, support, deadline)?;
        let nuclei: Vec<Json> = forest
            .at(k)
            .map(|node| nucleus_json(k, &forest.vertices(node), forest.num_edges(node)))
            .collect();
        Ok(Json::Obj(vec![
            ("theta".to_string(), Json::num(theta)),
            ("k".to_string(), Json::num(k as f64)),
            ("count".to_string(), Json::num(nuclei.len() as f64)),
            ("nuclei".to_string(), Json::Arr(nuclei)),
        ]))
    }

    /// The densest maximal nuclei at `theta` across every `k ≥ 1`, sorted
    /// by descending edge density (`num_edges / num_vertices`), ties
    /// broken by higher `k`, then more edges, then the smallest vertex
    /// id, then the smallest 4-clique — a total, deterministic order
    /// ([`NucleusForest::ranked`]).  A nucleus that is maximal at several
    /// `k` is listed once per `k`.
    fn do_top_nuclei(&self, params: &Json, deadline: &Deadline) -> Result<Json, RequestError> {
        let session = self.session(params)?;
        let view = self.resolve(session.rank);
        let support = Self::nucleus_support(&view, session.rank)?;
        let theta = require_f64(params, "theta")?;
        let limit = require_u64(params, "limit")? as usize;
        deadline.check()?;
        let point = self.point(&session, theta, &view)?;
        let forest = Self::forest(&point, support, deadline)?;
        let nuclei: Vec<Json> = forest
            .ranked()
            .into_iter()
            .take(limit)
            .map(|(node, k)| {
                let (vertices, num_edges) = (forest.vertices(node), forest.num_edges(node));
                let mut entry = nucleus_json(k, &vertices, num_edges);
                if let Json::Obj(members) = &mut entry {
                    let density = num_edges as f64 / vertices.len() as f64;
                    members.push(("density".to_string(), Json::num(density)));
                }
                entry
            })
            .collect();
        Ok(Json::Obj(vec![
            ("theta".to_string(), Json::num(theta)),
            ("count".to_string(), Json::num(nuclei.len() as f64)),
            ("nuclei".to_string(), Json::Arr(nuclei)),
        ]))
    }

    /// The most cohesive community of a vertex at `theta`: the maximal
    /// nucleus containing the vertex with the largest `k ≥ 1`, ties
    /// broken by the smallest 4-clique (the extraction order).
    fn do_community(&self, params: &Json, deadline: &Deadline) -> Result<Json, RequestError> {
        let session = self.session(params)?;
        let view = self.resolve(session.rank);
        let support = Self::nucleus_support(&view, session.rank)?;
        let theta = require_f64(params, "theta")?;
        let vertex = u32::try_from(require_u64(params, "vertex")?).map_err(|_| {
            RequestError::new(ErrorCode::InvalidParams, "'vertex' does not fit u32")
        })?;
        if (vertex as usize) >= view.graph.num_vertices() {
            return Err(RequestError::new(
                ErrorCode::InvalidParams,
                format!(
                    "vertex {vertex} out of range ({} vertices)",
                    view.graph.num_vertices()
                ),
            ));
        }
        deadline.check()?;
        let point = self.point(&session, theta, &view)?;
        let forest = Self::forest(&point, support, deadline)?;
        let mut answer = vec![
            ("theta".to_string(), Json::num(theta)),
            ("vertex".to_string(), Json::num(vertex as f64)),
        ];
        match forest
            .home(vertex)
            .map(|node| (node, *forest.k_range(node).end()))
        {
            Some((node, k)) if k >= 1 => {
                answer.push(("found".to_string(), Json::Bool(true)));
                let community = nucleus_json(k, &forest.vertices(node), forest.num_edges(node));
                answer.push(("community".to_string(), community));
            }
            _ => answer.push(("found".to_string(), Json::Bool(false))),
        }
        Ok(Json::Obj(answer))
    }

    /// Prefixes a parameter error with the position of the offending
    /// update, mirroring how [`ugraph::UpdateError`] reports indices.
    fn update_field(index: usize, e: RequestError) -> RequestError {
        RequestError::new(e.code, format!("update {index}: {}", e.message))
    }

    /// One endpoint of an update item, range-checked to `u32`.
    fn update_vertex(item: &Json, key: &str, index: usize) -> Result<u32, RequestError> {
        let raw = require_u64(item, key).map_err(|e| Self::update_field(index, e))?;
        u32::try_from(raw).map_err(|_| {
            RequestError::new(
                ErrorCode::InvalidParams,
                format!("update {index}: '{key}' does not fit u32"),
            )
        })
    }

    /// Decodes the `updates` array of an `apply_updates` call.  Shape
    /// problems (wrong types, unknown ops, missing fields) are
    /// `invalid-params`; semantic problems against the resident graph
    /// surface later as `update-rejected`.
    fn parse_updates(params: &Json) -> Result<Vec<EdgeUpdate>, RequestError> {
        let items = params
            .get("updates")
            .and_then(Json::as_array)
            .ok_or_else(|| {
                RequestError::new(ErrorCode::InvalidParams, "'updates' must be an array")
            })?;
        if items.is_empty() {
            return Err(RequestError::new(
                ErrorCode::InvalidParams,
                "'updates' must not be empty",
            ));
        }
        let mut updates = Vec::with_capacity(items.len());
        for (index, item) in items.iter().enumerate() {
            let op = item.get("op").and_then(Json::as_str).ok_or_else(|| {
                RequestError::new(
                    ErrorCode::InvalidParams,
                    format!("update {index}: missing 'op'"),
                )
            })?;
            let u = Self::update_vertex(item, "u", index)?;
            let v = Self::update_vertex(item, "v", index)?;
            let update = match op {
                "insert" => EdgeUpdate::Insert {
                    u,
                    v,
                    p: require_f64(item, "p").map_err(|e| Self::update_field(index, e))?,
                },
                "delete" => EdgeUpdate::Delete { u, v },
                "reweight" => EdgeUpdate::Reweight {
                    u,
                    v,
                    p: require_f64(item, "p").map_err(|e| Self::update_field(index, e))?,
                },
                other => {
                    return Err(RequestError::new(
                        ErrorCode::InvalidParams,
                        format!(
                            "update {index}: unknown op '{other}' \
                             (expected insert | delete | reweight)"
                        ),
                    ))
                }
            };
            updates.push(update);
        }
        Ok(updates)
    }

    /// Applies a batch of edge updates to the resident world.  The whole
    /// transition — validate, swap the graph, repair every resident
    /// support incrementally, invalidate exactly the affected cache
    /// entries — happens under the world lock, so every query observes
    /// either the pre-update or the post-update world, never a mix.  A
    /// rank whose repair proves the batch did not touch it (identical
    /// element set, empty repair region) keeps its generation, its
    /// cached points and its handle: every element's scoring inputs are
    /// bitwise unchanged, so the resident support and its tail table
    /// still describe the updated graph.  A touched rank gets a handle
    /// over the repaired support ([`DecompHandle::repaired`]), which
    /// carries the old handle's tail table over when it was built, so the
    /// next miss reads its initial scores without a rebuild.
    fn do_apply_updates(&self, params: &Json) -> Result<Json, RequestError> {
        let updates = Self::parse_updates(params)?;
        let mut world = self.world.lock().unwrap();
        let delta = apply_edge_updates(&world.graph, &updates)
            .map_err(|e| RequestError::new(ErrorCode::UpdateRejected, e.to_string()))?;
        let inserted = delta.inserted.len();
        let (removed, reweighted) = (delta.removed, delta.reweighted);

        let mut repaired_ranks = 0usize;
        let mut affected_elements = 0usize;
        let mut region_elements = 0usize;
        let mut invalidated = 0usize;
        let mut ranks = HashMap::with_capacity(world.ranks.len());
        for (&rank, state) in &world.ranks {
            let repair = state.handle.support().repair(&world.graph, &delta);
            ServerStats::bump(&self.stats.supports_repaired);
            repaired_ranks += 1;
            affected_elements += repair.affected.len();
            region_elements += repair.region.len();
            // Cached points of this rank survive only when the repair
            // proves them still bit-exact: every element carried over in
            // place and none re-peeled.
            let untouched = repair.region.is_empty()
                && repair.new_to_old.len() == state.handle.num_elements()
                && repair
                    .new_to_old
                    .iter()
                    .enumerate()
                    .all(|(i, mapped)| *mapped == Some(i as u32));
            let (handle, generation) = if untouched {
                (state.handle.clone(), state.generation)
            } else {
                let stale = self
                    .cache
                    .lock()
                    .unwrap()
                    .lru
                    .retain(|key| key.rank != rank);
                for _ in 0..stale {
                    ServerStats::bump(&self.stats.cache_invalidations);
                }
                invalidated += stale;
                (state.handle.repaired(repair), state.generation + 1)
            };
            ranks.insert(rank, RankState { handle, generation });
        }
        world.graph = Arc::new(delta.graph);
        world.ranks = ranks;
        ServerStats::bump(&self.stats.updates_applied);
        let edges = world.graph.num_edges();
        drop(world);

        Ok(Json::Obj(vec![
            ("applied".to_string(), Json::Bool(true)),
            ("inserted".to_string(), Json::num(inserted as f64)),
            ("removed".to_string(), Json::num(removed as f64)),
            ("reweighted".to_string(), Json::num(reweighted as f64)),
            ("edges".to_string(), Json::num(edges as f64)),
            (
                "repaired_ranks".to_string(),
                Json::num(repaired_ranks as f64),
            ),
            (
                "affected_elements".to_string(),
                Json::num(affected_elements as f64),
            ),
            (
                "region_elements".to_string(),
                Json::num(region_elements as f64),
            ),
            (
                "cache_invalidations".to_string(),
                Json::num(invalidated as f64),
            ),
        ]))
    }
}

/// One nucleus as the nucleus answers print it: its `k`, its vertex and
/// edge counts, then its vertices in ascending order.
pub(crate) fn nucleus_json(k: u32, vertices: &[VertexId], num_edges: usize) -> Json {
    Json::Obj(vec![
        ("k".to_string(), Json::num(k as f64)),
        ("num_vertices".to_string(), Json::num(vertices.len() as f64)),
        ("num_edges".to_string(), Json::num(num_edges as f64)),
        (
            "vertices".to_string(),
            Json::Arr(vertices.iter().map(|&v| Json::num(v as f64)).collect()),
        ),
    ])
}

/// The TCP layer around a [`ServerCore`].
pub struct Server {
    core: Arc<ServerCore>,
    listener: TcpListener,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A, core: Arc<ServerCore>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server { core, listener })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared core.
    pub fn core(&self) -> &Arc<ServerCore> {
        &self.core
    }

    /// Serves until a `shutdown` request (or
    /// [`ServerCore::request_shutdown`]), then drains: in-flight frames
    /// are answered, workers join, and the final counters are returned.
    pub fn run(&self) -> StatsSnapshot {
        let core = &self.core;
        let pool = core.config.parallelism.num_threads().max(1);
        let queue: Mutex<VecDeque<TcpStream>> = Mutex::new(VecDeque::new());
        let ready = Condvar::new();

        std::thread::scope(|s| {
            for _ in 0..pool {
                s.spawn(|| loop {
                    let stream = {
                        let mut q = queue.lock().unwrap();
                        loop {
                            if let Some(stream) = q.pop_front() {
                                break Some(stream);
                            }
                            if core.is_shutdown() {
                                break None;
                            }
                            let (guard, _) =
                                ready.wait_timeout(q, Duration::from_millis(20)).unwrap();
                            q = guard;
                        }
                    };
                    match stream {
                        Some(stream) => serve_connection(core, stream),
                        None => break,
                    }
                });
            }

            // Acceptor: non-blocking so the shutdown flag is observed
            // within one polling interval.
            while !core.is_shutdown() {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        queue.lock().unwrap().push_back(stream);
                        ready.notify_one();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            ready.notify_all();
        });
        core.stats.snapshot()
    }
}

/// Serves one connection until the peer hangs up, an unrecoverable
/// protocol error occurs, or the server drains.
fn serve_connection(core: &Arc<ServerCore>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(core.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let patience = Some(core.config.stall_patience());
    loop {
        match read_frame_while(&mut stream, || !core.is_shutdown(), patience) {
            Ok(ReadOutcome::Frame(body)) => {
                // Drain semantics: a frame that arrived is answered even
                // if the shutdown flag was raised while reading it.
                let response = core.handle_body(&body);
                if write_frame(&mut stream, &response).is_err() {
                    break;
                }
            }
            Ok(ReadOutcome::Closed) | Ok(ReadOutcome::Aborted) => break,
            Err(FrameError::Oversized { declared }) => {
                // The declared body will never be read, so the stream
                // cannot be resynchronized: answer once, then close.
                ServerStats::bump(&core.stats.protocol_errors);
                let error = RequestError::new(
                    ErrorCode::BadFrame,
                    format!("declared frame length {declared} exceeds the cap"),
                );
                let body = err_response(0, &error).to_json_string().into_bytes();
                let _ = write_frame(&mut stream, &body);
                break;
            }
            Err(FrameError::Truncated { .. }) | Err(FrameError::Io(_)) => {
                // The peer broke the stream mid-frame; nothing can be
                // answered reliably.
                ServerStats::bump(&core.stats.protocol_errors);
                break;
            }
        }
    }
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::GraphBuilder;

    /// A K5 with a pendant edge: the pendant lies in no triangle.
    fn k5_with_pendant() -> UncertainGraph {
        let mut b = GraphBuilder::new();
        for u in 0..5 {
            for v in (u + 1)..5 {
                b.add_edge(u, v, 0.8).unwrap();
            }
        }
        b.add_edge(4, 5, 0.7).unwrap();
        b.build()
    }

    fn call(core: &ServerCore, method: &str, params: &str) -> Json {
        let body = format!(r#"{{"id": 1, "method": "{method}", "params": {params}}}"#);
        let response = Json::parse(&String::from_utf8(core.handle_body(body.as_bytes())).unwrap())
            .expect("responses are JSON");
        assert!(response.get("error").is_none(), "{method}: {response:?}");
        response
    }

    fn handle_of(core: &ServerCore, rank: Rank) -> (DecompHandle, u64) {
        let world = core.world.lock().unwrap();
        let state = &world.ranks[&rank];
        (state.handle.clone(), state.generation)
    }

    #[test]
    fn an_update_keeps_the_handle_of_every_rank_it_leaves_untouched() {
        let core = ServerCore::new(k5_with_pendant(), ServerConfig::default());
        for (session, rank) in [(1, "nucleus"), (2, "truss")] {
            call(
                &core,
                "open",
                &format!(r#"{{"rank": "{rank}", "thetas": [0.1]}}"#),
            );
            call(
                &core,
                "max_score_at",
                &format!(r#"{{"session": {session}, "theta": 0.1}}"#),
            );
        }
        let (nucleus, _) = handle_of(&core, Rank::Nucleus);
        let (truss, _) = handle_of(&core, Rank::Truss);

        // Re-weighting the pendant edge changes one truss element (the
        // edge itself) and no triangle.
        call(
            &core,
            "apply_updates",
            r#"{"updates": [{"op": "reweight", "u": 4, "v": 5, "p": 0.3}]}"#,
        );
        let (kept, generation) = handle_of(&core, Rank::Nucleus);
        assert!(Arc::ptr_eq(kept.support(), nucleus.support()));
        assert_eq!(generation, 0);
        let (repaired, generation) = handle_of(&core, Rank::Truss);
        assert!(!Arc::ptr_eq(repaired.support(), truss.support()));
        assert_eq!(generation, 1);

        // The kept handle still answers for the updated graph.
        let graph = core.graph();
        let config = DecompConfig::nucleus(0.1).with_parallelism(Parallelism::Sequential);
        let fresh = nucleus::Decomposition::compute(&graph, &config).unwrap();
        assert_eq!(kept.compute_at(&config).unwrap().scores(), fresh.scores());
        let stats = core.stats();
        assert_eq!(stats.cache_invalidations, 1, "only the truss point drops");
        assert_eq!(stats.supports_repaired, 2);
    }
}
