//! Wire-protocol robustness and bit-identity over real TCP.
//!
//! Two contracts under test:
//!
//! * **No input kills the process.**  Malformed frames — truncated
//!   length prefixes, oversized declared lengths, arbitrary garbage
//!   bodies, invalid JSON, unknown methods, wrong-rank queries — must
//!   each surface as a typed error (or a clean connection close for
//!   unresynchronizable framing), with the server answering fresh
//!   connections afterwards.
//! * **The wire adds nothing.**  Concurrent sessions must answer
//!   bit-identically to direct [`DecompSweep`] calls, with the support
//!   built once per rank no matter how many connections race.

use std::net::{SocketAddr, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use proptest::prelude::*;

use nd_server::client::obj;
use nd_server::{
    read_frame, Client, ErrorCode, Json, ReadOutcome, Server, ServerConfig, ServerCore,
    StatsSnapshot, MAX_FRAME_LEN,
};
use nucleus::{DecompSweep, Rank, SweepConfig};
use ugraph::{apply_edge_updates, EdgeUpdate, GraphBuilder, Parallelism, UncertainGraph};

fn clique(n: u32, p: f64) -> UncertainGraph {
    let mut b = GraphBuilder::new();
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v, p).unwrap();
        }
    }
    b.build()
}

/// Boots a server on an ephemeral loopback port, runs `f` against it,
/// shuts down, and returns `f`'s result plus the drained counters.
///
/// `f` runs under `catch_unwind` so a failing assertion still shuts the
/// server down and joins its thread — otherwise the panic would hang in
/// `thread::scope` waiting on a runner that never exits.
fn with_server<T>(
    graph: &UncertainGraph,
    config: ServerConfig,
    f: impl FnOnce(SocketAddr, &Arc<ServerCore>) -> T,
) -> (T, StatsSnapshot) {
    let core = ServerCore::new(graph.clone(), config);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&core)).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    std::thread::scope(|s| {
        let runner = s.spawn(|| server.run());
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| f(addr, &core)));
        core.request_shutdown();
        let stats = runner.join().expect("server thread must not panic");
        match result {
            Ok(value) => (value, stats),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

fn open_session(client: &mut Client, rank: &str, thetas: &[f64]) -> f64 {
    client
        .call(
            "open",
            obj(vec![
                ("rank", Json::str(rank)),
                (
                    "thetas",
                    Json::Arr(thetas.iter().map(|&t| Json::num(t)).collect()),
                ),
            ]),
        )
        .expect("open succeeds")
        .get("session")
        .and_then(Json::as_f64)
        .expect("open returns a session id")
}

fn scores_at(client: &mut Client, session: f64, theta: f64) -> Json {
    client
        .call(
            "scores_at",
            obj(vec![
                ("session", Json::num(session)),
                ("theta", Json::num(theta)),
            ]),
        )
        .expect("scores_at succeeds")
}

fn wire_scores(response: &Json) -> Vec<u32> {
    response
        .get("scores")
        .and_then(Json::as_array)
        .expect("scores array")
        .iter()
        .map(|v| v.as_f64().unwrap() as u32)
        .collect()
}

fn update_item(op: &str, u: u32, v: u32, p: Option<f64>) -> Json {
    let mut members = vec![
        ("op", Json::str(op)),
        ("u", Json::num(u as f64)),
        ("v", Json::num(v as f64)),
    ];
    if let Some(p) = p {
        members.push(("p", Json::num(p)));
    }
    obj(members)
}

fn apply_updates(client: &mut Client, items: Vec<Json>) -> Result<Json, nd_server::ClientError> {
    client.call("apply_updates", obj(vec![("updates", Json::Arr(items))]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary bytes in a well-formed frame: the server must answer
    /// every one of them (a typed error — or a response, in the
    /// astronomically unlikely case the bytes spell a valid request),
    /// and the connection must survive for a follow-up ping.
    #[test]
    fn garbage_bodies_get_typed_answers_and_the_connection_survives(
        body in proptest::collection::vec(0u8..=255u8, 0..64usize),
    ) {
        let graph = clique(4, 0.9);
        let ((), _stats) = with_server(&graph, ServerConfig::default(), |addr, _| {
            let mut client = Client::connect(addr).expect("connect");
            let response = client
                .call_raw(&body)
                .expect("every frame gets an answer, never a hangup");
            assert!(
                response.get("ok").is_some() || response.get("batch").is_some(),
                "unrecognized response shape: {response:?}"
            );
            client
                .call("ping", Json::Null)
                .expect("connection must survive a garbage body");
        });
    }

    /// A truncated length prefix (the peer dies mid-header): the server
    /// counts a protocol error, closes that connection without a
    /// response, and keeps serving new ones.
    #[test]
    fn truncated_length_prefix_closes_without_killing_the_server(
        prefix in proptest::collection::vec(0u8..=255u8, 1..4usize),
    ) {
        let graph = clique(4, 0.9);
        let ((), stats) = with_server(&graph, ServerConfig::default(), |addr, core| {
            {
                use std::io::Write;
                let mut raw = TcpStream::connect(addr).expect("connect");
                raw.write_all(&prefix).expect("partial header");
                raw.shutdown(std::net::Shutdown::Write).ok();
                // The server closes without answering the broken frame.
                match read_frame(&mut raw) {
                    Ok(ReadOutcome::Closed) | Ok(ReadOutcome::Aborted) | Err(_) => {}
                    Ok(ReadOutcome::Frame(frame)) => {
                        panic!("unexpected response to a truncated header: {frame:?}")
                    }
                }
            }
            // The close above sequences after the counter bump, and a
            // fresh connection is served normally.
            assert_eq!(core.stats().protocol_errors, 1);
            let mut client = Client::connect(addr).expect("reconnect");
            client
                .call("ping", Json::Null)
                .expect("server must survive a truncated header");
        });
        prop_assert_eq!(stats.requests, 1); // just the follow-up ping
        prop_assert_eq!(stats.protocol_errors, 1);
    }
}

#[test]
fn oversized_declared_length_gets_bad_frame_then_close() {
    let graph = clique(4, 0.9);
    let ((), stats) = with_server(&graph, ServerConfig::default(), |addr, _| {
        use std::io::Write;
        let mut raw = TcpStream::connect(addr).expect("connect");
        let declared = MAX_FRAME_LEN + 1;
        raw.write_all(&declared.to_le_bytes()).expect("header");
        // The typed answer arrives before the close: the declared body
        // can never be read, so the stream cannot be resynchronized.
        match read_frame(&mut raw).expect("a response frame") {
            ReadOutcome::Frame(bytes) => {
                let response = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
                assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
                assert_eq!(
                    response.path(&["error", "code"]).and_then(Json::as_str),
                    Some(ErrorCode::BadFrame.as_str())
                );
            }
            other => panic!("expected a bad-frame response, got {other:?}"),
        }
        match read_frame(&mut raw) {
            Ok(ReadOutcome::Closed) | Ok(ReadOutcome::Aborted) | Err(_) => {}
            Ok(ReadOutcome::Frame(f)) => panic!("connection must close, got {f:?}"),
        }
        // The server itself survives.
        let mut client = Client::connect(addr).expect("reconnect");
        client.call("ping", Json::Null).expect("server still alive");
    });
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.requests, 1);
}

/// ~50 KB of '[' is a well-formed frame far under the length cap whose
/// body would recurse tens of thousands of levels deep in an unbounded
/// parser.  It must come back as a typed `bad-json` answer on a live
/// connection — not overflow the worker stack and abort the process.
#[test]
fn deeply_nested_json_body_is_typed_not_a_stack_overflow() {
    let graph = clique(4, 0.9);
    let ((), stats) = with_server(&graph, ServerConfig::default(), |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let bomb = "[".repeat(50_000).into_bytes();
        let response = client.call_raw(&bomb).expect("typed answer");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            response.path(&["error", "code"]).and_then(Json::as_str),
            Some(ErrorCode::BadJson.as_str())
        );
        client.call("ping", Json::Null).expect("connection alive");
    });
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.requests, 1);
}

/// A peer that sends two prefix bytes and then goes silent (without
/// hanging up) must not pin a worker past a shutdown request: the drain
/// counts it as a protocol error and `Server::run` still returns.
#[test]
fn stalled_partial_frame_does_not_hang_the_drain() {
    let graph = clique(4, 0.9);
    let core = ServerCore::new(graph, ServerConfig::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&core)).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let mut raw = TcpStream::connect(addr).expect("connect");
    {
        use std::io::Write;
        raw.write_all(&[7, 0]).expect("partial header");
        // Keep `raw` open: no EOF ever arrives on the server side.
    }
    let stats = std::thread::scope(|s| {
        let runner = s.spawn(|| server.run());
        // Let the acceptor hand the stalled connection to a worker.
        std::thread::sleep(std::time::Duration::from_millis(200));
        core.request_shutdown();
        runner.join().expect("server thread must not panic")
    });
    drop(raw);
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.requests, 0);
}

/// With a single-worker pool, a peer that starts a frame and goes
/// silent would otherwise pin the only worker — and with it the ability
/// to even *request* a shutdown over the wire.  The frame-stall bound
/// must free the worker (counting a protocol error) so a later client
/// is served without any shutdown being involved.
#[test]
fn stalled_mid_frame_peer_cannot_pin_a_single_worker_pool() {
    let graph = clique(4, 0.9);
    let config = ServerConfig {
        parallelism: Parallelism::fixed(1),
        read_timeout: std::time::Duration::from_millis(5),
        frame_stall_timeout: std::time::Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let ((), stats) = with_server(&graph, config, |addr, _| {
        use std::io::Write;
        let mut stall = TcpStream::connect(addr).expect("connect");
        stall.write_all(&[7, 0]).expect("partial header");
        // Keep `stall` open and silent: no EOF, no further bytes.  The
        // ping below can only be answered once the worker gives up on
        // the stalled frame.
        let mut client = Client::connect(addr).expect("connect");
        client
            .call("ping", Json::Null)
            .expect("the stall bound must free the only worker");
        drop(stall);
    });
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.requests, 1);
}

#[test]
fn invalid_json_is_typed_and_does_not_kill_the_connection() {
    let graph = clique(4, 0.9);
    let ((), stats) = with_server(&graph, ServerConfig::default(), |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let response = client.call_raw(b"{\"id\": 1, ").expect("typed answer");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            response.path(&["error", "code"]).and_then(Json::as_str),
            Some(ErrorCode::BadJson.as_str())
        );
        // Same connection keeps working.
        client.call("ping", Json::Null).expect("connection alive");
    });
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.requests, 1);
}

#[test]
fn unknown_method_and_wrong_rank_are_typed_errors() {
    let graph = clique(5, 0.8);
    let ((), stats) = with_server(&graph, ServerConfig::default(), |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let err = client
            .call("frobnicate", Json::Null)
            .expect_err("unknown method fails");
        assert!(err.is_code(ErrorCode::UnknownMethod), "{err}");

        // Nuclei extraction needs the nucleus rank; a truss session gets
        // the typed wrong-rank error, not a panic or a wrong answer.
        let session = open_session(&mut client, "truss", &[0.1, 0.3]);
        let err = client
            .call(
                "k_nuclei_at",
                obj(vec![
                    ("session", Json::num(session)),
                    ("theta", Json::num(0.1)),
                    ("k", Json::num(1.0)),
                ]),
            )
            .expect_err("wrong rank fails");
        assert!(err.is_code(ErrorCode::WrongRank), "{err}");
    });
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.request_errors, 2);
}

/// Six concurrent connections, two per rank, every answer compared
/// bit-for-bit against the direct library call — and the support built
/// once per rank no matter how the connections race.
#[test]
fn concurrent_sessions_are_bit_identical_to_library_calls() {
    let graph = clique(6, 0.8);
    let thetas = vec![0.1, 0.3];

    let truth: Vec<(Rank, DecompSweep)> = [Rank::Nucleus, Rank::Core, Rank::Truss]
        .into_iter()
        .map(|rank| {
            let sweep =
                DecompSweep::compute(&graph, &SweepConfig::exact(thetas.clone()).with_rank(rank))
                    .expect("valid sweep");
            (rank, sweep)
        })
        .collect();

    let ((), stats) = with_server(&graph, ServerConfig::default(), |addr, _| {
        std::thread::scope(|s| {
            for worker in 0..6 {
                let truth = &truth;
                let thetas = &thetas;
                s.spawn(move || {
                    let (rank, sweep) = &truth[worker % truth.len()];
                    let mut client = Client::connect(addr).expect("connect");
                    let session = open_session(&mut client, rank.as_str(), thetas);
                    for &theta in thetas {
                        let wire = scores_at(&mut client, session, theta);
                        let wire_scores: Vec<u32> = wire
                            .get("scores")
                            .and_then(Json::as_array)
                            .expect("scores array")
                            .iter()
                            .map(|v| v.as_f64().unwrap() as u32)
                            .collect();
                        assert_eq!(
                            wire_scores.as_slice(),
                            sweep.at(theta).unwrap().scores(),
                            "worker {worker} diverged at rank {rank} theta {theta}"
                        );
                    }
                });
            }
        });
    });
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.request_errors, 0);
    // One support per distinct rank, however the six connections raced.
    assert_eq!(stats.support_builds, 3);
    assert_eq!(stats.sessions_opened, 6);
    // 3 ranks x 2 thetas distinct cache keys; the second connection of
    // each rank hits on both points (the first arrival marks the key
    // in-flight and is the counted miss, a racing arrival waits and
    // takes the hit, so the split is deterministic even under races).
    assert_eq!(stats.cache_misses, 6);
    assert_eq!(stats.cache_hits, 6);
}

#[test]
fn capacity_one_cache_counts_evictions_deterministically() {
    let graph = clique(5, 0.8);
    let config = ServerConfig {
        cache_capacity: 1,
        ..ServerConfig::default()
    };
    let ((), stats) = with_server(&graph, config, |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let session = open_session(&mut client, "nucleus", &[0.1, 0.3]);
        // miss(0.1); miss(0.3) evicting 0.1; miss(0.1) evicting 0.3;
        // hit(0.1).
        scores_at(&mut client, session, 0.1);
        scores_at(&mut client, session, 0.3);
        scores_at(&mut client, session, 0.1);
        scores_at(&mut client, session, 0.1);
    });
    assert_eq!(stats.cache_misses, 3);
    assert_eq!(stats.cache_evictions, 2);
    assert_eq!(stats.cache_hits, 1);
}

#[test]
fn batches_answer_in_request_order_and_drain_past_shutdown() {
    let graph = clique(5, 0.8);
    let ((), stats) = with_server(&graph, ServerConfig::default(), |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        // One frame: ping, shutdown, ping.  Drain semantics answer the
        // whole batch — the first ping normally, the post-shutdown ping
        // with the typed shutting-down refusal, all in request order.
        let results = client
            .call_batch(&[
                ("ping", Json::Null),
                ("shutdown", Json::Null),
                ("ping", Json::Null),
            ])
            .expect("batch answered");
        assert_eq!(results.len(), 3);
        assert!(
            matches!(&results[0], Ok(r) if r.get("pong").and_then(Json::as_bool) == Some(true)),
            "first ping must succeed: {:?}",
            results[0]
        );
        assert!(
            matches!(&results[1], Ok(r)
                if r.get("shutting_down").and_then(Json::as_bool) == Some(true)),
            "shutdown must be acknowledged: {:?}",
            results[1]
        );
        assert!(
            matches!(&results[2], Err(e) if e.is_code(ErrorCode::ShuttingDown)),
            "post-shutdown call must get the typed refusal: {:?}",
            results[2]
        );
    });
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.request_errors, 1);
}

/// An update batch racing a pack of query threads: every answer must be
/// bit-identical to the pre-update sweep or to the post-update sweep —
/// never a mix of the two worlds, never a torn vector — and once every
/// thread has joined, fresh queries answer about the updated graph.
#[test]
fn concurrent_updates_and_queries_are_never_torn() {
    let graph = clique(6, 0.8);
    let thetas = vec![0.1, 0.3];
    let batch = vec![EdgeUpdate::Delete { u: 4, v: 5 }];
    let post_graph = apply_edge_updates(&graph, &batch).unwrap().graph;
    let pre = DecompSweep::compute(&graph, &SweepConfig::exact(thetas.clone())).unwrap();
    let post = DecompSweep::compute(&post_graph, &SweepConfig::exact(thetas.clone())).unwrap();

    let ((), stats) = with_server(&graph, ServerConfig::default(), |addr, _| {
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (pre, post, thetas) = (&pre, &post, &thetas);
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let session = open_session(&mut client, "nucleus", thetas);
                    for round in 0..30 {
                        let theta = thetas[round % thetas.len()];
                        let wire = wire_scores(&scores_at(&mut client, session, theta));
                        let pre_scores = pre.at(theta).unwrap().scores();
                        let post_scores = post.at(theta).unwrap().scores();
                        assert!(
                            wire.as_slice() == pre_scores || wire.as_slice() == post_scores,
                            "torn answer at theta {theta}: {wire:?}"
                        );
                    }
                });
            }
            s.spawn(|| {
                let mut client = Client::connect(addr).expect("connect");
                std::thread::sleep(std::time::Duration::from_millis(30));
                apply_updates(&mut client, vec![update_item("delete", 4, 5, None)])
                    .expect("the update batch applies");
            });
        });
        let mut client = Client::connect(addr).expect("connect");
        let session = open_session(&mut client, "nucleus", &thetas);
        let settled = wire_scores(&scores_at(&mut client, session, thetas[0]));
        assert_eq!(settled.as_slice(), post.at(thetas[0]).unwrap().scores());
    });
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.updates_applied, 1);
    assert_eq!(stats.supports_repaired, 1);
    assert_eq!(stats.support_builds, 1);
}

/// Sequential updates invalidate exactly the resident cache entries of
/// the rank they touch, with counts echoed in the response and in the
/// drained stats at tolerance 0.
#[test]
fn cache_invalidation_counts_are_deterministic() {
    let graph = clique(5, 0.8);
    let ((), stats) = with_server(&graph, ServerConfig::default(), |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let session = open_session(&mut client, "truss", &[0.1, 0.3]);
        // Two misses make both grid points resident.
        scores_at(&mut client, session, 0.1);
        scores_at(&mut client, session, 0.3);
        // The first update drops both resident points.
        let applied = apply_updates(&mut client, vec![update_item("reweight", 0, 1, Some(0.4))])
            .expect("reweight applies");
        assert_eq!(
            applied.get("cache_invalidations").and_then(Json::as_f64),
            Some(2.0),
            "{applied:?}"
        );
        assert_eq!(
            applied.get("repaired_ranks").and_then(Json::as_f64),
            Some(1.0)
        );
        // Re-materialize one point; the second update drops exactly it.
        scores_at(&mut client, session, 0.1);
        let applied = apply_updates(&mut client, vec![update_item("delete", 0, 1, None)])
            .expect("delete applies");
        assert_eq!(
            applied.get("cache_invalidations").and_then(Json::as_f64),
            Some(1.0),
            "{applied:?}"
        );
        // Both points recompute against the twice-updated world.
        scores_at(&mut client, session, 0.1);
        scores_at(&mut client, session, 0.3);
    });
    assert_eq!(stats.cache_misses, 5);
    assert_eq!(stats.cache_invalidations, 3);
    assert_eq!(stats.updates_applied, 2);
    assert_eq!(stats.supports_repaired, 2);
    assert_eq!(stats.support_builds, 1);
    assert_eq!(stats.request_errors, 0);
}

/// Malformed update bodies are typed `invalid-params`, semantically
/// invalid batches are typed `update-rejected`, and neither kills the
/// connection, mutates the world, or counts a repair.
#[test]
fn malformed_update_bodies_are_typed_and_the_server_survives() {
    let graph = clique(4, 0.9);
    let ((), stats) = with_server(&graph, ServerConfig::default(), |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        // Shape problems: invalid-params.
        let shape_errors = [
            client
                .call("apply_updates", Json::Null)
                .expect_err("missing updates"),
            client
                .call("apply_updates", obj(vec![("updates", Json::num(7.0))]))
                .expect_err("updates not an array"),
            apply_updates(&mut client, vec![]).expect_err("empty batch"),
            apply_updates(&mut client, vec![obj(vec![("u", Json::num(0.0))])])
                .expect_err("missing op"),
            apply_updates(&mut client, vec![update_item("insert", 0, 2, None)])
                .expect_err("insert without p"),
            apply_updates(&mut client, vec![update_item("smite", 0, 1, None)])
                .expect_err("unknown op"),
        ];
        for e in shape_errors {
            assert!(e.is_code(ErrorCode::InvalidParams), "{e}");
        }
        // Semantic problems against the resident graph: update-rejected.
        let semantic_errors = [
            apply_updates(&mut client, vec![update_item("insert", 0, 1, Some(0.5))])
                .expect_err("edge exists"),
            apply_updates(&mut client, vec![update_item("delete", 0, 99, None)])
                .expect_err("off-graph endpoint"),
            apply_updates(&mut client, vec![update_item("delete", 2, 2, None)])
                .expect_err("self-loop"),
            apply_updates(&mut client, vec![update_item("insert", 0, 1, Some(0.0))])
                .expect_err("zero probability"),
        ];
        for e in semantic_errors {
            assert!(e.is_code(ErrorCode::UpdateRejected), "{e}");
        }
        // The connection and the world both survive: a normal session
        // still answers over the unchanged graph.
        client.call("ping", Json::Null).expect("connection alive");
        let session = open_session(&mut client, "core", &[0.2, 0.5]);
        scores_at(&mut client, session, 0.2);
    });
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.request_errors, 10);
    assert_eq!(stats.updates_applied, 0);
    assert_eq!(stats.supports_repaired, 0);
    assert_eq!(stats.cache_invalidations, 0);
}
