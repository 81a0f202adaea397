//! Malformed-input robustness: the daemon must answer garbage with a
//! protocol-level error object — never a panic, never a dropped
//! connection (except where dropping is the *point*: oversized lines are
//! refused in place, silent connections are reaped by the idle timeout).

use dispersal_serve::client::Client;
use dispersal_serve::protocol;
use dispersal_serve::server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn bounded_server(max_line_bytes: usize) -> Server {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_line_bytes,
        ..ServerConfig::default()
    })
    .unwrap()
}

#[test]
fn oversized_line_is_refused_but_the_connection_survives() {
    // Regression for the unbounded `read_line`: before the line cap, a
    // client could stream an arbitrarily long line into server memory —
    // and an oversized *valid* request was simply answered. With
    // `max_line_bytes` set, the same request must get a protocol error
    // naming the limit, and the connection must stay usable.
    let server = bounded_server(1024);
    let mut client = Client::connect(server.addr()).unwrap();

    let request = r#"{"id":7,"cmd":"response","policy":"sharing","k":4,"resolution":8}"#;
    let oversized = format!("{}{request}", " ".repeat(4096));
    let raw = client.call(&oversized).unwrap();
    assert!(raw.contains("\"ok\":false"), "oversized line must be refused: {raw}");
    assert!(raw.contains("limit"), "the error should name the byte limit: {raw}");

    // Same connection, normal-sized request: still served.
    let result = client.request(request).unwrap();
    let text = format!("{result:?}");
    assert!(text.contains("g"), "connection must survive the refusal: {text}");

    let metrics = server.metrics();
    assert!(metrics.errors >= 1, "the refusal must be counted: {metrics:?}");
    server.shutdown();
}

#[test]
fn oversized_line_discard_is_bounded_not_buffered() {
    // The refused line's excess bytes are discarded in chunks, not
    // accumulated: a multi-megabyte line on a 256-byte budget comes back
    // with an error naming the discarded excess.
    let server = bounded_server(256);
    let mut client = Client::connect(server.addr()).unwrap();
    let huge = "x".repeat(2 * 1024 * 1024);
    let raw = client.call(&huge).unwrap();
    assert!(raw.contains("\"ok\":false"), "huge line must be refused: {raw}");
    assert!(raw.contains("excess"), "the reply should report discarded bytes: {raw}");
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped_by_the_read_timeout() {
    // Regression for the missing idle timeout: a client that connects
    // and sends nothing used to pin its reader thread forever. With
    // `read_timeout` set, the server closes the socket (client sees EOF).
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        read_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let start = Instant::now();
    let mut buf = [0u8; 16];
    let n = stream.read(&mut buf).unwrap();
    assert_eq!(n, 0, "server must close the idle connection (EOF), got {n} bytes");
    assert!(
        start.elapsed() < Duration::from_secs(8),
        "idle reap took {:?} — timeout not applied?",
        start.elapsed()
    );
    server.shutdown();
}

#[test]
fn deep_nesting_is_refused_and_the_connection_survives() {
    // Regression for the unbounded recursive JSON parser: 10⁵ nested `[`
    // (about 100 KB, well under the line cap) overflowed the reader
    // thread's stack and aborted the whole daemon. The codec now refuses
    // nesting past its depth limit with an error naming that limit.
    let server = bounded_server(1 << 20);
    let mut client = Client::connect(server.addr()).unwrap();
    let raw = client.call(&"[".repeat(100_000)).unwrap();
    assert!(raw.contains("\"ok\":false"), "deep nesting must be refused: {raw}");
    assert!(raw.contains("128 levels"), "the error should name the depth limit: {raw}");

    let result = client
        .request(r#"{"id":2,"cmd":"response","policy":"sharing","k":4,"resolution":8}"#)
        .unwrap();
    assert!(format!("{result:?}").contains("g"), "connection must survive: {result:?}");
    server.shutdown();
}

#[test]
fn a_string_filling_the_line_cap_is_parsed_at_once() {
    // Regression for the quadratic string parser: it re-checked the whole
    // rest of the line as UTF-8 for every unescaped character, so one
    // string just under the default 1 MiB line cap held the connection's
    // reader thread for about 40 s of CPU. The codec now copies each run
    // of plain characters in one piece.
    let server = bounded_server(ServerConfig::default().max_line_bytes);
    let (head, tail) = (r#"{"id":1,"cmd":"stats","pad":""#, r#""}"#);
    let pad = "x".repeat((1 << 20) - 16 - head.len() - tail.len());
    let started = Instant::now();
    let reply = call_within_5s(server.addr(), &format!("{head}{pad}{tail}"));
    assert!(reply.contains("\"ok\":true"), "the stats request must be served: {reply}");
    let took = started.elapsed();
    assert!(took < Duration::from_secs(5), "a 1 MiB line took {took:?}");
    server.shutdown();
}

#[test]
fn malformed_requests_answer_in_place_without_panicking() {
    let server = bounded_server(1 << 20);
    let mut client = Client::connect(server.addr()).unwrap();

    // Truncated JSON.
    let raw = client.call(r#"{"id":1,"cmd":"respo"#).unwrap();
    assert!(raw.contains("\"ok\":false"), "truncated JSON: {raw}");
    // Non-finite numeric literal (JSON has no NaN) — parse error, not a
    // crash.
    let raw =
        client.call(r#"{"id":2,"cmd":"response","policy":"sharing","k":4,"tol":NaN}"#).unwrap();
    assert!(raw.contains("\"ok\":false"), "NaN literal: {raw}");
    // Unknown command.
    let err = client.request(r#"{"id":3,"cmd":"warp"}"#).unwrap_err();
    assert!(err.contains("warp"), "unknown command: {err}");
    // Non-finite spec arguments are rejected by the typed parsers.
    let err =
        client.request(r#"{"id":4,"cmd":"response","policy":"two-level:NaN","k":4}"#).unwrap_err();
    assert!(err.contains("finite"), "non-finite policy arg: {err}");
    let err = client
        .request(r#"{"id":5,"cmd":"equilibrium","policy":"sharing","profile":"zipf:8:inf","k":4}"#)
        .unwrap_err();
    assert!(err.contains("non-finite"), "non-finite profile arg: {err}");

    // After all of that, the connection still serves real work.
    let result = client
        .request(r#"{"id":6,"cmd":"response","policy":"sharing","k":4,"resolution":8}"#)
        .unwrap();
    assert!(format!("{result:?}").contains("g"), "connection must still work: {result:?}");

    let metrics = server.metrics();
    assert!(metrics.errors >= 5, "each refusal must be counted: {metrics:?}");
    server.shutdown();
}

/// Send `line` on a fresh connection and read one reply line, failing
/// (instead of hanging the suite) when no reply comes within 5 s.
fn call_within_5s(addr: &str, line: &str) -> String {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .unwrap_or_else(|e| panic!("no reply within 5 s to {line}: {e}"));
    reply
}

#[test]
fn oversized_fields_are_refused_and_the_dispatcher_keeps_serving() {
    // Regression: each line used to reach the evaluation code. The
    // u64::MAX sizes panicked the dispatcher thread with a capacity
    // overflow (sizing a grid, a coefficient table, a profile or an
    // epoch schedule); the last two held it for seconds. Either way no
    // other client got a reply afterwards. The parser now refuses each
    // field with an error naming its limit.
    let server = bounded_server(1 << 20);
    let lines = [
        (r#""cmd":"response","policy":"sharing","k":4,"resolution":MAX"#, "65536"),
        (r#""cmd":"response","policy":"sharing","k":MAX"#, "1000000"),
        (r#""cmd":"catalog","k":4,"resolution":MAX"#, "65536"),
        (r#""cmd":"equilibrium","policy":"sharing","profile":"zipf:5:1.0","k":MAX"#, "1000000"),
        (r#""cmd":"equilibrium","policy":"sharing","profile":"zipf:MAX:1.0","k":4"#, "1000000"),
        (
            r#""cmd":"scenario","policy":"sharing","profile":"zipf:5:1.0","k":3,"epochs":MAX"#,
            "10000",
        ),
        (r#""cmd":"ess","profile":"zipf:5:1.0","k":3,"mutants":MAX"#, "10000"),
        (r#""cmd":"response","policy":"sharing","k":4,"resolution":100000000"#, "65536"),
    ];
    for (id, (fields, limit)) in lines.iter().enumerate() {
        let line = format!("{{\"id\":{id},{}}}", fields.replace("MAX", &u64::MAX.to_string()));
        let reply = call_within_5s(server.addr(), &line);
        assert!(reply.contains("\"ok\":false"), "{line} must be refused: {reply}");
        assert!(
            reply.contains("limit") && reply.contains(limit),
            "{line}: limit not named: {reply}"
        );
        let stats = call_within_5s(server.addr(), r#"{"id":99,"cmd":"stats"}"#);
        assert!(stats.contains("\"ok\":true"), "stats after {line}: {stats}");
    }
    let reply = call_within_5s(
        server.addr(),
        r#"{"id":10,"cmd":"response","policy":"sharing","k":4,"resolution":8}"#,
    );
    assert!(reply.contains("\"ok\":true"), "a valid response must still be served: {reply}");
    server.shutdown();
}

#[test]
fn zero_resolution_is_refused_at_parse_time() {
    // Regression: the parser bounded `resolution` only from above, so an
    // exact response or catalog scan at resolution 0 passed the work
    // budget, was queued and dispatched, and failed only in the grid
    // builder. The parser now refuses it, naming the field's minimum.
    let server = bounded_server(1 << 20);
    for line in [
        r#"{"id":1,"cmd":"response","policy":"sharing","k":4,"resolution":0}"#,
        r#"{"id":2,"cmd":"catalog","k":4,"resolution":0}"#,
    ] {
        let reply = call_within_5s(server.addr(), line);
        assert!(reply.contains("\"ok\":false"), "{line} must be refused: {reply}");
        assert!(
            reply.contains("resolution") && reply.contains("minimum 1"),
            "{line}: minimum not named: {reply}"
        );
    }
    let stats = call_within_5s(server.addr(), r#"{"id":3,"cmd":"stats"}"#);
    assert!(stats.contains("\"ok\":true"), "stats after the refusals: {stats}");
    let reply = call_within_5s(
        server.addr(),
        r#"{"id":4,"cmd":"response","policy":"sharing","k":4,"resolution":8}"#,
    );
    assert!(reply.contains("\"ok\":true"), "a valid response must still be served: {reply}");
    server.shutdown();
}

#[test]
fn ess_requests_beyond_the_work_budget_are_refused_promptly() {
    // Regression: every `ess` line with k ≤ 10⁶ used to reach the probe.
    // σ⋆ under the exclusive policy ties at every ledger level at large k,
    // so the probe walked all k levels for every mutant: zipf:4 at
    // k = 2000 took about 9 s and k = 10⁶ would take weeks, and the
    // dispatcher served no one else meanwhile. Both are now refused with
    // an error naming the budget before any work.
    let server = bounded_server(1 << 20);
    for (id, k) in [(1, 2000), (2, 1_000_000)] {
        let line =
            format!(r#"{{"id":{id},"cmd":"ess","profile":"zipf:4:1.0","k":{k},"mutants":0}}"#);
        let started = Instant::now();
        let reply = call_within_5s(server.addr(), &line);
        assert!(reply.contains("\"ok\":false"), "{line} must be refused: {reply}");
        assert!(reply.contains("limit 40000000"), "{line}: budget not named: {reply}");
        let stats = call_within_5s(server.addr(), r#"{"id":99,"cmd":"stats"}"#);
        assert!(stats.contains("\"ok\":true"), "stats after {line}: {stats}");
        let took = started.elapsed();
        assert!(took < Duration::from_secs(2), "{line} and a stats took {took:?}");
    }
    // A request within the budget is still probed.
    let reply = call_within_5s(
        server.addr(),
        r#"{"id":3,"cmd":"ess","profile":"zipf:4:1.0","k":64,"mutants":4}"#,
    );
    assert!(reply.contains("\"ok\":true"), "an admissible probe must be served: {reply}");
    server.shutdown();
}

#[test]
fn exact_responses_beyond_the_work_budget_are_refused_promptly() {
    // Regression: every exact response or catalog line within the field
    // limits used to reach the kernel. k = 10⁶ at resolution 2¹⁶ is about
    // 6.6·10¹⁰ kernel cells, minutes of dispatcher time during which no
    // other client got a reply. Both are now refused at parse time with an
    // error naming the budget. A catalog scan is charged for every row: at
    // k = 10⁶ and resolution 8 it was admitted as one curve and held the
    // dispatcher 1.4–1.5 s on the scalar lane.
    let server = bounded_server(1 << 20);
    let limit = format!("limit {}", protocol::MAX_RESPONSE_WORK);
    for line in [
        r#"{"id":1,"cmd":"response","policy":"sharing","k":1000000,"resolution":65536}"#,
        r#"{"id":2,"cmd":"catalog","k":1000000,"resolution":65536}"#,
        r#"{"id":3,"cmd":"catalog","k":1000000,"resolution":8}"#,
    ] {
        let started = Instant::now();
        let reply = call_within_5s(server.addr(), line);
        assert!(reply.contains("\"ok\":false"), "{line} must be refused: {reply}");
        assert!(reply.contains(&limit), "{line}: budget not named: {reply}");
        let stats = call_within_5s(server.addr(), r#"{"id":99,"cmd":"stats"}"#);
        assert!(stats.contains("\"ok\":true"), "stats after {line}: {stats}");
        let took = started.elapsed();
        assert!(took < Duration::from_secs(2), "{line} and a stats took {took:?}");
    }
    // An exact response within the budget is still served.
    let reply = call_within_5s(
        server.addr(),
        r#"{"id":4,"cmd":"response","policy":"sharing","k":64,"resolution":256}"#,
    );
    assert!(reply.contains("\"ok\":true"), "an admissible response must be served: {reply}");
    server.shutdown();
}
