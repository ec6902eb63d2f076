//! Transport behaviour of the serve socket: warm requests are not held
//! back by delayed ACKs, the accept loop ends promptly on `stop` and on
//! a client `shutdown`, and an over-long request line closes only its
//! own connection.
//!
//! Every join runs under a watchdog, so a hung accept loop fails its
//! test instead of blocking the suite.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpvar_serve::protocol::{AnalysisRequest, ContextSpec, Preset};
use mpvar_serve::{Client, Dispatcher, ProgressRouter, Server, ServerMessage};
use mpvar_study::{ArtifactId, MemoryStore};

fn request(id: &str) -> AnalysisRequest {
    AnalysisRequest {
        id: id.to_string(),
        artifacts: vec![ArtifactId::Table1],
        context: ContextSpec {
            preset: Preset::Quick,
            sizes: Some(vec![8]),
            trials: Some(120),
            seed: Some(11),
            threads: Some(1),
        },
        progress: false,
    }
}

fn start_server() -> Server {
    let dispatcher = Arc::new(Dispatcher::new(
        Arc::new(MemoryStore::new()),
        Arc::new(ProgressRouter::new()),
    ));
    Server::start("127.0.0.1:0", dispatcher).expect("bind server")
}

/// Runs `f` on a thread of its own and returns its value, failing the
/// test if it takes longer than `limit`.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|e| panic!("{what} did not finish within {limit:?}: {e}"))
}

fn stop_and_join(server: Server) {
    server.stop();
    let drained = within(Duration::from_secs(60), "stop + join", move || {
        server.join(Duration::from_secs(30))
    });
    assert!(drained, "waves did not drain");
}

#[test]
fn warm_requests_are_not_held_back_by_delayed_acks() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let primed = client.request(request("prime"), |_| {}).expect("prime");

    let mut latencies: Vec<Duration> = (0..16)
        .map(|i| {
            let t0 = Instant::now();
            let got = client
                .request(request(&format!("warm-{i}")), |_| {})
                .expect("warm request");
            let latency = t0.elapsed();
            assert_eq!(got, primed, "warm answer differs from the primed one");
            latency
        })
        .collect();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    // The dispatcher answers a warm hit in well under a millisecond; a
    // median near 40 ms is the write-write-read stall of Nagle against
    // the client's delayed ACK.
    assert!(
        median <= Duration::from_millis(10),
        "warm median {median:?} over one connection (all: {latencies:?})"
    );

    drop(client);
    stop_and_join(server);
}

#[test]
fn stop_ends_an_idle_accept_loop() {
    let server = start_server();
    server.stop();
    let drained = within(Duration::from_secs(2), "join after stop", move || {
        server.join(Duration::from_secs(1))
    });
    assert!(drained);
}

#[test]
fn a_client_shutdown_alone_ends_the_accept_loop() {
    let server = start_server();
    Client::connect(server.addr())
        .expect("connect")
        .shutdown()
        .expect("send shutdown");
    let drained = within(Duration::from_secs(2), "join after shutdown", move || {
        server.join(Duration::from_secs(1))
    });
    assert!(drained);
}

#[test]
fn an_over_long_line_closes_only_its_own_connection() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let primed = client.request(request("prime"), |_| {}).expect("prime");

    // 2 MiB with no newline, written on a thread of its own: the server
    // stops reading at the 1 MiB cap, so the tail of the write fails
    // once the connection closes.
    let stream = TcpStream::connect(server.addr()).expect("connect flooder");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut flood = stream.try_clone().expect("clone flooder");
    let flooder = std::thread::spawn(move || {
        let _ = flood.write_all(&vec![b'x'; 2 << 20]);
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read the error reply");
    match ServerMessage::parse(&line).expect("a protocol line") {
        ServerMessage::Error { id, message } => {
            assert_eq!(id, "");
            assert!(message.contains("1048576"), "cap not named: {message}");
        }
        other => panic!("expected an error reply, got {other:?}"),
    }
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).expect("end of stream"),
        0,
        "connection left open after the error: {line:?}"
    );
    flooder.join().expect("flooder thread");

    // The server is still serving: an open connection and a new one
    // both get the warm answer.
    let warm = client
        .request(request("after"), |_| {})
        .expect("warm on old");
    assert_eq!(warm, primed);
    let mut fresh = Client::connect(server.addr()).expect("connect after");
    let warm = fresh
        .request(request("fresh"), |_| {})
        .expect("warm on new");
    assert_eq!(warm, primed);

    drop((client, fresh));
    stop_and_join(server);
}
