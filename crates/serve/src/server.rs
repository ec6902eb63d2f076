//! The TCP front end: newline-delimited `mpvar-serve/v1` over a
//! socket, one reader and one writer thread per connection, one
//! forwarder thread per in-flight request.
//!
//! The server itself is transport only — all scheduling lives in
//! [`Dispatcher`]. Any number of connections share one dispatcher, so
//! dedupe and batching work across clients, not just across requests
//! on one socket.
//!
//! Transport rules:
//!
//! * Every socket runs with `TCP_NODELAY`. A request is answered by two
//!   writes (`ack`, then `result`); with Nagle on, the second waits for
//!   the peer's delayed ACK of the first, about 40 ms per request.
//! * The accept loop blocks in `accept`. [`Server::stop`] and a client
//!   `shutdown` set the stop flag and then open one throwaway
//!   connection to the listener, which wakes the loop to see the flag.
//!   An accept error (`EMFILE`, `ECONNABORTED`) backs off briefly and
//!   keeps accepting; only the stop flag ends the loop.
//! * A request line longer than 1 MiB is answered with an `error` and
//!   its connection is closed; other connections carry on.
//! * A connection whose writer thread cannot be spawned is closed. A
//!   request whose forwarder thread cannot be spawned is forwarded on
//!   the connection's reader thread instead.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::dispatch::{spawn_or_run, Dispatcher, JobHandle};
use crate::progress::JobEvent;
use crate::protocol::{ClientMessage, ServerMessage};

/// A running serve endpoint. Dropping the handle does **not** stop the
/// server; call [`Server::stop`] (or send a `shutdown` message) and
/// then [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: JoinHandle<()>,
    dispatcher: Arc<Dispatcher>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts accepting connections against `dispatcher`.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        dispatcher: Arc<Dispatcher>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_dispatcher = Arc::clone(&dispatcher);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(&listener, addr, &accept_dispatcher, &accept_stop))?;
        Ok(Server {
            addr,
            stop,
            accept_thread,
            dispatcher,
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scheduler behind this endpoint.
    pub fn dispatcher(&self) -> &Arc<Dispatcher> {
        &self.dispatcher
    }

    /// Asks the accept loop to exit (idempotent; in-flight
    /// connections finish their current requests).
    pub fn stop(&self) {
        request_stop(&self.stop, self.addr);
    }

    /// Waits for the accept loop to exit, then for running waves to
    /// drain (bounded by `timeout`); returns whether the dispatcher
    /// went idle.
    pub fn join(self, timeout: Duration) -> bool {
        let _ = self.accept_thread.join();
        self.dispatcher.wait_idle(timeout)
    }
}

/// The longest request line a connection may send, newline excluded.
/// Far above any legal request (a full artifact list is a few hundred
/// bytes); a longer line is answered with an `error` and its
/// connection closed.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Pause after a failed `accept`, so a persistent error such as
/// `EMFILE` cannot spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Accepts connections until the stop flag is set, one thread each.
fn accept_loop(
    listener: &TcpListener,
    addr: SocketAddr,
    dispatcher: &Arc<Dispatcher>,
    stop: &Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match stream {
            Ok(stream) => {
                let dispatcher = Arc::clone(dispatcher);
                let stop = Arc::clone(stop);
                // A failed spawn drops `stream`, closing the connection.
                let _ = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || serve_connection(stream, &dispatcher, &stop, addr));
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Sets the stop flag, then wakes the accept loop blocked on `addr`
/// with a throwaway connection so it sees the flag.
fn request_stop(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::SeqCst);
    let mut wake = addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    // Refused once the loop has already exited; either way it is done.
    let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
}

/// What [`read_line_capped`] found.
enum Line {
    /// A line (newline stripped) is in the buffer.
    Read,
    /// The peer closed the connection.
    Eof,
    /// The line runs past [`MAX_LINE_BYTES`].
    TooLong,
}

/// Reads one line into `buf`, never buffering more than
/// [`MAX_LINE_BYTES`] + 1 bytes of it.
fn read_line_capped(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Line> {
    buf.clear();
    let limit = MAX_LINE_BYTES as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(Line::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        return Ok(Line::TooLong);
    }
    Ok(Line::Read)
}

/// One connection: reader loop on the calling thread, writer thread
/// serializing all outbound lines, a forwarder thread per request.
fn serve_connection(
    stream: TcpStream,
    dispatcher: &Arc<Dispatcher>,
    stop: &Arc<AtomicBool>,
    listener_addr: SocketAddr,
) {
    // `ack` and `result` are two writes: without NODELAY the second
    // waits out the peer's delayed ACK of the first.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let (out, outbox) = channel::<String>();
    let mut write_half = stream;
    let Ok(writer) = std::thread::Builder::new()
        .name("serve-write".to_string())
        .spawn(move || {
            // Exits when every sender (reader + forwarders) is gone or
            // the peer stops reading.
            for line in outbox {
                if write_half.write_all(line.as_bytes()).is_err() || write_half.flush().is_err() {
                    return;
                }
            }
            // FIN after the last line: closing with unread input (an
            // over-long line) sends RST, which would turn the peer's
            // end-of-stream into a connection reset.
            let _ = write_half.shutdown(Shutdown::Write);
        })
    else {
        return;
    };

    let mut reader = BufReader::new(read_half);
    let mut buf = Vec::new();
    loop {
        match read_line_capped(&mut reader, &mut buf) {
            Ok(Line::Read) => {}
            Ok(Line::TooLong) => {
                send(
                    &out,
                    &ServerMessage::Error {
                        id: String::new(),
                        message: format!(
                            "request line exceeds the {MAX_LINE_BYTES}-byte cap; closing the connection"
                        ),
                    },
                );
                break;
            }
            Ok(Line::Eof) | Err(_) => break,
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        match ClientMessage::parse(line) {
            Err(message) => send(
                &out,
                &ServerMessage::Error {
                    id: String::new(),
                    message,
                },
            ),
            Ok(ClientMessage::Stats) => send(
                &out,
                &ServerMessage::Stats {
                    stats: dispatcher.full_stats(),
                },
            ),
            Ok(ClientMessage::Shutdown) => {
                request_stop(stop, listener_addr);
                break;
            }
            Ok(ClientMessage::Request(request)) => match dispatcher.submit(&request) {
                Err(message) => send(
                    &out,
                    &ServerMessage::Error {
                        id: request.id,
                        message,
                    },
                ),
                Ok(handle) => {
                    send(
                        &out,
                        &ServerMessage::Ack {
                            id: request.id.clone(),
                            fingerprint: format!("{:016x}", handle.fingerprint),
                        },
                    );
                    spawn_forwarder(request.id, handle, out.clone());
                }
            },
        }
    }
    drop(out);
    let _ = writer.join();
}

/// Pumps one job's events into the connection's outbox until `Done`,
/// on a thread of its own when one can be spawned.
fn spawn_forwarder(id: String, handle: JobHandle, out: Sender<String>) {
    spawn_or_run("serve-job".to_string(), move || {
        for event in handle.events {
            match event {
                JobEvent::Progress(p) => send(
                    &out,
                    &ServerMessage::Progress {
                        id: id.clone(),
                        artifact: p.artifact,
                        outcome: p.outcome,
                        dur_ns: p.dur_ns,
                    },
                ),
                JobEvent::Done(Ok(artifacts)) => {
                    send(&out, &ServerMessage::Result { id, artifacts });
                    return;
                }
                JobEvent::Done(Err(message)) => {
                    send(&out, &ServerMessage::Error { id, message });
                    return;
                }
            }
        }
    });
}

fn send(out: &Sender<String>, message: &ServerMessage) {
    // A closed outbox means the connection is gone; nothing to do.
    let _ = out.send(message.to_line());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn lines_of(input: Vec<u8>) -> Vec<Result<usize, &'static str>> {
        let mut reader = Cursor::new(input);
        let mut buf = Vec::new();
        let mut got = Vec::new();
        loop {
            match read_line_capped(&mut reader, &mut buf).expect("in-memory read") {
                Line::Read => got.push(Ok(buf.len())),
                Line::TooLong => return [got, vec![Err("too long")]].concat(),
                Line::Eof => return got,
            }
        }
    }

    #[test]
    fn the_line_cap_admits_exactly_max_line_bytes() {
        let mut at_cap = vec![b'x'; MAX_LINE_BYTES];
        at_cap.extend_from_slice(b"\nab\r\nlast");
        assert_eq!(lines_of(at_cap), [Ok(MAX_LINE_BYTES), Ok(2), Ok(4)]);

        let mut over = vec![b'x'; MAX_LINE_BYTES + 1];
        over.push(b'\n');
        assert_eq!(lines_of(over), [Err("too long")]);
    }
}
