//! A minimal blocking client for the line-JSON daemon.
//!
//! [`Client::connect`] dials the address a [`crate::server::Server`]
//! reports (`host:port` TCP, or `unix:<path>`); [`Client::call`] writes
//! one request line and blocks for the matching reply line. The client
//! is deliberately thin — one in-flight request per connection — because
//! the daemon's concurrency comes from *many connections* arriving
//! inside one admission window, which is exactly what the loadgen and
//! the round-trip test exercise.

use serde::Value;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;

enum Stream {
    Tcp {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    },
    #[cfg(unix)]
    Unix {
        reader: BufReader<UnixStream>,
        writer: UnixStream,
    },
}

/// One blocking connection to the daemon.
pub struct Client {
    stream: Stream,
}

impl Client {
    /// Connect to `addr`: a TCP `host:port`, or `unix:<path>`.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = if let Some(path) = addr.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                let writer = UnixStream::connect(path)?;
                let reader = BufReader::new(writer.try_clone()?);
                Stream::Unix { reader, writer }
            }
            #[cfg(not(unix))]
            {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!("unix sockets unsupported on this platform: {path}"),
                ));
            }
        } else {
            let writer = TcpStream::connect(addr)?;
            // One-line requests must leave immediately, not sit in a
            // Nagle buffer waiting for the previous reply's ACK.
            writer.set_nodelay(true)?;
            let reader = BufReader::new(writer.try_clone()?);
            Stream::Tcp { reader, writer }
        };
        Ok(Client { stream })
    }

    /// Send one request line (newline appended) without waiting for the
    /// reply. Pipelining: several `send`s followed by as many [`recv`]s
    /// puts the whole burst into one admission window; replies carry the
    /// request `id`, and within one connection arrive in an order
    /// consistent with the daemon's deterministic dispatch plan.
    ///
    /// [`recv`]: Client::recv
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let writer: &mut dyn Write = match &mut self.stream {
            Stream::Tcp { writer, .. } => writer,
            #[cfg(unix)]
            Stream::Unix { writer, .. } => writer,
        };
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()
    }

    /// Block for the next reply line.
    pub fn recv(&mut self) -> io::Result<String> {
        let mut reply = String::new();
        match &mut self.stream {
            Stream::Tcp { reader, .. } => reader.read_line(&mut reply)?,
            #[cfg(unix)]
            Stream::Unix { reader, .. } => reader.read_line(&mut reply)?,
        };
        if reply.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection without replying",
            ));
        }
        while reply.ends_with('\n') || reply.ends_with('\r') {
            reply.pop();
        }
        Ok(reply)
    }

    /// Send one request line and block for the reply line. The daemon
    /// answers every addressed request — including malformed ones — so a
    /// clean connection always gets a line back.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// [`Client::call`], then parse the reply: `Ok(result)` for
    /// `{"ok":true}` replies, `Err(message)` for `{"ok":false}` ones.
    /// I/O and protocol violations surface as `Err` too, so callers can
    /// treat every failure uniformly.
    pub fn request(&mut self, line: &str) -> Result<Value, String> {
        let reply = self.call(line).map_err(|e| format!("transport error: {e}"))?;
        let value = serde_json::from_str(&reply).map_err(|e| format!("bad reply JSON: {e}"))?;
        let Value::Object(mut entries) = value else {
            return Err("reply is not a JSON object".into());
        };
        // Move each field out of the parsed reply instead of copying it.
        let mut take = |name: &str| {
            entries.iter().position(|(key, _)| key == name).map(|i| entries.remove(i).1)
        };
        match take("ok") {
            Some(Value::Bool(true)) => take("result").ok_or_else(|| "reply missing result".into()),
            Some(Value::Bool(false)) => match take("error") {
                Some(Value::Str(message)) => Err(message),
                _ => Err("unspecified daemon error".into()),
            },
            _ => Err("reply missing \"ok\" field".into()),
        }
    }
}
