//! A blocking client for the serving protocol: one connection, typed
//! request/response helpers. Backs `utk client` and the integration
//! tests/benches.

use std::io::{BufRead, BufReader, Write};

use crate::proto::{MetricsFormat, ProtoError, Request, Response};
use crate::server::{connect, Bind, Stream};

/// One open connection to a `utk serve` instance.
pub struct Connection {
    reader: BufReader<Stream>,
    writer: Stream,
}

/// The outcome of a `batch` request.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchReply {
    /// One wire/error line per query, in input order — byte-identical
    /// to `utk batch` output for the same file.
    Lines(Vec<String>),
    /// The server shed or rejected the whole batch.
    Rejected(ProtoError),
}

fn bad_reply(e: ProtoError) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("malformed server response: {e}"),
    )
}

impl Connection {
    /// Connects to a server.
    pub fn connect(bind: &Bind) -> std::io::Result<Connection> {
        let stream = connect(bind)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Connection {
            reader,
            writer: stream,
        })
    }

    /// Sends one raw request line and reads one raw response line.
    ///
    /// The line and its newline go out in one write: a server that
    /// refused the connection (a `busy` line, then close) answers the
    /// first write with a reset, and a second write would fail with
    /// `BrokenPipe` before the refusal could be read.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        self.writer.flush()?;
        self.read_line()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Sends a typed request and parses the (first) response line.
    pub fn request(&mut self, request: &Request) -> std::io::Result<Response> {
        let line = self.round_trip(&request.to_json())?;
        Response::parse(&line).map_err(bad_reply)
    }

    /// Scrapes the server's metrics registry, returning the exposition
    /// body (Prometheus text or its JSON twin, per `format`).
    pub fn metrics(&mut self, format: MetricsFormat) -> std::io::Result<String> {
        match self.request(&Request::Metrics { format })? {
            Response::Metrics { body, .. } => Ok(body),
            Response::Error(e) => Err(std::io::Error::other(format!("server error: {e}"))),
            other => Err(bad_reply(ProtoError::bad_request(format!(
                "expected a metrics body, got {}",
                other.to_json()
            )))),
        }
    }

    /// Runs a whole query file (its lines verbatim) against `dataset`.
    pub fn batch(&mut self, dataset: &str, file_text: &str) -> std::io::Result<BatchReply> {
        let request = Request::Batch {
            dataset: dataset.to_string(),
            queries: file_text.lines().map(str::to_string).collect(),
        };
        match self.request(&request)? {
            Response::BatchHeader { count, .. } => {
                let mut lines = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    lines.push(self.read_line()?);
                }
                Ok(BatchReply::Lines(lines))
            }
            Response::Error(e) => Ok(BatchReply::Rejected(e)),
            other => Err(bad_reply(ProtoError::bad_request(format!(
                "expected a batch header, got {}",
                other.to_json()
            )))),
        }
    }
}
