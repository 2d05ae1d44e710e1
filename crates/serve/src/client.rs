//! A small blocking client for the `seugrade-serve/v1` protocol —
//! everything `repro -- submit/status/cancel`, the test suites and the
//! multi-tenant bench harness need.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::json::{self, Value};
use crate::proto::JobSpec;

/// What a protocol exchange can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, unexpected EOF).
    Io(io::Error),
    /// The server spoke, but not the protocol we expected.
    Protocol(String),
    /// A structured error response: the request line number the server
    /// attributed it to, plus its message.
    Server {
        /// 1-based request line number on this connection.
        line: usize,
        /// The server's failure message.
        msg: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server { line, msg } => {
                write!(f, "server rejected request line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Sends one raw request line and returns the parsed response
    /// value (with `ok:true` already verified).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for structured rejections, otherwise
    /// transport/protocol failures.
    pub fn request_line(&mut self, line: &str) -> Result<Value, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Value, ClientError> {
        let line = self.read_line()?;
        let v = json::parse(line.trim_end())
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
        match v.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(v),
            Some(false) => {
                let err = v.get("error");
                Err(ClientError::Server {
                    line: err
                        .and_then(|e| e.get("line"))
                        .and_then(Value::as_usize)
                        .unwrap_or(0),
                    msg: err
                        .and_then(|e| e.get("msg"))
                        .and_then(Value::as_str)
                        .unwrap_or("unspecified error")
                        .to_owned(),
                })
            }
            None => Err(ClientError::Protocol(format!("response without ok field: {v:?}"))),
        }
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Ok(line)
    }

    fn cmd(&mut self, pairs: Vec<(&str, Value)>) -> Result<Value, ClientError> {
        self.request_line(&Value::obj(pairs).to_line())
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.cmd(vec![("cmd", Value::str("ping"))]).map(|_| ())
    }

    /// Submits a job; returns its id.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the spec is rejected.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<String, ClientError> {
        let v = self.cmd(vec![("cmd", Value::str("submit")), ("job", spec.to_value())])?;
        v.get("job")
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ClientError::Protocol("submit response without job id".to_owned()))
    }

    /// Snapshots one job (the response's `job` object).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for unknown ids.
    pub fn status(&mut self, job: &str) -> Result<Value, ClientError> {
        let v = self.cmd(vec![("cmd", Value::str("status")), ("job", Value::str(job))])?;
        v.get("job")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("status response without job".to_owned()))
    }

    /// Snapshots every job the daemon knows.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn list(&mut self) -> Result<Vec<Value>, ClientError> {
        let v = self.cmd(vec![("cmd", Value::str("list"))])?;
        Ok(v.get("jobs").and_then(Value::as_arr).unwrap_or_default().to_vec())
    }

    /// Cancels a job cooperatively.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for unknown or already-done jobs.
    pub fn cancel(&mut self, job: &str) -> Result<Value, ClientError> {
        self.cmd(vec![("cmd", Value::str("cancel")), ("job", Value::str(job))])
    }

    /// Re-enqueues a cancelled/failed job.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the job is not resumable.
    pub fn resume(&mut self, job: &str) -> Result<Value, ClientError> {
        self.cmd(vec![("cmd", Value::str("resume")), ("job", Value::str(job))])
    }

    /// Asks the daemon to stop gracefully.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.cmd(vec![("cmd", Value::str("shutdown"))]).map(|_| ())
    }

    /// Polls `status` until the job reaches a terminal state; returns
    /// the final snapshot.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] on timeout, otherwise as `status`.
    pub fn wait(&mut self, job: &str, timeout: Duration) -> Result<Value, ClientError> {
        let start = Instant::now();
        loop {
            let snapshot = self.status(job)?;
            if let Some("done" | "cancelled" | "failed") =
                snapshot.get("state").and_then(Value::as_str)
            {
                return Ok(snapshot);
            }
            if start.elapsed() > timeout {
                return Err(ClientError::Protocol(format!(
                    "job {job} still not terminal after {timeout:?}"
                )));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Subscribes to a job's event stream, invoking `on_event` per
    /// event line, and returns the terminal event
    /// (`done`/`cancelled`/`failed`).
    ///
    /// # Errors
    ///
    /// Transport failures, or [`ClientError::Io`] with
    /// `UnexpectedEof` when the daemon shuts down mid-stream.
    pub fn stream(
        &mut self,
        job: &str,
        mut on_event: impl FnMut(&Value),
    ) -> Result<Value, ClientError> {
        self.cmd(vec![("cmd", Value::str("stream")), ("job", Value::str(job))])?;
        loop {
            let line = self.read_line()?;
            let v = json::parse(line.trim_end())
                .map_err(|e| ClientError::Protocol(format!("unparseable event: {e}")))?;
            on_event(&v);
            if matches!(
                v.get("event").and_then(Value::as_str),
                Some("done" | "cancelled" | "failed")
            ) {
                return Ok(v);
            }
        }
    }
}
