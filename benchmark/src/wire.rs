//! One client connection to a server under test, split into the four
//! steps a traced run puts spans around: encode, write, wait, decode.
//!
//! The binary protocol goes through `faascache_server::proto`'s public
//! codec. The HTTP side writes requests the way `HttpClient` does and
//! reads responses with a small `Content-Length` reader of its own,
//! because `HttpClient` offers no seam between waiting and decoding.

use faascache_platform::sharded::InvokeOutcome;
use faascache_server::proto::{self, Request, Response};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

/// Where a server listens.
#[derive(Debug, Clone)]
pub enum Target {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    Binary,
    Http,
}

/// A function the harness registers on the servers before invoking it.
#[derive(Debug, Clone)]
pub struct FunctionDef {
    pub name: String,
    pub mem_mb: u32,
    pub warm_us: u64,
    pub cold_us: u64,
    pub tenant: String,
}

/// One request of a workload.
#[derive(Debug, Clone)]
pub enum Call {
    Invoke(u32),
    Register(FunctionDef),
    Ping,
    Shutdown,
    Metrics,
}

/// A decoded reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Outcome(InvokeOutcome),
    Registered { function: u32, created: bool },
    Pong,
    ShutdownStarted,
    Metrics(String),
}

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

pub struct Conn {
    stream: Stream,
    proto: Proto,
    /// HTTP bytes read past the previous response.
    rbuf: Vec<u8>,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Conn {
    /// Connects with a read timeout, so a lost reply is a failed request
    /// and not a hung run.
    pub fn connect(target: &Target, proto: Proto) -> io::Result<Conn> {
        let timeout = Some(Duration::from_secs(5));
        let stream = match target {
            Target::Unix(path) => {
                let s = UnixStream::connect(path)?;
                s.set_read_timeout(timeout)?;
                Stream::Unix(s)
            }
            Target::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(timeout)?;
                Stream::Tcp(s)
            }
        };
        Ok(Conn {
            stream,
            proto,
            rbuf: Vec::new(),
        })
    }

    /// A second handle on the same connection, so one thread can write
    /// while another reads. Only one of the two may call [`Self::recv`].
    pub fn try_clone(&self) -> io::Result<Conn> {
        Ok(Conn {
            stream: match &self.stream {
                Stream::Unix(s) => Stream::Unix(s.try_clone()?),
                Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            },
            proto: self.proto,
            rbuf: Vec::new(),
        })
    }

    /// The bytes `call` puts on the wire.
    pub fn encode(&self, call: &Call) -> io::Result<Vec<u8>> {
        match self.proto {
            Proto::Binary => {
                let request = match call {
                    Call::Invoke(function) => Request::Invoke {
                        function: *function,
                    },
                    Call::Register(def) => Request::Register {
                        name: def.name.clone(),
                        mem_mb: def.mem_mb,
                        warm_us: def.warm_us,
                        cold_us: def.cold_us,
                        tenant: def.tenant.clone(),
                    },
                    Call::Ping => Request::Ping,
                    Call::Shutdown => Request::Shutdown,
                    Call::Metrics => return Err(invalid("metrics is an http route")),
                };
                let mut framed = Vec::with_capacity(16);
                proto::write_frame(&mut framed, &request.encode())?;
                Ok(framed)
            }
            Proto::Http => {
                let (method, path) = match call {
                    Call::Invoke(function) => ("POST", format!("/invoke/{function}")),
                    Call::Register(def) => {
                        let mut path = format!(
                            "/functions/{}?mem_mb={}&warm_us={}&cold_us={}",
                            def.name, def.mem_mb, def.warm_us, def.cold_us
                        );
                        if !def.tenant.is_empty() {
                            path.push_str("&tenant=");
                            path.push_str(&def.tenant);
                        }
                        ("PUT", path)
                    }
                    Call::Ping => ("GET", "/healthz".to_string()),
                    Call::Metrics => ("GET", "/metrics".to_string()),
                    Call::Shutdown => return Err(invalid("shutdown is a binary request")),
                };
                Ok(format!(
                    "{method} {path} HTTP/1.1\r\nHost: faascached\r\nContent-Length: 0\r\n\r\n"
                )
                .into_bytes())
            }
        }
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Blocks until one whole reply has arrived and returns it undecoded:
    /// a frame payload, or an HTTP response head and body.
    pub fn recv(&mut self) -> io::Result<Vec<u8>> {
        match self.proto {
            Proto::Binary => proto::read_frame(&mut self.stream)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")),
            Proto::Http => loop {
                if let Some(total) = http_response_len(&self.rbuf)? {
                    if self.rbuf.len() >= total {
                        let rest = self.rbuf.split_off(total);
                        return Ok(std::mem::replace(&mut self.rbuf, rest));
                    }
                }
                let mut chunk = [0u8; 4096];
                match self.stream.read(&mut chunk)? {
                    0 => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed mid-response",
                        ))
                    }
                    n => self.rbuf.extend_from_slice(&chunk[..n]),
                }
            },
        }
    }

    pub fn decode(&self, call: &Call, raw: &[u8]) -> io::Result<Reply> {
        match self.proto {
            Proto::Binary => match Response::decode(raw)? {
                Response::Invoked(outcome) => Ok(Reply::Outcome(outcome)),
                Response::Registered { function, created } => {
                    Ok(Reply::Registered { function, created })
                }
                Response::Pong => Ok(Reply::Pong),
                Response::ShutdownStarted => Ok(Reply::ShutdownStarted),
                other => Err(invalid(format!("unexpected response {other:?}"))),
            },
            Proto::Http => decode_http(call, raw),
        }
    }

    /// All four steps at once, for set-up and checks outside timed code.
    pub fn call(&mut self, call: &Call) -> io::Result<Reply> {
        let bytes = self.encode(call)?;
        self.send(&bytes)?;
        let raw = self.recv()?;
        self.decode(call, &raw)
    }
}

/// Total length (head plus body) of the HTTP response starting `buf`,
/// once its head is complete.
fn http_response_len(buf: &[u8]) -> io::Result<Option<usize>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        if buf.len() > 16 * 1024 {
            return Err(invalid("http response head exceeds 16 KiB"));
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-utf8 head"))?;
    let body_len = head
        .lines()
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .map_or(Ok(0), |(_, v)| v.trim().parse::<usize>())
        .map_err(|_| invalid("bad content-length"))?;
    if body_len > 1024 * 1024 {
        return Err(invalid("http response body exceeds 1 MiB"));
    }
    Ok(Some(head_end + 4 + body_len))
}

fn decode_http(call: &Call, raw: &[u8]) -> io::Result<Reply> {
    let text = std::str::from_utf8(raw).map_err(|_| invalid("non-utf8 response"))?;
    let status: u16 = text
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("no status code"))?;
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    match call {
        Call::Invoke(_) => match status {
            200 if body.contains("\"outcome\":\"warm\"") => Ok(InvokeOutcome::Warm),
            200 if body.contains("\"outcome\":\"cold\"") => Ok(InvokeOutcome::Cold),
            429 if body.contains("\"outcome\":\"throttled\"") => Ok(InvokeOutcome::Throttled),
            429 if body.contains("\"outcome\":\"dropped\"") => Ok(InvokeOutcome::Dropped),
            503 if body.contains("\"outcome\":\"rejected\"") => Ok(InvokeOutcome::Rejected),
            other => Err(invalid(format!("invoke answered {other}: {}", body.trim()))),
        }
        .map(Reply::Outcome),
        Call::Register(_) if status == 200 => {
            let function = body
                .split_once("\"function\":")
                .map(|(_, rest)| rest.trim_start())
                .and_then(|rest| {
                    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                    digits.parse().ok()
                })
                .ok_or_else(|| invalid("register reply has no function index"))?;
            Ok(Reply::Registered {
                function,
                created: body.contains("\"created\":true"),
            })
        }
        Call::Ping if status == 200 => Ok(Reply::Pong),
        Call::Metrics if status == 200 => Ok(Reply::Metrics(body.to_string())),
        _ => Err(invalid(format!(
            "{call:?} answered {status}: {}",
            body.trim()
        ))),
    }
}

/// Value text of the sample `series` (name plus labels, exactly as
/// exposed) in a Prometheus text body. Text, because a 64-bit registry
/// digest does not survive a trip through `f64`.
pub fn metric_text<'a>(body: &'a str, series: &str) -> Option<&'a str> {
    body.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .map(str::trim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_response_length_needs_a_complete_head() {
        assert_eq!(
            http_response_len(b"HTTP/1.1 200 OK\r\nContent-").unwrap(),
            None
        );
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloNEXT";
        assert_eq!(http_response_len(full).unwrap(), Some(full.len() - 4));
        assert!(http_response_len(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
    }

    #[test]
    fn http_invoke_outcomes_decode_by_status_and_label() {
        let call = Call::Invoke(3);
        let reply = |status: &str, label: &str| {
            let body = format!("{{\"function\":3,\"outcome\":\"{label}\"}}\n");
            let raw = format!(
                "HTTP/1.1 {status}\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            decode_http(&call, raw.as_bytes())
        };
        assert_eq!(
            reply("200 OK", "warm").unwrap(),
            Reply::Outcome(InvokeOutcome::Warm)
        );
        assert_eq!(
            reply("429 Too Many Requests", "throttled").unwrap(),
            Reply::Outcome(InvokeOutcome::Throttled)
        );
        assert_eq!(
            reply("429 Too Many Requests", "dropped").unwrap(),
            Reply::Outcome(InvokeOutcome::Dropped)
        );
        // A wrong outcome kind for the status is a failure, not an outcome.
        assert!(reply("200 OK", "dropped").is_err());
        assert!(reply("500 Internal Server Error", "warm").is_err());
    }

    #[test]
    fn prometheus_samples_are_matched_with_their_labels() {
        let body = "# HELP x\nfaascache_requests_total{outcome=\"warm\"} 41\n\
                    faascache_requests_total{outcome=\"warm\",tenant=\"a\"} 7\n\
                    faascache_registry_digest 123456789\n";
        assert_eq!(
            metric_text(body, "faascache_requests_total{outcome=\"warm\"}"),
            Some("41")
        );
        assert_eq!(
            metric_text(body, "faascache_registry_digest"),
            Some("123456789")
        );
        assert_eq!(metric_text(body, "faascache_missing"), None);
    }
}
