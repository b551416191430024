//! The load generator's own HTTP client: one blocking keep-alive
//! connection over `std::net::TcpStream` that posts a generate request and
//! stamps the arrival of every NDJSON line of the chunked reply.
//!
//! It shares no code with the server's `net` module on purpose: the
//! program's wire code is what is being measured (and what later changes
//! will touch), so the generator must not move with it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use serde::Value;

/// Longest a single read may block; far above any reply gap of a healthy
/// run, so hitting it is a failure, not a measurement.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One streamed reply, as the client saw it.
#[derive(Debug)]
pub struct Reply {
    /// Just before the first request byte was written.
    pub sent: Instant,
    pub status: u16,
    /// Arrival of each `{"token": n}` line, with the token.
    pub tokens: Vec<(Instant, u32)>,
    /// `(outcome, tokens)` of the closing `{"done": ...}` line.
    pub done: Option<(String, Vec<u32>)>,
    /// After the chunked terminator was read.
    pub finished: Instant,
}

pub struct Client {
    stream: TcpStream,
    /// Bytes read from the socket and not yet consumed.
    buf: Vec<u8>,
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(8192),
        })
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 8192];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("connection closed mid-reply".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Consumes and returns bytes up to and excluding `pattern`.
    fn take_until(&mut self, pattern: &[u8]) -> Result<Vec<u8>, String> {
        loop {
            if let Some(pos) = find(&self.buf, pattern) {
                let head = self.buf[..pos].to_vec();
                self.buf.drain(..pos + pattern.len());
                return Ok(head);
            }
            self.fill()?;
        }
    }

    fn take_exact(&mut self, n: usize) -> Result<Vec<u8>, String> {
        while self.buf.len() < n {
            self.fill()?;
        }
        let out = self.buf[..n].to_vec();
        self.buf.drain(..n);
        Ok(out)
    }

    /// Posts `body` to `/generate` and reads the whole reply, stamping each
    /// line as its chunk completes. A non-chunked reply (an error status)
    /// is read and returned with no tokens.
    pub fn generate(&mut self, body: &str) -> Result<Reply, String> {
        let request = format!(
            "POST /generate HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let sent = Instant::now();
        self.stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))?;

        let head = self.take_until(b"\r\n\r\n")?;
        let head = String::from_utf8(head).map_err(|_| "reply head is not utf-8".to_string())?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in `{head}`"))?;
        let header = |name: &str| {
            head.split("\r\n").skip(1).find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
            })
        };
        let mut reply = Reply {
            sent,
            status,
            tokens: Vec::new(),
            done: None,
            finished: sent,
        };
        if !header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
            let len: usize = header("content-length")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            self.take_exact(len)?;
            reply.finished = Instant::now();
            return Ok(reply);
        }
        loop {
            let size_line = self.take_until(b"\r\n")?;
            let size = std::str::from_utf8(&size_line)
                .ok()
                .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
                .ok_or_else(|| "bad chunk size".to_string())?;
            if size == 0 {
                self.take_until(b"\r\n")?;
                reply.finished = Instant::now();
                return Ok(reply);
            }
            let payload = self.take_exact(size + 2)?;
            let at = Instant::now();
            let text = std::str::from_utf8(&payload[..size])
                .map_err(|_| "chunk is not utf-8".to_string())?;
            for line in text.lines().filter(|l| !l.is_empty()) {
                parse_line(line, at, &mut reply)?;
            }
        }
    }
}

fn parse_line(line: &str, at: Instant, reply: &mut Reply) -> Result<(), String> {
    if let Some(tok) = line
        .strip_prefix("{\"token\":")
        .and_then(|r| r.strip_suffix('}'))
    {
        let tok = tok
            .trim()
            .parse()
            .map_err(|_| format!("bad token line `{line}`"))?;
        reply.tokens.push((at, tok));
        return Ok(());
    }
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad line `{line}`: {e}"))?;
    if !matches!(v.get_field("done"), Ok(Value::Bool(true))) {
        return Err(format!("unexpected line `{line}`"));
    }
    let outcome = match v.get_field("outcome") {
        Ok(Value::Str(s)) => s.clone(),
        _ => return Err(format!("done line without outcome: `{line}`")),
    };
    let tokens = match v.get_field("tokens") {
        Ok(Value::Arr(items)) => items
            .iter()
            .map(|t| match t {
                Value::Num(n) => n.as_u64().and_then(|t| u32::try_from(t).ok()),
                _ => None,
            })
            .collect::<Option<Vec<u32>>>()
            .ok_or_else(|| format!("bad tokens in `{line}`"))?,
        _ => return Err(format!("done line without tokens: `{line}`")),
    };
    reply.done = Some((outcome, tokens));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn blank_reply() -> Reply {
        let now = Instant::now();
        Reply {
            sent: now,
            status: 200,
            tokens: Vec::new(),
            done: None,
            finished: now,
        }
    }

    #[test]
    fn token_and_done_lines_parse() {
        let mut r = blank_reply();
        let at = Instant::now();
        parse_line("{\"token\":17}", at, &mut r).unwrap();
        parse_line(
            "{\"done\":true,\"id\":3,\"outcome\":\"done\",\"tokens\":[17,4]}",
            at,
            &mut r,
        )
        .unwrap();
        assert_eq!(r.tokens.iter().map(|t| t.1).collect::<Vec<_>>(), [17]);
        assert_eq!(r.done, Some(("done".to_string(), vec![17, 4])));
        assert!(parse_line("{\"error\":\"timeout\"}", at, &mut r).is_err());
    }

    /// A canned server: the chunk reader must cope with chunks split across
    /// reads, several lines per read, and a second request on the same
    /// connection.
    #[test]
    fn chunked_reply_is_read_line_by_line_over_keep_alive() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            for _ in 0..2 {
                let mut got = Vec::new();
                let mut b = [0u8; 1024];
                while !got.ends_with(b"{}") {
                    let n = s.read(&mut b).unwrap();
                    got.extend_from_slice(&b[..n]);
                }
                s.write_all(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nc\r\n{\"tok")
                    .unwrap();
                s.flush().unwrap();
                std::thread::sleep(Duration::from_millis(5));
                s.write_all(b"en\":5}\n\r\nc\r\n{\"token\":6}\n\r\n")
                    .unwrap();
                let done = "{\"done\":true,\"id\":0,\"outcome\":\"done\",\"tokens\":[5,6]}\n";
                write!(s, "{:x}\r\n{done}\r\n0\r\n\r\n", done.len()).unwrap();
            }
        });
        let mut c = Client::connect(addr).unwrap();
        for _ in 0..2 {
            let r = c.generate("{}").unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(r.tokens.iter().map(|t| t.1).collect::<Vec<_>>(), [5, 6]);
            assert!(r.tokens[0].0 <= r.tokens[1].0 && r.tokens[1].0 <= r.finished);
            assert_eq!(r.done.as_ref().unwrap().1, [5, 6]);
        }
        server.join().unwrap();
    }
}
