//! A minimal keep-alive HTTP/1.1 client: one socket, one request in
//! flight, responses framed by `Content-Length`.

use std::io::{Error, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    /// The server announced `Connection: close` on the last response.
    closed: bool,
}

fn invalid(what: &str) -> Error {
    Error::new(ErrorKind::InvalidData, what.to_string())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            addr,
            stream,
            buf: Vec::with_capacity(8192),
            closed: false,
        })
    }

    /// Sends one request and reads its response: `(status, body)`.
    /// Reconnects first when the server closed the previous exchange.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        if self.closed {
            *self = Self::connect(self.addr)?;
        }
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut out = Vec::with_capacity(head.len() + body.len());
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(body.as_bytes());
        self.stream.write_all(&out)?;

        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head =
            std::str::from_utf8(&self.buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut length = None;
        let mut close = false;
        for line in head.lines().skip(1) {
            if let Some((k, v)) = line.split_once(':') {
                let (k, v) = (k.trim(), v.trim());
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.parse::<usize>().ok();
                } else if k.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("close") {
                    close = true;
                }
            }
        }
        let length = length.ok_or_else(|| invalid("no Content-Length"))?;
        let start = head_end + 4;
        while self.buf.len() < start + length {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[start..start + length]).into_owned();
        self.buf.drain(..start + length);
        self.closed = close;
        Ok((status, body))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(Error::new(ErrorKind::UnexpectedEof, "connection closed")),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}
