//! The load generator's HTTP/1.1 client: one keep-alive connection per
//! client thread, `TCP_NODELAY` on, and each request sent in one write.
//!
//! Both matter. A request head written in several pieces on a socket
//! with Nagle's algorithm on waits for the server's delayed ACK before the
//! rest leaves, which adds about 40 ms to every request.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A complete response: status and decoded body.
#[derive(Debug, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// The complete bytes of a `POST` with a body, ready for one write.
pub fn post(path: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The complete bytes of a `GET`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` on; a read waiting longer than
    /// `timeout` fails with `TimedOut`/`WouldBlock`.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Sends one request (one write) and reads its whole response.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Response> {
        self.writer.write_all(request)?;
        read_response(&mut self.reader)
    }
}

fn read_line(r: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_owned())
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_owned())
}

/// Reads one response: status line, headers, then a `Content-Length` or
/// chunked body.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Response> {
    let status_line = read_line(r)?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed("bad status line"))?;
    let mut length = None;
    let mut chunked = false;
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed("bad header"))?;
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| malformed("bad length"))?,
            );
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value.eq_ignore_ascii_case("chunked");
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            let size_line = read_line(r)?;
            let size = usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
                .map_err(|_| malformed("bad chunk size"))?;
            if size == 0 {
                // Trailer section ends with an empty line.
                while !read_line(r)?.is_empty() {}
                break;
            }
            let start = body.len();
            body.resize(start + size, 0);
            r.read_exact(&mut body[start..])?;
            if !read_line(r)?.is_empty() {
                return Err(malformed("chunk not followed by CRLF"));
            }
        }
    } else if let Some(n) = length {
        body.resize(n, 0);
        r.read_exact(&mut body)?;
    }
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn reads_a_fixed_length_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloHTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n";
        let mut r = Cursor::new(&raw[..]);
        assert_eq!(
            read_response(&mut r).unwrap(),
            Response {
                status: 200,
                body: b"hello".to_vec()
            }
        );
        assert_eq!(read_response(&mut r).unwrap().status, 404);
    }

    #[test]
    fn reads_a_chunked_response() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\na\r\n0123456789\r\n0\r\n\r\n";
        let resp = read_response(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(resp.body, b"abc0123456789".to_vec());
    }

    #[test]
    fn truncated_responses_are_errors() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc";
        assert!(read_response(&mut Cursor::new(&raw[..])).is_err());
    }

    #[test]
    fn a_request_is_one_buffer_the_server_parses() {
        let bytes = post("/v1/certain", "application/json", "{\"q\":1}");
        let mut r = Cursor::new(bytes);
        match gdx_server::http::read_request(&mut r).unwrap() {
            gdx_server::http::ReadOutcome::Request(req) => {
                assert_eq!(req.path, "/v1/certain");
                assert_eq!(req.body, b"{\"q\":1}".to_vec());
            }
            _ => panic!("request did not parse"),
        }
    }

    /// The generator's soundness check against a real socket: a
    /// keep-alive round trip must not pay a Nagle/delayed-ACK stall.
    #[test]
    fn keep_alive_round_trips_are_fast() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for _ in 0..20 {
                match gdx_server::http::read_request(&mut reader).unwrap() {
                    gdx_server::http::ReadOutcome::Request(_) => {}
                    _ => return,
                }
                writer
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .unwrap();
            }
        });
        let mut conn = Conn::connect(addr, Duration::from_secs(5)).unwrap();
        let request = post("/x", "application/json", "{}");
        let mut times = Vec::new();
        for _ in 0..20 {
            let start = std::time::Instant::now();
            assert_eq!(conn.send(&request).unwrap().body, b"ok".to_vec());
            times.push(start.elapsed());
        }
        server.join().unwrap();
        times.sort();
        assert!(
            times[10] < Duration::from_millis(20),
            "median {:?}",
            times[10]
        );
    }
}
