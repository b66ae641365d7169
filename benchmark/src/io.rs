//! The in-memory client of `serve_ndjson`: a reader that hands out exactly
//! one request line per `fill_buf` and stamps the hand-out, and a writer that
//! stamps each `flush`. Request latency is flush stamp − hand-out stamp, so
//! it covers everything the daemon does between taking a line and having
//! flushed its reply, and nothing the load generator does.

use crate::trace::Tracer;
use std::io::{BufRead, Read, Write};
use std::time::Instant;

/// Hands out `lines[order[i]]` one per `fill_buf`. `serve_ndjson` consumes a
/// line up to its newline before it asks again, so one hand-out is one
/// request; a final line without a newline is still handed out whole.
pub struct StampingReader<'a> {
    lines: &'a [Vec<u8>],
    order: &'a [u32],
    next: usize,
    /// Unconsumed rest of the line handed out last.
    rest: &'a [u8],
    pub sent: Vec<Instant>,
    tracer: Option<&'a Tracer>,
}

impl<'a> StampingReader<'a> {
    pub fn new(
        lines: &'a [Vec<u8>],
        order: &'a [u32],
        tracer: Option<&'a Tracer>,
    ) -> StampingReader<'a> {
        StampingReader {
            lines,
            order,
            next: 0,
            rest: &[],
            sent: Vec::with_capacity(order.len()),
            tracer,
        }
    }
}

impl Read for StampingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.fill_buf()?;
        let n = chunk.len().min(buf.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for StampingReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.rest.is_empty() && self.next < self.order.len() {
            self.rest = &self.lines[self.order[self.next] as usize];
            if let Some(t) = self.tracer {
                t.begin_root("serve.request", self.next as u64);
            }
            self.next += 1;
            self.sent.push(Instant::now());
        }
        Ok(self.rest)
    }

    fn consume(&mut self, amt: usize) {
        self.rest = &self.rest[amt.min(self.rest.len())..];
    }
}

/// Collects the reply bytes and stamps every `flush` (one per reply).
pub struct StampingWriter<'a> {
    pub bytes: Vec<u8>,
    pub flushed: Vec<Instant>,
    tracer: Option<&'a Tracer>,
}

impl<'a> StampingWriter<'a> {
    pub fn new(requests: usize, tracer: Option<&'a Tracer>) -> StampingWriter<'a> {
        StampingWriter {
            bytes: Vec::with_capacity(requests * 48),
            flushed: Vec::with_capacity(requests),
            tracer,
        }
    }
}

impl Write for StampingWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushed.push(Instant::now());
        if let Some(t) = self.tracer {
            t.end_root();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(raw: &[&str]) -> Vec<Vec<u8>> {
        raw.iter().map(|l| l.as_bytes().to_vec()).collect()
    }

    #[test]
    fn one_line_per_fill_buf_including_a_final_unterminated_line() {
        let lines = lines(&["first\n", "second\n", "tail-without-newline"]);
        let order = [1u32, 0, 2];
        let mut r = StampingReader::new(&lines, &order, None);

        // Asking again without consuming hands out the same line, unstamped.
        assert_eq!(r.fill_buf().unwrap(), b"second\n");
        assert_eq!(r.fill_buf().unwrap(), b"second\n");
        assert_eq!(r.sent.len(), 1);
        // A partial consume leaves the rest of the same line.
        r.consume(3);
        assert_eq!(r.fill_buf().unwrap(), b"ond\n");
        assert_eq!(r.sent.len(), 1);
        r.consume(4);

        assert_eq!(r.fill_buf().unwrap(), b"first\n");
        assert_eq!(r.sent.len(), 2);
        r.consume(6);

        assert_eq!(r.fill_buf().unwrap(), b"tail-without-newline");
        assert_eq!(r.sent.len(), 3);
        r.consume(20);

        // End of stream: empty, and no further stamp.
        assert!(r.fill_buf().unwrap().is_empty());
        assert!(r.fill_buf().unwrap().is_empty());
        assert_eq!(r.sent.len(), 3);
        assert!(r.sent.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn read_line_sees_every_line_once() {
        let lines = lines(&["a\n", "bb\n", "ccc"]);
        let order = [0u32, 1, 2, 0];
        let mut r = StampingReader::new(&lines, &order, None);
        let mut got = Vec::new();
        loop {
            let mut s = String::new();
            if r.read_line(&mut s).unwrap() == 0 {
                break;
            }
            got.push(s);
        }
        // The unterminated line runs into the one after it, as in any stream.
        assert_eq!(got, ["a\n", "bb\n", "ccca\n"]);
        assert_eq!(r.sent.len(), 4);
    }

    #[test]
    fn writer_stamps_each_flush() {
        let mut w = StampingWriter::new(2, None);
        w.write_all(b"reply-1").unwrap();
        w.write_all(b"\n").unwrap();
        w.flush().unwrap();
        w.write_all(b"reply-2\n").unwrap();
        w.flush().unwrap();
        assert_eq!(w.flushed.len(), 2);
        assert_eq!(w.bytes, b"reply-1\nreply-2\n");
    }
}
