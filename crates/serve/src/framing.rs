//! Newline framing for the wire protocol: one request per line.
//!
//! [`LineFramer`] keeps what the socket delivered in one buffer and hands
//! each complete line out as a slice of it, so a line is never copied on
//! its way to the decoder. It remembers how far it has already searched
//! for a `\n`, so every received byte is scanned once however the line was
//! split across reads — a line of N bytes costs O(N), not O(N² / read
//! size).

use std::io::{self, Read};

/// Bytes asked of the reader while no unterminated line is pending, so an
/// idle connection holds no more than this.
const FIRST_READ: usize = 4 * 1024;

/// The most bytes a connection asks of its socket per read. Reads double
/// from 4 KiB while a line stays unterminated, so a line of this many
/// bytes that arrives at once ends exactly on a read boundary.
pub const READ_CHUNK: usize = 64 * 1024;

/// Splits a byte stream into `\n`-terminated lines.
///
/// Received bytes live in `buf[start..end]`; `buf[start..scanned]` is
/// known to hold no `\n`. Lines handed out are consumed; the unterminated
/// tail moves to the front of the buffer before the next read, and each
/// byte moves at most once (after the line before it was consumed).
#[derive(Debug, Default)]
pub(crate) struct LineFramer {
    buf: Vec<u8>,
    start: usize,
    scanned: usize,
    end: usize,
    /// Bytes examined by the `\n` search, for the linear-scan test.
    #[cfg(test)]
    bytes_scanned: u64,
}

impl LineFramer {
    /// The next complete line without its `\n`, or `None` until more bytes
    /// arrive. A `\r` before the `\n` stays in the line.
    pub(crate) fn next_line(&mut self) -> Option<&[u8]> {
        let unscanned = &self.buf[self.scanned..self.end];
        let found = unscanned.iter().position(|&b| b == b'\n');
        #[cfg(test)]
        {
            self.bytes_scanned += found.map_or(unscanned.len(), |i| i + 1) as u64;
        }
        match found {
            Some(i) => {
                let (line_start, newline) = (self.start, self.scanned + i);
                self.start = newline + 1;
                self.scanned = self.start;
                Some(&self.buf[line_start..newline])
            }
            None => {
                self.scanned = self.end;
                None
            }
        }
    }

    /// Bytes received and not yet handed out: the unterminated tail once
    /// [`LineFramer::next_line`] has returned `None`.
    pub(crate) fn pending(&self) -> usize {
        self.end - self.start
    }

    /// One `read` from `src` into the buffer, of as many bytes as are
    /// pending (at least 4 KiB, at most [`READ_CHUNK`]); returns what the
    /// read returned (`Ok(0)` is end of stream).
    pub(crate) fn fill(&mut self, src: &mut impl Read) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.scanned -= self.start;
            self.end -= self.start;
            self.start = 0;
        }
        let want = self.pending().clamp(FIRST_READ, READ_CHUNK);
        if self.buf.len() < self.end + want {
            self.buf.resize(self.end + want, 0);
        }
        let n = src.read(&mut self.buf[self.end..self.end + want])?;
        self.end += n;
        Ok(n)
    }

    /// Bytes examined by the `\n` search so far: each received byte once.
    #[cfg(test)]
    fn bytes_scanned(&self) -> u64 {
        self.bytes_scanned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `chunks` one `fill` each and collects every line handed out.
    fn lines_of(chunks: &[&[u8]]) -> (Vec<Vec<u8>>, LineFramer) {
        let mut framer = LineFramer::default();
        let mut lines = Vec::new();
        for chunk in chunks {
            let mut src = *chunk;
            while !src.is_empty() {
                framer.fill(&mut src).unwrap();
                while let Some(line) = framer.next_line() {
                    lines.push(line.to_vec());
                }
            }
        }
        (lines, framer)
    }

    #[test]
    fn pipelined_lines_in_one_read_come_out_in_order() {
        let (lines, framer) = lines_of(&[b"a\nbb\n\nccc\nd"]);
        assert_eq!(lines, [&b"a"[..], b"bb", b"", b"ccc"]);
        assert_eq!(framer.pending(), 1);
    }

    #[test]
    fn a_line_split_at_every_byte_is_framed_once() {
        let text = b"{\"op\": \"ping\"}\r\nnext\n";
        let chunks: Vec<&[u8]> = text.chunks(1).collect();
        let (lines, framer) = lines_of(&chunks);
        assert_eq!(lines, [&b"{\"op\": \"ping\"}\r"[..], b"next"]);
        assert_eq!(framer.pending(), 0);
        assert_eq!(framer.bytes_scanned(), text.len() as u64);
    }

    #[test]
    fn a_newline_on_a_read_boundary_ends_the_line_either_side() {
        let mut line = vec![b'x'; READ_CHUNK - 1];
        line.push(b'\n');
        // The newline is the last byte of one read …
        let (lines, _) = lines_of(&[&line, b"tail\n"]);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), READ_CHUNK - 1);
        assert_eq!(lines[1], b"tail");
        // … or the first byte of the next.
        let (lines, _) = lines_of(&[&line[..READ_CHUNK - 1], b"\ntail\n"]);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), READ_CHUNK - 1);
    }

    #[test]
    fn the_unterminated_tail_is_pending_and_survives_compaction() {
        let mut framer = LineFramer::default();
        framer.fill(&mut &b"first\nsec"[..]).unwrap();
        assert_eq!(framer.next_line(), Some(&b"first"[..]));
        assert_eq!(framer.next_line(), None);
        assert_eq!(framer.pending(), 3);
        framer.fill(&mut &b"ond\n"[..]).unwrap();
        assert_eq!(framer.next_line(), Some(&b"second"[..]));
        assert_eq!(framer.pending(), 0);
        assert_eq!(framer.fill(&mut &b""[..]).unwrap(), 0);
    }

    #[test]
    fn reads_start_at_4_kib_and_double_while_a_line_is_pending() {
        let mut text = vec![b'x'; 200_000];
        text.push(b'\n');
        let mut src = &text[..];
        let mut framer = LineFramer::default();
        let mut reads = Vec::new();
        let mut line = None;
        while line.is_none() {
            reads.push(framer.fill(&mut src).unwrap());
            line = framer.next_line().map(<[u8]>::len);
        }
        assert_eq!(line, Some(200_000));
        let k = 1024;
        assert_eq!(
            reads,
            [4 * k, 4 * k, 8 * k, 16 * k, 32 * k, 64 * k, 64 * k, 3393]
        );
        // With nothing pending the next read is small again.
        assert_eq!(framer.fill(&mut &text[..]).unwrap(), 4 * k);
        // An idle connection's framer holds one small read's worth.
        let mut idle = LineFramer::default();
        idle.fill(&mut &b"{\"op\": \"ping\"}\n"[..]).unwrap();
        assert_eq!(idle.buf.len(), 4 * k);
    }

    #[test]
    fn a_mebibyte_line_in_4_kib_reads_is_scanned_linearly() {
        const LINE: usize = 1 << 20;
        let mut text = vec![b'x'; LINE];
        text.push(b'\n');
        let mut framer = LineFramer::default();
        let mut received = 0u64;
        let mut found = None;
        for chunk in text.chunks(4096) {
            received += framer.fill(&mut &chunk[..]).unwrap() as u64;
            if let Some(line) = framer.next_line() {
                found = Some(line.len());
            }
        }
        assert_eq!(found, Some(LINE));
        assert_eq!(received, LINE as u64 + 1);
        assert!(
            framer.bytes_scanned() <= 2 * received,
            "scanned {} bytes for {received} received",
            framer.bytes_scanned()
        );
    }
}
