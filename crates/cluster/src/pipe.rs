//! The cluster's pipe format: one JSON [`Frame`] per line, both ways
//! between the orchestrator and its nodes — the Maelstrom idiom, and
//! the same text the journal records.

use std::io::{self, BufRead, Read, Write};

use ftcolor_net::{Frame, WirePool, MAX_FRAME_BYTES};

/// Writes `frames` as JSON lines, built in one pooled buffer and flushed
/// with a single write. Returns the bytes written.
pub(crate) fn write_lines(
    frames: &[Frame],
    pool: &mut WirePool,
    out: &mut impl Write,
) -> io::Result<usize> {
    if frames.is_empty() {
        return Ok(0);
    }
    let mut buf = pool.acquire();
    for frame in frames {
        frame.encode_into(&mut buf);
        buf.push(b'\n');
    }
    let written = out.write_all(&buf).and_then(|()| out.flush());
    let bytes = buf.len();
    pool.release(buf);
    written.map(|()| bytes)
}

/// Reads lines from `r`, handing each one without its newline to `sink`,
/// until EOF, a line longer than [`MAX_FRAME_BYTES`], or `sink` returns
/// `false`. A line that is not UTF-8, or a final line with no newline,
/// is still one line.
pub(crate) fn read_lines(mut r: impl BufRead, mut sink: impl FnMut(Vec<u8>) -> bool) {
    let cap = u64::from(MAX_FRAME_BYTES) + 1;
    loop {
        let mut line = Vec::new();
        let got = (&mut r).take(cap).read_until(b'\n', &mut line).unwrap_or(0) > 0;
        if line.last() == Some(&b'\n') {
            line.pop();
        }
        if !got || line.len() > MAX_FRAME_BYTES as usize || !sink(line) {
            return;
        }
    }
}

/// Decodes one line; `Ok(None)` for a blank one.
///
/// # Errors
///
/// The line is not a JSON frame.
pub(crate) fn decode_line(line: &[u8]) -> Result<Option<Frame>, String> {
    let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    match text.trim() {
        "" => Ok(None),
        text => Frame::decode(text).map(Some).map_err(|e| e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_past_the_frame_cap_end_the_stream() {
        let hostile = io::repeat(b'x').take(u64::from(MAX_FRAME_BYTES) + 2);
        let stream = io::BufReader::new(io::Cursor::new(b"ok\n").chain(hostile));
        let mut lines = Vec::new();
        read_lines(stream, |line| {
            lines.push(line.len());
            true
        });
        assert_eq!(lines, [2], "an over-cap line must stop the reader");
    }
}
