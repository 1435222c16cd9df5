//! Length-prefixed binary framing: versioned flat-`u64` encoding.
//!
//! The wire format reuses the `CheckpointStore` codec idiom
//! (`wsf_runtime::CheckpointStore`): every frame is a little-endian `u64`
//! word count followed by that many little-endian `u64` words, and every
//! frame body starts with a magic word and a version word, so a stray or
//! version-skewed peer fails loudly instead of being misparsed.
//!
//! Request frame (client → server):
//!
//! ```text
//! [REQUEST_MAGIC, PROTOCOL_VERSION, tenant, count,
//!  (request_id, shape words...) * count]
//! ```
//!
//! Response frame (server → client) — one frame carries any number of
//! completions, [`COMPLETION_WORDS`] words each:
//!
//! ```text
//! [RESPONSE_MAGIC, PROTOCOL_VERSION, count,
//!  (request_id, status, misses, deviations, footprint, micros) * count]
//! ```
//!
//! [`FrameReader`] accumulates raw bytes and yields whole frames decoded in
//! place into a reusable word arena — after warm-up, feeding and parsing
//! frames allocates nothing, which the server's ingest-path
//! counting-allocator test depends on.

use wsf_workloads::submission::{ShapeError, ShapeSpec};

/// First word of every request frame.
pub const REQUEST_MAGIC: u64 = 0x5753_4653_5242_5131; // "WSFSRBQ1" spirit
/// First word of every response frame.
pub const RESPONSE_MAGIC: u64 = 0x5753_4653_5242_5332; // "WSFSRBS2" spirit
/// Wire protocol version; bumped on any layout change.
pub const PROTOCOL_VERSION: u64 = 1;
/// Hard cap on the word count of a single frame (64 KiWords = 512 KiB).
pub const MAX_FRAME_WORDS: usize = 1 << 16;
/// Words per completion record in a response frame.
pub const COMPLETION_WORDS: usize = 6;

/// Submission executed; `misses`/`deviations` are its simulation counters.
pub const STATUS_OK: u64 = 0;
/// Submission rejected by load-shedding admission control.
pub const STATUS_SHED: u64 = 1;
/// Submission carried an invalid shape description.
pub const STATUS_BAD_SHAPE: u64 = 2;
/// Submission arrived while the server was draining for shutdown.
pub const STATUS_SHUTTING_DOWN: u64 = 3;
/// Submission failed to execute. The server never sends it: an executor
/// simulates every submission no pool worker finished.
pub const STATUS_FAILED: u64 = 4;

/// A framing/decoding failure; fatal for the connection that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// Declared frame length exceeds [`MAX_FRAME_WORDS`].
    FrameTooLarge(u64),
    /// The frame's first word is not the expected magic.
    BadMagic(u64),
    /// The frame's version word is not [`PROTOCOL_VERSION`].
    BadVersion(u64),
    /// The frame body is shorter than its header promises.
    Malformed(&'static str),
    /// A tenant id outside the server's tenant table.
    UnknownTenant(u64),
    /// A shape failed validation.
    Shape(ShapeError),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::FrameTooLarge(n) => write!(f, "frame of {n} words exceeds cap"),
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:#x}"),
            ProtocolError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtocolError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtocolError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            ProtocolError::Shape(e) => write!(f, "bad shape: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<ShapeError> for ProtocolError {
    fn from(e: ShapeError) -> Self {
        ProtocolError::Shape(e)
    }
}

/// Serializes `words` as one length-prefixed frame into `bytes` (cleared
/// first; reused across calls so steady-state encoding allocates nothing).
pub fn frame_bytes(words: &[u64], bytes: &mut Vec<u8>) {
    bytes.clear();
    bytes.extend_from_slice(&(words.len() as u64).to_le_bytes());
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
}

/// Encodes a complete request frame for `tenant` carrying `subs` into
/// `bytes` (cleared first). Convenience for tests and simple clients;
/// [`crate::BenchClient`] keeps its own reusable word buffer instead.
pub fn frame_request(tenant: u64, subs: &[(u64, ShapeSpec)], bytes: &mut Vec<u8>) {
    let mut words = Vec::with_capacity(4 + subs.len() * 4);
    words.push(REQUEST_MAGIC);
    words.push(PROTOCOL_VERSION);
    words.push(tenant);
    words.push(subs.len() as u64);
    for (request_id, spec) in subs {
        words.push(*request_id);
        spec.encode(&mut words);
    }
    frame_bytes(&words, bytes);
}

/// Incremental frame parser: push raw bytes in, take whole frames out.
///
/// All buffers are reused; a connection's reader owns one `FrameReader`
/// for its lifetime.
#[derive(Debug, Default)]
pub struct FrameReader {
    pending: Vec<u8>,
    words: Vec<u64>,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes received from the peer.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as a frame.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Decodes the next whole frame into the internal word arena, returning
    /// whether one was available. On `Ok(true)` the frame's words are in
    /// [`FrameReader::words`].
    pub fn poll_frame(&mut self) -> Result<bool, ProtocolError> {
        if self.pending.len() < 8 {
            return Ok(false);
        }
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(&self.pending[..8]);
        let nwords = u64::from_le_bytes(len8);
        if nwords as usize > MAX_FRAME_WORDS {
            return Err(ProtocolError::FrameTooLarge(nwords));
        }
        let need = 8 + 8 * nwords as usize;
        if self.pending.len() < need {
            return Ok(false);
        }
        self.words.clear();
        for chunk in self.pending[8..need].chunks_exact(8) {
            let mut w = [0u8; 8];
            w.copy_from_slice(chunk);
            self.words.push(u64::from_le_bytes(w));
        }
        self.pending.drain(..need);
        Ok(true)
    }

    /// The words of the frame most recently yielded by
    /// [`FrameReader::poll_frame`].
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Validates a request frame header, returning `(tenant, submission_count)`.
/// The submissions themselves start at word 4.
pub fn parse_request_header(words: &[u64]) -> Result<(u64, u64), ProtocolError> {
    if words.len() < 4 {
        return Err(ProtocolError::Malformed("request header"));
    }
    if words[0] != REQUEST_MAGIC {
        return Err(ProtocolError::BadMagic(words[0]));
    }
    if words[1] != PROTOCOL_VERSION {
        return Err(ProtocolError::BadVersion(words[1]));
    }
    Ok((words[2], words[3]))
}

/// Validates a response frame header, returning the completion count.
/// Completions start at word 3, [`COMPLETION_WORDS`] words each.
pub fn parse_response_header(words: &[u64]) -> Result<u64, ProtocolError> {
    if words.len() < 3 {
        return Err(ProtocolError::Malformed("response header"));
    }
    if words[0] != RESPONSE_MAGIC {
        return Err(ProtocolError::BadMagic(words[0]));
    }
    if words[1] != PROTOCOL_VERSION {
        return Err(ProtocolError::BadVersion(words[1]));
    }
    // The count is the peer's word: compare it with what the body holds,
    // never multiply it (`COMPLETION_WORDS << 63` wraps to 0).
    let count = words[2];
    if count > ((words.len() - 3) / COMPLETION_WORDS) as u64 {
        return Err(ProtocolError::Malformed("response body"));
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_byte_stream() {
        let frames: Vec<Vec<u64>> = vec![
            vec![REQUEST_MAGIC, PROTOCOL_VERSION, 0, 0],
            vec![REQUEST_MAGIC, PROTOCOL_VERSION, 2, 1, 77, 1, 8],
            vec![RESPONSE_MAGIC, PROTOCOL_VERSION, 1, 77, 0, 10, 2, 9, 123],
        ];
        let mut stream = Vec::new();
        let mut bytes = Vec::new();
        for f in &frames {
            frame_bytes(f, &mut bytes);
            stream.extend_from_slice(&bytes);
        }
        // Feed in awkward chunk sizes to exercise partial-frame buffering.
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for chunk in stream.chunks(7) {
            reader.push_bytes(chunk);
            while reader.poll_frame().unwrap() {
                got.push(reader.words().to_vec());
            }
        }
        assert_eq!(got, frames);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut reader = FrameReader::new();
        reader.push_bytes(&u64::MAX.to_le_bytes());
        assert!(matches!(
            reader.poll_frame(),
            Err(ProtocolError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn headers_are_validated() {
        assert!(matches!(
            parse_request_header(&[1, PROTOCOL_VERSION, 0, 0]),
            Err(ProtocolError::BadMagic(1))
        ));
        assert!(matches!(
            parse_request_header(&[REQUEST_MAGIC, 99, 0, 0]),
            Err(ProtocolError::BadVersion(99))
        ));
        assert!(parse_request_header(&[REQUEST_MAGIC, PROTOCOL_VERSION]).is_err());
        assert_eq!(
            parse_request_header(&[REQUEST_MAGIC, PROTOCOL_VERSION, 3, 5]).unwrap(),
            (3, 5)
        );
    }

    #[test]
    fn response_count_is_checked_against_the_body_without_overflow() {
        let frame = |count: u64, completions: usize| {
            let mut words = vec![RESPONSE_MAGIC, PROTOCOL_VERSION, count];
            words.resize(3 + COMPLETION_WORDS * completions, 0);
            words
        };
        assert_eq!(parse_response_header(&frame(0, 0)), Ok(0));
        assert_eq!(parse_response_header(&frame(2, 2)), Ok(2));
        // One more completion than the body holds, down to a partial one.
        let mut short = frame(2, 2);
        short.pop();
        for words in [frame(1, 0), frame(2, 1), frame(3, 2), short] {
            assert_eq!(
                parse_response_header(&words),
                Err(ProtocolError::Malformed("response body"))
            );
        }
        // Counts whose product with COMPLETION_WORDS wraps (to 0 for 1 << 63)
        // must not pass as "fits in a three-word frame".
        for count in [1 << 63, u64::MAX, u64::MAX / COMPLETION_WORDS as u64 + 1] {
            for completions in [0, 2] {
                assert_eq!(
                    parse_response_header(&frame(count, completions)),
                    Err(ProtocolError::Malformed("response body")),
                    "count {count:#x}"
                );
            }
        }
    }
}
