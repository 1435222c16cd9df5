//! Reference client for the submission server.
//!
//! [`BenchClient`] is a blocking client over TCP or UDS with reusable
//! encode/decode buffers — what E20 and the end-to-end tests talk to the
//! server through. [`ZipfSampler`] draws skewed tenant ranks (weighted
//! `1/r^s`, matching multi-tenant traffic) for E20's scripted mix.
//!
//! Load generation and latency measurement (closed and open loops,
//! pacing, windows, quantiles) are not here: they live in the standalone
//! `benchmark/` crate, which speaks the [`crate::protocol`] directly.

use std::io::{self, Read, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use wsf_workloads::submission::ShapeSpec;

use crate::core::Completion;
use crate::net::{is_timeout, Stream};
use crate::protocol::{
    frame_bytes, parse_response_header, FrameReader, ProtocolError, COMPLETION_WORDS,
    PROTOCOL_VERSION, REQUEST_MAGIC,
};

/// A blocking submission client with reusable buffers.
pub struct BenchClient {
    stream: Stream,
    frames: FrameReader,
    words: Vec<u64>,
    bytes: Vec<u8>,
    buf: [u8; 4096],
}

impl BenchClient {
    /// Connects over TCP.
    pub fn connect_tcp(addr: std::net::SocketAddr) -> io::Result<BenchClient> {
        let s = std::net::TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_millis(50)))?;
        s.set_nodelay(true)?;
        Ok(Self::over(Stream::Tcp(s)))
    }

    /// Connects over a Unix domain socket.
    pub fn connect_uds<P: AsRef<Path>>(path: P) -> io::Result<BenchClient> {
        let s = std::os::unix::net::UnixStream::connect(path)?;
        s.set_read_timeout(Some(Duration::from_millis(50)))?;
        Ok(Self::over(Stream::Unix(s)))
    }

    fn over(stream: Stream) -> BenchClient {
        BenchClient {
            stream,
            frames: FrameReader::new(),
            words: Vec::new(),
            bytes: Vec::new(),
            buf: [0u8; 4096],
        }
    }

    /// Encodes and writes one request frame carrying `subs` for `tenant`.
    pub fn submit_batch(&mut self, tenant: u64, subs: &[(u64, ShapeSpec)]) -> io::Result<()> {
        self.words.clear();
        self.words.push(REQUEST_MAGIC);
        self.words.push(PROTOCOL_VERSION);
        self.words.push(tenant);
        self.words.push(subs.len() as u64);
        for (request_id, spec) in subs {
            self.words.push(*request_id);
            spec.encode(&mut self.words);
        }
        frame_bytes(&self.words, &mut self.bytes);
        self.stream.write_all(&self.bytes)
    }

    /// Reads response frames, appending their completions to `out`, until
    /// at least one completion arrives or `timeout` elapses. Returns how
    /// many completions were appended.
    pub fn recv_completions(
        &mut self,
        out: &mut Vec<Completion>,
        timeout: Duration,
    ) -> io::Result<usize> {
        let deadline = Instant::now() + timeout;
        let mut got = 0usize;
        loop {
            // Drain every already-buffered frame first.
            loop {
                match self.frames.poll_frame() {
                    Ok(true) => got += decode_completions(self.frames.words(), out)?,
                    Ok(false) => break,
                    Err(e) => return Err(proto_io(e)),
                }
            }
            if got > 0 || Instant::now() >= deadline {
                return Ok(got);
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed connection",
                    ))
                }
                Ok(n) => self.frames.push_bytes(&self.buf[..n]),
                Err(ref e) if is_timeout(e) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn proto_io(e: ProtocolError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn decode_completions(words: &[u64], out: &mut Vec<Completion>) -> io::Result<usize> {
    let count = parse_response_header(words).map_err(proto_io)? as usize;
    for i in 0..count {
        let base = 3 + i * COMPLETION_WORDS;
        out.push(Completion {
            request_id: words[base],
            status: words[base + 1],
            misses: words[base + 2],
            deviations: words[base + 3],
            footprint: words[base + 4],
            micros: words[base + 5],
        });
    }
    Ok(count)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipfian sampler over ranks `0..n`: rank `r` drawn with probability
/// proportional to `1/(r+1)^s`. `s = 0` is uniform; larger `s` is more
/// skewed.
pub struct ZipfSampler {
    cumulative: Vec<f64>,
    state: u64,
}

impl ZipfSampler {
    /// Builds the cumulative weight table for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64, seed: u64) -> ZipfSampler {
        assert!(n > 0, "zipf over zero ranks");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cumulative.push(total);
        }
        ZipfSampler {
            cumulative,
            state: seed ^ 0xd1b5_4a32_d192_ed03,
        }
    }

    /// Draws the next rank.
    pub fn sample(&mut self) -> usize {
        let total = *self.cumulative.last().unwrap();
        let u = (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64;
        let target = u * total;
        self.cumulative
            .partition_point(|&c| c < target)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_toward_low_ranks_and_in_range() {
        let mut z = ZipfSampler::new(8, 1.2, 42);
        let mut counts = [0usize; 8];
        for _ in 0..4000 {
            counts[z.sample()] += 1;
        }
        assert!(
            counts[0] > counts[7],
            "rank 0 should dominate rank 7: {counts:?}"
        );
        assert_eq!(counts.iter().sum::<usize>(), 4000);
    }
}
