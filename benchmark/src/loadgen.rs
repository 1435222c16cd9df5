//! The benchmark's own load generator, built on the wire protocol only.
//!
//! Two loops drive a served instance over TCP loopback:
//!
//! * **closed** — each connection keeps one frame in flight: send, wait for
//!   the reply, repeat. Throughput counts only replies that arrive inside
//!   the window.
//! * **open** — one connection, a submitter thread and a receiver thread.
//!   Frame `i` is due at `t0 + i * batch / rate`, whatever the server is
//!   doing; latency is timed from the *due* instant, so a stall charges the
//!   requests queued behind it, and the generator's own lateness is
//!   reported. A request still unanswered two seconds after the window is a
//!   failure, not a missing sample.
//!
//! Every reply is checked against the oracle before it counts.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::adapter::{
    frame_request, parse_response_header, Expected, FrameReader, ShapeSpec, COMPLETION_WORDS,
    STATUS_OK, STATUS_SHED, TENANTS,
};
use crate::stats::splitmix64;
use crate::trace::{self, Span, Tracer, ROOT};

/// How long a request may stay unanswered after the window before it is
/// counted as failed.
pub const GRACE: Duration = Duration::from_secs(2);
/// Zipf exponent of tenant popularity.
const ZIPF_S: f64 = 1.1;

/// The seeded request stream: request `id` always maps to the same
/// `(tenant, shape)`, so sender, receiver and oracle agree without sharing
/// state.
pub struct Mix {
    pub shapes: Vec<ShapeSpec>,
    cumulative: [f64; TENANTS],
    seed: u64,
}

impl Mix {
    pub fn new(shapes: Vec<ShapeSpec>, seed: u64) -> Mix {
        let mut cumulative = [0.0; TENANTS];
        let mut total = 0.0;
        for (rank, c) in cumulative.iter_mut().enumerate() {
            total += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
            *c = total;
        }
        Mix {
            shapes,
            cumulative,
            seed,
        }
    }

    /// `(tenant, shape index)` of request `id`.
    pub fn pick(&self, id: u64) -> (usize, usize) {
        let h = splitmix64(self.seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64 * self.cumulative[TENANTS - 1];
        let tenant = self.cumulative.partition_point(|&c| c < u).min(TENANTS - 1);
        let shape = (splitmix64(h) % self.shapes.len() as u64) as usize;
        (tenant, shape)
    }
}

/// Expected completion payload per `[tenant][shape index]`.
pub type Oracle = Vec<Vec<Expected>>;

#[derive(Clone, Copy, Debug)]
pub struct Reply {
    pub id: u64,
    pub status: u64,
    pub got: Expected,
    /// Server-side residency (`Completion.micros`).
    pub micros: u64,
}

/// Sending half of a connection.
pub struct Tx {
    stream: TcpStream,
    bytes: Vec<u8>,
}

/// Receiving half of a connection. Counts every reply it decodes, so the
/// client's totals can be held against the server's tenant reports.
pub struct Rx {
    stream: TcpStream,
    frames: FrameReader,
    buf: Box<[u8; 16 * 1024]>,
    /// Time spent blocked in `read`, i.e. not generating load.
    pub read_wait: Duration,
    pub ok_replies: u64,
    pub shed_replies: u64,
}

pub fn connect(addr: SocketAddr) -> io::Result<(Tx, Rx)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let tx = Tx {
        stream: stream.try_clone()?,
        bytes: Vec::new(),
    };
    let rx = Rx {
        stream,
        frames: FrameReader::new(),
        buf: Box::new([0; 16 * 1024]),
        read_wait: Duration::ZERO,
        ok_replies: 0,
        shed_replies: 0,
    };
    Ok((tx, rx))
}

impl Tx {
    pub fn encode(&mut self, tenant: usize, subs: &[(u64, ShapeSpec)]) {
        frame_request(tenant as u64, subs, &mut self.bytes);
    }

    pub fn write(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.bytes)
    }
}

impl Rx {
    /// Appends every reply available to `out`, blocking until at least one
    /// arrives or `deadline` passes. Returns how many were appended.
    pub fn recv(&mut self, out: &mut Vec<Reply>, deadline: Instant) -> io::Result<usize> {
        let before = out.len();
        loop {
            while self.frames.poll_frame().map_err(invalid)? {
                let words = self.frames.words();
                let count = parse_response_header(words).map_err(invalid)? as usize;
                for c in words[3..].chunks_exact(COMPLETION_WORDS).take(count) {
                    match c[1] {
                        STATUS_OK => self.ok_replies += 1,
                        STATUS_SHED => self.shed_replies += 1,
                        _ => {}
                    }
                    out.push(Reply {
                        id: c[0],
                        status: c[1],
                        got: Expected {
                            misses: c[2],
                            deviations: c[3],
                            footprint: c[4],
                        },
                        micros: c[5],
                    });
                }
            }
            if out.len() > before || Instant::now() >= deadline {
                return Ok(out.len() - before);
            }
            let t = Instant::now();
            let read = self.stream.read(&mut self.buf[..]);
            self.read_wait += t.elapsed();
            match read {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.frames.push_bytes(&self.buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// When a loop stops sending.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many requests (warm-up).
    Count(u64),
    /// At this instant (a timed window).
    At(Instant),
}

/// One verified reply.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the reply arrived, in seconds after the loop started.
    pub at_s: f64,
    /// Submit (closed loop) or due time (open loop) to reply.
    pub latency_us: f64,
    /// `Completion.micros`: what the server says it spent on the request.
    pub residency_us: f64,
}

/// What one loop measured.
#[derive(Default)]
pub struct LoopResult {
    pub attempted: u64,
    pub failed: u64,
    /// One per verified reply, in arrival order per thread.
    pub samples: Vec<Sample>,
    /// Open loop: how late each frame left, against its due time.
    pub lateness_us: Vec<f64>,
    /// Share of the window the generator's threads were not blocked.
    pub busy_share: f64,
    pub spans: Vec<Span>,
    /// Wrong outputs (the first few oracle mismatches, unanswered requests):
    /// any of these makes the run incorrect.
    pub mismatches: Vec<String>,
}

impl LoopResult {
    /// Holds `reply` against the oracle. A frame carries one tenant, drawn
    /// from the id of its first submission, `frame_first`. A shed reply is a
    /// failed operation (the caller counts it) but not a wrong output.
    fn check(&mut self, reply: &Reply, frame_first: u64, mix: &Mix, oracle: &Oracle) -> bool {
        if reply.status == STATUS_SHED {
            return false;
        }
        let tenant = mix.pick(frame_first).0;
        let shape = mix.pick(reply.id).1;
        let ok = reply.status == STATUS_OK && reply.got == oracle[tenant][shape];
        if !ok && self.mismatches.len() < 5 {
            self.mismatches.push(format!(
                "request {} (tenant {tenant}, shape {shape}): {reply:?}, expected {:?}",
                reply.id, oracle[tenant][shape]
            ));
        }
        ok
    }

    fn sample(&mut self, at: Duration, latency: Duration, micros: u64) {
        self.samples.push(Sample {
            at_s: at.as_secs_f64(),
            latency_us: latency.as_secs_f64() * 1e6,
            residency_us: micros as f64,
        });
    }

    pub fn merge(&mut self, other: LoopResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.samples.extend(other.samples);
        self.lateness_us.extend(other.lateness_us);
        trace::append(&mut self.spans, other.spans);
        self.mismatches.extend(other.mismatches);
    }
}

/// One closed-loop connection: request ids `first_id, first_id + stride, …`,
/// batch 1, one frame in flight. With [`Stop::At`], a request whose reply
/// arrives after the instant is awaited (the server is left clean) but not
/// counted.
pub fn closed_loop(
    (tx, rx): (&mut Tx, &mut Rx),
    mix: &Mix,
    oracle: &Oracle,
    (first_id, stride): (u64, u64),
    stop: Stop,
    mut tracer: Option<Tracer>,
) -> io::Result<LoopResult> {
    let mut out = LoopResult::default();
    let mut replies = Vec::with_capacity(4);
    let started = Instant::now();
    let wait_before = rx.read_wait;
    let mut id = first_id;
    for k in 0.. {
        let t_submit = Instant::now();
        match stop {
            Stop::Count(n) if k >= n => break,
            Stop::At(end) if t_submit >= end => break,
            _ => {}
        }
        let (tenant, shape) = mix.pick(id);
        tx.encode(tenant, &[(id, mix.shapes[shape])]);
        let t_encoded = Instant::now();
        tx.write()?;
        let t_sent = Instant::now();
        replies.clear();
        if rx.recv(&mut replies, t_sent + GRACE)? != 1 || replies[0].id != id {
            return Err(invalid(format!(
                "closed loop: request {id} got {replies:?}"
            )));
        }
        let t_done = Instant::now();
        let reply = replies[0];
        let ok = out.check(&reply, id, mix, oracle);
        if let Some(t) = tracer.as_mut() {
            let root = t.record("loadgen.request", id, ROOT, t_submit, t_done);
            t.record("loadgen.encode", id, root, t_submit, t_encoded);
            t.record("loadgen.write", id, root, t_encoded, t_sent);
            // Reported by the server, placed so that it ends with the reply.
            let resident = Duration::from_micros(reply.micros);
            let from = t_done.checked_sub(resident).unwrap_or(t_submit);
            t.record("server.residency", id, root, from.max(t_submit), t_done);
            t.record("loadgen.verify", id, root, t_done, Instant::now());
        }
        if matches!(stop, Stop::At(end) if t_done > end) {
            break;
        }
        out.attempted += 1;
        if ok {
            out.sample(t_done - started, t_done - t_submit, reply.micros);
        } else {
            out.failed += 1;
        }
        id += stride;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let waited = (rx.read_wait - wait_before).as_secs_f64();
    out.busy_share = if elapsed > 0.0 {
        1.0 - waited / elapsed
    } else {
        0.0
    };
    out.spans = tracer.map(|t| t.spans).unwrap_or_default();
    Ok(out)
}

/// Nanoseconds after `t0` at which open-loop frame `frame` is due.
pub fn due_ns(frame: u64, batch: u64, rate_per_s: u64) -> u64 {
    (u128::from(frame) * u128::from(batch) * 1_000_000_000 / u128::from(rate_per_s)) as u64
}

/// The open loop: `rate_per_s` requests per second in frames of `batch`,
/// from `t0` until `end`, ids counting up from `first_id`.
pub fn open_loop(
    (tx, rx): (&mut Tx, &mut Rx),
    mix: &Mix,
    oracle: &Oracle,
    first_id: u64,
    (batch, rate_per_s): (u64, u64),
    (t0, end): (Instant, Instant),
    traced: bool,
) -> io::Result<LoopResult> {
    let sent = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let due = |frame: u64| t0 + Duration::from_nanos(due_ns(frame, batch, rate_per_s));

    let (submitted, received) = std::thread::scope(|s| {
        let submitter = s.spawn(|| -> io::Result<LoopResult> {
            let mut out = LoopResult::default();
            let mut tracer = traced.then(|| Tracer::new(t0));
            let mut slept = Duration::ZERO;
            let mut subs = Vec::with_capacity(batch as usize);
            let result = (|| -> io::Result<()> {
                for frame in 0.. {
                    let due_at = due(frame);
                    if due_at >= end {
                        break;
                    }
                    slept += wait_until(due_at);
                    let t_start = Instant::now();
                    out.lateness_us
                        .push(t_start.saturating_duration_since(due_at).as_secs_f64() * 1e6);
                    // One tenant per frame (the wire format carries one);
                    // every submission keeps its own shape.
                    let base = first_id + frame * batch;
                    let tenant = mix.pick(base).0;
                    subs.clear();
                    subs.extend((base..base + batch).map(|id| (id, mix.shapes[mix.pick(id).1])));
                    tx.encode(tenant, &subs);
                    let t_encoded = Instant::now();
                    tx.write()?;
                    sent.fetch_add(batch, Ordering::Release);
                    if let Some(t) = tracer.as_mut() {
                        let root = t.record("loadgen.frame", base, ROOT, due_at, Instant::now());
                        t.record("loadgen.late", base, root, due_at, t_start);
                        t.record("loadgen.encode", base, root, t_start, t_encoded);
                        t.record("loadgen.write", base, root, t_encoded, Instant::now());
                    }
                }
                Ok(())
            })();
            done.store(true, Ordering::Release);
            let window = end.saturating_duration_since(t0).as_secs_f64();
            out.busy_share = 1.0 - slept.as_secs_f64() / window;
            out.spans = tracer.map(|t| t.spans).unwrap_or_default();
            result.map(|()| out)
        });

        let receiver = s.spawn(|| -> io::Result<LoopResult> {
            let mut out = LoopResult::default();
            let mut tracer = traced.then(|| Tracer::new(t0));
            let mut replies = Vec::with_capacity(64);
            let mut answered = 0u64;
            let give_up = end + GRACE;
            loop {
                // `done` is read first: once it is set, `sent` is final.
                let finished = done.load(Ordering::Acquire);
                let target = sent.load(Ordering::Acquire);
                if (finished && answered >= target) || Instant::now() >= give_up {
                    out.attempted = target;
                    let unanswered = target.saturating_sub(answered);
                    out.failed += unanswered;
                    if unanswered > 0 {
                        out.mismatches
                            .push(format!("{unanswered} requests were never answered"));
                    }
                    out.spans = tracer.map(|t| t.spans).unwrap_or_default();
                    return Ok(out);
                }
                replies.clear();
                rx.recv(&mut replies, Instant::now() + Duration::from_millis(20))?;
                let now = Instant::now();
                for reply in &replies {
                    answered += 1;
                    // An id from before this loop (a straggler) is a failure.
                    let frame = reply.id.saturating_sub(first_id) / batch;
                    let due_at = due(frame);
                    if reply.id >= first_id
                        && out.check(reply, first_id + frame * batch, mix, oracle)
                    {
                        out.sample(
                            now - t0,
                            now.saturating_duration_since(due_at),
                            reply.micros,
                        );
                    } else {
                        out.failed += 1;
                    }
                    if let Some(t) = tracer.as_mut() {
                        let root = t.record("loadgen.request", reply.id, ROOT, due_at, now);
                        let from = now
                            .checked_sub(Duration::from_micros(reply.micros))
                            .unwrap_or(due_at);
                        t.record("server.residency", reply.id, root, from.max(due_at), now);
                    }
                }
            }
        });
        (
            submitter.join().expect("submitter thread"),
            receiver.join().expect("receiver thread"),
        )
    });

    let mut out = received?;
    let submitted = submitted?;
    out.lateness_us = submitted.lateness_us;
    out.busy_share = submitted.busy_share;
    trace::append(&mut out.spans, submitted.spans);
    Ok(out)
}

/// Sleeps most of the way to `t`, then spins: `thread::sleep` alone overshoots
/// by the kernel's timer slack, which would show up as request latency.
/// Returns the time spent asleep.
fn wait_until(t: Instant) -> Duration {
    const SPIN: Duration = Duration::from_micros(80);
    let mut slept = Duration::ZERO;
    let left = t.saturating_duration_since(Instant::now());
    if left > SPIN {
        let before = Instant::now();
        std::thread::sleep(left - SPIN);
        slept = before.elapsed();
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
    slept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate_exactly() {
        // 4 000 requests/s in frames of 4: one frame per millisecond.
        assert_eq!(due_ns(0, 4, 4_000), 0);
        assert_eq!(due_ns(1, 4, 4_000), 1_000_000);
        assert_eq!(due_ns(1_000, 4, 4_000), 1_000_000_000);
        // No drift from rounding each interval: frame n is computed from n.
        assert_eq!(due_ns(3, 1, 3), 1_000_000_000);
        assert_eq!(due_ns(7, 1, 3), 2_333_333_333);
        // Hours of schedule do not overflow.
        assert_eq!(due_ns(36_000_000, 4, 4_000), 36_000 * 1_000_000_000);
    }

    #[test]
    fn the_request_stream_is_a_function_of_seed_and_id() {
        let shapes = ShapeSpec::smoke_mix().to_vec();
        let (a, b) = (Mix::new(shapes.clone(), 7), Mix::new(shapes.clone(), 7));
        let c = Mix::new(shapes, 8);
        let stream = |m: &Mix| (0..2_000).map(|id| m.pick(id)).collect::<Vec<_>>();
        assert_eq!(stream(&a), stream(&b));
        assert_ne!(stream(&a), stream(&c));
        // Zipf s = 1.1 over 4 tenants: rank 0 carries ~46 % of the traffic.
        let first = stream(&a).iter().filter(|(t, _)| *t == 0).count();
        assert!((800..1_050).contains(&first), "tenant 0 drew {first}");
        assert!(stream(&a).iter().all(|&(t, s)| t < TENANTS && s < 3));
    }

    #[test]
    fn wait_until_does_not_return_early() {
        let t = Instant::now() + Duration::from_millis(3);
        wait_until(t);
        assert!(Instant::now() >= t);
    }
}
