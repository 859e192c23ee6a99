//! The open-loop client: two connections, one thread each, requests sent
//! on a fixed schedule and pipelined, answers matched back by request id.
//!
//! Request `k` of a phase is due at `t0 + k / rate` and goes out on
//! connection `k % 2`; its content is a pure function of the phase seed
//! and `k` (see [`crate::workload::Workload::request`]), so nothing but a
//! small record per request is kept in memory. A thread sends every
//! request that is due, then waits for answers until the next one is
//! due. Latency is timed from the due time, so a late sender or a full
//! socket is charged to the requests it delays.
//!
//! Frames are built and parsed with the public `ftl_server::frame` codec.
//! A phase whose backlog grows past [`PhaseSpec::abort_backlog`] stops
//! sending (the rest of its schedule is never attempted), so an overload
//! probe cannot push the server into admission-control rejects.

use crate::workload::{Workload, QUERIES_PER_REQUEST};
use ftl_labels::wire::WireLabel;
use ftl_server::frame::write_frame;
use ftl_server::{QueryRequestFrame, QueryResponseFrame, ResponseStatus};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Nanoseconds since the process's clock base (first call).
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What became of one scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Status {
    /// Sent, never answered (or never sent because the connection broke).
    Unanswered,
    /// Answered `Ok` with one bit per query.
    Ok,
    /// Answered `ServerBusy` (admission control or the batcher watchdog).
    Busy,
    /// Answered `DeadlineExceeded`.
    Deadline,
    /// Answered `EngineFailed`.
    EngineFailed,
    /// Answered `ShuttingDown`.
    ShuttingDown,
    /// The socket failed while the request was in flight.
    Io,
    /// The answer did not fit the request (wrong answer count).
    Protocol,
    /// Never sent: the backlog limit stopped the schedule first. Not an
    /// attempt.
    Skipped,
}

impl Status {
    /// Every status, in report order.
    pub const ALL: [Status; 9] = [
        Status::Ok,
        Status::Busy,
        Status::Deadline,
        Status::EngineFailed,
        Status::ShuttingDown,
        Status::Io,
        Status::Unanswered,
        Status::Protocol,
        Status::Skipped,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Status::Unanswered => "unanswered",
            Status::Ok => "ok",
            Status::Busy => "server_busy",
            Status::Deadline => "deadline_exceeded",
            Status::EngineFailed => "engine_failed",
            Status::ShuttingDown => "shutting_down",
            Status::Io => "io_error",
            Status::Protocol => "protocol",
            Status::Skipped => "skipped",
        }
    }
}

/// One scheduled request's timeline and outcome. Times are [`now_ns`].
#[derive(Debug, Clone, Copy)]
pub struct ReqRec {
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When the sender started on it (0 = never sent).
    pub sent_ns: u64,
    /// Traced runs only: encode finished.
    pub encoded_ns: u64,
    /// Traced runs only: the socket write returned.
    pub written_ns: u64,
    /// Traced runs only: the read that completed its answer returned.
    pub recv_ns: u64,
    /// When its answer was decoded (0 = no answer).
    pub done_ns: u64,
    /// The epoch the answer was served from.
    pub epoch: u64,
    /// Answer bits, query `i` in bit `i`.
    pub answers: u64,
    /// Outcome.
    pub status: Status,
}

impl ReqRec {
    fn scheduled(due_ns: u64) -> Self {
        ReqRec {
            due_ns,
            sent_ns: 0,
            encoded_ns: 0,
            written_ns: 0,
            recv_ns: 0,
            done_ns: 0,
            epoch: 0,
            answers: 0,
            status: Status::Unanswered,
        }
    }
}

/// One timed phase of open-loop load.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    /// Distinguishes this phase's request ids (the high 32 bits), so a
    /// late answer from an earlier phase can never settle a record here.
    pub tag: u32,
    /// Seeds the request contents of this phase.
    pub seed: u64,
    /// Offered requests per second, both connections together.
    pub rate: f64,
    /// Length of the send schedule.
    pub seconds: f64,
    /// Record per-request span timestamps.
    pub traced: bool,
    /// Stop sending once this many requests are in flight on one
    /// connection (a backlog the server is not keeping up with).
    pub abort_backlog: usize,
}

/// What a phase observed.
#[derive(Debug)]
pub struct PhaseOut {
    /// One record per scheduled request, index = request id.
    pub recs: Vec<ReqRec>,
    /// Requests in flight when each connection sent its last request
    /// (summed over connections).
    pub backlog_end: u64,
    /// Whether the backlog limit stopped the schedule early.
    pub aborted: bool,
    /// When the schedule started.
    pub start_ns: u64,
    /// Share of the machine's CPU time the host took away (steal) while
    /// the phase ran; 0 where `/proc/stat` is unavailable.
    pub steal: f64,
}

/// `(steal, total)` CPU jiffies over all CPUs since boot, from the `cpu`
/// line of `/proc/stat`; `(0, 0)` where unavailable.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// How long a connection keeps waiting for answers after its last send.
const DRAIN: Duration = Duration::from_secs(3);

/// Runs one phase over both connections and returns every record.
pub fn run_phase(conns: &mut [TcpStream; 2], wl: &Workload, spec: PhaseSpec) -> PhaseOut {
    let total = (spec.rate * spec.seconds).round().max(1.0) as u64;
    let interval_ns = 1e9 / spec.rate;
    // Both threads start on one shared schedule, a little in the future.
    let start_ns = now_ns() + 2_000_000;
    let (steal0, total0) = cpu_jiffies();
    let [c0, c1] = conns;
    let (out0, out1) = std::thread::scope(|s| {
        let h0 = s.spawn(|| drive(c0, 0, total, start_ns, interval_ns, wl, spec));
        let h1 = s.spawn(|| drive(c1, 1, total, start_ns, interval_ns, wl, spec));
        (
            h0.join().expect("client thread 0 panicked"),
            h1.join().expect("client thread 1 panicked"),
        )
    });
    let (steal1, total1) = cpu_jiffies();
    let steal = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    let mut recs = Vec::with_capacity(total as usize);
    let (mut a, mut b) = (out0.recs.into_iter(), out1.recs.into_iter());
    for k in 0..total {
        let next = if k % 2 == 0 { a.next() } else { b.next() };
        recs.extend(next);
    }
    PhaseOut {
        recs,
        backlog_end: out0.backlog_end + out1.backlog_end,
        aborted: out0.aborted || out1.aborted,
        start_ns,
        steal,
    }
}

struct ConnOut {
    recs: Vec<ReqRec>,
    backlog_end: u64,
    aborted: bool,
}

/// One connection's event loop: send what is due, read until the next
/// request is due, then drain.
fn drive(
    stream: &mut TcpStream,
    conn: u64,
    total: u64,
    start_ns: u64,
    interval_ns: f64,
    wl: &Workload,
    spec: PhaseSpec,
) -> ConnOut {
    let mine: Vec<u64> = (conn..total).step_by(2).collect();
    let mut recs: Vec<ReqRec> = mine
        .iter()
        .map(|&k| ReqRec::scheduled(start_ns + (k as f64 * interval_ns) as u64))
        .collect();
    let mut rx = FrameBuf::default();
    let mut tx: Vec<u8> = Vec::with_capacity(4096);
    let mut next = 0usize;
    let mut outstanding = 0usize;
    let mut backlog_end = 0u64;
    let mut aborted = false;
    let mut broken = false;
    let mut drain_until = None;
    loop {
        // Send everything that is due.
        let mut now = now_ns();
        while next < recs.len() && recs[next].due_ns <= now && !broken {
            if outstanding >= spec.abort_backlog {
                aborted = true;
                for rec in &mut recs[next..] {
                    rec.status = Status::Skipped;
                }
                next = recs.len();
                break;
            }
            let k = mine[next];
            let rec = &mut recs[next];
            rec.sent_ns = now;
            let (set, queries) = wl.request(spec.seed, k);
            let frame = QueryRequestFrame {
                request_id: u64::from(spec.tag) << 32 | k,
                tenant_id: 0,
                faults: wl.vocab.sets[set as usize].clone(),
                queries,
                ttl_ms: 0,
            };
            tx.clear();
            let encoded = write_frame(&mut tx, &frame.to_wire());
            if spec.traced {
                rec.encoded_ns = now_ns();
            }
            let written = encoded.and_then(|()| stream.write_all(&tx));
            if spec.traced {
                rec.written_ns = now_ns();
            }
            if written.is_err() {
                broken = true;
                break;
            }
            outstanding += 1;
            next += 1;
            now = now_ns();
        }
        if next == recs.len() && drain_until.is_none() {
            backlog_end = outstanding as u64;
            drain_until = Some(now + DRAIN.as_nanos() as u64);
        }
        if broken || outstanding == 0 && drain_until.is_some() {
            break;
        }
        if drain_until.is_some_and(|d| now >= d) {
            break;
        }
        // Wait for answers until the next send is due.
        let wait_ns = match drain_until {
            None => recs[next].due_ns.saturating_sub(now),
            Some(_) => 1_000_000,
        };
        if !wait_readable(stream, Duration::from_nanos(wait_ns.min(1_000_000))) {
            continue;
        }
        match rx.fill(stream) {
            Ok(0) => {}
            Ok(_) => {
                let recv_ns = now_ns();
                while let Some(body) = rx.next_frame() {
                    let decoded = QueryResponseFrame::from_wire(body);
                    let done_ns = now_ns();
                    let Ok(resp) = decoded else {
                        broken = true;
                        break;
                    };
                    if resp.request_id >> 32 != u64::from(spec.tag) {
                        // A straggler from an earlier phase, already
                        // counted there as unanswered.
                        continue;
                    }
                    // Even ids went out on connection 0, odd on 1.
                    let k = resp.request_id & 0xFFFF_FFFF;
                    let Some(rec) = (k % 2 == conn)
                        .then(|| recs.get_mut((k / 2) as usize))
                        .flatten()
                        .filter(|r| r.sent_ns != 0 && r.done_ns == 0)
                    else {
                        broken = true;
                        break;
                    };
                    settle(rec, resp, QUERIES_PER_REQUEST, recv_ns, done_ns);
                    outstanding -= 1;
                }
            }
            Err(_) => broken = true,
        }
    }
    if broken {
        // Whatever the dead socket still owed counts as an I/O failure,
        // sent or not.
        for rec in recs
            .iter_mut()
            .filter(|r| r.done_ns == 0 && r.status != Status::Skipped)
        {
            rec.status = Status::Io;
        }
    }
    ConnOut {
        recs,
        backlog_end,
        aborted,
    }
}

fn settle(rec: &mut ReqRec, resp: QueryResponseFrame, queries: usize, recv_ns: u64, done_ns: u64) {
    rec.recv_ns = recv_ns;
    rec.done_ns = done_ns;
    rec.epoch = resp.epoch;
    rec.status = match resp.status {
        ResponseStatus::Ok(bits) if bits.len() == queries => {
            rec.answers = bits
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i));
            Status::Ok
        }
        ResponseStatus::Ok(_) => Status::Protocol,
        ResponseStatus::ServerBusy { .. } => Status::Busy,
        ResponseStatus::DeadlineExceeded => Status::Deadline,
        ResponseStatus::EngineFailed => Status::EngineFailed,
        ResponseStatus::ShuttingDown => Status::ShuttingDown,
    };
}

/// Waits until `stream` has bytes to read (or is closed) or `timeout`
/// passes, with the precision of `ppoll`. A socket read timeout would not
/// do: the kernel rounds it up to whole scheduler ticks (up to 10 ms),
/// which would make the sender late by that much.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live locals laid out as the C `pollfd` and
    // `timespec` of 64-bit Linux (the only target this compiles for);
    // `nfds = 1` matches the single entry; a null `sigmask` leaves the
    // signal mask alone. `fd.fd` is an open socket borrowed from `stream`
    // for the whole call.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    ready > 0
}

/// Accumulates stream bytes and yields whole frame bodies; partial frames
/// survive read timeouts.
#[derive(Default)]
struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuf {
    /// One read into the buffer. `Ok(0)` on timeout; EOF is an error.
    fn fill(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let old = self.buf.len();
        self.buf.resize(old + 64 * 1024, 0);
        let got = r.read(&mut self.buf[old..]);
        self.buf.truncate(old + *got.as_ref().unwrap_or(&0));
        match got {
            Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => Ok(n),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(0),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// The next complete frame body, if buffered.
    fn next_frame(&mut self) -> Option<&[u8]> {
        let rest = &self.buf[self.pos..];
        let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
        rest.get(4..4 + len)?;
        let body = &self.buf[self.pos + 4..self.pos + 4 + len];
        self.pos += 4 + len;
        Some(body)
    }
}

/// Opens one client connection with Nagle off and bounded writes.
pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_write_timeout(Some(Duration::from_secs(2)))?;
    Ok(s)
}

/// Sends one request on a fresh connection and waits for its answer
/// (the set-up's "first answer").
pub fn one_request(
    addr: std::net::SocketAddr,
    frame: &QueryRequestFrame,
) -> std::io::Result<QueryResponseFrame> {
    let mut s = connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut tx = Vec::new();
    write_frame(&mut tx, &frame.to_wire())?;
    s.write_all(&tx)?;
    let mut rx = FrameBuf::default();
    loop {
        if let Some(body) = rx.next_frame() {
            return QueryResponseFrame::from_wire(body)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()));
        }
        if rx.fill(&mut s)? == 0 {
            return Err(ErrorKind::TimedOut.into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_survive_arbitrary_read_splits() {
        let mut wire = Vec::new();
        for id in 0..3u64 {
            let f = QueryResponseFrame {
                request_id: id,
                epoch: 1,
                status: ResponseStatus::Ok(vec![true, false]),
            };
            write_frame(&mut wire, &f.to_wire()).unwrap();
        }
        // Feed the stream one byte per read: every frame still comes out
        // whole and in order.
        let mut rx = FrameBuf::default();
        let mut got = Vec::new();
        for b in &wire {
            rx.fill(&mut std::slice::from_ref(b)).unwrap();
            while let Some(body) = rx.next_frame() {
                got.push(QueryResponseFrame::from_wire(body).unwrap().request_id);
            }
        }
        assert_eq!(got, vec![0, 1, 2]);
        assert!(rx.fill(&mut [].as_ref()).is_err(), "EOF is an error");
    }

    #[test]
    fn answers_pack_into_bits_and_wrong_counts_are_flagged() {
        let mut rec = ReqRec::scheduled(0);
        let resp = QueryResponseFrame {
            request_id: 0,
            epoch: 3,
            status: ResponseStatus::Ok(vec![true, false, true]),
        };
        settle(&mut rec, resp.clone(), 3, 1, 2);
        assert_eq!((rec.status, rec.answers, rec.epoch), (Status::Ok, 0b101, 3));
        settle(&mut rec, resp, 4, 1, 2);
        assert_eq!(rec.status, Status::Protocol);
    }
}
