//! Outside-in tracing: a [`Transport`] wrapper that stamps every C1↔C2
//! request at both ends of the wire, plus `/proc` readers for per-thread
//! CPU time, thread counts and peak memory.
//!
//! Nothing here reaches into the program: the wrapper sits between the
//! engine's session layer and a plain [`TcpTransport`], and the `/proc`
//! readers observe the process from outside.

use sknn_protocols::stats::CommStats;
use sknn_protocols::transport::wire::Request;
use sknn_protocols::transport::{Frame, FrameKind, TcpTransport, Transport, TransportError};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One request's life, stitched together from both ends of the wire.
#[derive(Clone, Debug, Default)]
pub struct Span {
    pub tag: &'static str,
    pub request_bytes: usize,
    /// C1 handed the request to the socket.
    pub client_send: Option<Instant>,
    /// C1's session layer read the reply off the socket.
    pub client_reply: Option<Instant>,
    /// C2 read the request off the socket.
    pub server_recv: Option<Instant>,
    /// C2 handed the reply to the socket.
    pub server_reply: Option<Instant>,
}

impl Span {
    /// Send → reply at C1, and recv → reply at C2, when both are complete.
    pub fn durations(&self) -> Option<(Duration, Duration)> {
        let rtt = self
            .client_reply?
            .checked_duration_since(self.client_send?)?;
        let busy = self
            .server_reply?
            .checked_duration_since(self.server_recv?)?;
        Some((rtt, busy))
    }
}

/// The in-memory span store, keyed by (session, correlation id). Records
/// only while switched on, so set-up and warm-up traffic stay out.
#[derive(Default)]
pub struct Tracer {
    on: AtomicBool,
    spans: Mutex<BTreeMap<(usize, u64), Span>>,
}

impl Tracer {
    pub fn set_recording(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn recording(&self) -> bool {
        self.on.load(Ordering::SeqCst)
    }

    fn update(&self, key: (usize, u64), f: impl FnOnce(&mut Span)) {
        let mut spans = self.spans.lock().expect("span store poisoned");
        f(spans.entry(key).or_default());
    }

    /// Every span recorded so far, in (session, correlation id) order.
    pub fn spans(&self) -> Vec<((usize, u64), Span)> {
        let spans = self.spans.lock().expect("span store poisoned");
        spans.iter().map(|(k, s)| (*k, s.clone())).collect()
    }

    /// Writes the spans as CSV, times in microseconds since `origin`.
    pub fn write_csv(&self, path: &std::path::Path, origin: Instant) -> std::io::Result<()> {
        let us = |t: Option<Instant>| {
            t.map(|t| t.saturating_duration_since(origin).as_secs_f64() * 1e6)
                .map_or(String::new(), |v| format!("{v:.1}"))
        };
        let mut out = String::from(
            "session,correlation_id,tag,request_bytes,client_send_us,server_recv_us,server_reply_us,client_reply_us\n",
        );
        for ((session, cid), s) in self.spans() {
            let _ = writeln!(
                out,
                "{session},{cid},{},{},{},{},{},{}",
                s.tag,
                s.request_bytes,
                us(s.client_send),
                us(s.server_recv),
                us(s.server_reply),
                us(s.client_reply)
            );
        }
        std::fs::write(path, out)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// C1's side of the connection.
    Client,
    /// C2's side of the connection.
    Server,
}

/// A [`TcpTransport`] that reports each frame to a [`Tracer`].
pub struct TracedTransport {
    inner: TcpTransport,
    tracer: Arc<Tracer>,
    session: usize,
    end: End,
}

impl TracedTransport {
    pub fn new(inner: TcpTransport, tracer: Arc<Tracer>, session: usize, end: End) -> Self {
        TracedTransport {
            inner,
            tracer,
            session,
            end,
        }
    }
}

impl Transport for TracedTransport {
    fn send_frame(&self, frame: &Frame) -> Result<(), TransportError> {
        if self.tracer.recording() {
            let key = (self.session, frame.correlation_id);
            match (self.end, frame.kind) {
                (End::Client, FrameKind::Request) => {
                    // Decoded here, before the send stamp, so the decode
                    // shows up as C1 time in the tracing overhead rather
                    // than as wire time.
                    let tag =
                        Request::decode(frame.payload.clone()).map_or("undecodable", |r| r.name());
                    let bytes = frame.payload.len();
                    let now = Instant::now();
                    self.tracer.update(key, |s| {
                        s.tag = tag;
                        s.request_bytes = bytes;
                        s.client_send = Some(now);
                    });
                }
                (End::Server, FrameKind::Response | FrameKind::Error) => {
                    let now = Instant::now();
                    self.tracer.update(key, |s| s.server_reply = Some(now));
                }
                _ => {}
            }
        }
        self.inner.send_frame(frame)
    }

    fn recv_frame(&self) -> Result<Frame, TransportError> {
        let frame = self.inner.recv_frame()?;
        if self.tracer.recording() {
            let now = Instant::now();
            let key = (self.session, frame.correlation_id);
            match (self.end, frame.kind) {
                (End::Client, FrameKind::Response | FrameKind::Error) => {
                    self.tracer.update(key, |s| s.client_reply = Some(now));
                }
                (End::Server, FrameKind::Request) => {
                    self.tracer.update(key, |s| s.server_recv = Some(now));
                }
                _ => {}
            }
        }
        Ok(frame)
    }

    fn stats(&self) -> Arc<CommStats> {
        self.inner.stats()
    }

    fn close(&self) {
        self.inner.close();
    }
}

/// Totals over a set of complete spans.
#[derive(Debug, Default)]
pub struct SpanSummary {
    pub complete: usize,
    pub incomplete: usize,
    pub rtt_p50: Duration,
    /// Σ C1 send → reply.
    pub blocked: Duration,
    /// Σ C2 recv → reply.
    pub busy: Duration,
    pub by_tag: BTreeMap<&'static str, u64>,
}

pub fn summarize(spans: &[((usize, u64), Span)]) -> SpanSummary {
    let mut summary = SpanSummary::default();
    let mut rtts = Vec::new();
    for (_, span) in spans {
        match span.durations() {
            Some((rtt, busy)) => {
                summary.complete += 1;
                summary.blocked += rtt;
                summary.busy += busy;
                rtts.push(rtt.as_secs_f64());
                *summary.by_tag.entry(span.tag).or_default() += 1;
            }
            None => summary.incomplete += 1,
        }
    }
    summary.rtt_p50 = Duration::from_secs_f64(crate::stats::median(&rtts));
    summary
}

// ── /proc readers ───────────────────────────────────────────────────────

/// Linux reports CPU times in clock ticks of `USER_HZ`, which is 100 on
/// every mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

/// utime + stime, in seconds, from a `/proc/.../stat` line.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    // The command name may contain spaces; the fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Field 3 (state) is fields[0]; utime and stime are fields 14 and 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// CPU seconds the whole process has used (live and exited threads).
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// CPU seconds per live thread: tid → (comm, seconds).
pub fn thread_cpu_s() -> BTreeMap<u64, (String, f64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if let Some(cpu) = std::fs::read_to_string(path.join("stat"))
            .ok()
            .and_then(|s| stat_cpu_s(&s))
        {
            out.insert(tid, (comm.trim().to_string(), cpu));
        }
    }
    out
}

/// The thread groups CPU time is attributed to, by thread name.
pub const CPU_GROUPS: [&str; 3] = ["c1", "c2", "refill"];

/// Maps a thread name onto a [`CPU_GROUPS`] entry. Unnamed threads inherit
/// their creator's name, so C2's serve workers land in `c2`, and C1's
/// `parallel_map` workers land in `c1` with the main thread and the
/// session's reply demultiplexer.
pub fn cpu_group(comm: &str) -> &'static str {
    if comm.starts_with("sknn-c2-") || comm.starts_with("sknn-keyholder") {
        "c2"
    } else if comm.starts_with("sknn-paillier") {
        "refill"
    } else {
        "c1"
    }
}

/// CPU seconds per group between two snapshots. Threads that exited in
/// between are invisible per-thread, so `c1` is the process total minus
/// the named groups (exited threads are C1's per-call workers).
pub fn group_cpu_delta(
    before: &BTreeMap<u64, (String, f64)>,
    after: &BTreeMap<u64, (String, f64)>,
    process_delta: f64,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = CPU_GROUPS.iter().map(|g| (*g, 0.0)).collect();
    for (tid, (comm, cpu)) in after {
        let group = cpu_group(comm);
        if group == "c1" {
            continue;
        }
        let start = before.get(tid).map_or(0.0, |(_, c)| *c);
        *out.entry(group).or_default() += cpu - start;
    }
    let named: f64 = out.values().sum();
    out.insert("c1", (process_delta - named).max(0.0));
    out
}

/// Peak resident set size (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Samples the process's thread count every few milliseconds until
/// stopped; the peak excludes the sampler's own thread.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<usize>,
}

impl ThreadSampler {
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("perfbench-sampler".into())
            .spawn(move || {
                let mut peak = 0;
                while !flag.load(Ordering::SeqCst) {
                    peak = peak.max(thread_count().saturating_sub(1));
                    std::thread::sleep(Duration::from_millis(5));
                }
                peak
            })
            .expect("spawn the thread-count sampler");
        ThreadSampler { stop, handle }
    }

    pub fn stop(self) -> usize {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("thread-count sampler panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_the_name() {
        let line = "42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(stat_cpu_s(line), Some(3.0));
    }

    #[test]
    fn groups_by_thread_name() {
        assert_eq!(cpu_group("sknn-c2-tcp-0"), "c2");
        assert_eq!(cpu_group("sknn-paillier-p"), "refill");
        assert_eq!(cpu_group("sknn-session-de"), "c1");
        assert_eq!(cpu_group("sknn-perfbench"), "c1");
    }

    #[test]
    fn exited_threads_are_charged_to_c1() {
        let before = BTreeMap::from([
            (1, ("main".to_string(), 1.0)),
            (2, ("sknn-c2-tcp-0".to_string(), 0.5)),
            (3, ("worker".to_string(), 0.2)),
        ]);
        let after = BTreeMap::from([
            (1, ("main".to_string(), 2.0)),
            (2, ("sknn-c2-tcp-0".to_string(), 1.0)),
            (4, ("sknn-paillier-p".to_string(), 0.25)),
        ]);
        let d = group_cpu_delta(&before, &after, 2.0);
        assert_eq!(d["c2"], 0.5);
        assert_eq!(d["refill"], 0.25);
        assert_eq!(d["c1"], 1.25);
    }
}
