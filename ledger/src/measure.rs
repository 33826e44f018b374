//! Clocks, quantiles, process counters, spans and provenance.

use std::time::Instant;

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of a float sample (mean of the middle pair).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of a sample.
pub fn mean(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.iter().map(|&x| x as f64).sum::<f64>() / ns.len() as f64
}

/// The host-speed probe: a fixed, cache-resident integer loop that
/// has nothing to do with the program under test, timed in ms. Runs
/// print it beside their figures, so a run made on a slow spell of a
/// shared host shows as one.
pub fn host_probe_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..2_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Whole-process resource counters (all threads, live and exited).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU, microseconds.
    pub user_us: f64,
    /// System CPU, microseconds.
    pub sys_us: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: f64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sync();
}

/// Write every dirty page of every filesystem back to disk and wait.
/// Run before and after the durable workload, so neither its own
/// writeback nor an earlier run's deletions (this host mounts with
/// `discard`) land inside another run's fsync timings.
pub fn settle_disk() {
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}

/// Words of the CPU mask (1024 CPUs, glibc's `cpu_set_t`).
const MASK_WORDS: usize = 16;

/// Pin the calling thread, and so every thread it starts later, to the
/// lowest CPU it may run on, returning that CPU. On a small VM a
/// wake-up that crosses vCPUs costs tens of microseconds and varies
/// run to run; with every thread on one CPU the benchmark measures the
/// program's own costs rather than the hypervisor's placement.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed,
    // holding a CPU the thread is already allowed to use.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

const RUSAGE_SELF: i32 = 0;
/// Indices of `ru_nvcsw` and `ru_nivcsw` among the fourteen longs.
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

impl Usage {
    /// The process's counters now.
    pub fn now() -> Usage {
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            rest: [0; 14],
        };
        // SAFETY: `ru` is a live, writable `struct rusage` of the
        // 64-bit Linux layout (two timevals then fourteen longs), which
        // is all getrusage writes; RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with valid arguments");
        let us = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
        Usage {
            user_us: us(&ru.utime),
            sys_us: us(&ru.stime),
            ctx_switches: (ru.rest[NVCSW] + ru.rest[NIVCSW]) as f64,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }

    /// User plus system CPU, microseconds.
    pub fn cpu_us(&self) -> f64 {
        self.user_us + self.sys_us
    }
}

/// A `/proc/self/status` field in kB, as MiB (0 when absent).
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set (VmHWM) since the last [`reset_peak_rss`], MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Reset VmHWM to the current resident set (by writing 5 to
/// `/proc/self/clear_refs`) and return that resident set, MiB.
pub fn reset_peak_rss() -> f64 {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("could not reset the peak resident set: {e}");
    }
    status_mib("VmRSS:")
}

/// Wait until `due` without sleeping: yield the CPU in a loop. A vCPU
/// that goes idle may be descheduled by the hypervisor and woken
/// milliseconds late, which would be charged to the paced request; a
/// yielding waiter keeps the vCPU busy but lets every other thread of
/// the benchmark run first.
pub fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// One timed call the benchmark made into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer call, e.g. `permis.decide`.
    pub name: &'static str,
    /// The request this call served (its index in the client stream,
    /// tagged with the client), 0 for calls outside any request.
    pub req: u64,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// A per-thread span buffer: spans stay in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    next: u64,
    /// Recorded spans.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A buffer for thread `lane`, timing against `epoch`.
    pub fn new(epoch: Instant, lane: u64) -> Tracer {
        Tracer { epoch, next: (lane << 40) + 1, spans: Vec::new() }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span: its id (so children can name it) and start time.
    pub fn open(&mut self) -> (u64, u64) {
        let id = self.next;
        self.next += 1;
        (id, self.now())
    }

    /// Finish a span opened with [`Tracer::open`].
    pub fn close(&mut self, (id, start_ns): (u64, u64), name: &'static str, parent: u64, req: u64) {
        let end_ns = self.now();
        self.spans.push(Span { id, parent, name, req, start_ns, end_ns });
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open();
        let r = f();
        self.close(open, name, parent, req);
        r
    }
}

/// Run `f`, inside a span when tracing.
pub fn call<R>(
    tr: &mut Option<Tracer>,
    name: &'static str,
    parent: u64,
    req: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.span(name, parent, req, f),
        None => f(),
    }
}

/// Where the run happened: printed with every result.
pub fn provenance(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    nproc: usize,
    pinned: Option<usize>,
    tmp: &std::path::Path,
) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    let sha_ni = cpuinfo
        .lines()
        .any(|l| l.starts_with("flags") && l.split_whitespace().any(|f| f == "sha_ni"));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let pinned = pinned.map_or_else(|| "null".to_owned(), |c| c.to_string());
    format!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\"nproc\":{nproc},\"pinned_cpu\":{pinned},\"cpu_model\":{},\"sha_ni\":{sha_ni},\"kernel\":{},\"tmp_fs\":{},\"commit\":{},\"build_profile\":{}}}}}",
        json_str(workload),
        json_str(&model),
        json_str(kernel.trim()),
        json_str(&filesystem_of(tmp)),
        json_str(&source_id()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release (thin LTO, codegen-units=1)" }),
    )
}

/// The filesystem type of the mount holding `path` (longest matching
/// mount point in /proc/mounts).
fn filesystem_of(path: &std::path::Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), format!("{fs} ({dev} on {mnt})")))
        })
        .max_by_key(|(n, _)| *n)
        .map_or_else(|| "unknown".into(), |(_, s)| s)
}

/// The commit when the checkout is a git work tree; otherwise a hash
/// of the sources the benchmark was built from (`crates/`, `ledger/`).
fn source_id() -> String {
    if std::path::Path::new(".git").exists() {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(out) = git {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_owned();
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "ledger/src"] {
        collect_files(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        for b in f.to_string_lossy().bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("source-fnv64:{h:016x}")
}

fn collect_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
