//! What Linux says about this process: CPU time from the process CPU
//! clock, per-thread run and run-queue-wait time from
//! `/proc/self/task/<tid>/schedstat`. Everything here observes the
//! program from outside; nothing is instrumented.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used so far: user and system time of
/// every thread, living or dead. The kernel counter behind the `utime`
/// and `stime` fields of `/proc/self/stat`, read in nanoseconds instead
/// of 10 ms clock ticks, in which a two-second window reads in half-percent
/// steps and two runs can read exactly alike.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` of the layout
    // 64-bit Linux uses; the call writes only into it and is thread-safe.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux has had a process CPU clock since 2.6.12");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// `(run_ns, run_queue_wait_ns)` from the text of a `schedstat` file.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_ascii_whitespace();
    let run = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    Some((run, wait))
}

/// Which pipeline stage an `actor-*` thread belongs to. Linux truncates
/// thread names to 15 bytes, so matching is by prefix.
pub fn stage_of(comm: &str) -> Option<Stage> {
    let comm = comm.trim_end();
    [
        ("actor-sensor", Stage::Sensor),
        ("actor-formula", Stage::Formula),
        ("actor-aggregat", Stage::Aggregator),
        ("actor-reporter", Stage::Reporter),
    ]
    .into_iter()
    .find(|(prefix, _)| comm.starts_with(prefix))
    .map(|(_, stage)| stage)
}

/// A pipeline stage as seen from the thread list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// The four `actor-sensor-*` threads.
    Sensor,
    /// `actor-formula-*`.
    Formula,
    /// `actor-aggregator`.
    Aggregator,
    /// Every `actor-reporter-*` thread.
    Reporter,
}

/// CPU and run-queue wait a stage's threads accumulated while sampled.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTime {
    /// Nanoseconds on a CPU.
    pub run_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU.
    pub wait_ns: u64,
}

#[derive(Debug, Clone)]
struct ThreadSeen {
    comm: String,
    first: (u64, u64),
    last: (u64, u64),
}

/// What the sampler saw between `start` and `stop`.
#[derive(Debug, Clone, Default)]
pub struct SamplerReport {
    /// Time per pipeline stage.
    pub stages: BTreeMap<Stage, StageTime>,
    /// Most threads alive at one poll (sampler thread included).
    pub max_threads: usize,
}

fn poll(seen: &mut BTreeMap<u64, ThreadSeen>) -> usize {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut alive = 0;
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        // A thread may exit between the listing and the reads; its last
        // good sample stands.
        let Some(stat) = std::fs::read_to_string(entry.path().join("schedstat"))
            .ok()
            .and_then(|t| parse_schedstat(&t))
        else {
            continue;
        };
        alive += 1;
        // A thread names itself after it starts, so a name read at first
        // sight may still be the parent's: read it at every poll.
        let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        let t = seen.entry(tid).or_insert_with(|| ThreadSeen {
            comm: String::new(),
            first: stat,
            last: stat,
        });
        t.last = stat;
        if !comm.is_empty() {
            t.comm.clear();
            t.comm.push_str(comm.trim_end());
        }
    }
    alive
}

/// The traced pass's one extra thread: polls every thread's `schedstat`
/// until stopped, keeping each thread's last reading so that a thread
/// that exits is still accounted up to its last poll.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<(BTreeMap<u64, ThreadSeen>, usize)>,
}

impl Sampler {
    /// Takes the baseline reading on the calling thread, then starts
    /// polling every `period`.
    pub fn start(period: Duration) -> Sampler {
        let mut seen = BTreeMap::new();
        let mut max_threads = poll(&mut seen);
        // Threads alive now are charged only for what they do from here.
        for t in seen.values_mut() {
            t.first = t.last;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("bench-sampler".into())
            .spawn(move || {
                // The flag publishes nothing but itself.
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    max_threads = max_threads.max(poll(&mut seen));
                }
                (seen, max_threads)
            })
            .expect("spawning the sampler thread");
        Sampler { stop, handle }
    }

    /// Stops polling and sums what each stage's threads used. Threads
    /// first seen after `start` count from zero: they were born inside
    /// the window.
    pub fn stop(self) -> SamplerReport {
        self.stop.store(true, Ordering::Relaxed);
        let (seen, max_threads) = self
            .handle
            .join()
            .expect("the sampler thread does not panic");
        let mut report = SamplerReport {
            max_threads,
            ..SamplerReport::default()
        };
        for t in seen.values() {
            if let Some(stage) = stage_of(&t.comm) {
                let e = report.stages.entry(stage).or_default();
                e.run_ns += t.last.0.saturating_sub(t.first.0);
                e.wait_ns += t.last.1.saturating_sub(t.first.1);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parser_reads_run_and_wait() {
        assert_eq!(parse_schedstat("123456 7890 42\n"), Some((123_456, 7_890)));
        assert_eq!(parse_schedstat("0 64280 1"), Some((0, 64_280)));
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("x y z"), None);
    }

    #[test]
    fn stages_are_recognised_from_truncated_thread_names() {
        assert_eq!(stage_of("actor-sensor-hp\n"), Some(Stage::Sensor));
        assert_eq!(stage_of("actor-sensor-ra"), Some(Stage::Sensor));
        assert_eq!(stage_of("actor-formula-0"), Some(Stage::Formula));
        assert_eq!(stage_of("actor-aggregato"), Some(Stage::Aggregator));
        assert_eq!(stage_of("actor-reporter-"), Some(Stage::Reporter));
        assert_eq!(stage_of("bench-sampler"), None);
        assert_eq!(stage_of("actor-model-hea"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_s() > before, "spinning costs CPU time");
        let text = std::fs::read_to_string("/proc/self/schedstat").unwrap();
        assert!(parse_schedstat(&text).is_some());
    }

    #[test]
    fn poll_charges_a_named_thread_for_its_spinning() {
        use std::sync::mpsc::channel;
        let (spun_tx, spun_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let worker = std::thread::Builder::new()
            .name("actor-formula-0-test".into())
            .spawn(move || {
                let until = std::time::Instant::now() + Duration::from_millis(40);
                let mut x = 0u64;
                while std::time::Instant::now() < until {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                spun_tx.send(()).unwrap();
                // Stay alive until the poll below has read this thread.
                let _ = release_rx.recv();
            })
            .unwrap();
        spun_rx.recv().unwrap();
        let mut seen = BTreeMap::new();
        let alive = poll(&mut seen);
        release_tx.send(()).unwrap();
        worker.join().unwrap();
        let spinner = seen
            .values()
            .find(|t| stage_of(&t.comm) == Some(Stage::Formula))
            .expect("the named thread is listed");
        assert!(spinner.last.0 > 10_000_000, "saw {spinner:?}");
        assert!(alive >= 2);
    }

    #[test]
    fn sampler_reports_only_what_happened_after_start() {
        let sampler = Sampler::start(Duration::from_millis(1));
        let report = sampler.stop();
        assert!(report.max_threads >= 1);
    }
}
