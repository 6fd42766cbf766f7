//! The timed loop shared by the op-based workloads, and the clocks it
//! reads.

use std::os::unix::thread::JoinHandleExt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long to warm up and how long to measure.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Warm-up lasts at least this many ops...
    pub warm_ops: usize,
    /// ...and at least this long, seconds.
    pub warm_s: f64,
    /// The timed phase lasts this long, seconds, and at least
    /// [`MIN_OPS`] ops.
    pub seconds: f64,
}

/// Fewest timed ops in a run, so traced runs time both parities.
const MIN_OPS: usize = 3;

/// What the timed loop saw.
#[derive(Debug, Default)]
pub struct Timed {
    /// Warm-up ops, excluded from every timing.
    pub warmup: usize,
    /// Each timed op's wall time, ms.
    pub wall_ms: Vec<f64>,
    /// Each timed op's CPU time over all threads of the process but the
    /// reference sampler's, ms.
    pub cpu_ms: Vec<f64>,
    /// Peak resident memory of the process before the first op, MiB.
    pub setup_peak_mb: f64,
    /// Each timed op's peak resident memory, MiB.
    pub peak_mb: Vec<f64>,
    /// CPU times of the reference kernel sampled through the timed
    /// phase, ms.
    pub reference_ms: Vec<f64>,
    /// Wall time of the timed phase, seconds.
    pub wall_s: f64,
    /// Ops that returned an error (warm-up included), with the first error.
    pub errors: u64,
    pub first_error: Option<String>,
}

/// Runs `op(i)` through the warm-up and then the timed phase, timing
/// each call on the wall clock and on the process CPU clock and taking
/// each timed call's peak resident memory. `sampler` samples the
/// reference kernel through the timed phase.
pub fn run_ops(
    budget: Budget,
    sampler: &ReferenceSampler,
    mut op: impl FnMut(u64) -> Result<(), String>,
) -> Result<Timed, String> {
    let mut t = Timed {
        setup_peak_mb: peak_rss_mb()?,
        ..Timed::default()
    };
    let mut next = 0u64;
    // `others_ms` reads the CPU time of this process's threads that are
    // not the op's, which the op's CPU time leaves out.
    let mut run = |t: &mut Timed, others_ms: &dyn Fn() -> f64| -> Option<(f64, f64)> {
        let i = next;
        next += 1;
        let (w0, c0) = (Instant::now(), cpu_ms() - others_ms());
        let result = op(i);
        let (wall, cpu) = (ms_since(w0), cpu_ms() - others_ms() - c0);
        match result {
            Ok(()) => Some((wall, cpu)),
            Err(e) => {
                t.errors += 1;
                t.first_error.get_or_insert(e);
                None
            }
        }
    };
    let warm_start = Instant::now();
    while t.warmup < budget.warm_ops || warm_start.elapsed().as_secs_f64() < budget.warm_s {
        run(&mut t, &|| 0.0);
        t.warmup += 1;
    }
    sampler.begin();
    let start = Instant::now();
    while t.wall_ms.len() + (t.errors as usize) < MIN_OPS
        || start.elapsed().as_secs_f64() < budget.seconds
    {
        reset_peak_rss()?;
        if let Some((wall, cpu)) = run(&mut t, &|| sampler.cpu_ms()) {
            t.wall_ms.push(wall);
            t.cpu_ms.push(cpu);
            t.peak_mb.push(peak_rss_mb()?);
        }
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t.reference_ms = sampler.end();
    Ok(t)
}

impl Timed {
    /// Timed ops' wall times split by op parity: `(even, odd)`. Traced
    /// runs trace the odd ops only, so this is `(untraced, traced)`.
    pub fn by_parity(&self) -> (Vec<f64>, Vec<f64>) {
        let (mut even, mut odd) = (Vec::new(), Vec::new());
        for (k, &ms) in self.wall_ms.iter().enumerate() {
            if (self.warmup + k).is_multiple_of(2) {
                even.push(ms);
            } else {
                odd.push(ms);
            }
        }
        (even, odd)
    }
}

/// Set-ups run at least this many times...
const MIN_SETUPS: usize = 5;
/// ...and until this much wall time has passed, seconds...
const SETUP_WINDOW_S: f64 = 2.0;
/// ...but at most this many times.
const MAX_SETUPS: usize = 1000;

/// Runs `setup` repeatedly (see [`MIN_SETUPS`]), timing each call, and
/// hands every result but the last to `discard` outside the timing.
/// Returns the last result and each call's wall time, seconds.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let built = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= MIN_SETUPS && start.elapsed().as_secs_f64() >= SETUP_WINDOW_S;
        if enough || times.len() >= MAX_SETUPS {
            return Ok((built, times));
        }
        discard(built);
    }
}

/// Peak resident memory of this process since it started or since the
/// last [`reset_peak_rss`], MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Resets the peak resident memory to the current resident memory.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting VmHWM via /proc/self/clear_refs: {e}"))
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn pthread_getcpuclockid(thread: std::os::unix::thread::RawPthread, clock: *mut i32) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_ms(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// CPU time consumed so far by every thread of this process, exited
/// threads included, ms.
pub fn cpu_ms() -> f64 {
    clock_ms(CLOCK_PROCESS_CPUTIME_ID)
}

/// Runs `f` with `IP_THREADS` set to `threads`, restoring the previous
/// setting afterwards. Call only while no other thread of this process
/// reads the environment.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let before = std::env::var("IP_THREADS").ok();
    std::env::set_var("IP_THREADS", threads.to_string());
    let out = f();
    match before {
        Some(v) => std::env::set_var("IP_THREADS", v),
        None => std::env::remove_var("IP_THREADS"),
    }
    out
}

/// Side of the reference kernel's square matrices.
const REFERENCE_N: usize = 48;
/// Matrix products per reference run (≈ 1.2 ms of CPU on the 2-vCPU host).
const REFERENCE_ROUNDS: usize = 30;
/// Reference runs per sample, back to back; the sample is their median,
/// so a run that the program's threads interrupted does not count.
const BURST: usize = 5;
/// Time between two reference runs of a [`ReferenceSampler`].
const REFERENCE_PERIOD: Duration = Duration::from_millis(200);
/// Most samples a [`ReferenceSampler`] keeps per timed phase: 800 s at
/// one per period, longer than any run.
const MAX_REFERENCE_SAMPLES: usize = 4000;

/// The reference kernel: a fixed chain of dense 48 × 48 matrix products
/// on the stack (55 KiB), which touches no program code and no allocator.
fn reference_kernel() -> f64 {
    const N: usize = REFERENCE_N;
    let mut a = [0.0f64; N * N];
    for (i, v) in a.iter_mut().enumerate() {
        *v = ((i * 7919) % 1000) as f64 / 1000.0;
    }
    let mut b = a;
    let mut c = [0.0f64; N * N];
    for _ in 0..REFERENCE_ROUNDS {
        c.fill(0.0);
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        for (bv, cv) in b.iter_mut().zip(&c) {
            *bv = cv / N as f64;
        }
        std::hint::black_box(&mut b);
    }
    b.iter().sum()
}

/// A thread of the benchmark's own that takes one sample of the
/// reference kernel every [`REFERENCE_PERIOD`] between
/// [`ReferenceSampler::begin`] and [`ReferenceSampler::end`]: the median
/// CPU time, on its own clock, of [`BURST`] runs back to back. A sample
/// takes ≈ 6 ms of one CPU in every 200 ms.
///
/// The host's speed wanders: the same single-threaded work took 5 ms in
/// one moment and 10 ms the next, and CPU time per op moved by a quarter
/// between sets of runs minutes apart. The kernel's mean CPU time over
/// the timed phase measures how fast the host ran during it, so an op's
/// CPU time divided by it is a cost that moves little with the host (see
/// `op_cost_refs` in the README). Sampling beside the ops, rather than
/// between them, follows the host through each op.
///
/// The thread is spawned when the process starts, before the program
/// spawns any, and idles outside the timed phase. A sampler thread
/// started later, just before the timed phase, took whichever malloc
/// arena the program's short-lived `ip-par` threads had left free, and
/// `fleet-replay`'s peak memory read 315–409 MiB from run to run instead
/// of 317–319 MiB.
pub struct ReferenceSampler {
    shared: Arc<SamplerState>,
    thread: Option<JoinHandle<()>>,
}

struct SamplerState {
    /// Sampling is on (between `begin` and `end`).
    active: AtomicBool,
    /// The thread should exit.
    exit: AtomicBool,
    /// The samples of the current timed phase, ms. Held while a kernel
    /// run is timed, so `end` waits for the run in progress.
    samples: Mutex<Vec<f64>>,
}

impl ReferenceSampler {
    pub fn spawn() -> Self {
        let shared = Arc::new(SamplerState {
            active: AtomicBool::new(false),
            exit: AtomicBool::new(false),
            samples: Mutex::new(Vec::with_capacity(MAX_REFERENCE_SAMPLES)),
        });
        let state = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("perfbench-reference".into())
            .spawn(move || {
                let mut next = Instant::now();
                while !state.exit.load(Ordering::Acquire) {
                    if !state.active.load(Ordering::Acquire) {
                        std::thread::park();
                        next = Instant::now() + REFERENCE_PERIOD;
                        continue;
                    }
                    let now = Instant::now();
                    if now < next {
                        // `end` and `drop` unpark it early.
                        std::thread::park_timeout(next - now);
                        continue;
                    }
                    next += REFERENCE_PERIOD;
                    let mut samples = state.samples.lock().expect("sampler lock");
                    if state.active.load(Ordering::Acquire) && samples.len() < samples.capacity() {
                        let mut burst = [0.0f64; BURST];
                        for v in burst.iter_mut() {
                            let c0 = clock_ms(CLOCK_THREAD_CPUTIME_ID);
                            std::hint::black_box(reference_kernel());
                            *v = clock_ms(CLOCK_THREAD_CPUTIME_ID) - c0;
                        }
                        burst.sort_by(f64::total_cmp);
                        samples.push(burst[BURST / 2]);
                    }
                }
            })
            .expect("spawning the reference sampler");
        Self {
            shared,
            thread: Some(thread),
        }
    }

    /// Starts sampling, dropping any earlier samples.
    pub fn begin(&self) {
        self.shared.samples.lock().expect("sampler lock").clear();
        self.shared.active.store(true, Ordering::Release);
        self.unpark();
    }

    /// Stops sampling, waits for the run in progress, and returns the
    /// samples since [`ReferenceSampler::begin`], ms.
    pub fn end(&self) -> Vec<f64> {
        self.shared.active.store(false, Ordering::Release);
        self.unpark();
        self.shared.samples.lock().expect("sampler lock").clone()
    }

    /// CPU time the sampler's thread has used so far, ms.
    pub fn cpu_ms(&self) -> f64 {
        let thread = self.thread.as_ref().expect("the sampler is running");
        let mut clock = 0i32;
        // SAFETY: the thread has not been joined, so its `pthread_t` is
        // valid, and `clock` is a writable `clockid_t`.
        let rc = unsafe { pthread_getcpuclockid(thread.as_pthread_t(), &mut clock) };
        assert_eq!(rc, 0, "pthread_getcpuclockid failed");
        clock_ms(clock)
    }

    fn unpark(&self) {
        if let Some(t) = &self.thread {
            t.thread().unpark();
        }
    }
}

impl Drop for ReferenceSampler {
    fn drop(&mut self) {
        self.shared.exit.store(true, Ordering::Release);
        self.unpark();
        if let Some(t) = self.thread.take() {
            t.join().expect("reference sampler panicked");
        }
    }
}
