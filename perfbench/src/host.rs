//! Timing in reference-core milliseconds.
//!
//! The benchmark's host is a few cores of a shared machine. Other tenants
//! slow those cores by up to about 1.8x, for stretches of a fraction of a
//! second to minutes, and the wall time of the same computation follows:
//! on a 2-vCPU Xeon host, `delta_session`'s median pass read from 82 to
//! 129 ms in runs a few minutes apart. The process's CPU time reads the
//! same as its wall time, so the cores are not taken away; they run
//! slower.
//!
//! So compute-bound intervals are timed with a [`RefClock`]: at each lap
//! boundary it times a fixed reference kernel (code of the benchmark,
//! not of the program), and divides the lap's wall time by the host's
//! slow-down at the time, the mean of the kernel's two bounding readings
//! over [`REF_KERNEL_MS`]. A lap that costs the program the same work
//! then reads the same on a quiet or a busy host, while a change in the
//! program's own cost shows in full. Probe time is never inside a lap.

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on an undisturbed core of the host the
/// bounds were set on (Intel Xeon, 2 vCPUs); the fastest tenth of its
/// readings there lay at 0.37–0.41 ms. Only ratios of corrected times
/// are compared, so a different host shifts every corrected figure by
/// one constant factor.
pub const REF_KERNEL_MS: f64 = 0.40;

const KERNEL_WORDS: usize = 8192;
const KERNEL_ITERS: usize = 10_000;
const KERNEL_CHAINS: usize = 4;

/// One run of the reference kernel over `buf`, in ms: four independent
/// chains of random reads and writes over a 64 KiB array (past L1),
/// fused multiply-adds, a square root and an unpredictable branch per
/// step — the mix of the solvers' interpreter and interval loops. The
/// chains give it the solvers' instruction-level parallelism, which is
/// what a busy neighbour on the same core takes away: on a 2-vCPU Xeon
/// host, the δ cycle's and the SMC queries' time moved 1.2x and 1.0x
/// as much as this kernel's (log scale, medians of 20-pass windows over
/// 90 s), against 1.55x and 1.26x for a single chain; a second 100 s
/// study read 0.94x and 0.89x. A 1 MiB working set moved too much
/// (0.65x and 0.55x).
fn kernel_ms(buf: &mut [f64]) -> f64 {
    let t = Instant::now();
    let mut x = black_box([
        0x9e37_79b9_7f4a_7c15u64,
        0x1234_5678_9abc_def1,
        0x0fed_cba9_8765_4321,
        0x5555_aaaa_3333_cccc,
    ]);
    let mut acc = [1.0f64; KERNEL_CHAINS];
    for i in 0..KERNEL_ITERS {
        for c in 0..KERNEL_CHAINS {
            let mut y = x[c];
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            x[c] = y;
            let j = (y as usize) % KERNEL_WORDS;
            let v = buf[j].mul_add(0.999, ((i + c) as f64).sqrt() * 1e-3);
            buf[j] = if y & 8 == 0 {
                v
            } else {
                v.mul_add(0.5, acc[c])
            };
            acc[c] = acc[c] * 0.9999 + buf[(j + 7) % KERNEL_WORDS];
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// The host's slow-down now: the median of nine kernel runs over
/// [`REF_KERNEL_MS`].
pub fn slow_factor() -> f64 {
    let mut buf = vec![0.5; KERNEL_WORDS];
    let mut runs: Vec<f64> = (0..9).map(|_| kernel_ms(&mut buf)).collect();
    runs.sort_by(f64::total_cmp);
    runs[4] / REF_KERNEL_MS
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread and process it starts
/// later, to the lowest-numbered CPU it may run on, and returns that
/// CPU. A corrected workload runs so: the kernel then reads the core the
/// program computes on. Unpinned, the generator's probe and the daemon's
/// worker can sit on two vCPUs whose neighbours differ: in three pairs
/// of 15 s `smc_sweep` runs on a busy 2-vCPU host, corrected
/// `req_p50_ms` read 97–110 ms unpinned and 97–102 ms pinned.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// One lap of a [`RefClock`].
#[derive(Clone, Copy, Debug)]
pub struct Lap {
    pub wall_ms: f64,
    /// `wall_ms` in reference-core ms (equal to it when uncorrected).
    pub ref_ms: f64,
    /// The host's slow-down over the lap (1 when uncorrected).
    pub factor: f64,
}

/// A lap timer whose laps are corrected for the host's speed, or plain
/// wall time when built with `corrected = false` (then it never runs the
/// kernel).
pub struct RefClock {
    corrected: bool,
    buf: Vec<f64>,
    last_probe_ms: f64,
    mark: Instant,
}

impl RefClock {
    /// Probes the host and starts the first lap.
    pub fn start(corrected: bool) -> RefClock {
        let mut buf = vec![0.5; if corrected { KERNEL_WORDS } else { 0 }];
        let last_probe_ms = if corrected { kernel_ms(&mut buf) } else { 0.0 };
        RefClock {
            corrected,
            buf,
            last_probe_ms,
            mark: Instant::now(),
        }
    }

    /// Ends the current lap, probes the host, and starts the next lap.
    pub fn lap(&mut self) -> Lap {
        let wall_ms = self.mark.elapsed().as_secs_f64() * 1e3;
        let factor = if self.corrected {
            let probe_ms = kernel_ms(&mut self.buf);
            let f = (self.last_probe_ms + probe_ms) / 2.0 / REF_KERNEL_MS;
            self.last_probe_ms = probe_ms;
            f
        } else {
            1.0
        };
        self.mark = Instant::now();
        Lap {
            wall_ms,
            ref_ms: wall_ms / factor,
            factor,
        }
    }

    /// Starts the next lap now, dropping the time since the last one
    /// (bookkeeping between timed intervals); the last probe stays its
    /// opening reading.
    pub fn restart(&mut self) {
        self.mark = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncorrected_laps_are_wall_time() {
        let mut c = RefClock::start(false);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let lap = c.lap();
        assert_eq!(lap.factor, 1.0);
        assert_eq!(lap.ref_ms, lap.wall_ms);
        assert!(lap.wall_ms >= 2.0);
    }

    #[test]
    fn corrected_laps_divide_by_the_probed_factor() {
        let mut c = RefClock::start(true);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let lap = c.lap();
        assert!(lap.factor > 0.0 && lap.factor.is_finite());
        assert!((lap.ref_ms * lap.factor - lap.wall_ms).abs() < 1e-9);
    }
}
