//! Calibration kernel: a fixed piece of host work that shares no code with
//! the simulators, timed between passes to gauge how fast the host runs.
//!
//! The guest this benchmark runs on shares its cores, caches and memory
//! bus with other tenants, and its speed drifts by up to 2x over seconds
//! to minutes with no steal time to show for it. Pass times and kernel
//! times drift together, so their ratio moves far less than either.
//! The kernel mixes what the simulators spend their time on: ordered-map
//! inserts and removals, data-dependent branches, and scattered reads and
//! writes over a working set larger than L1.

use crate::trace::now_ns;
use std::collections::BTreeMap;
use std::time::Instant;

/// Host seconds of the median chunk on the reference host: a 2.1 GHz
/// Xeon vCPU in a quiet stretch. Normalized times are host seconds at
/// that speed.
pub const REFERENCE_S: f64 = 0.0100;

/// Chunks timed after each pass, per worker thread: enough that their
/// median is as steady as the median pass.
pub const CHUNKS_PER_PASS: usize = 8;

const SLOTS: usize = 1 << 17;

/// Times [`CHUNKS_PER_PASS`] chunks on each of `workers` threads at once,
/// so that the kernel meets the same sharing of the cores as a pass on
/// that many workers does.
pub fn measure(workers: usize, origin: Instant) -> Vec<u64> {
    let time_chunks = || {
        (0..CHUNKS_PER_PASS)
            .map(|_| {
                let t0 = now_ns(origin);
                std::hint::black_box(chunk());
                now_ns(origin) - t0
            })
            .collect::<Vec<u64>>()
    };
    if workers <= 1 {
        return time_chunks();
    }
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..workers).map(|_| scope.spawn(time_chunks)).collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("the calibration kernel does not panic"))
            .collect()
    })
}

/// One chunk of calibration work; returns a checksum so that none of it
/// can be optimized away.
pub fn chunk() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut slots = vec![0u64; SLOTS];
    let mut acc = 0u64;
    for i in 0..100_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 4096;
        *map.entry(key).or_default() += i;
        if x & 3 == 0 {
            map.remove(&(key ^ 1));
        }
        let j = (x >> 20) as usize & (SLOTS - 1);
        slots[j] = slots[j].wrapping_add(x);
        acc = acc.wrapping_add(slots[(j * 7) & (SLOTS - 1)]);
        if acc & 1 == 1 {
            acc = acc.rotate_left(3);
        }
    }
    acc ^ map.len() as u64
}
