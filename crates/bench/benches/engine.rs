//! Timing benches for the DES engine: the pending-event set and the RNG
//! streams. Plain `std::time` harness — see
//! `erapid_bench::timing` (the workspace builds offline, so no external
//! bench framework).

use desim::queue::BinaryHeapQueue;
use desim::rng::Pcg32;
use erapid_bench::timing::bench;
use std::hint::black_box;

/// Classic hold model: steady-state queue churn at a fixed population.
fn hold(q: &mut BinaryHeapQueue<u64>, ops: u64) {
    let mut rng = Pcg32::stream(1, 1);
    let mut now = 0u64;
    for i in 0..ops {
        let (t, _) = q.pop().expect("population stays positive");
        now = now.max(t);
        q.insert(now + 1 + rng.below(64) as u64, i);
    }
}

fn bench_queues() {
    for &population in &[64usize, 1024] {
        bench(
            &format!("event_queue_hold/binary_heap/{population}"),
            20,
            || {
                let mut q = BinaryHeapQueue::new();
                for i in 0..population {
                    q.insert(i as u64, i as u64);
                }
                q
            },
            |mut q| {
                hold(&mut q, 10_000);
                q.len()
            },
        );
    }
}

fn bench_rng() {
    bench(
        "pcg32_below/1M",
        20,
        || Pcg32::stream(7, 7),
        |mut rng| {
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc = acc.wrapping_add(rng.below(black_box(63)) as u64);
            }
            acc
        },
    );
    bench(
        "pcg32_bernoulli/1M",
        20,
        || Pcg32::stream(7, 8),
        |mut rng| {
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc += rng.bernoulli(black_box(0.02)) as u64;
            }
            acc
        },
    );
}

fn main() {
    bench_queues();
    bench_rng();
}
