//! A fixed host-speed probe, timed between the measured passes.
//!
//! The probe is the benchmark's own code, frozen with it: ordered-map
//! inserts and removals, a float sort and float formatting, the same kinds
//! of work a replay and a render do. A change to the simulator cannot make
//! it faster or slower; only the host can.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

/// Keys the probe inserts per round.
const KEYS: u64 = 60_000;

/// Seconds [`probe`] takes on one thread, and on two, on the host the
/// benchmark was tuned on (two vCPUs of a 2.0 GHz Xeon, otherwise idle).
/// Normalised times are expressed in seconds of that host.
const REFERENCE_S: [f64; 2] = [0.0225, 0.12];

/// [`probe`]'s reference seconds on `threads` threads (one or two).
pub fn reference_s(threads: usize) -> f64 {
    REFERENCE_S[usize::from(threads > 1)]
}

/// The probe, in seconds: on one thread, the faster of two rounds; on
/// more, one hand-off round, which has to live through the same host
/// descheduling a threaded replay does, so it is not repeated for luck.
pub fn probe(threads: usize) -> f64 {
    if threads <= 1 {
        round().min(round())
    } else {
        handoff(threads)
    }
}

/// Epochs of one hand-off round.
const EPOCHS: usize = 800;

/// Ordered-map operations each worker does per epoch.
const OPS_PER_EPOCH: u32 = 400;

/// One hand-off round: `threads` persistent workers each take a small
/// batch of ordered-map work per epoch over a channel, and the calling
/// thread waits for every result before it starts the next epoch, the
/// shape of the threaded runner's epoch barrier. A host that deschedules
/// one worker stalls the epoch here as it does there. Returns seconds.
fn handoff(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<usize>();
        let work_txs: Vec<mpsc::Sender<u32>> = (0..threads)
            .map(|worker| {
                let (tx, rx) = mpsc::channel::<u32>();
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    let mut next = xorshift(0x9E37_79B9_7F4A_7C15 ^ worker as u64);
                    let mut map = BTreeMap::new();
                    while let Ok(ops) = rx.recv() {
                        for _ in 0..ops {
                            let key = next() % 8_192;
                            if map.remove(&key).is_none() {
                                map.insert(key, key);
                            }
                        }
                        if done_tx.send(map.len()).is_err() {
                            return;
                        }
                    }
                });
                tx
            })
            .collect();
        drop(done_tx);
        for _ in 0..EPOCHS {
            for tx in &work_txs {
                tx.send(OPS_PER_EPOCH).expect("workers outlive the epochs");
            }
            for _ in 0..threads {
                black_box(done_rx.recv().expect("workers outlive the epochs"));
            }
        }
    });
    start.elapsed().as_secs_f64()
}

/// A xorshift64 stream seeded with `x` (non-zero).
fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// One probe round; returns its seconds.
fn round() -> f64 {
    let start = Instant::now();
    let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
    let mut map = BTreeMap::new();
    for i in 0..KEYS {
        map.insert(next() % (KEYS * 4), i);
    }
    let mut values: Vec<f64> = Vec::with_capacity(KEYS as usize);
    for _ in 0..KEYS / 2 {
        let key = next() % (KEYS * 4);
        if let Some((&k, &v)) = map.range(key..).next() {
            map.remove(&k);
            values.push(v as f64 / (k as f64 + 1.0));
        }
    }
    values.sort_by(f64::total_cmp);
    let mut text = String::new();
    for v in &values {
        write!(text, "{v:?}, ").expect("writing to a String cannot fail");
    }
    black_box((map.len(), text.len()));
    start.elapsed().as_secs_f64()
}
