//! Idle pollers: one `SCHED_IDLE` thread per CPU that spins while nothing
//! else wants the CPU, so the CPUs never halt.
//!
//! On a virtual machine a halted CPU is woken through the hypervisor, and
//! under host contention that wake-up can take milliseconds. A served
//! request crosses several threads (client, router, shard, client), so
//! halted CPUs would put the hypervisor's wake-up latency, not the serving
//! stack's, into every served metric: on the 2-vCPU host the README's
//! figures come from, a channel ping-pong between two threads has a p99
//! of 2.7 ms with halting CPUs and 0.12 ms with the pollers running. A
//! `SCHED_IDLE` thread yields to any runnable thread at once, so the
//! pollers take no CPU time from the program.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Linux `SCHED_IDLE` scheduling policy.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Moves the calling thread to `SCHED_IDLE`; false if the kernel refused.
fn make_idle() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live, properly laid out `struct sched_param`
    // for the duration of the call; pid 0 names the calling thread, and
    // the call reads nothing else.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// The running pollers; stopped and joined on drop.
pub struct IdlePollers {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdlePollers {
    pub fn start(cpus: usize) -> IdlePollers {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cpus)
            .map(|i| {
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("idle-poll-{i}"))
                    .spawn(move || {
                        // a poller that cannot be made idle would compete
                        // with the program, so it does not spin at all
                        if !make_idle() {
                            eprintln!("servebench: SCHED_IDLE refused, poller {i} not running");
                            return;
                        }
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    })
                    .expect("spawn idle poller")
            })
            .collect();
        IdlePollers { stop, threads }
    }
}

impl Drop for IdlePollers {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
